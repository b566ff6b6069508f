// Passes over cells: run them directly through exp::Cell, or through the
// resilient sweep, and check every result against physics the benchmark can
// verify from outside.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "exp/cache.hpp"
#include "exp/cell.hpp"
#include "exp/result_digest.hpp"
#include "exp/sweep.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/snapshot.hpp"

namespace perfbench {

namespace ex = elephant::exp;
using elephant::sim::Time;

void CellCounts::add(const CellCounts& o) {
  events += o.events;
  heap_peak = std::max(heap_peak, o.heap_peak);
  btl_segments += o.btl_segments;
  btl_tx_bytes += o.btl_tx_bytes;
  node_arrivals += o.node_arrivals;
  aqm_enqueued += o.aqm_enqueued;
  aqm_dropped += o.aqm_dropped;
  aqm_offered += o.aqm_offered;
  aqm_ecn_marked += o.aqm_ecn_marked;
  units_sent += o.units_sent;
  retx_units += o.retx_units;
  rtos += o.rtos;
  acks += o.acks;
  flows += o.flows;
  arena_bytes += o.arena_bytes;
  scoreboard_peak_bytes = std::max(scoreboard_peak_bytes, o.scoreboard_peak_bytes);
}

int host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::uint64_t fold_digests(const std::vector<CellOutcome>& cells) {
  std::uint64_t h = elephant::sim::kFnvOffset;
  for (const CellOutcome& c : cells) h = elephant::sim::fnv1a_fold(h, c.digest);
  return h;
}

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0; }

/// Wire bytes of a full data unit (agg segments + headers).
std::uint64_t unit_wire_bytes(const ExperimentConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.effective_aggregation()) * cfg.mss +
         elephant::net::kHeaderBytes;
}

/// Checks a finished cell the simulator's own invariants do not cover.
/// Returns "" when every check holds.
std::string check_result(const ExperimentConfig& cfg, const ex::ExperimentResult& res,
                         std::uint64_t btl_tx_bytes) {
  // Bottleneck capacity: the port cannot have sent more than rate × time,
  // plus the one packet already serializing at the deadline.
  const double cap_bytes = cfg.bottleneck_bps * cfg.effective_duration().sec() / 8.0 +
                           static_cast<double>(unit_wire_bytes(cfg));
  if (static_cast<double>(btl_tx_bytes) > cap_bytes) {
    return "bottleneck sent " + std::to_string(btl_tx_bytes) + " B > capacity " +
           std::to_string(cap_bytes) + " B";
  }
  for (const ex::FlowResult& f : res.flows) {
    if (!finite_nonneg(f.throughput_bps)) {
      return "flow " + std::to_string(f.flow) + " throughput not finite";
    }
  }
  if (!finite_nonneg(res.sender_bps[0]) || !finite_nonneg(res.sender_bps[1])) {
    return "sender throughput not finite";
  }
  if (!(res.jain2 > 0 && res.jain2 <= 1)) return "jain2 outside (0, 1]";
  for (const ex::ClassResult& c : res.classes) {
    if (!(c.jain > 0 && c.jain <= 1)) return "class " + c.name + " jain outside (0, 1]";
    if (c.completed == 0) return "class " + c.name + " completed no flow";
  }
  return "";
}

CellCounts read_counts(ex::Cell& cell) {
  CellCounts k;
  auto& net = cell.network();
  const auto& qs = net.bottleneck().qdisc().stats();
  k.events = cell.scheduler().executed_events();
  k.heap_peak = cell.scheduler().peak_pending_events();
  k.btl_segments = net.bottleneck().tx_packets();
  k.btl_tx_bytes = net.bottleneck().tx_bytes();
  // Every packet a port sends arrives at the next node, so node arrivals
  // count port transmissions (hops) without reaching the port list.
  k.node_arrivals = net.router1().forwarded() + net.router1().no_route_drops() +
                    net.router2().forwarded() + net.router2().no_route_drops();
  for (int i = 0; i < 2; ++i) {
    k.node_arrivals += net.client(i).delivered() + net.client(i).no_endpoint_drops();
    k.node_arrivals += net.server(i).delivered() + net.server(i).no_endpoint_drops();
  }
  k.aqm_enqueued = qs.enqueued;
  k.aqm_dropped = qs.total_dropped();
  // FIFO drops arriving packets; FQ-CoDel enqueues every arrival and then
  // culls queued ones, so its drops are already among the enqueued.
  k.aqm_offered = qs.enqueued + (cell.config().aqm == elephant::aqm::AqmKind::kFifo
                                     ? k.aqm_dropped
                                     : 0);
  k.aqm_ecn_marked = qs.ecn_marked;
  const ex::FlowFactory& flows = cell.flows();
  k.flows = flows.size();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& st = flows.flow(i).sender->stats();
    k.units_sent += st.units_sent;
    k.retx_units += st.retx_units;
    k.rtos += st.rtos;
    k.acks += st.acks_received;
  }
  k.arena_bytes = flows.arena_bytes();
  k.scoreboard_peak_bytes = flows.scoreboard_peak_bytes();
  return k;
}

/// One cell through exp::Cell: construct, one run_chunk per simulated
/// second, finalize, digest, check.
CellOutcome run_one(const ExperimentConfig& base, std::size_t index, int pass,
                    const Observe& obs) {
  CellOutcome out;
  out.index = index;
  out.pass = pass;
  out.id = base.id();
  out.sim_s = base.effective_duration().sec();

  ExperimentConfig cfg = base;
  std::unique_ptr<elephant::trace::Tracer> tracer;
  std::unique_ptr<elephant::obs::MetricsRegistry> reg;
  if (obs.trace) {
    out.sink = std::make_shared<CountingSink>(index == 0 ? obs.capture_arrivals : 0,
                                              cfg.aqm == elephant::aqm::AqmKind::kFifo);
    tracer = std::make_unique<elephant::trace::Tracer>(*out.sink);
    cfg.tracer = tracer.get();
    reg = std::make_unique<elephant::obs::MetricsRegistry>();
    cfg.metrics = reg.get();
  }
  SpanLog* spans = obs.trace ? obs.spans : nullptr;
  const std::uint32_t cell_span = spans ? spans->open("cell " + out.id, obs.parent_span) : 0;

  const auto t0 = Clock::now();
  try {
    const std::uint32_t s_setup = spans ? spans->open("exp::Cell", cell_span) : 0;
    ex::Cell cell(cfg);
    out.setup_s = seconds_since(t0);
    if (spans) spans->close(s_setup);

    const Time end = cell.duration();
    out.loop_s = 0;
    for (Time next = Time::seconds(1);; next = next + Time::seconds(1)) {
      const Time deadline = std::min(next, end);
      const std::uint32_t s_chunk = spans ? spans->open("run_chunk", cell_span) : 0;
      const auto c0 = Clock::now();
      cell.run_chunk(0, deadline);
      const double dt = seconds_since(c0);
      if (spans) spans->close(s_chunk);
      out.chunk_wall_s.push_back(dt);
      out.loop_s += dt;
      if (deadline >= end) break;
    }

    const std::uint32_t s_fin = spans ? spans->open("finalize", cell_span) : 0;
    const auto f0 = Clock::now();
    const ex::ExperimentResult res = cell.finalize();
    out.finalize_s = seconds_since(f0);
    if (spans) spans->close(s_fin);

    const std::uint32_t s_dig = spans ? spans->open("metrics_digest", cell_span) : 0;
    out.digest = ex::metrics_digest(res);
    if (spans) spans->close(s_dig);

    out.wall_s = seconds_since(t0);
    out.counts = read_counts(cell);
    out.events = out.counts.events;
    out.units = out.counts.btl_segments;
    out.error = check_result(cfg, res, out.counts.btl_tx_bytes);
    out.ok = out.error.empty();
  } catch (const std::exception& e) {
    out.wall_s = seconds_since(t0);
    out.error = e.what();
    out.ok = false;
  }
  if (tracer) tracer->flush();
  if (spans) spans->close(cell_span);
  if (obs.metrics != nullptr && reg) obs.metrics->merge_from(*reg);
  return out;
}

}  // namespace

std::vector<CellOutcome> run_direct(const std::vector<ExperimentConfig>& cells, int pass,
                                    int threads, const Observe& obs) {
  std::vector<CellOutcome> out(cells.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < cells.size(); i = next.fetch_add(1)) {
      out[i] = run_one(cells[i], i, pass, obs);
    }
  };
  const int n = std::max(1, std::min<int>(threads, static_cast<int>(cells.size())));
  if (n == 1) {
    worker();
    return out;
  }
  std::vector<std::jthread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) pool.emplace_back(worker);
  pool.clear();  // joins
  return out;
}

std::vector<CellOutcome> run_direct_loop(const Workload& w, std::uint64_t seed, double seconds,
                                         double* loop_wall_s) {
  std::vector<CellOutcome> out;
  const auto t0 = Clock::now();
  for (int pass = 0;; ++pass) {
    const std::vector<ExperimentConfig> cells = w.cells(seed, pass);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (pass > 0 && seconds_since(t0) >= seconds) {
        *loop_wall_s = seconds_since(t0);
        return out;
      }
      out.push_back(run_one(cells[i], i, pass, Observe{}));
    }
    if (seconds_since(t0) >= seconds) break;
  }
  *loop_wall_s = seconds_since(t0);
  return out;
}

namespace {

/// Digest of the per-cell statistics a sweep hands back (AveragedResult):
/// the same behavioural fields metrics_digest folds first, doubles by bit
/// pattern. The sweep returns no per-flow or queue detail to fold.
std::uint64_t sweep_digest(const ex::AveragedResult& r) {
  using elephant::sim::fnv1a_fold;
  auto bits = [](double v) {
    std::uint64_t u = 0;
    static_assert(sizeof u == sizeof v);
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  std::uint64_t h = elephant::sim::kFnvOffset;
  h = fnv1a_fold(h, bits(r.sender_bps[0]));
  h = fnv1a_fold(h, bits(r.sender_bps[1]));
  h = fnv1a_fold(h, bits(r.jain2));
  h = fnv1a_fold(h, bits(r.utilization));
  h = fnv1a_fold(h, bits(r.retx_segments));
  h = fnv1a_fold(h, bits(r.rtos));
  return h;
}

}  // namespace

SweepPass run_sweep_pass(const std::vector<ExperimentConfig>& cells, int pass,
                         const std::string& dir, const Observe& obs) {
  SweepPass out;
  out.threads = host_threads();

  // Traced sweeps give every cell its own recorder: configs are copied per
  // cell, so cells running on different workers never share a Tracer.
  std::vector<ExperimentConfig> configs = cells;
  std::vector<std::shared_ptr<CountingSink>> sinks;
  std::vector<std::unique_ptr<elephant::trace::Tracer>> tracers;
  if (obs.trace) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      sinks.push_back(std::make_shared<CountingSink>(i == 0 ? obs.capture_arrivals : 0,
                                                     configs[i].aqm ==
                                                         elephant::aqm::AqmKind::kFifo));
      tracers.push_back(std::make_unique<elephant::trace::Tracer>(*sinks.back()));
      configs[i].tracer = tracers.back().get();
    }
  }

  std::vector<double> done_at(cells.size(), 0);
  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < cells.size(); ++i) index_of[cells[i].id()] = i;

  ex::SweepOptions opt;
  opt.threads = out.threads;
  opt.use_cache = true;
  opt.manifest_path = std::filesystem::path(dir) / ("manifest-pass" + std::to_string(pass) +
                                                    (obs.trace ? "-traced" : "") + ".jsonl");
  opt.metrics = obs.metrics;
  if (obs.spans != nullptr) {
    opt.on_result = [&](const ex::AveragedResult& r, std::size_t, std::size_t) {
      const auto it = index_of.find(r.config.id());
      if (it != index_of.end()) done_at[it->second] = obs.spans->now_s();
    };
  }

  const std::uint32_t sweep_span =
      obs.spans ? obs.spans->open("run_sweep_resilient", obs.parent_span) : 0;
  const auto t0 = Clock::now();
  const ex::SweepReport report = ex::run_sweep_resilient(configs, opt);
  out.wall_s = seconds_since(t0);
  if (obs.spans) obs.spans->close(sweep_span);

  // The cache holds each cell's full ExperimentResult summary, including the
  // executed-event count the AveragedResult drops.
  ex::ResultCache cache(ex::ResultCache::global().dir());
  double cap_bytes = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ex::RunRecord& rec = report.records[i];
    CellOutcome c;
    c.index = i;
    c.pass = pass;
    c.id = cells[i].id();
    c.wall_s = rec.wall_s;
    c.sim_s = cells[i].effective_duration().sec();
    c.sink = obs.trace ? sinks[i] : nullptr;
    if (!rec.success()) {
      c.error = ex::to_string(rec.status) + std::string(": ") + rec.error;
    } else {
      const ex::AveragedResult& r = rec.result;
      c.digest = sweep_digest(r);
      if (!finite_nonneg(r.sender_bps[0]) || !finite_nonneg(r.sender_bps[1])) {
        c.error = "sender throughput not finite";
      } else if (!(r.jain2 > 0 && r.jain2 <= 1)) {
        c.error = "jain2 outside (0, 1]";
      }
      if (!obs.trace) {
        if (const auto cached = cache.load(cells[i])) c.events = cached->events_executed;
      }
    }
    c.ok = c.error.empty();
    if (obs.spans != nullptr && done_at[i] > 0) {
      obs.spans->add("sweep cell " + c.id, sweep_span, done_at[i] - rec.wall_s, done_at[i]);
    }
    cap_bytes += cells[i].bottleneck_bps * c.sim_s / 8.0 +
                 static_cast<double>(unit_wire_bytes(cells[i]));
    out.cells.push_back(std::move(c));
  }
  for (auto& t : tracers) t->flush();

  if (obs.metrics != nullptr) {
    elephant::obs::MetricsRegistry& reg = *obs.metrics;
    std::lock_guard lock(reg.mutex());
    reg.for_each_counter([&](const std::string& name, const elephant::obs::Counter& c) {
      if (name == "queue.dequeued") out.btl_segments = c.value();
    });
    reg.for_each_histogram([&](const std::string& name, const elephant::obs::LogLinHistogram& h) {
      if (name == "prof.cell_run_s") out.loop_s = h.sum();
    });
  }
  // Every elephant unit is full-sized, so dequeued × unit size is the bytes
  // the bottleneck sent; it cannot exceed capacity × duration over the pass.
  if (!cells.empty()) {
    out.bytes_ok =
        static_cast<double>(out.btl_segments * unit_wire_bytes(cells[0])) <= cap_bytes;
  }
  return out;
}

std::uint64_t one_shot_digest(const ExperimentConfig& cfg) {
  ex::Cell cell(cfg);
  return ex::metrics_digest(cell.run_to_completion());
}

double setup_median_s(const std::vector<ExperimentConfig>& cells, int min_passes,
                      double min_total_s, int* passes) {
  std::vector<double> totals;
  double spent = 0;
  while (totals.size() < static_cast<std::size_t>(min_passes) ||
         (spent < min_total_s && totals.size() < 200)) {
    double total = 0;
    for (const ExperimentConfig& cfg : cells) {
      const auto t0 = Clock::now();
      auto cell = std::make_unique<ex::Cell>(cfg);
      total += seconds_since(t0);
    }
    totals.push_back(total);
    spent += total;
  }
  *passes = static_cast<int>(totals.size());
  std::sort(totals.begin(), totals.end());
  return totals[totals.size() / 2];
}

}  // namespace perfbench
