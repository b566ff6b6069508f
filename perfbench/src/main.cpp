// elephant_perfbench: the repository's end-to-end benchmark.
//
//   elephant_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                      [--smoke] [--commit SHA]
//
// --trace 0 times the workload with every observer off and prints the
// end-to-end metrics; --trace 1 makes the separate per-layer pass (untraced
// accessor counts, then a traced run with the flight recorder feeding a
// counting sink, the metrics registry, and the benchmark's own spans). The
// last stdout line is one JSON object {correct, attempted, failed, metrics};
// cells.csv, summary.json and (traced) spans.json land in --out. Run it
// through perfbench/run.py, which builds it first.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "exp/cache.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using elephant::trace::RecordType;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  bool smoke = false;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count or source, printed beside the value
};

struct Context {
  int nproc = 0;
  std::string cpu;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string commit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: elephant_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR [--smoke] [--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val().c_str());
    } else if (k == "--trace") {
      a.trace = std::atoi(val().c_str());
    } else if (k == "--out") {
      a.out = val();
    } else if (k == "--commit") {
      a.commit = val();
    } else if (k == "--smoke") {
      a.smoke = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out are required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Everything one run reports.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::vector<CellOutcome>>> rows;  ///< per run kind
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::uint64_t digest_fold = 0;
  std::size_t digest_cells = 0;
};

void count_cells(const std::vector<CellOutcome>& cells, Report* r) {
  for (const CellOutcome& c : cells) {
    ++r->attempted;
    if (!c.ok) r->failures.push_back(c.id + ": " + c.error);
  }
}

std::vector<CellOutcome> pass0(const std::vector<CellOutcome>& cells) {
  std::vector<CellOutcome> out;
  for (const CellOutcome& c : cells) {
    if (c.pass == 0) out.push_back(c);
  }
  return out;
}

// ------------------------------------------------------------- end to end

Report end_to_end(const Workload& w, const Args& a) {
  Report r;
  const std::vector<ExperimentConfig> cells0 = w.cells(a.seed, 0);
  // Set-up time: construct every pass-0 cell without running it, several
  // times, and take the median pass.
  int setup_passes = 0;
  const double setup_s = setup_median_s(cells0, a.smoke ? 3 : 7, a.smoke ? 0 : 0.5,
                                        &setup_passes);

  std::vector<CellOutcome> rows;
  double cells_wall = 0;  ///< denominator of cells_per_hour
  double loop_s = 0;      ///< event-loop wall
  double segments = 0;
  if (w.sweep) {
    const auto t0 = Clock::now();
    for (int pass = 0; pass == 0 || seconds_since(t0) < a.seconds; ++pass) {
      elephant::obs::MetricsRegistry reg;
      Observe obs;
      obs.metrics = &reg;
      SweepPass sp = run_sweep_pass(w.cells(a.seed, pass), pass, a.out, obs);
      cells_wall += sp.wall_s;
      loop_s += sp.loop_s;
      segments += static_cast<double>(sp.btl_segments);
      if (!sp.bytes_ok) {
        r.failures.push_back("sweep pass " + std::to_string(pass) +
                             ": bottleneck bytes exceed capacity × duration");
      }
      rows.insert(rows.end(), sp.cells.begin(), sp.cells.end());
    }
    r.notes.push_back("sim_s_per_wall_s and segments_per_s divide by the registry's "
                      "prof.cell_run_s (event loop); segments from queue.dequeued");
  } else {
    rows = run_direct_loop(w, a.seed, a.seconds, &cells_wall);
    for (const CellOutcome& c : rows) {
      loop_s += c.loop_s;
      segments += static_cast<double>(c.units);
    }
  }
  count_cells(rows, &r);

  std::vector<double> walls;
  double sim_s = 0;
  for (const CellOutcome& c : rows) {
    walls.push_back(c.wall_s);
    sim_s += c.sim_s;
  }
  const std::string n_cells = "n=" + std::to_string(rows.size()) + " cells";
  const std::vector<CellOutcome> first = pass0(rows);
  r.digest_fold = fold_digests(first);
  r.digest_cells = first.size();

  r.metrics = {
      {"cells_per_hour", ratio(static_cast<double>(rows.size()), cells_wall) * 3600, "1/h",
       n_cells + " over " + num(cells_wall) + " s"},
      {"cell_wall_p50_s", median(walls), "s", n_cells},
      {"sim_s_per_wall_s", ratio(sim_s, loop_s), "s/s", n_cells},
      {"segments_per_s", ratio(segments, loop_s), "1/s", n_cells},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "process peak"},
      {"setup_s", setup_s, "s",
       "median of " + std::to_string(setup_passes) + " passes x " +
           std::to_string(cells0.size()) + " cells"},
  };
  r.rows.push_back({"e2e", std::move(rows)});
  return r;
}

// ---------------------------------------------------------------- traced

Report traced(const Workload& w, const Args& a, SpanLog& spans) {
  Report r;
  const std::vector<ExperimentConfig> cells0 = w.cells(a.seed, 0);
  constexpr std::size_t kCapture = 500'000;

  std::vector<CellOutcome> counted;  ///< untraced, through exp::Cell: exact counts
  std::vector<CellOutcome> traced_cells;
  double wall_untraced = 0;
  double wall_traced = 0;
  double idle_frac = 0;
  std::uint64_t digest_untraced = 0;
  std::uint64_t traced_acks = 0;
  elephant::obs::MetricsRegistry reg_traced;

  if (w.sweep) {
    // Untraced reference: the same sweep the end-to-end run times.
    elephant::obs::MetricsRegistry reg;
    Observe plain;
    plain.metrics = &reg;
    const SweepPass u = run_sweep_pass(cells0, 0, a.out, plain);
    wall_untraced = u.wall_s;
    double busy = 0;
    for (const CellOutcome& c : u.cells) busy += c.wall_s;
    idle_frac = 1 - ratio(busy, u.threads * u.wall_s);
    digest_untraced = fold_digests(u.cells);
    count_cells(u.cells, &r);
    r.rows.push_back({"sweep-untraced", u.cells});

    // Exact counts: the sweep returns no component state, so the same cells
    // run again through exp::Cell (untraced) on as many threads.
    counted = run_direct(cells0, 0, host_threads(), Observe{});

    Observe obs;
    obs.trace = true;
    obs.spans = &spans;
    obs.parent_span = spans.open("traced pass", 0);
    obs.capture_arrivals = kCapture;
    obs.metrics = &reg_traced;
    const SweepPass t = run_sweep_pass(cells0, 0, a.out, obs);
    spans.close(obs.parent_span);
    wall_traced = t.wall_s;
    traced_cells = t.cells;
    std::lock_guard lock(reg_traced.mutex());
    reg_traced.for_each_counter([&](const std::string& name, const elephant::obs::Counter& c) {
      if (name == "tcp.acks_received") traced_acks = c.value();
    });
  } else {
    const auto u0 = Clock::now();
    counted = run_direct(cells0, 0, 1, Observe{});
    wall_untraced = seconds_since(u0);
    double busy = 0;
    for (const CellOutcome& c : counted) busy += c.wall_s;
    idle_frac = 1 - ratio(busy, wall_untraced);
    digest_untraced = fold_digests(counted);

    Observe obs;
    obs.trace = true;
    obs.spans = &spans;
    obs.parent_span = spans.open("traced pass", 0);
    obs.capture_arrivals = kCapture;
    obs.metrics = &reg_traced;
    const auto t0 = Clock::now();
    traced_cells = run_direct(cells0, 0, 1, obs);
    wall_traced = seconds_since(t0);
    spans.close(obs.parent_span);
    for (const CellOutcome& c : traced_cells) traced_acks += c.counts.acks;
  }
  count_cells(counted, &r);
  count_cells(traced_cells, &r);
  r.rows.push_back({"counted", counted});
  r.rows.push_back({w.sweep ? "sweep-traced" : "traced", traced_cells});

  CellCounts k;
  double loop_s = 0;
  double setup_s = 0;
  std::vector<double> finals;
  std::vector<double> chunks;
  for (const CellOutcome& c : counted) {
    k.add(c.counts);
    loop_s += c.loop_s;
    setup_s += c.setup_s;
    finals.push_back(c.finalize_s);
    chunks.insert(chunks.end(), c.chunk_wall_s.begin(), c.chunk_wall_s.end());
  }
  r.digest_fold = fold_digests(counted);
  r.digest_cells = counted.size();
  if (!counted.empty() && counted[0].ok && one_shot_digest(cells0[0]) != counted[0].digest) {
    r.failures.push_back(counted[0].id +
                         ": one-second run_chunk stepping changed the metrics digest");
  }

  std::array<std::uint64_t, elephant::trace::kRecordTypeCount> tc{};
  for (const CellOutcome& c : traced_cells) {
    if (!c.sink) continue;
    for (std::size_t i = 0; i < tc.size(); ++i) tc[i] += c.sink->count(static_cast<RecordType>(i));
  }
  auto tcount = [&](RecordType t) { return static_cast<double>(tc[static_cast<std::size_t>(t)]); };

  double replay_ns = 0;
  if (!traced_cells.empty() && traced_cells[0].sink) {
    const auto s0 = spans.open("aqm replay", 0);
    replay_ns = replay_ns_per_pkt(cells0[0], traced_cells[0].sink->arrivals());
    spans.close(s0);
    r.notes.push_back("aqm.replay_ns_per_pkt replays " +
                      std::to_string(traced_cells[0].sink->arrivals().size()) +
                      " bottleneck arrivals of cell 0");
  }

  double sched_p50 = 0, sched_p99 = 0, soj_p50 = 0, soj_p99 = 0;
  {
    std::lock_guard lock(reg_traced.mutex());
    reg_traced.for_each_histogram(
        [&](const std::string& name, const elephant::obs::LogLinHistogram& h) {
          if (name == "prof.sched_run_s") {
            sched_p50 = h.quantile(0.5);
            sched_p99 = h.quantile(0.99);
          } else if (name == "queue.sojourn_s") {
            soj_p50 = h.quantile(0.5);
            soj_p99 = h.quantile(0.99);
          }
        });
  }

  const bool digest_match = fold_digests(traced_cells) == digest_untraced;
  r.notes.push_back(
      "trace.* and cca.* counts come from the traced run, whose queue-depth sampler "
      "perturbs the schedule (obs.trace_digest_match = " +
      std::string(digest_match ? "1" : "0") + "); all other counts are untraced");

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double segs = d(k.btl_segments);
  r.metrics = {
      {"sim.events", d(k.events), "count", ""},
      {"sim.events_per_segment", ratio(d(k.events), segs), "ratio", ""},
      {"sim.loop_ns_per_event", ratio(loop_s * 1e9, d(k.events)), "ns", ""},
      {"sim.heap_peak", d(k.heap_peak), "count", "max over cells"},
      {"net.btl_segments", segs, "count", ""},
      {"net.port_tx_per_segment", ratio(d(k.node_arrivals), segs), "ratio", "hops"},
      {"aqm.enqueued", d(k.aqm_enqueued), "count", ""},
      {"aqm.drop_frac", ratio(d(k.aqm_dropped), d(k.aqm_offered)), "frac", "dropped/offered"},
      {"aqm.ecn_marked", d(k.aqm_ecn_marked), "count", ""},
      {"aqm.replay_ns_per_pkt", replay_ns, "ns", "traced arrivals, fresh qdisc"},
      {"tcp.units_sent", d(k.units_sent), "count", ""},
      {"tcp.rtos", d(k.rtos), "count", ""},
      {"tcp.acks_per_unit", ratio(d(k.acks), d(k.units_sent)), "ratio", ""},
      {"tcp.retx_frac", ratio(d(k.retx_units), d(k.units_sent)), "frac", "retx/sent units"},
      {"tcp.arena_bytes_per_flow", ratio(d(k.arena_bytes), d(k.flows)), "B", ""},
      {"tcp.scoreboard_peak_bytes", d(k.scoreboard_peak_bytes), "B", "max over cells"},
      {"exp.setup_us_per_flow", ratio(setup_s * 1e6, d(k.flows)), "us", ""},
      {"exp.finalize_s", median(finals), "s", "median per cell"},
      {"exp.sweep_idle_frac", idle_frac, "frac", "1 - sum(cell wall)/(threads x wall)"},
      {"exp.chunk_wall_p50_ms", median(chunks) * 1e3, "ms",
       "n=" + std::to_string(chunks.size()) + " run_chunk calls of 1 sim s"},
      {"trace.sent", tcount(RecordType::kPacketSent), "count", "traced"},
      {"trace.retx", tcount(RecordType::kPacketRetx), "count", "traced"},
      {"trace.sack_marks", tcount(RecordType::kSackMark), "count", "traced"},
      {"trace.loss_marks", tcount(RecordType::kLossMark), "count", "traced"},
      {"trace.rto_fires", tcount(RecordType::kRtoFire), "count", "traced"},
      {"trace.aqm_enqueue", tcount(RecordType::kAqmEnqueue), "count", "traced"},
      {"trace.aqm_drop", tcount(RecordType::kAqmDrop), "count", "traced"},
      {"cca.cwnd_updates", tcount(RecordType::kCwndUpdate), "count", "traced"},
      {"cca.cwnd_updates_per_ack", ratio(tcount(RecordType::kCwndUpdate), d(traced_acks)),
       "ratio", "traced"},
      {"obs.trace_overhead_frac", ratio(wall_traced, wall_untraced) - 1, "frac",
       "traced " + num(wall_traced) + " s / untraced " + num(wall_untraced) + " s"},
      {"prof.sched_run_s.p50", sched_p50, "s", "traced registry"},
      {"prof.sched_run_s.p99", sched_p99, "s", "traced registry"},
      {"queue.sojourn_s.p50", soj_p50, "s", "traced registry"},
      {"queue.sojourn_s.p99", soj_p99, "s", "traced registry"},
      {"obs.trace_digest_match", digest_match ? 1.0 : 0.0, "bool", "traced == untraced"},
  };
  return r;
}

// ---------------------------------------------------------------- output

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

void write_cells_csv(const fs::path& path, const Report& r) {
  std::ofstream out(path);
  out << "run,pass,index,id,ok,wall_s,setup_s,loop_s,finalize_s,sim_s,events,units,digest,"
         "error\n";
  for (const auto& [kind, cells] : r.rows) {
    for (const CellOutcome& c : cells) {
      out << kind << ',' << c.pass << ',' << c.index << ',' << csv_quote(c.id) << ','
          << (c.ok ? 1 : 0) << ',' << num(c.wall_s) << ',' << num(c.setup_s) << ','
          << num(c.loop_s) << ',' << num(c.finalize_s) << ',' << num(c.sim_s) << ','
          << c.events << ',' << c.units << ',' << hex(c.digest) << ',' << csv_quote(c.error)
          << '\n';
    }
  }
}

void write_spans(const fs::path& path, const SpanLog& spans) {
  std::ofstream out(path);
  out << "[\n";
  const std::vector<Span> all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << json_escape(s.name) << "\", \"start_s\": " << num(s.start_s)
        << ", \"end_s\": " << num(s.end_s) << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::string metrics_object(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

void write_summary(const fs::path& path, const Args& a, const Workload& w, const Context& ctx,
                   const Report& r, double failed_frac) {
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": " << a.seed
      << ",\n  \"seconds\": " << num(a.seconds) << ",\n  \"trace\": " << a.trace
      << ",\n  \"smoke\": " << (a.smoke ? "true" : "false") << ",\n  \"host\": {\"nproc\": " << ctx.nproc << ", \"cpu\": \"" << json_escape(ctx.cpu)
      << "\", \"compiler\": \"" << json_escape(ctx.compiler) << "\", \"build_type\": \""
      << ctx.build_type << "\", \"commit\": \"" << json_escape(ctx.commit) << "\"},\n"
      << "  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failures.size()
      << ",\n  \"cells_failed_frac\": " << num(failed_frac) << ",\n  \"digest_fold\": \""
      << hex(r.digest_fold) << "\",\n  \"digest_cells\": " << r.digest_cells
      << ",\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << "    {\"name\": \"" << m.name << "\", \"value\": " << num(m.value)
        << ", \"unit\": \"" << m.unit << "\", \"note\": \"" << json_escape(m.note) << "\"}"
        << (i + 1 < r.metrics.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << json_escape(r.failures[i]) << "\"";
  }
  out << "]\n}\n";
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Context ctx;
  ctx.nproc = host_threads();
  ctx.cpu = cpu_model();
  ctx.commit = a.commit;
  const bool release = ctx.build_type == "Release";
  if (!release && !a.smoke) {
    std::fprintf(stderr, "error: build type is '%s', not Release; refusing to time it\n",
                 ctx.build_type.c_str());
    return 3;
  }

  const std::vector<Workload> all = make_workloads(a.smoke);
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == a.workload; });
  if (it == all.end()) usage(("unknown workload " + a.workload).c_str());
  const Workload& w = *it;

  // The sweep's result cache is process-wide and rooted at this variable;
  // point it inside the run's own output directory before first use.
  // A rerun into the same directory must not resume from, or hit the cache
  // of, an earlier run.
  fs::create_directories(a.out);
  for (const auto& e : fs::directory_iterator(a.out)) {
    if (e.path().filename().string().rfind("manifest-", 0) == 0) fs::remove(e.path());
  }
  fs::remove_all(fs::path(a.out) / "cache");
  const std::string cache_dir = (fs::path(a.out) / "cache").string();
  setenv("ELEPHANT_RESULTS_DIR", cache_dir.c_str(), 1);
  (void)elephant::exp::ResultCache::global();

  SpanLog spans(Clock::now());
  const Report r = a.trace == 0 ? end_to_end(w, a) : traced(w, a, spans);
  const double failed_frac = ratio(static_cast<double>(r.failures.size()),
                                   static_cast<double>(std::max<std::size_t>(r.attempted, 1)));

  write_cells_csv(fs::path(a.out) / "cells.csv", r);
  write_summary(fs::path(a.out) / "summary.json", a, w, ctx, r, failed_frac);
  if (a.trace == 1) write_spans(fs::path(a.out) / "spans.json", spans);

  std::printf("# workload %s  seed %" PRIu64 "  trace %d%s\n", w.name.c_str(), a.seed, a.trace,
              a.smoke ? "  (smoke)" : "");
  std::printf("# host: nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s%s commit=%s\n", ctx.nproc,
              ctx.cpu.c_str(), ctx.compiler.c_str(), ctx.build_type.c_str(),
              release ? "" : " (NOT RELEASE: timings invalid)", ctx.commit.c_str());
  std::printf("# cells: %zu attempted, %zu failed\n", r.attempted, r.failures.size());
  for (std::size_t i = 0; i < r.failures.size() && i < 10; ++i) {
    std::printf("# FAILED %s\n", r.failures[i].c_str());
  }
  if (r.failures.size() > 10) {
    std::printf("# ... %zu more failures in summary.json\n", r.failures.size() - 10);
  }
  std::printf("# digest fold over %zu pass-0 cells: %s\n", r.digest_cells,
              hex(r.digest_fold).c_str());
  for (const std::string& n : r.notes) std::printf("# note: %s\n", n.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("%-28s %20.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  if (a.trace == 0) {
    std::printf("%-28s %20.6f %-6s %zu/%zu cells\n", "cells_failed_frac", failed_frac, "frac",
                r.failures.size(), r.attempted);
  }
  std::printf("# output: %s\n", a.out.c_str());
  const bool correct = r.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, r.failures.size(),
              metrics_object(r.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
