// The benchmark's own observers: spans around its calls into the simulator,
// a counting flight-recorder sink, and the bottleneck-qdisc replay.


#include "aqm/factory.hpp"
#include "bench.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using elephant::trace::RecordType;

std::uint32_t SpanLog::open(std::string name, std::uint32_t parent) {
  const double t = now_s();
  std::lock_guard lock(mu_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, std::move(name), t, t});
  return id;
}

void SpanLog::close(std::uint32_t id) {
  const double t = now_s();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_s = t;
}

std::uint32_t SpanLog::add(std::string name, std::uint32_t parent, double start_s,
                           double end_s) {
  std::lock_guard lock(mu_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, std::move(name), start_s, end_s});
  return id;
}

double SpanLog::now_s() const { return seconds_since(epoch_); }

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void CountingSink::write(std::span<const elephant::trace::TraceRecord> batch) {
  for (const elephant::trace::TraceRecord& r : batch) {
    ++counts_[static_cast<std::size_t>(r.type)];
    if (arrivals_.size() >= capture_limit_) continue;
    if (r.type == RecordType::kAqmEnqueue ||
        (drops_are_arrivals_ && r.type == RecordType::kAqmDrop)) {
      arrivals_.push_back({r.t, r.flow, r.seq});
    }
  }
}

double replay_ns_per_pkt(const ExperimentConfig& cfg, const std::vector<Arrival>& arrivals) {
  if (arrivals.empty()) return 0;
  using elephant::sim::Time;
  elephant::sim::Scheduler sched;
  elephant::aqm::AqmOptions opts;
  opts.ecn = cfg.ecn;
  const auto q = elephant::aqm::make_queue_disc(
      cfg.aqm, sched, static_cast<std::size_t>(cfg.buffer_bytes()), cfg.seed, opts);

  // Every packet is replayed at the full data-unit size; the link serves the
  // queue at the bottleneck rate, so the queue builds as it did in the cell.
  const std::uint32_t size = cfg.effective_aggregation() * cfg.mss + elephant::net::kHeaderBytes;
  const Time tx = Time::seconds(size * 8.0 / cfg.bottleneck_bps);
  Time link_free = Time::zero();
  // sched.run_until() on an empty scheduler only moves the clock the qdisc
  // reads, so the loop's cost is the enqueue/dequeue calls.
  auto serve_until = [&](Time t) {
    while (link_free <= t && q->packet_length() > 0) {
      sched.run_until(link_free);
      if (!q->dequeue()) break;
      link_free = link_free + tx;
    }
  };

  const auto t0 = Clock::now();
  for (const Arrival& a : arrivals) {
    serve_until(a.t);
    if (link_free < a.t) link_free = a.t;
    sched.run_until(a.t);
    elephant::net::Packet p;
    p.flow = a.flow;
    p.seq = a.seq;
    p.size = size;
    p.segments = cfg.effective_aggregation();
    p.ecn_capable = cfg.ecn;
    p.sent_time = a.t;
    q->enqueue(std::move(p));
  }
  serve_until(Time::max());
  const double wall = seconds_since(t0);
  return wall * 1e9 / static_cast<double>(arrivals.size());
}

}  // namespace perfbench
