#pragma once

// Shared types of the end-to-end benchmark. The benchmark drives the
// simulator only through its public entry points (exp::Cell,
// exp::run_sweep_resilient, exp::metrics_digest, component accessors, the
// cfg.tracer / cfg.metrics hooks); nothing here reaches into src/ internals.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "trace/trace.hpp"

namespace elephant::obs {
class MetricsRegistry;
}

namespace perfbench {

using elephant::exp::ExperimentConfig;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

/// One benchmark workload: a seed-derived list of cells per pass, and which
/// engine runs them. Pass 0 is the fixed list every run completes (its
/// digests are what an A/B compares); later passes draw fresh cell seeds so
/// a closed loop never re-runs an identical (cacheable) cell.
struct Workload {
  std::string name;
  bool sweep = false;  ///< run through exp::run_sweep_resilient at nproc threads
  std::function<std::vector<ExperimentConfig>(std::uint64_t seed, int pass)> cells;
};

/// The three workloads; `smoke` shrinks every cell to a tiny size.
[[nodiscard]] std::vector<Workload> make_workloads(bool smoke);

// ------------------------------------------------------------------ tracing

/// A span the benchmark records around one call it makes into the simulator.
/// Times are seconds since the benchmark's start; parent 0 is the root.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  double start_s = 0;
  double end_s = 0;
};

/// In-memory span store, written out when the benchmark ends. Thread-safe:
/// direct passes run cells on several threads.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now; returns its id. close() stamps the end.
  std::uint32_t open(std::string name, std::uint32_t parent);
  void close(std::uint32_t id);
  /// Records a span whose start and end are already known.
  std::uint32_t add(std::string name, std::uint32_t parent, double start_s, double end_s);
  [[nodiscard]] double now_s() const;

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One arrival at the bottleneck qdisc, captured from the flight recorder for
/// the qdisc replay.
struct Arrival {
  elephant::sim::Time t{};
  std::uint32_t flow = 0;
  std::uint64_t seq = 0;
};

/// Counts every flight-recorder record by type and, optionally, keeps the
/// first `capture_limit` bottleneck arrivals. Arrivals are kAqmEnqueue
/// records, plus kAqmDrop records when `drops_are_arrivals` (FIFO drops only
/// arriving packets; FQ-CoDel enqueues first and culls queued packets).
class CountingSink : public elephant::trace::TraceSink {
 public:
  CountingSink(std::size_t capture_limit, bool drops_are_arrivals)
      : capture_limit_(capture_limit), drops_are_arrivals_(drops_are_arrivals) {}

  void write(std::span<const elephant::trace::TraceRecord> batch) override;

  [[nodiscard]] std::uint64_t count(elephant::trace::RecordType t) const {
    return counts_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  std::array<std::uint64_t, elephant::trace::kRecordTypeCount> counts_{};
  std::size_t capture_limit_;
  bool drops_are_arrivals_;
  std::vector<Arrival> arrivals_;
};

/// Replays `arrivals` into a fresh qdisc of the cell's kind and buffer,
/// served at the bottleneck rate, and returns wall nanoseconds per arrival
/// spent in the replay loop (enqueue and dequeue calls plus a clock advance).
[[nodiscard]] double replay_ns_per_pkt(const ExperimentConfig& cfg,
                                       const std::vector<Arrival>& arrivals);

// -------------------------------------------------------------------- cells

/// Exact per-cell counts read from component accessors after finalize.
struct CellCounts {
  std::uint64_t events = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t btl_segments = 0;    ///< data units the bottleneck port sent
  std::uint64_t btl_tx_bytes = 0;
  std::uint64_t node_arrivals = 0;   ///< packets received by every node (hops)
  std::uint64_t aqm_enqueued = 0;
  std::uint64_t aqm_dropped = 0;
  std::uint64_t aqm_offered = 0;     ///< packets that arrived at the qdisc
  std::uint64_t aqm_ecn_marked = 0;
  std::uint64_t units_sent = 0;
  std::uint64_t retx_units = 0;
  std::uint64_t rtos = 0;
  std::uint64_t acks = 0;
  std::uint64_t flows = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t scoreboard_peak_bytes = 0;

  void add(const CellCounts& o);
};

/// What one cell run produced. Rows are written to cells.csv.
struct CellOutcome {
  std::size_t index = 0;
  int pass = 0;
  std::string id;
  bool ok = false;
  std::string error;
  double wall_s = 0;      ///< construct + run + finalize (sweep: RunRecord::wall_s)
  double setup_s = -1;    ///< exp::Cell construction (-1: not visible through the sweep)
  double loop_s = -1;     ///< Σ run_chunk wall (-1: not visible through the sweep)
  double finalize_s = -1;
  double sim_s = 0;
  std::uint64_t events = 0;
  std::uint64_t units = 0;  ///< bottleneck data units (0: not visible through the sweep)
  std::uint64_t digest = 0;
  std::vector<double> chunk_wall_s;  ///< one entry per simulated second
  CellCounts counts;
  /// Traced runs only: the cell's flight-recorder counts and arrivals.
  std::shared_ptr<CountingSink> sink;
};

/// Observers attached to a pass of cells.
struct Observe {
  bool trace = false;  ///< per-cell flight recorder + counting sink (+ registry when direct)
  SpanLog* spans = nullptr;
  std::uint32_t parent_span = 0;
  /// Direct passes merge each cell's registry here; sweeps need one, as the
  /// only public window on their event-loop time and bottleneck count.
  elephant::obs::MetricsRegistry* metrics = nullptr;
  std::size_t capture_arrivals = 0;  ///< arrivals kept for cell 0 (traced only)
};

/// Runs `cells` through exp::Cell, each advanced one simulated second per
/// run_chunk, on `threads` threads (each takes the next cell when its current
/// one finishes). Outcomes come back in input order.
[[nodiscard]] std::vector<CellOutcome> run_direct(const std::vector<ExperimentConfig>& cells,
                                                  int pass, int threads, const Observe& obs);

/// Closed loop on one thread over passes of `w` until `seconds` have passed;
/// pass 0 always completes. Returns the loop's wall time in *loop_wall_s.
[[nodiscard]] std::vector<CellOutcome> run_direct_loop(const Workload& w, std::uint64_t seed,
                                                       double seconds, double* loop_wall_s);

/// One run_sweep_resilient pass (manifest + cache under `dir`, nproc threads).
struct SweepPass {
  std::vector<CellOutcome> cells;
  double wall_s = 0;
  int threads = 0;
  std::uint64_t btl_segments = 0;  ///< from the registry's queue.dequeued
  double loop_s = 0;               ///< Σ prof.cell_run_s
  bool bytes_ok = true;            ///< bottleneck bytes ≤ capacity × duration
};

[[nodiscard]] SweepPass run_sweep_pass(const std::vector<ExperimentConfig>& cells, int pass,
                                       const std::string& dir, const Observe& obs);

/// Median wall of constructing every cell (exp::Cell only, no run) over
/// single-threaded passes: at least `min_passes`, and more until
/// `min_total_s` of construction has been timed, so tiny set-ups are
/// sampled often enough to be steady. *passes returns the count.
[[nodiscard]] double setup_median_s(const std::vector<ExperimentConfig>& cells, int min_passes,
                                    double min_total_s, int* passes);

/// metrics_digest of `cfg` run in one exp::Cell::run_to_completion call, the
/// reference the benchmark's one-second run_chunk stepping must match.
[[nodiscard]] std::uint64_t one_shot_digest(const ExperimentConfig& cfg);

/// FNV-1a fold of the cells' digests, in order.
[[nodiscard]] std::uint64_t fold_digests(const std::vector<CellOutcome>& cells);

[[nodiscard]] int host_threads();

}  // namespace perfbench
