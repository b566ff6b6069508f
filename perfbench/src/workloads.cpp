// The benchmark's three workloads. Every cell seed (and with it W3's Poisson
// arrival stream, which FlowFactory derives from the cell seed) comes from
// the --seed argument, so the same seed always yields the same inputs.

#include <utility>

#include "bench.hpp"
#include "sim/random.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace ex = elephant::exp;
using elephant::aqm::AqmKind;
using elephant::cca::CcaKind;
using elephant::sim::Time;

namespace {

/// Cell seeds: stream (pass, index) of the run seed.
std::uint64_t cell_seed(std::uint64_t seed, int pass, std::size_t i) {
  return elephant::sim::derive_seed(seed, (static_cast<std::uint64_t>(pass) << 16) + i);
}

ExperimentConfig base_cell(double bps, AqmKind aqm, double bdp, double sim_s) {
  ExperimentConfig c;
  c.aqm = aqm;
  c.buffer_bdp = bdp;
  c.bottleneck_bps = bps;
  // Explicit so ELEPHANT_DURATION_SCALE or a changed default cannot resize
  // the workload.
  c.duration = Time::seconds(sim_s);
  c.total_flows = ex::ExperimentConfig::paper_flows_for(bps);
  c.aggregation = ex::ExperimentConfig::default_aggregation_for(bps);
  c.check_invariants = true;
  return c;
}

/// W1: the paper's 1G FIFO slice, 9 CCA pairs × 6 buffers.
std::vector<ExperimentConfig> paper_slice(std::uint64_t seed, int pass, bool smoke) {
  const auto& pairs = ex::paper_cca_pairs();
  const auto& bdps = ex::paper_buffer_bdps();
  const std::size_t n_pairs = smoke ? 2 : pairs.size();
  const std::size_t n_bdps = smoke ? 2 : bdps.size();
  std::vector<ExperimentConfig> cells;
  for (std::size_t p = 0; p < n_pairs; ++p) {
    for (std::size_t b = 0; b < n_bdps; ++b) {
      ExperimentConfig c = base_cell(1e9, AqmKind::kFifo, bdps[b], smoke ? 2 : 90);
      c.cca1 = pairs[p].first;
      c.cca2 = pairs[p].second;
      c.seed = cell_seed(seed, pass, cells.size());
      cells.push_back(c);
    }
  }
  return cells;
}

/// W2: the 25G FQ-CoDel 2 BDP column at the paper's 45 s 25G run length.
/// Trimmed to the inter-CCA pairs plus CUBIC-CUBIC and BBRv1-BBRv1 so a pass
/// fits the run budget while every CCA stays in the mix.
std::vector<ExperimentConfig> hibw_fqcodel(std::uint64_t seed, int pass, bool smoke) {
  static const std::vector<std::pair<CcaKind, CcaKind>> pairs = {
      {CcaKind::kBbrV1, CcaKind::kCubic}, {CcaKind::kBbrV2, CcaKind::kCubic},
      {CcaKind::kHtcp, CcaKind::kCubic},  {CcaKind::kReno, CcaKind::kCubic},
      {CcaKind::kCubic, CcaKind::kCubic}, {CcaKind::kBbrV1, CcaKind::kBbrV1},
  };
  const std::size_t n = smoke ? 1 : pairs.size();
  std::vector<ExperimentConfig> cells;
  for (std::size_t i = 0; i < n; ++i) {
    ExperimentConfig c = base_cell(25e9, AqmKind::kFqCodel, 2.0, smoke ? 1 : 45);
    c.cca1 = pairs[i].first;
    c.cca2 = pairs[i].second;
    c.seed = cell_seed(seed, pass, i);
    cells.push_back(c);
  }
  return cells;
}

/// W3: 10G FIFO, Poisson finite flows only (lognormal sizes, σ = 1, 1 MB
/// mean, 800 arrivals/s ≈ 64% offered load), CCA taken from the cell's pair
/// per dumbbell side. One BBR pair puts pacing timers in the mix; the
/// CUBIC-CUBIC cell is the unpaced reference.
std::vector<ExperimentConfig> web_churn(std::uint64_t seed, int pass, bool smoke) {
  static const std::vector<std::pair<CcaKind, CcaKind>> pairs = {
      {CcaKind::kBbrV1, CcaKind::kCubic},
      {CcaKind::kCubic, CcaKind::kCubic},
  };
  const std::size_t n = smoke ? 1 : pairs.size();
  std::vector<ExperimentConfig> cells;
  for (std::size_t i = 0; i < n; ++i) {
    ExperimentConfig c = base_cell(10e9, AqmKind::kFifo, 2.0, smoke ? 2 : 60);
    c.cca1 = pairs[i].first;
    c.cca2 = pairs[i].second;
    elephant::workload::TrafficClass web;
    web.name = "web";
    web.kind = elephant::workload::ClassKind::kFinite;
    web.cca_from_pair = true;
    web.side = -1;
    web.arrival = elephant::workload::Arrival::kPoisson;
    web.arrival_rate_hz = 800;
    web.size = elephant::workload::SizeSpec::lognormal(1e6, 1.0);
    c.workload.classes.push_back(web);
    c.seed = cell_seed(seed, pass, i);
    cells.push_back(c);
  }
  return cells;
}

}  // namespace

std::vector<Workload> make_workloads(bool smoke) {
  return {
      {"paper-1g-fifo-sweep", true,
       [smoke](std::uint64_t s, int p) { return paper_slice(s, p, smoke); }},
      {"hibw-25g-fqcodel", false,
       [smoke](std::uint64_t s, int p) { return hibw_fqcodel(s, p, smoke); }},
      {"web-churn-10g", false,
       [smoke](std::uint64_t s, int p) { return web_churn(s, p, smoke); }},
  };
}

}  // namespace perfbench
