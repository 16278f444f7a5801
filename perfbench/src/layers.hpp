// Per-layer measurements the traced run takes outside the workload's own
// loop: calls into one module's public functions, timed by the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common.hpp"
#include "monocle/monitor.hpp"
#include "monocle/round_engine.hpp"
#include "netbase/packet_crafter.hpp"
#include "netbase/probe_metadata.hpp"
#include "netbase/probe_wire.hpp"
#include "openflow/table_version.hpp"

namespace perfbench {

/// MonitorStats counters summed over a set of shards.
struct StatsSum {
  std::uint64_t probes_caught = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t delta_regens = 0;
  std::uint64_t scratch_regens = 0;
  std::uint64_t updates_queued = 0;
  std::uint64_t retries = 0;
  std::uint64_t suspects_raised = 0;
  std::uint64_t flap_suppressions = 0;
  std::uint64_t confirm_count = 0;
  std::uint64_t confirm_sum_ns = 0;

  void add(const monocle::MonitorStats& s) {
    probes_caught += s.probes_caught;
    cache_hits += s.probe_cache_hits;
    cache_misses += s.probe_cache_misses;
    delta_regens += s.delta_regens;
    scratch_regens += s.scratch_regens;
    updates_queued += s.updates_queued;
    retries += s.probe_retries;
    suspects_raised += s.suspects_raised;
    flap_suppressions += s.flap_suppressions;
    confirm_count += s.confirm_latency_count;
    confirm_sum_ns += s.confirm_latency_sum_ns;
  }
};

template <typename Shards>
StatsSum sum_stats(const Shards& shards) {
  StatsSum sum;
  for (const auto& [sw, mon] : shards) sum.add(mon->stats());
  return sum;
}

/// netbase: re-stamping and parsing a probe frame, standalone, on frames
/// the run itself put on the wire.  Returns {restamp_ns, parse_ns}.
inline std::pair<double, double> time_wire_layer(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  namespace nb = monocle::netbase;
  std::vector<nb::ProbeWire> wires;
  for (const auto& f : frames) {
    const auto view = nb::parse_packet_view(f);
    if (!view) continue;
    const auto meta = nb::ProbeMetadataView::parse(view->payload);
    if (!meta) continue;
    wires.push_back(nb::craft_probe_wire(view->header, meta->materialize()));
  }
  if (wires.empty()) return {0, 0};
  constexpr int kPasses = 400;
  std::uint32_t nonce = 1;
  auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) {
    for (auto& w : wires) nb::restamp_probe_wire(w, 7, nonce++);
  }
  const double ops = static_cast<double>(kPasses) * wires.size();
  const double restamp = seconds_since(t0) * 1e9 / ops;
  std::size_t sink = 0;
  t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) {
    for (const auto& w : wires) {
      const auto v = nb::parse_packet_view(w.bytes, false);
      sink += v ? v->payload.size() : 0;
    }
  }
  const double parse = seconds_since(t0) * 1e9 / ops;
  if (sink == 0) return {restamp, 0};
  return {restamp, parse};
}

/// round_engine: one 2-worker barrier with an empty job, median µs over
/// batches of rounds.
inline double time_barrier_w2() {
  monocle::RoundEngine engine(2);
  engine.set_round_job([](std::size_t) { return std::size_t{0}; });
  std::vector<double> batches;
  constexpr int kRounds = 2000;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) engine.run_round();
    batches.push_back(seconds_since(t0) * 1e6 / kRounds);
  }
  engine.stop();
  return median(batches);
}

/// checkpoint: Monitor::encode_checkpoint per shard, mean µs.
template <typename Shards>
double time_checkpoint_encode(const Shards& shards) {
  std::vector<std::uint8_t> buf;
  std::size_t n = 0;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& [sw, mon] : shards) {
      mon->encode_checkpoint(buf, 0);
      ++n;
    }
  }
  return n == 0 ? 0 : seconds_since(t0) * 1e6 / static_cast<double>(n);
}

/// openflow: TableVersion::apply, replaying the run's FlowMod stream on a
/// copy of each touched table.  Mean µs per FlowMod.
inline double time_table_apply(
    const std::map<monocle::SwitchId, monocle::openflow::FlowTable>& initial,
    const std::vector<std::pair<monocle::SwitchId,
                                monocle::openflow::FlowMod>>& stream) {
  if (stream.empty()) return 0;
  std::map<monocle::SwitchId, monocle::openflow::TableVersion> tables;
  for (const auto& [sw, table] : initial) tables.emplace(sw, table);
  const auto t0 = Clock::now();
  for (const auto& [sw, fm] : stream) tables.at(sw).apply(fm);
  return seconds_since(t0) * 1e6 / static_cast<double>(stream.size());
}

}  // namespace perfbench
