// The `churn` workload: the switchsim Testbed's production Fleet on a 3x3
// grid of Pica8-emulated switches.  Only the simulated switch model has an
// install delay and lets probes take the pre-update path, and confirm
// latency depends on both.
//
//  * Three switches hold 2000 host routes and take a closed-loop
//    ChurnGenerator stream (40/25/35 add/modify/delete) of ACL rules that
//    overlap the routes and each other — fig10's churn shape: one FlowMod
//    in flight per churned switch, the next issued once the previous one
//    is confirmed (or given up), as a consistent-update controller waits.
//  * The other switches hold 24 host routes.  Their rules fail and heal in
//    a closed loop (a few faults in flight), which gives TTD samples.
//  * Steady fleet rounds run throughout.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "switchsim/event_queue.hpp"
#include "switchsim/switch_model.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/acl_generator.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"

namespace perfbench {

namespace churn_detail {

namespace sim = monocle::switchsim;
using monocle::Monitor;
using monocle::RuleState;
using monocle::SwitchId;
using monocle::netbase::SimTime;
using monocle::netbase::kMillisecond;
namespace openflow = monocle::openflow;

constexpr int kSetupReps = 5;
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kChurned = 3;
constexpr std::size_t kBigRules = 2000;
constexpr std::size_t kSmallRules = 24;
/// Simulated time per run_until slice of the benchmark loop.
constexpr SimTime kSlice = 1 * kMillisecond;
constexpr SimTime kWarmup = 200 * kMillisecond;
/// Think time before a stream's next FlowMod: uniform in [0, 100) ms, one
/// Pica8 commit period, so that issue times do not phase-lock to the
/// switch's batched commits.
constexpr SimTime kThinkMax = 100 * kMillisecond;
/// Rule faults in flight at once, and the pause before the next one.
constexpr std::size_t kFaultsInFlight = 8;
constexpr SimTime kFaultThink = 50 * kMillisecond;
constexpr SimTime kFaultThinkJitter = 10 * kMillisecond;
constexpr SimTime kMaxDrain = 120 * monocle::netbase::kSecond;

/// True when `fm` has one meaning on every switch.  The generator draws
/// fresh rules at random and keeps its own view of the table, so its stream
/// can hold FlowMods a consistent controller never issues:
///  * an add overlapping an installed rule of equal priority — OpenFlow
///    leaves the match order of such rules undefined (OFPFF_CHECK_OVERLAP
///    rejects them), so a switch that commits in another order than the
///    Monitor's table forwards the probe somewhere neither prediction
///    names and the update never confirms;
///  * an add replacing an installed rule (same match and priority), or a
///    modify/delete naming a cookie the table no longer holds there.
/// Such FlowMods are skipped and counted.
inline bool well_defined(const openflow::FlowTable& table,
                         const openflow::FlowMod& fm) {
  const openflow::Rule* at = table.find_strict(fm.match, fm.priority);
  if (fm.command != openflow::FlowModCommand::kAdd) {
    return at != nullptr && at->cookie == fm.cookie;
  }
  if (at != nullptr) return false;
  for (const openflow::Rule& r : table.rules()) {
    if (r.priority == fm.priority && r.match.overlaps(fm.match)) return false;
  }
  return true;
}

/// One set-up: the testbed, seeded tables, and everything up to the first
/// fleet round.
struct Bed {
  sim::EventQueue eq;
  monocle::topo::Topology topo = monocle::topo::make_grid(3, 3);
  std::unique_ptr<sim::Testbed> bed;
  std::vector<SwitchId> churned;
  std::vector<SwitchId> small;
  std::map<SwitchId, std::vector<openflow::Rule>> initial;
  /// The distribution the churn stream draws its ACL rules from.
  monocle::workloads::AclProfile acl_of(SwitchId sw, std::uint64_t seed) const {
    monocle::workloads::AclProfile acl;
    acl.seed = seed * 1000 + sw;
    acl.ports = static_cast<int>(bed->network().ports(sw).size());
    acl.sites = 6;
    return acl;
  }

  Bed(std::uint64_t seed, double* prepare_s) {
    sim::Testbed::Options opts;
    opts.use_fleet = true;
    opts.fleet.round_interval = 10 * kMillisecond;
    opts.fleet.probes_per_switch = 4;
    opts.fleet.warmup = kWarmup;
    opts.fleet.warmup_threads = 1;
    bed = std::make_unique<sim::Testbed>(&eq, topo,
                                         sim::SwitchModel::pica8_emulated(),
                                         opts);
    // Churned switches: three of the grid's five non-corner nodes.
    Rng rng(seed ^ 0xC4021000ull);
    std::vector<SwitchId> candidates;
    for (monocle::topo::NodeId n = 0; n < topo.node_count(); ++n) {
      if (topo.neighbors(n).size() >= 3) candidates.push_back(bed->dpid_of(n));
    }
    while (churned.size() < kChurned) {
      const SwitchId sw = candidates[rng.below(candidates.size())];
      if (std::find(churned.begin(), churned.end(), sw) == churned.end()) {
        churned.push_back(sw);
      }
    }
    std::sort(churned.begin(), churned.end());
    for (monocle::topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = bed->dpid_of(n);
      const bool big =
          std::find(churned.begin(), churned.end(), sw) != churned.end();
      if (!big) small.push_back(sw);
      auto& rules = initial[sw];
      rules = big ? monocle::workloads::l3_host_routes(
                        kBigRules, bed->network().ports(sw), seed * 1000 + sw)
                  : monocle::workloads::l3_host_routes_even(
                        kSmallRules, bed->network().ports(sw));
      for (const openflow::Rule& r : rules) {
        bed->monitor(sw)->seed_rule(r);
        bed->sw(sw)->mutable_dataplane().add(r);
      }
    }
    const auto t0 = Clock::now();
    bed->start_monitoring();  // Fleet::start: prepare() + round pipeline
    *prepare_s = seconds_since(t0);
    eq.run_until(kWarmup);    // catching rules land; the first round is next
  }
};

}  // namespace churn_detail

inline Report run_churn_workload(const Args& args) {
  using namespace churn_detail;
  Report rep;
  Tracer tracer;

  std::vector<double> setup_s;  // processor time (see cpu_seconds)
  std::vector<double> warm_us_per_rule;
  std::unique_ptr<Bed> b;
  for (int i = 0; i < kSetupReps; ++i) {
    b.reset();
    double prepare_s = 0;
    const double c0 = cpu_seconds();
    b = std::make_unique<Bed>(args.seed, &prepare_s);
    setup_s.push_back(cpu_seconds() - c0);
    warm_us_per_rule.push_back(
        prepare_s * 1e6 /
        static_cast<double>(b->bed->fleet()->monitorable_rule_count()));
  }
  sim::Testbed& bed = *b->bed;
  sim::EventQueue& eq = b->eq;
  monocle::Fleet& fleet = *bed.fleet();

  // --- FlowMod streams: one closed loop per churned switch ----------------
  struct Stream {
    SwitchId sw = 0;
    std::unique_ptr<monocle::workloads::ChurnGenerator> gen;
    bool in_flight = false;
    std::uint64_t cookie = 0;
    SimTime issued = 0;
    SimTime next_at = 0;  // confirm time + think time
  };
  Rng think_rng(args.seed ^ 0x7417C000ull);
  std::vector<Stream> streams;
  std::vector<double> flowmod_us, confirm_ms;
  std::vector<double> by_kind_us[3];
  std::uint64_t issued = 0, stray = 0, update_failures = 0, skipped = 0;
  std::uint64_t confirm_sum_ns = 0;
  double gen_ns = 0, span_ns = 0;
  std::map<SwitchId, openflow::FlowTable> initial_tables;
  std::vector<std::pair<SwitchId, openflow::FlowMod>> fm_log;
  for (const SwitchId sw : b->churned) {
    monocle::workloads::ChurnProfile profile;
    profile.seed = args.seed * 7919 + sw;
    profile.acl = b->acl_of(sw, args.seed);
    profile.min_rules = kBigRules * 9 / 10;
    profile.max_rules = kBigRules * 11 / 10;
    Stream s;
    s.sw = sw;
    s.gen = std::make_unique<monocle::workloads::ChurnGenerator>(
        profile, b->initial.at(sw));
    streams.push_back(std::move(s));
    initial_tables.emplace(sw, bed.monitor(sw)->expected_table());
  }

  // --- rule faults on the 24-route switches -------------------------------
  struct Fault {
    SwitchId sw;
    openflow::Rule rule;
    SimTime start;
  };
  Rng fault_rng(args.seed ^ 0xFA0170ull);
  std::unordered_map<std::uint64_t, Fault> faults_open;  // by catch key
  std::vector<double> ttd_ms;
  std::uint64_t faults_injected = 0, false_verdicts = 0;
  SimTime next_fault_at = 0;
  auto fkey = [](SwitchId sw, std::uint64_t cookie) {
    return (sw << 40) ^ cookie;
  };
  bool issuing = true;

  for (const auto& [sw, mon] : fleet.shards()) {
    Monitor::Hooks& hooks = mon->hooks_for_test();
    auto prev_confirm = hooks.on_update_confirmed;
    hooks.on_update_confirmed = [&, sw, prev_confirm](std::uint64_t cookie,
                                                      SimTime when) {
      Scope span(tracer, SpanName::kConfirmHook);
      if (prev_confirm) prev_confirm(cookie, when);
      for (Stream& s : streams) {
        if (s.sw != sw) continue;
        if (!s.in_flight || s.cookie != cookie) {
          ++stray;
          return;
        }
        s.in_flight = false;
        s.next_at = when + think_rng.below(kThinkMax);
        confirm_ms.push_back(static_cast<double>(when - s.issued) / 1e6);
        confirm_sum_ns += when - s.issued;
        return;
      }
      ++stray;
    };
    auto prev_failed = hooks.on_update_failed;
    hooks.on_update_failed = [&, sw, prev_failed](std::uint64_t cookie,
                                              SimTime when) {
      if (prev_failed) prev_failed(cookie, when);
      ++update_failures;
      for (Stream& st : streams) {
        if (st.sw == sw && st.in_flight && st.cookie == cookie) {
          st.in_flight = false;
          st.next_at = when;
        }
      }
    };
    auto prev_verdict = hooks.on_verdict;
    hooks.on_verdict = [&, sw, prev_verdict](std::uint64_t cookie,
                                             RuleState state,
                                             openflow::Epoch epoch) {
      if (prev_verdict) prev_verdict(cookie, state, epoch);
      if (state != RuleState::kFailed) return;
      const auto it = faults_open.find(fkey(sw, cookie));
      if (it == faults_open.end()) {
        ++false_verdicts;
        return;
      }
      ttd_ms.push_back(static_cast<double>(eq.now() - it->second.start) / 1e6);
      // Heal: the rule is back in the data plane; the next probe clears it.
      bed.sw(sw)->mutable_dataplane().add(it->second.rule);
      faults_open.erase(it);
      next_fault_at = eq.now() + kFaultThink +
                      fault_rng.below(kFaultThinkJitter);
    };
  }

  auto issue_flowmods = [&] {
    for (Stream& s : streams) {
      if (s.in_flight || !issuing || eq.now() < s.next_at) continue;
      Monitor* mon = bed.monitor(s.sw);
      openflow::FlowMod fm = s.gen->next();
      while (!well_defined(mon->expected_table(), fm)) {
        ++skipped;
        fm = s.gen->next();
      }
      s.in_flight = true;
      s.cookie = fm.cookie;
      s.issued = eq.now();
      ++issued;
      fm_log.emplace_back(s.sw, fm);
      const int kind =
          fm.command == openflow::FlowModCommand::kAdd
              ? 0
              : (fm.command == openflow::FlowModCommand::kModify ||
                         fm.command == openflow::FlowModCommand::kModifyStrict
                     ? 1
                     : 2);
      const auto gen0 = mon->stats().generation_time;
      const std::int64_t t0 = now_ns();
      {
        Scope span(tracer, SpanName::kRouteFlowMod);
        fleet.route_flow_mod(s.sw, fm, static_cast<std::uint32_t>(issued));
      }
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      flowmod_us.push_back(us);
      by_kind_us[kind].push_back(us);
      gen_ns += static_cast<double>((mon->stats().generation_time - gen0).count());
      span_ns += us * 1e3;
    }
  };
  auto inject_faults = [&] {
    while (issuing && faults_open.size() < kFaultsInFlight &&
           eq.now() >= next_fault_at) {
      const SwitchId sw = b->small[fault_rng.below(b->small.size())];
      const auto& rules = b->initial.at(sw);
      const openflow::Rule& r = rules[fault_rng.below(rules.size())];
      const std::uint64_t k = fkey(sw, r.cookie);
      if (faults_open.contains(k) ||
          bed.monitor(sw)->rule_state(r.cookie) != RuleState::kConfirmed) {
        continue;
      }
      bed.sw(sw)->fail_rule(r.cookie);
      faults_open.emplace(k, Fault{sw, r, eq.now()});
      ++faults_injected;
    }
  };
  // Coverage is taken over the switches no FlowMod touches (the 24-route
  // ones): on the churned tables, overlapping adds shadow and unshadow
  // routes, so a route's first probe time follows the churn stream rather
  // than the rotation.  Polled each slice from Monitor::collect_staleness
  // (table order over the steadily monitorable rules; a rule probed since
  // t_start has staleness below the time since t_start).
  const SimTime t_start = eq.now();
  std::unordered_map<std::uint64_t, SimTime> first_probe;  // by fkey
  std::vector<SimTime> staleness;
  bool covered = false;
  SimTime covered_at = 0;
  auto poll_coverage = [&] {
    const SimTime age = eq.now() - t_start;
    bool all = true;
    for (const SwitchId sw : b->small) {
      const Monitor* mon = bed.monitor(sw);
      staleness.clear();
      mon->collect_staleness(staleness);
      std::size_t i = 0;
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        const std::uint64_t prefix = r.cookie >> 48;  // infrastructure rules
        if (prefix == 0xCA7C || prefix == 0xF117 || prefix == 0xD209) continue;
        const RuleState st = mon->rule_state(r.cookie);
        if (st == RuleState::kUnmonitorable || st == RuleState::kPending) continue;
        if (i >= staleness.size()) return;
        if (staleness[i++] < age) {
          first_probe.try_emplace(fkey(sw, r.cookie), eq.now());
        } else if (!first_probe.contains(fkey(sw, r.cookie))) {
          all = false;
        }
      }
    }
    if (all) {
      covered = true;
      covered_at = eq.now();
    }
  };
  auto slice = [&] {
    issue_flowmods();
    inject_faults();
    Scope span(tracer, SpanName::kRunUntil);
    eq.run_until(eq.now() + kSlice);
  };

  // --- timed phase ---------------------------------------------------------
  const StatsSum before = sum_stats(fleet.shards());
  std::vector<double> window_pps[2];
  std::uint64_t slices = 0;
  std::uint64_t traced_slices = 0;
  const auto run_start = Clock::now();
  for (int w = 0; seconds_since(run_start) < args.seconds; ++w) {
    const bool traced = args.trace && (w % 2 == 1);
    tracer.enabled = traced;
    const std::uint64_t probes0 = fleet.stats().probes_injected;
    const auto w0 = Clock::now();
    double elapsed = 0;
    std::uint64_t n = 0;
    while (true) {
      slice();
      ++n;
      if (!covered) poll_coverage();
      elapsed = seconds_since(w0);
      if (elapsed >= kWindowSeconds || seconds_since(run_start) >= args.seconds)
        break;
    }
    slices += n;
    if (traced) traced_slices += n;
    if (elapsed >= kWindowSeconds * 0.99) {
      window_pps[traced ? 1 : 0].push_back(
          static_cast<double>(fleet.stats().probes_injected - probes0) /
          elapsed);
    }
  }
  tracer.enabled = false;
  const SimTime timed_sim = eq.now() - t_start;

  // --- drain: finish in-flight FlowMods and faults, then compare tables ---
  issuing = false;
  const SimTime drain_end = eq.now() + kMaxDrain;
  auto busy = [&] {
    if (!faults_open.empty() || !covered) return true;
    for (const Stream& s : streams) {
      if (s.in_flight) return true;
    }
    return false;
  };
  while (busy() && eq.now() < drain_end) {
    eq.run_until(eq.now() + 10 * kMillisecond);
    if (!covered) poll_coverage();
  }
  // Let the switches' batched commits land before comparing tables.
  eq.run_until(eq.now() + 500 * kMillisecond);

  // --- correctness ---------------------------------------------------------
  const StatsSum after = sum_stats(fleet.shards());
  std::uint64_t unconfirmed = 0;
  for (const Stream& s : streams) unconfirmed += s.in_flight;
  if (unconfirmed > 0) rep.violation("FlowMods never confirmed", unconfirmed);
  if (update_failures > 0) rep.violation("FlowMods given up", update_failures);
  if (stray > 0) rep.violation("confirmations of FlowMods not in flight", stray);
  if (!faults_open.empty()) rep.violation("injected faults never detected", faults_open.size());
  if (false_verdicts > 0) rep.violation("kFailed verdicts on healthy rules", false_verdicts);
  if (!covered) rep.violation("coverage never completed");
  std::uint64_t mismatched = 0;
  for (const SwitchId sw : b->churned) {
    std::vector<openflow::Rule> expected = bed.monitor(sw)->expected_table().rules();
    std::vector<openflow::Rule> actual = bed.sw(sw)->dataplane().rules();
    auto by_cookie = [](const openflow::Rule& x, const openflow::Rule& y) {
      return x.cookie < y.cookie;
    };
    std::sort(expected.begin(), expected.end(), by_cookie);
    std::sort(actual.begin(), actual.end(), by_cookie);
    if (expected != actual) ++mismatched;
  }
  if (mismatched > 0) rep.violation("churned switch data plane differs from the expected table", mismatched);
  const std::uint64_t mon_sum = after.confirm_sum_ns - before.confirm_sum_ns;
  Report::info("confirm latency cross-check: benchmark sum %.6f ms, "
               "MonitorStats sum %.6f ms over %zu / %llu confirmations",
               static_cast<double>(confirm_sum_ns) / 1e6,
               static_cast<double>(mon_sum) / 1e6, confirm_ms.size(),
               static_cast<unsigned long long>(after.confirm_count -
                                               before.confirm_count));
  if (mon_sum != confirm_sum_ns) {
    rep.violation("confirm latency sum differs from MonitorStats");
  }
  const std::uint64_t probes = fleet.stats().probes_injected;
  rep.attempted = probes + issued + faults_injected;

  Report::info("churned switches=%zu sim_timed=%.3f s slices=%llu "
               "flowmods=%llu (ill-defined skipped=%llu) faults=%llu",
               b->churned.size(), static_cast<double>(timed_sim) / 1e9,
               static_cast<unsigned long long>(slices),
               static_cast<unsigned long long>(issued),
               static_cast<unsigned long long>(skipped),
               static_cast<unsigned long long>(faults_injected));
  Report::info("samples: windows=%zu flowmod=%zu confirm=%zu ttd=%zu setups=%zu",
               window_pps[0].size(), flowmod_us.size(), confirm_ms.size(),
               ttd_ms.size(), setup_s.size());
  if (confirm_ms.size() < 200 || ttd_ms.size() < 200) {
    Report::info("WARNING: fewer than 200 samples behind a p95");
  }
  const double coverage_ms = static_cast<double>(covered_at - t_start) / 1e6;

  if (!args.trace) {
    rep.add("probes_per_s", median(window_pps[0]), "probes/s");
    rep.add("flowmod_us_p50", quantile(flowmod_us, 0.5), "us");
    rep.add("flowmod_us_p95", quantile(flowmod_us, 0.95), "us");
    rep.add("confirm_ms_p50",
            quantile_grouped(confirm_ms, 0.5, kConfirmTickMs), "ms");
    rep.add("confirm_ms_p95",
            quantile_grouped(confirm_ms, 0.95, kConfirmTickMs), "ms");
    rep.add("ttd_ms_p50", quantile_grouped(ttd_ms, 0.5, kTtdTickMs), "ms");
    rep.add("ttd_ms_p95", quantile_grouped(ttd_ms, 0.95, kTtdTickMs), "ms");
    rep.add("coverage_ms", coverage_ms, "ms");
    rep.add("setup_s", min_of(setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  // --- traced run ------------------------------------------------------------
  auto per = [](double total, std::uint64_t n, double scale) {
    return n == 0 ? 0.0 : total / static_cast<double>(n) / scale;
  };
  const auto& run_until = tracer.totals(SpanName::kRunUntil);
  std::vector<double> diagnose_us;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    const auto diag = fleet.diagnose();
    diagnose_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    (void)diag;
  }
  const double encode_us = time_checkpoint_encode(fleet.shards());
  const double apply_us = time_table_apply(initial_tables, fm_log);
  const double barrier_us = time_barrier_w2();
  std::string trace_path = ".bench_build/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (!tracer.write(trace_path)) trace_path = "(not written)";
  Report::info("spans written to %s", trace_path.c_str());
  const double kprobes = static_cast<double>(probes) / 1e3;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double traced_pps = median(window_pps[1]);
  const double untraced_pps = median(window_pps[0]);
  rep.add("monitor.burst_ns_per_probe", 0, "ns");
  rep.add("multiplexer.inject_ns", 0, "ns");
  rep.add("multiplexer.packet_in_ns", 0, "ns");
  rep.add("netbase.restamp_ns", 0, "ns");
  rep.add("netbase.parse_ns", 0, "ns");
  rep.add("fleet.round_self_us", 0, "us");
  rep.add("checkpoint.encode_us", encode_us, "us");
  rep.add("telemetry.publish_us", 0, "us");
  rep.add("sat.warm_us_per_rule", median(warm_us_per_rule), "us");
  rep.add("monitor.flowmod_us.add", median(by_kind_us[0]), "us");
  rep.add("monitor.flowmod_us.modify", median(by_kind_us[1]), "us");
  rep.add("monitor.flowmod_us.delete", median(by_kind_us[2]), "us");
  rep.add("monitor.generation_share", span_ns > 0 ? gen_ns / span_ns : 0, "ratio");
  rep.add("openflow.table_apply_us", apply_us, "us");
  rep.add("probe_batch.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  rep.add("probe_batch.delta_regens",
          per(static_cast<double>(after.delta_regens - before.delta_regens), issued, 1),
          "count/flowmod");
  rep.add("probe_batch.scratch_regens",
          per(static_cast<double>(after.scratch_regens - before.scratch_regens), issued, 1),
          "count/flowmod");
  // Reported only here: the workloads in BENCHMARK.json never enter the
  // simulator, and their one-in-flight FlowMods never queue.
  Report::info("switchsim.self_us=%.4f us per 1 ms slice, "
               "probe_batch.updates_queued=%.4f per FlowMod",
               per(run_until.self_ns, traced_slices, 1e3),
               per(static_cast<double>(after.updates_queued -
                                       before.updates_queued),
                   issued, 1));
  rep.add("monitor.retries",
          static_cast<double>(after.retries - before.retries) / kprobes, "count/kprobe");
  rep.add("monitor.suspects_raised",
          static_cast<double>(after.suspects_raised - before.suspects_raised) / kprobes,
          "count/kprobe");
  rep.add("fleet.restore_shard_us", 0, "us");
  rep.add("localizer.diagnose_us", median(diagnose_us), "us");
  rep.add("fleet.evidence_passes", 0, "count/sim_s");
  rep.add("round_engine.barrier_us_w2", barrier_us, "us");
  rep.add("fleet.round_us_w2", 0, "us");
  rep.add("round_engine.probes_per_s_w2", 0, "probes/s");
  rep.add("trace.probes_per_s", traced_pps, "probes/s");
  rep.add("trace.overhead_share",
          untraced_pps > 0 ? 1.0 - traced_pps / untraced_pps : 0, "ratio");
  return rep;
}

}  // namespace perfbench
