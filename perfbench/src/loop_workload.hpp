// The `steady`, `recovery` and `faults` workloads: the production Fleet at
// one round worker over the loopback stand-in (loop_fleet.hpp).
//
// All three run the same three kinds of operation:
//  * steady probe rounds in a closed loop (each round's PacketIns are
//    delivered before the next round starts) — the bulk of the work;
//  * one closed-loop FlowMod stream (add/modify/delete host routes; the
//    next FlowMod goes out a think time after the previous one confirmed),
//    confirmed against a seeded per-FlowMod install delay;
//  * rule failures, a fixed number open at a time: each is repaired once
//    detected and a new one takes its place, so faults run through the
//    whole timed phase.
// `recovery` adds the robust verdict configuration (K-of-N suspicion,
// evidence localization) and shard kills, spaced through the whole timed
// phase and restored through Fleet::restore_shard; `faults` adds 2% seeded
// probe loss on top.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "layers.hpp"
#include "loop_fleet.hpp"
#include "report.hpp"

namespace perfbench {

namespace loop_detail {

/// Set-ups per run: kSetupReps before the timed phase and kSetupReps - 1
/// after it, once the workload's fleet is gone (see setup_s).
constexpr int kSetupReps = 6;
/// probes_per_s is the upper quartile of fixed windows of this length.
constexpr double kWindowSeconds = 0.25;
constexpr double kWindowQuantile = 0.75;
/// Rule failures: from round kFirstFault, past the first full rotation
/// (every rule has a last probe), kFaultsInFlight are open at any time.
constexpr std::size_t kFaultsInFlight = 4;
constexpr std::size_t kFirstFault = 1000;
/// Candidates drawn per fault when picking the victim (see inject_fault).
constexpr std::size_t kVictimCandidates = 64;
/// FlowMod stream: install delay uniform in [5, 100) ms, think time 100 ms.
constexpr SimTime kInstallMin = 5 * kMillisecond;
constexpr SimTime kInstallSpan = 95 * kMillisecond;
constexpr SimTime kThink = 100 * kMillisecond;
/// Shard kills (recovery, faults): one every kKillGap rounds from
/// kFirstKill until the timed phase ends, cycling through kKillPool seeded
/// victims.
constexpr std::size_t kKillPool = 8;
constexpr std::size_t kFirstKill = 1500;
constexpr std::size_t kKillGap = 3000;
/// coverage_ms is the time by which this share of the rules had their first
/// probe.  Full coverage (the last rule) follows from the schedule's colour
/// count alone — the same for most topologies — and is printed as a `#`
/// line instead.  First probes land on round boundaries, so the quantile is
/// grouped over one round.
constexpr double kCoverageQuantile = 0.99;
constexpr double kRoundMs =
    static_cast<double>(LoopFleet::kRoundInterval) / 1e6;
/// Drain: rounds allowed after the timed phase for in-flight work to end.
constexpr std::size_t kMaxDrainRounds = 40'000;

enum class Kind : std::uint8_t { kAdd, kModify, kDelete };

/// The closed-loop FlowMod stream over host routes the benchmark adds.
class FlowModStream {
 public:
  FlowModStream(LoopFleet& rig, std::uint64_t seed,
                std::vector<SwitchId> targets, Tracer& tracer)
      : rig_(rig), rng_(seed ^ 0xF10A0000ull), targets_(std::move(targets)),
        tracer_(tracer) {}

  /// Issues the next FlowMod when none is in flight and the think time
  /// passed.
  void maybe_issue() {
    if (in_flight_ || rig_.now() < next_at_ || targets_.empty()) return;
    const SwitchId sw = targets_[rng_.below(targets_.size())];
    auto& added = added_[sw];
    const double roll = rng_.unit();
    Kind kind = roll < 0.40 ? Kind::kAdd
                            : (roll < 0.65 ? Kind::kModify : Kind::kDelete);
    if (added.empty()) kind = Kind::kAdd;
    const auto ports = rig_.ports(sw);

    openflow::FlowMod fm;
    openflow::Rule rule;
    LoopFleet::Change change = LoopFleet::Change::kInstall;
    if (kind == Kind::kAdd) {
      rule.priority = 10;
      rule.cookie = next_cookie_++;
      rule.match.set_exact(monocle::netbase::Field::EthType,
                           monocle::netbase::kEthTypeIpv4);
      rule.match.set_prefix(monocle::netbase::Field::IpDst,
                            0x0B000000u + next_host_++, 32);
      rule.actions = {openflow::Action::output(
          ports[rng_.below(ports.size())])};
      added.push_back(rule);
      fm.command = openflow::FlowModCommand::kAdd;
    } else {
      const std::size_t idx = rng_.below(added.size());
      rule = added[idx];
      if (kind == Kind::kModify) {
        const auto old_port = rule.actions.front().port;
        std::uint16_t port = ports[rng_.below(ports.size())];
        if (ports.size() > 1) {
          while (port == old_port) port = ports[rng_.below(ports.size())];
        }
        rule.actions = {openflow::Action::output(port)};
        added[idx] = rule;
        fm.command = openflow::FlowModCommand::kModifyStrict;
      } else {
        added[idx] = added.back();
        added.pop_back();
        change = LoopFleet::Change::kRemove;
        fm.command = openflow::FlowModCommand::kDeleteStrict;
      }
    }
    fm.match = rule.match;
    fm.priority = rule.priority;
    fm.cookie = rule.cookie;
    fm.actions = rule.actions;

    Monitor* mon = rig_.fleet().monitor(sw);
    if (!initial_tables_.contains(sw)) {
      initial_tables_.emplace(sw, mon->expected_table());
    }
    stream_.emplace_back(sw, fm);
    const SimTime now = rig_.now();
    due_ = now + kInstallMin +
           static_cast<SimTime>(rng_.unit() * static_cast<double>(kInstallSpan));
    rig_.schedule_change(sw, rule, change, due_);
    rig_.fine_steps_from(due_);
    in_flight_ = true;
    sw_ = sw;
    cookie_ = rule.cookie;
    kind_ = kind;
    issued_ = now;
    ++issued_count_;

    const auto gen0 = mon->stats().generation_time;
    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer_, SpanName::kRouteFlowMod);
      rig_.fleet().route_flow_mod(sw, fm, next_xid_++);
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    flowmod_us_.push_back(us);
    by_kind_us_[static_cast<int>(kind)].push_back(us);
    gen_ns_ += static_cast<double>(
        (mon->stats().generation_time - gen0).count());
    span_ns_ += us * 1e3;
  }

  /// Monitor::Hooks::on_update_confirmed (a time, not a latency).  The
  /// metric is the Monitor's detection lag: confirm time minus the time the
  /// install landed in the stand-in.  The install delay is the benchmark's
  /// own input, so it is left out.  The issue-to-confirm sum, on the
  /// benchmark's own issue timestamps, feeds the MonitorStats cross-check.
  void confirmed(SwitchId sw, std::uint64_t cookie, SimTime when) {
    if (!in_flight_ || sw != sw_ || cookie != cookie_) {
      ++stray_;
      return;
    }
    if (when < due_) ++premature_;
    confirm_ms_.push_back(static_cast<double>(when - due_) / 1e6);
    confirm_sum_ns_ += when - issued_;
    in_flight_ = false;
    next_at_ = when + kThink;
    rig_.fine_steps_from(std::numeric_limits<SimTime>::max());
  }

  void stop_issuing() { targets_.clear(); }

  [[nodiscard]] bool in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t issued() const { return issued_count_; }
  [[nodiscard]] std::uint64_t premature() const { return premature_; }
  [[nodiscard]] std::uint64_t stray() const { return stray_; }
  [[nodiscard]] std::uint64_t confirm_sum_ns() const { return confirm_sum_ns_; }
  [[nodiscard]] const std::vector<double>& confirm_ms() const {
    return confirm_ms_;
  }
  [[nodiscard]] const std::vector<double>& flowmod_us() const {
    return flowmod_us_;
  }
  [[nodiscard]] const std::vector<double>& by_kind_us(Kind k) const {
    return by_kind_us_[static_cast<int>(k)];
  }
  [[nodiscard]] double generation_share() const {
    return span_ns_ > 0 ? gen_ns_ / span_ns_ : 0;
  }
  [[nodiscard]] const std::map<SwitchId, openflow::FlowTable>& initial_tables()
      const {
    return initial_tables_;
  }
  [[nodiscard]] const std::vector<std::pair<SwitchId, openflow::FlowMod>>&
  stream() const {
    return stream_;
  }

 private:
  LoopFleet& rig_;
  Rng rng_;
  std::vector<SwitchId> targets_;
  Tracer& tracer_;
  std::unordered_map<SwitchId, std::vector<openflow::Rule>> added_;
  std::uint64_t next_cookie_ = 1'000'000;
  std::uint32_t next_host_ = 1;
  std::uint32_t next_xid_ = 1;
  bool in_flight_ = false;
  SwitchId sw_ = 0;
  std::uint64_t cookie_ = 0;
  Kind kind_ = Kind::kAdd;
  SimTime issued_ = 0;
  SimTime due_ = 0;
  SimTime next_at_ = 0;
  std::uint64_t issued_count_ = 0;
  std::uint64_t premature_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t confirm_sum_ns_ = 0;
  std::vector<double> confirm_ms_;
  std::vector<double> flowmod_us_;
  std::vector<double> by_kind_us_[3];
  double gen_ns_ = 0;
  double span_ns_ = 0;
  std::map<SwitchId, openflow::FlowTable> initial_tables_;
  std::vector<std::pair<SwitchId, openflow::FlowMod>> stream_;
};

}  // namespace loop_detail

/// What a loopback workload adds to the steady fleet.
struct LoopMix {
  bool robust = false;  // confirm_probes = 3 + evidence localization
  bool kills = false;   // shard kills, restored by the benchmark
  std::uint32_t loss_permille = 0;
};

/// The mix of a loopback workload; false for any other name.
inline bool loop_mix(const std::string& workload, LoopMix& mix) {
  if (workload == "steady") {
    mix = {};
  } else if (workload == "recovery") {
    mix = {true, true, 0};
  } else if (workload == "faults") {
    mix = {true, true, 20};
  } else {
    return false;
  }
  return true;
}

/// Fleet round throughput at two round workers (ROADMAP item 2's layer
/// judge; reported by the traced run only).  {round_us p50, probes/s}.
inline std::pair<double, double> sweep_two_workers(std::uint64_t seed,
                                                   bool robust) {
  Tracer off;
  LoopFleet::Options o;
  o.seed = seed;
  o.workers = 2;
  o.robust = robust;
  LoopFleet rig(o, off);
  rig.set_tracking(false);
  for (int i = 0; i < 200; ++i) rig.round();  // warm
  std::vector<double> round_us;
  std::uint64_t probes = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 1.5) {
    const std::int64_t r0 = now_ns();
    probes += rig.round();
    round_us.push_back(static_cast<double>(now_ns() - r0) / 1e3);
  }
  return {median(round_us), static_cast<double>(probes) / seconds_since(t0)};
}

inline Report run_loop_workload(const Args& args, const LoopMix& mix) {
  using namespace loop_detail;
  Report rep;
  Tracer tracer;

  // --- set-up, several times; the last fleet runs the workload ----------
  // setup_s is the fastest set-up in processor time.  This host has slow
  // phases of a few seconds in which the same set-up takes up to 1.5x as
  // long; set-ups at both ends of the run, 40 s apart, give the fastest
  // one a chance to land outside them.
  LoopFleet::Options opts;
  opts.seed = args.seed;
  opts.robust = mix.robust;
  std::vector<double> setup_s;       // processor time
  std::vector<double> setup_wall_s;  // shown as a `#` line
  std::vector<double> warm_us_per_rule;
  std::unique_ptr<LoopFleet> rig;
  auto set_up = [&] {
    rig.reset();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    rig = std::make_unique<LoopFleet>(opts, tracer);
    setup_wall_s.push_back(seconds_since(t0));
    setup_s.push_back(cpu_seconds() - c0);
    warm_us_per_rule.push_back(
        rig->prepare_s() * 1e6 /
        static_cast<double>(rig->fleet().monitorable_rule_count()));
  };
  for (int i = 0; i < kSetupReps; ++i) set_up();
  Fleet& fleet = rig->fleet();

  // --- the seeded inputs: crash victims, FlowMod targets, rule faults ----
  Rng rng(args.seed ^ 0xFA017000ull);
  std::vector<SwitchId> shards = rig->dpids();
  std::vector<SwitchId> kill_pool;
  if (mix.kills) {
    fleet.enable_supervision(
        Fleet::SupervisorOptions{.missed_rounds = 2, .auto_restore = false});
    while (kill_pool.size() < kKillPool) {
      const SwitchId sw = shards[rng.below(shards.size())];
      if (std::find(kill_pool.begin(), kill_pool.end(), sw) == kill_pool.end()) {
        kill_pool.push_back(sw);
      }
    }
  }
  rig->set_loss_permille(mix.loss_permille);
  std::vector<SwitchId> healthy_shards;
  std::vector<SwitchId> flowmod_targets;  // a modify must be able to move a
                                          // route to another port
  for (const SwitchId sw : shards) {
    if (std::find(kill_pool.begin(), kill_pool.end(), sw) != kill_pool.end()) {
      continue;
    }
    healthy_shards.push_back(sw);
    if (rig->ports(sw).size() > 1) flowmod_targets.push_back(sw);
  }
  auto fault_key = [](SwitchId sw, std::uint64_t cookie) {
    return monocle::bench::FastPathRig::catch_key(sw, cookie);
  };
  // Open faults by key (value: injection time), and repaired rules not yet
  // confirmed again.  A repaired rule's next probe clears its kFailed state.
  std::unordered_map<std::uint64_t, SimTime> open_faults;
  std::unordered_set<std::uint64_t> repaired;
  std::uint64_t faults_injected = 0;
  // A fault's TTD is the wait for the victim's next probe plus the
  // detection itself.  Victims are picked so that the time since their
  // last probe follows an evenly spread (golden-ratio) sequence over one
  // rotation: the TTD quantiles then measure the rotation and the
  // detection path, not the luck of a uniform draw, and stay steady
  // across seeds.
  const auto& schedule = fleet.schedule();
  const SimTime rotation = static_cast<SimTime>(schedule.round_count()) *
                           ((LoopFleet::kRulesPerShard +
                             LoopFleet::kProbesPerSwitch - 1) /
                            LoopFleet::kProbesPerSwitch) *
                           LoopFleet::kRoundInterval;
  auto inject_fault = [&]() -> bool {
    const double phase = std::fmod(
        (static_cast<double>(faults_injected) + 0.5) * 0.6180339887498949, 1.0);
    const auto target_age = static_cast<SimTime>(phase * static_cast<double>(rotation));
    const SimTime now = rig->now();
    SwitchId best_sw = 0;
    std::uint64_t best_cookie = 0;
    SimTime best_err = std::numeric_limits<SimTime>::max();
    for (std::size_t c = 0; c < kVictimCandidates; ++c) {
      const SwitchId sw = healthy_shards[rng.below(healthy_shards.size())];
      const std::uint64_t cookie = 1 + rng.below(LoopFleet::kRulesPerShard);
      const std::uint64_t k = fault_key(sw, cookie);
      if (open_faults.contains(k) || repaired.contains(k) ||
          fleet.monitor(sw)->rule_state(cookie) != RuleState::kConfirmed) {
        continue;
      }
      const SimTime last = rig->last_probe(sw, cookie);
      if (last == 0) continue;
      const SimTime age = now - last;
      const SimTime err = age > target_age ? age - target_age : target_age - age;
      if (err < best_err) {
        best_err = err;
        best_sw = sw;
        best_cookie = cookie;
      }
    }
    if (best_cookie == 0) return false;
    rig->fail_rule(best_sw, best_cookie);
    open_faults.emplace(fault_key(best_sw, best_cookie), now);
    ++faults_injected;
    return true;
  };

  loop_detail::FlowModStream flowmods(*rig, args.seed, flowmod_targets, tracer);
  std::vector<double> ttd_ms;
  std::uint64_t false_verdicts = 0;
  rig->on_confirmed = [&](SwitchId sw, std::uint64_t cookie, SimTime when) {
    flowmods.confirmed(sw, cookie, when);
  };
  rig->on_verdict = [&](SwitchId sw, std::uint64_t cookie, RuleState state) {
    const std::uint64_t k = fault_key(sw, cookie);
    if (state == RuleState::kConfirmed) {
      repaired.erase(k);
      return;
    }
    if (state != RuleState::kFailed) return;
    const auto it = open_faults.find(k);
    if (it == open_faults.end()) {
      if (false_verdicts++ < 10) {
        Report::info("kFailed on healthy rule: switch %llu cookie %llu at "
                     "%.3f s", static_cast<unsigned long long>(sw),
                     static_cast<unsigned long long>(cookie),
                     static_cast<double>(rig->now()) / 1e9);
      }
      return;
    }
    ttd_ms.push_back(static_cast<double>(rig->now() - it->second) / 1e6);
    open_faults.erase(it);
    rig->heal_rule(sw, cookie);
    repaired.insert(k);
  };

  std::vector<double> restore_us;
  std::unordered_set<SwitchId> down;  // killed, not yet restored
  std::uint64_t kills_issued = 0;
  bool injecting = true;  // faults and kills; off once the timed phase ends
  std::uint64_t round_index = 0;
  auto step = [&]() -> std::size_t {
    while (injecting && round_index >= kFirstFault &&
           open_faults.size() < kFaultsInFlight && inject_fault()) {
    }
    if (injecting && !kill_pool.empty() && round_index >= kFirstKill &&
        (round_index - kFirstKill) % kKillGap == 0) {
      const SwitchId sw = kill_pool[kills_issued % kill_pool.size()];
      if (!down.contains(sw)) {
        rig->crash_plan().kill_shard(sw, 0);  // dies at its next visit
        down.insert(sw);
        ++kills_issued;
      }
    }
    flowmods.maybe_issue();
    const std::size_t injected = rig->round();
    ++round_index;
    for (auto it = down.begin(); it != down.end();) {
      if (!fleet.shard_quarantined(*it)) {
        ++it;
        continue;
      }
      Scope span(tracer, SpanName::kRestoreShard);
      const std::int64_t t0 = now_ns();
      fleet.restore_shard(*it);
      restore_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      it = down.erase(it);
    }
    if (round_index % 10 == 0) {
      // A telemetry scrape every 100 ms of sim time.
      Scope span(tracer, SpanName::kPublish);
      fleet.publish_telemetry();
      rig->hub().poll();
    }
    return injected;
  };

  // --- timed phase: fixed wall windows, closed loop of rounds ------------
  const StatsSum before = sum_stats(fleet.shards());
  const std::uint64_t evidence_before = fleet.stats().evidence_passes;
  rig->keep_frames(args.trace ? 256 : 0);
  rig->start_coverage_clock();
  std::vector<double> window_pps[2];  // [0] untraced, [1] traced windows
  std::uint64_t traced_rounds = 0;
  std::uint64_t traced_round_probes = 0;
  const auto run_start = Clock::now();
  for (int w = 0; seconds_since(run_start) < args.seconds; ++w) {
    const bool traced = args.trace && (w % 2 == 1);
    tracer.enabled = traced;
    std::uint64_t probes = 0;
    std::uint64_t rounds = 0;
    const auto w0 = Clock::now();
    double elapsed = 0;
    while (true) {
      probes += step();
      ++rounds;
      if ((rounds & 7) == 0) {
        elapsed = seconds_since(w0);
        if (elapsed >= kWindowSeconds ||
            seconds_since(run_start) >= args.seconds) {
          break;
        }
      }
    }
    if (traced) {
      traced_rounds += rounds;
      traced_round_probes += probes;
    }
    if (elapsed >= kWindowSeconds * 0.99) {
      window_pps[traced ? 1 : 0].push_back(static_cast<double>(probes) /
                                           elapsed);
    }
  }
  tracer.enabled = false;
  const std::uint64_t timed_rounds = round_index;

  // --- drain: no new work; let in-flight FlowMods, faults and restores end
  flowmods.stop_issuing();
  injecting = false;
  auto settled = [&] {
    return !flowmods.in_flight() && rig->all_probed() && down.empty() &&
           open_faults.empty() && repaired.empty();
  };
  std::size_t drain_rounds = 0;
  while (!settled() && drain_rounds < kMaxDrainRounds) {
    step();
    ++drain_rounds;
  }

  // --- correctness ---------------------------------------------------------
  const StatsSum after = sum_stats(fleet.shards());
  const LoopFleet::PlaneStats plane = rig->plane_stats();
  // Every fault is repaired by now, so every rule should be healthy.
  std::uint64_t wrong_state = 0;
  for (const auto& [sw, mon] : fleet.shards()) {
    for (const openflow::Rule& r : mon->expected_table().rules()) {
      const RuleState s = mon->rule_state(r.cookie);
      if (s == RuleState::kFailed) ++false_verdicts;
      // Without loss every healthy rule ends confirmed (infrastructure
      // rules aside); under loss a rule may end mid-suspicion.
      if (mix.loss_permille == 0 && r.cookie < (1ull << 32) &&
          s != RuleState::kConfirmed &&
          s != RuleState::kUnmonitorable) {
        ++wrong_state;
      }
    }
  }
  if (!open_faults.empty()) rep.violation("injected faults never detected", open_faults.size());
  if (!repaired.empty()) rep.violation("repaired rules never confirmed again", repaired.size());
  if (false_verdicts > 0) rep.violation("kFailed verdicts on healthy rules", false_verdicts);
  if (wrong_state > 0) rep.violation("healthy rules not confirmed at the end", wrong_state);
  if (flowmods.in_flight()) rep.violation("FlowMod still unconfirmed after the drain");
  if (rig->updates_failed() > 0) rep.violation("FlowMods given up", rig->updates_failed());
  if (flowmods.premature() > 0) rep.violation("FlowMods confirmed before their install", flowmods.premature());
  if (flowmods.stray() > 0) rep.violation("confirmations of FlowMods not in flight", flowmods.stray());
  // A shard is restored only while in `down`, and leaves it on restore.
  if (!down.empty()) rep.violation("killed shards never restored", down.size());
  if (!rig->all_probed()) rep.violation("coverage never completed");
  if (after.probes_caught != plane.delivered) {
    // Every probe the stand-in delivered must reach its Monitor.
    const std::uint64_t d = after.probes_caught > plane.delivered
                                ? after.probes_caught - plane.delivered
                                : plane.delivered - after.probes_caught;
    rep.violation("delivered probes not answered", d);
  }
  // Confirm latency cross-check against the Monitor's own histogram sum.
  const std::uint64_t mon_sum = after.confirm_sum_ns - before.confirm_sum_ns;
  Report::info("confirm latency cross-check: benchmark sum %.6f ms, "
               "MonitorStats sum %.6f ms over %llu / %llu confirmations",
               static_cast<double>(flowmods.confirm_sum_ns()) / 1e6,
               static_cast<double>(mon_sum) / 1e6,
               static_cast<unsigned long long>(flowmods.confirm_ms().size()),
               static_cast<unsigned long long>(after.confirm_count -
                                               before.confirm_count));
  if (mon_sum != flowmods.confirm_sum_ns()) {
    rep.violation("confirm latency sum differs from MonitorStats");
  }
  rep.attempted = plane.delivered + plane.lost + flowmods.issued() +
                  faults_injected + kills_issued;

  Report::info("coverage: all %zu rules by %.1f ms, 99%% by %.1f ms",
               rig->first_probe_ms().size(),
               rig->first_probe_ms().empty() ? 0.0 : rig->first_probe_ms().back(),
               quantile_grouped(rig->first_probe_ms(), kCoverageQuantile,
                                kRoundMs));
  Report::info("stand-in probes: delivered=%llu lost=%llu failed_drops=%llu "
               "unrouted=%llu",
               static_cast<unsigned long long>(plane.delivered),
               static_cast<unsigned long long>(plane.lost),
               static_cast<unsigned long long>(plane.failed_drops),
               static_cast<unsigned long long>(plane.unrouted));
  Report::info("rounds timed=%llu drain=%zu faults=%llu flowmods=%llu "
               "diagnoses=%llu kills=%llu",
               static_cast<unsigned long long>(timed_rounds), drain_rounds,
               static_cast<unsigned long long>(faults_injected),
               static_cast<unsigned long long>(flowmods.issued()),
               static_cast<unsigned long long>(rig->diagnoses()),
               static_cast<unsigned long long>(kills_issued));
  Report::info("monitor counters: retries=%llu suspects_raised=%llu "
               "flap_suppressions=%llu",
               static_cast<unsigned long long>(after.retries - before.retries),
               static_cast<unsigned long long>(after.suspects_raised -
                                               before.suspects_raised),
               static_cast<unsigned long long>(after.flap_suppressions -
                                               before.flap_suppressions));
  Report::info("samples: windows=%zu flowmod=%zu confirm=%zu ttd=%zu setups=%d",
               window_pps[0].size(), flowmods.flowmod_us().size(),
               flowmods.confirm_ms().size(), ttd_ms.size(), 2 * kSetupReps - 1);
  const double coverage_ms = quantile_grouped(
      rig->first_probe_ms(), kCoverageQuantile, kRoundMs);
  // The set-ups after the run; the workload's fleet is gone from here on.
  auto final_set_ups = [&] {
    rig->on_confirmed = nullptr;
    rig->on_verdict = nullptr;
    for (int i = 1; i < kSetupReps; ++i) set_up();
    rig.reset();
    Report::info("set-up over %zu: processor time min %.4f s, median %.4f s; "
                 "wall median %.4f s",
                 setup_s.size(), min_of(setup_s), median(setup_s),
                 median(setup_wall_s));
  };
  if (flowmods.confirm_ms().size() < 200 || ttd_ms.size() < 200) {
    Report::info("WARNING: fewer than 200 samples behind a p95");
  }

  if (!args.trace) {
    final_set_ups();
    rep.add("probes_per_s", quantile(window_pps[0], kWindowQuantile),
            "probes/s");
    rep.add("flowmod_us_p50", quantile(flowmods.flowmod_us(), 0.5), "us");
    rep.add("flowmod_us_p95", quantile(flowmods.flowmod_us(), 0.95), "us");
    rep.add("confirm_ms_p50", quantile(flowmods.confirm_ms(), 0.5), "ms");
    rep.add("confirm_ms_p95", quantile(flowmods.confirm_ms(), 0.95), "ms");
    rep.add("ttd_ms_p50", quantile_grouped(ttd_ms, 0.5, kTtdTickMs), "ms");
    rep.add("ttd_ms_p95", quantile_grouped(ttd_ms, 0.95, kTtdTickMs), "ms");
    rep.add("coverage_ms", coverage_ms, "ms");
    rep.add("setup_s", min_of(setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  // --- traced run: per-layer numbers --------------------------------------
  // Direct-burst phase: the benchmark bursts each shard itself.
  tracer.enabled = true;
  std::uint64_t direct_probes = 0;
  for (int i = 0; i < 2000; ++i) direct_probes += rig->direct_burst_round();
  tracer.enabled = false;
  const auto& burst = tracer.totals(SpanName::kBurst);
  const double burst_self_per_probe =
      direct_probes > 0 ? burst.self_ns / static_cast<double>(direct_probes) : 0;
  const auto& start_round = tracer.totals(SpanName::kStartRound);
  const auto& inject = tracer.totals(SpanName::kInject);
  const auto& packet_in = tracer.totals(SpanName::kPacketIn);
  const auto& publish = tracer.totals(SpanName::kPublish);
  auto per = [](double total, std::uint64_t n, double scale) {
    return n == 0 ? 0.0 : total / static_cast<double>(n) / scale;
  };
  std::vector<double> diagnose_us;
  for (int i = 0; i < 5; ++i) {
    Scope span(tracer, SpanName::kDiagnose);
    const std::int64_t t0 = now_ns();
    const auto diag = fleet.diagnose();
    diagnose_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    (void)diag;
  }
  const auto [restamp_ns, parse_ns] = time_wire_layer(rig->sample_frames());
  const double encode_us = time_checkpoint_encode(fleet.shards());
  const double apply_us =
      time_table_apply(flowmods.initial_tables(), flowmods.stream());
  const double barrier_us = time_barrier_w2();
  std::string trace_path = ".bench_build/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (!tracer.write(trace_path)) trace_path = "(not written)";
  Report::info("spans written to %s", trace_path.c_str());
  const std::uint64_t flowmod_count = flowmods.issued();
  const double sim_s = static_cast<double>(rig->now()) / 1e9;
  const double evidence_per_sim_s =
      static_cast<double>(fleet.stats().evidence_passes - evidence_before) /
      sim_s;
  const double kprobes = static_cast<double>(plane.delivered + plane.lost +
                                             plane.failed_drops) / 1e3;
  final_set_ups();  // the 2-worker sweep then builds its own fleet
  const auto [round_us_w2, pps_w2] = sweep_two_workers(args.seed, mix.robust);

  const double traced_pps = quantile(window_pps[1], kWindowQuantile);
  const double untraced_pps = quantile(window_pps[0], kWindowQuantile);
  rep.add("monitor.burst_ns_per_probe", burst_self_per_probe, "ns");
  rep.add("multiplexer.inject_ns", per(inject.self_ns, inject.count, 1), "ns");
  rep.add("multiplexer.packet_in_ns",
          per(packet_in.total_ns, packet_in.count, 1), "ns");
  rep.add("netbase.restamp_ns", restamp_ns, "ns");
  rep.add("netbase.parse_ns", parse_ns, "ns");
  rep.add("fleet.round_self_us",
          per(start_round.self_ns -
                  burst_self_per_probe * static_cast<double>(traced_round_probes),
              traced_rounds, 1e3),
          "us");
  rep.add("checkpoint.encode_us", encode_us, "us");
  rep.add("telemetry.publish_us", per(publish.total_ns, publish.count, 1e3), "us");
  rep.add("sat.warm_us_per_rule", median(warm_us_per_rule), "us");
  rep.add("monitor.flowmod_us.add", median(flowmods.by_kind_us(Kind::kAdd)), "us");
  rep.add("monitor.flowmod_us.modify", median(flowmods.by_kind_us(Kind::kModify)), "us");
  rep.add("monitor.flowmod_us.delete", median(flowmods.by_kind_us(Kind::kDelete)), "us");
  rep.add("monitor.generation_share", flowmods.generation_share(), "ratio");
  rep.add("openflow.table_apply_us", apply_us, "us");
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  rep.add("probe_batch.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  rep.add("probe_batch.delta_regens",
          per(static_cast<double>(after.delta_regens - before.delta_regens),
              flowmod_count, 1),
          "count/flowmod");
  rep.add("probe_batch.scratch_regens",
          per(static_cast<double>(after.scratch_regens - before.scratch_regens),
              flowmod_count, 1),
          "count/flowmod");
  rep.add("monitor.retries",
          kprobes > 0 ? static_cast<double>(after.retries - before.retries) / kprobes : 0,
          "count/kprobe");
  rep.add("monitor.suspects_raised",
          kprobes > 0 ? static_cast<double>(after.suspects_raised -
                                            before.suspects_raised) / kprobes
                      : 0,
          "count/kprobe");
  rep.add("fleet.restore_shard_us", restore_us.empty() ? 0 : median(restore_us), "us");
  rep.add("localizer.diagnose_us", median(diagnose_us), "us");
  rep.add("fleet.evidence_passes", evidence_per_sim_s, "count/sim_s");
  rep.add("round_engine.barrier_us_w2", barrier_us, "us");
  rep.add("fleet.round_us_w2", round_us_w2, "us");
  rep.add("round_engine.probes_per_s_w2", pps_w2, "probes/s");
  rep.add("trace.probes_per_s", traced_pps, "probes/s");
  rep.add("trace.overhead_share",
          untraced_pps > 0 ? 1.0 - traced_pps / untraced_pps : 0, "ratio");
  return rep;
}

}  // namespace perfbench
