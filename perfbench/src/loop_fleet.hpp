// The production Fleet over a loopback stand-in data plane: the rig behind
// the `steady`, `recovery` and `faults` workloads and the 2-worker sweep.
//
// The stand-in reuses bench/fastpath_harness.hpp's SlotRuntime and its
// catch-point model (a probe for rule R of switch S is caught by the peer
// behind R's output port), and adds the three things these workloads need:
// an install delay per FlowMod (so update confirmation waits on the data
// plane), persistent rule failures (probes of a failed rule vanish) and
// seeded probe loss.  Everything else a probe touches is the program's
// production path: Fleet rounds, Monitor bursts, Multiplexer inject and
// PacketIn routing, classification, telemetry and checkpointing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/fastpath_harness.hpp"
#include "common.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/fleet.hpp"
#include "monocle/schedule.hpp"
#include "netbase/probe_metadata.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "telemetry/hub.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace perfbench {

using monocle::Fleet;
using monocle::Monitor;
using monocle::RuleState;
using monocle::SwitchId;
using monocle::netbase::SimTime;
using monocle::netbase::kMillisecond;
namespace openflow = monocle::openflow;

class LoopFleet {
 public:
  /// The fleet every loopback workload runs: a 500-shard Rocketfuel-like
  /// graph, 64 even host routes per shard, 4 probes per switch per round,
  /// telemetry hub and checkpoint store on (both in memory).
  static constexpr std::size_t kShards = 500;
  static constexpr std::size_t kRulesPerShard = 64;
  static constexpr std::size_t kProbesPerSwitch = 4;

  struct Options {
    std::uint64_t seed = 1;
    std::size_t workers = 1;
    /// Robust verdicts: K-of-N suspect confirmation and evidence
    /// localization (the `recovery` and `faults` configuration).
    bool robust = false;
  };

  static constexpr SimTime kRoundInterval = 10 * kMillisecond;
  /// Timers fire at step boundaries.  A round advances the clock in one
  /// step, or in kFineStep steps once fine_steps_from() is due, so that an
  /// update confirmation resolves to 1 ms without paying fine steps on
  /// every round.
  static constexpr SimTime kFineStep = 1 * kMillisecond;

  LoopFleet(const Options& opts, Tracer& tracer)
      : tracer_(tracer),
        topo_(monocle::topo::make_rocketfuel_as(kShards, opts.seed)),
        view_(topo_),
        loss_rng_(opts.seed ^ 0x10550000ull) {
    for (monocle::topo::NodeId n = 0; n < topo_.node_count(); ++n) {
      dpids_.push_back(view_.dpid_of(n));
    }
    plan_ = monocle::CatchPlan::build(topo_, dpids_,
                                      monocle::CatchStrategy::kSingleField);
    mux_ = std::make_unique<monocle::Multiplexer>(&view_);
    for (std::size_t w = 0; w < std::max<std::size_t>(opts.workers, 1); ++w) {
      wk_.push_back(std::make_unique<Wk>());
    }

    Fleet::Config cfg;
    cfg.round_interval = kRoundInterval;
    cfg.probes_per_switch = kProbesPerSwitch;
    cfg.warmup_threads = 1;
    cfg.round_workers = opts.workers;
    if (opts.workers > 1) {
      for (auto& wk : wk_) cfg.worker_runtimes.push_back(&wk->runtime);
    }
    if (opts.robust) {
      cfg.monitor.confirm_probes = 3;
      cfg.evidence_localization = true;
      cfg.on_diagnosis = [this](const monocle::NetworkDiagnosis&) {
        ++diagnoses_;
      };
    }
    cfg.telemetry = &hub_;
    cfg.checkpoints = &store_;
    cfg.crash_plan = &crash_;
    fleet_ = std::make_unique<Fleet>(cfg, &orch_, &view_, &plan_);

    for (const SwitchId sw : dpids_) {
      const monocle::SwitchOrdinal ord = mux_->intern(sw);
      monocle::Multiplexer::InjectContext* ctx =
          &wk_[fleet_->next_shard_worker() % wk_.size()]->ctx;
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      hooks.inject = [this, ord, ctx](std::uint16_t in_port,
                                      std::span<const std::uint8_t> bytes) {
        Scope span(tracer_, SpanName::kInject);
        return mux_->inject_at(ord, in_port, bytes, ctx);
      };
      hooks.on_update_confirmed = [this, sw](std::uint64_t cookie,
                                             SimTime when) {
        Scope span(tracer_, SpanName::kConfirmHook);
        if (on_confirmed) on_confirmed(sw, cookie, when);
      };
      hooks.on_update_failed = [this](std::uint64_t, SimTime) {
        ++updates_failed_;
      };
      hooks.on_verdict = [this, sw](std::uint64_t cookie, RuleState state,
                                    openflow::Epoch) {
        if (on_verdict) on_verdict(sw, cookie, state);
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_->register_monitor(sw, mon);
      // Queue on the calling worker (the probed shard's owner), so a
      // probe's PacketOut -> PacketIn trip stays on one thread.
      mux_->set_switch_sender(sw, [this](const openflow::Message& m) {
        Scope span(tracer_, SpanName::kSender);
        const std::size_t cw = monocle::RoundEngine::current_worker();
        queue_packet_out(*wk_[cw < wk_.size() ? cw : 0], m);
      });
      for (const openflow::Rule& r : monocle::workloads::l3_host_routes_even(
               kRulesPerShard, view_.ports(sw))) {
        mon->seed_rule(r);
        install(sw, r);
      }
    }
    fleet_->set_schedule(monocle::RoundSchedule::build(topo_, dpids_));

    const auto t0 = Clock::now();
    fleet_->prepare();
    prepare_s_ = seconds_since(t0);
    mux_->warm_routes();
  }

  ~LoopFleet() { fleet_->stop(); }
  LoopFleet(const LoopFleet&) = delete;
  LoopFleet& operator=(const LoopFleet&) = delete;

  /// One round: the fleet bursts, looped-back PacketIns are delivered, then
  /// the clock advances one round interval (timers fire, due FlowMod
  /// installs land, the PacketIns of timer-driven probes are delivered).
  /// Returns probes injected by the round itself.
  std::size_t round() {
    std::size_t injected = 0;
    {
      Scope span(tracer_, SpanName::kStartRound);
      injected = fleet_->start_round();
    }
    deliver_all();
    advance_round();
    return injected;
  }

  /// The traced run's direct-burst round: the benchmark itself bursts every
  /// shard of the next schedule round (Fleet::start_round's per-shard work
  /// at one worker, minus orchestration), so the Monitor burst gets a span
  /// of its own.
  std::size_t direct_burst_round() {
    const auto& schedule = fleet_->schedule();
    const auto& members = schedule.round(direct_cursor_++ %
                                         schedule.round_count());
    std::size_t injected = 0;
    for (const SwitchId sw : members) {
      if (fleet_->shard_quarantined(sw)) continue;
      Scope span(tracer_, SpanName::kBurst);
      injected += fleet_->monitor(sw)->steady_probe_burst(kProbesPerSwitch);
    }
    deliver_all();
    advance_round();
    return injected;
  }

  // --- the stand-in data plane ------------------------------------------
  /// The data plane starts (kInstall) or stops (kRemove) forwarding `rule`
  /// at sim time `due` — the switch's install delay.
  enum class Change : std::uint8_t { kInstall, kRemove };
  void schedule_change(SwitchId sw, const openflow::Rule& rule, Change change,
                       SimTime due) {
    changes_.push_back({due, sw, rule, change});
  }

  /// From now on, every probe of (sw, cookie) vanishes.
  void fail_rule(SwitchId sw, std::uint64_t cookie) {
    const auto it = plane_.find(key(sw, cookie));
    if (it != plane_.end()) it->second.failed = true;
  }

  /// The rule forwards again (a failed rule repaired).
  void heal_rule(SwitchId sw, std::uint64_t cookie) {
    const auto it = plane_.find(key(sw, cookie));
    if (it != plane_.end()) it->second.failed = false;
  }

  /// Sim time of the last probe of (sw, cookie) the stand-in carried (0
  /// when never probed or unknown).
  [[nodiscard]] SimTime last_probe(SwitchId sw, std::uint64_t cookie) const {
    const auto it = plane_.find(key(sw, cookie));
    return it == plane_.end() ? 0 : it->second.last_probe;
  }

  void set_loss_permille(std::uint32_t permille) { loss_permille_ = permille; }
  /// Rounds that reach sim time `t` advance in kFineStep steps.
  void fine_steps_from(SimTime t) { fine_from_ = t; }
  /// Coverage and last-probe tracking; off in the multi-worker sweep (its
  /// workers would race on the marks).
  void set_tracking(bool on) { tracking_ = on; }
  /// Starts the coverage clock: from now on, the first probe of every rule
  /// installed now is timed (see first_probe_ms()).
  void start_coverage_clock() {
    coverage_start_ = now();
    unprobed_ = 0;
    first_probe_ms_.clear();
    for (auto& [k, e] : plane_) {
      e.awaiting_probe = true;
      ++unprobed_;
    }
  }
  /// Sim ms from start_coverage_clock() to the first probe of each rule
  /// installed then, in probe order; complete once all_probed().
  [[nodiscard]] const std::vector<double>& first_probe_ms() const {
    return first_probe_ms_;
  }
  [[nodiscard]] bool all_probed() const { return unprobed_ == 0; }

  /// Probes the stand-in carried to a catcher, dropped by injected loss,
  /// dropped because their rule failed, and dropped because no rule
  /// forwards them (an update probe before its install lands).
  struct PlaneStats {
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t failed_drops = 0;
    std::uint64_t unrouted = 0;
  };
  [[nodiscard]] PlaneStats plane_stats() const {
    PlaneStats total;
    for (const auto& wk : wk_) {
      total.delivered += wk->stats.delivered;
      total.lost += wk->stats.lost;
      total.failed_drops += wk->stats.failed_drops;
      total.unrouted += wk->stats.unrouted;
    }
    return total;
  }

  /// A copy of the first probe frames the stand-in carried (the traced run
  /// re-stamps and parses them standalone).
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& sample_frames()
      const {
    return frames_;
  }
  void keep_frames(std::size_t n) { frames_wanted_ = n; }

  // --- accessors ---------------------------------------------------------
  [[nodiscard]] Fleet& fleet() { return *fleet_; }
  [[nodiscard]] monocle::CrashPlan& crash_plan() { return crash_; }
  [[nodiscard]] monocle::telemetry::TelemetryHub& hub() { return hub_; }
  [[nodiscard]] const std::vector<SwitchId>& dpids() const { return dpids_; }
  [[nodiscard]] std::vector<std::uint16_t> ports(SwitchId sw) const {
    return view_.ports(sw);
  }
  [[nodiscard]] SimTime now() const { return orch_.now(); }
  [[nodiscard]] double prepare_s() const { return prepare_s_; }
  [[nodiscard]] std::uint64_t updates_failed() const { return updates_failed_; }
  [[nodiscard]] std::uint64_t diagnoses() const { return diagnoses_; }

  /// Observers the workloads attach (orchestration thread, 1 worker).
  std::function<void(SwitchId, std::uint64_t, SimTime)> on_confirmed;
  std::function<void(SwitchId, std::uint64_t, RuleState)> on_verdict;

 private:
  struct Entry {
    monocle::bench::FastPathRig::CatchPoint catch_point;
    bool failed = false;
    bool awaiting_probe = false;  // counted in unprobed_
    SimTime last_probe = 0;
  };
  struct PendingChange {
    SimTime due;
    SwitchId sw;
    openflow::Rule rule;
    Change change;
  };
  /// Everything one round worker owns.
  struct Wk {
    monocle::bench::SlotRuntime runtime;
    monocle::Multiplexer::InjectContext ctx;
    std::vector<monocle::bench::FastPathRig::PendingIn> pending;
    std::vector<openflow::PacketIn> pending_data;
    std::size_t pending_used = 0;
    PlaneStats stats;
  };

  static std::uint64_t key(SwitchId sw, std::uint64_t cookie) {
    return monocle::bench::FastPathRig::catch_key(sw, cookie);
  }

  void install(SwitchId sw, const openflow::Rule& r) {
    for (const auto& [port, rewrite] : r.outcome().emissions) {
      const auto peer = view_.peer(sw, port);
      if (!peer) break;
      Entry& e = plane_[key(sw, r.cookie)];
      e.catch_point = {peer->sw, peer->port};
      break;
    }
  }

  void queue_packet_out(Wk& wk, const openflow::Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const auto& po = m.as<openflow::PacketOut>();
    static constexpr std::uint8_t kMagic[4] = {0x4D, 0x4E, 0x43, 0x4C};
    const auto at = std::search(po.data.begin(), po.data.end(),
                                std::begin(kMagic), std::end(kMagic));
    if (at == po.data.end()) return;
    const auto meta = monocle::netbase::ProbeMetadataView::parse(std::span(
        po.data.data() + (at - po.data.begin()),
        po.data.size() - static_cast<std::size_t>(at - po.data.begin())));
    if (!meta) return;
    const auto it = plane_.find(key(meta->switch_id(), meta->rule_cookie()));
    if (it == plane_.end()) {
      ++wk.stats.unrouted;
      return;
    }
    Entry& e = it->second;
    if (tracking_) {
      e.last_probe = now();
      if (e.awaiting_probe) {
        e.awaiting_probe = false;
        --unprobed_;
        first_probe_ms_.push_back(
            static_cast<double>(now() - coverage_start_) / 1e6);
      }
    }
    if (frames_.size() < frames_wanted_) frames_.push_back(po.data);
    if (loss_permille_ > 0 && loss_rng_.below(1000) < loss_permille_) {
      ++wk.stats.lost;
      return;
    }
    if (e.failed) {
      ++wk.stats.failed_drops;
      return;
    }
    if (wk.pending.size() <= wk.pending_used) {
      wk.pending.resize(wk.pending_used + 1);
      wk.pending_data.resize(wk.pending_used + 1);
    }
    wk.pending[wk.pending_used].catcher = e.catch_point.catcher;
    wk.pending[wk.pending_used].live = true;
    wk.pending_data[wk.pending_used].in_port = e.catch_point.catcher_in_port;
    wk.pending_data[wk.pending_used].data.assign(po.data.begin(),
                                                 po.data.end());
    ++wk.pending_used;
    ++wk.stats.delivered;
  }

  void deliver(Wk& wk) {
    for (std::size_t i = 0; i < wk.pending_used; ++i) {
      if (!wk.pending[i].live) continue;
      wk.pending[i].live = false;
      Scope span(tracer_, SpanName::kPacketIn);
      mux_->on_packet_in(wk.pending[i].catcher, wk.pending_data[i]);
    }
    wk.pending_used = 0;
  }

  void deliver_all() {
    if (fleet_->worker_count() == 1) {
      deliver(*wk_[0]);
      return;
    }
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      fleet_->run_on_worker(w, [this, w] { deliver(*wk_[w]); });
    }
  }

  void apply_due_changes() {
    const SimTime t = now();
    for (std::size_t i = 0; i < changes_.size();) {
      PendingChange& c = changes_[i];
      if (c.due > t) {
        ++i;
        continue;
      }
      if (c.change == Change::kInstall) {
        install(c.sw, c.rule);
      } else {
        // Only rules the FlowMod stream added are ever removed, and those
        // are not in the coverage set.
        plane_.erase(key(c.sw, c.rule.cookie));
      }
      c = std::move(changes_.back());
      changes_.pop_back();
    }
  }

  void advance_round() {
    if (fleet_->worker_count() > 1) {
      // The multi-worker sweep carries no FlowMods: one advance per round.
      for (std::size_t w = 0; w < wk_.size(); ++w) {
        fleet_->run_on_worker(w, [this, w] {
          wk_[w]->runtime.advance(kRoundInterval);
          deliver(*wk_[w]);
        });
      }
      orch_.advance(kRoundInterval);
      return;
    }
    const SimTime step =
        now() + kRoundInterval > fine_from_ ? kFineStep : kRoundInterval;
    for (SimTime t = 0; t < kRoundInterval; t += step) {
      orch_.advance(step);
      if (!changes_.empty()) apply_due_changes();
      deliver(*wk_[0]);
    }
  }

  Tracer& tracer_;
  monocle::topo::Topology topo_;
  monocle::topo::TopoView view_;
  monocle::CatchPlan plan_;
  monocle::bench::SlotRuntime orch_;
  monocle::telemetry::TelemetryHub hub_;
  monocle::telemetry::CheckpointStore store_;
  monocle::CrashPlan crash_;
  std::unique_ptr<monocle::Multiplexer> mux_;
  std::vector<std::unique_ptr<Wk>> wk_;  // stable: ctx pointers captured
  std::unique_ptr<Fleet> fleet_;
  std::vector<SwitchId> dpids_;

  std::unordered_map<std::uint64_t, Entry> plane_;
  std::vector<PendingChange> changes_;
  Rng loss_rng_;
  std::uint32_t loss_permille_ = 0;
  SimTime fine_from_ = std::numeric_limits<SimTime>::max();
  bool tracking_ = true;
  std::size_t unprobed_ = 0;
  SimTime coverage_start_ = 0;
  std::vector<double> first_probe_ms_;
  std::vector<std::vector<std::uint8_t>> frames_;
  std::size_t frames_wanted_ = 0;
  std::size_t direct_cursor_ = 0;
  double prepare_s_ = 0;
  std::uint64_t updates_failed_ = 0;
  std::uint64_t diagnoses_ = 0;
};

}  // namespace perfbench
