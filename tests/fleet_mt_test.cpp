// Multithreaded fleet round engine (PR 7): RoundEngine semantics, the
// WallclockRuntime cross-thread post lane, seeded determinism parity of the
// N-worker driver against the single-threaded baseline (classifications AND
// localization verdicts byte-identical), cross-worker localization report
// delivery through the Fleet mailbox, mid-round stress teardown, and the
// Fleet::Stats consistent-snapshot regression, changed-only checkpoint
// parity (a skipped shard's stored snapshot equals a fresh encode) at 1 and
// 2 workers, the round plan's rebuilds, and per-worker inject contexts
// across a shard migration.  This suite carries the
// `tsan` ctest label: the CI ThreadSanitizer leg builds it with
// -fsanitize=thread, so every cross-thread edge here is a checked claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/fastpath_harness.hpp"
#include "channel/wallclock_runtime.hpp"
#include "monocle/checkpoint.hpp"
#include "monocle/crash_plan.hpp"
#include "monocle/fleet.hpp"
#include "monocle/localizer.hpp"
#include "monocle/multiplexer.hpp"
#include "monocle/round_engine.hpp"
#include "monocle/schedule.hpp"
#include "telemetry/checkpoint_store.hpp"
#include "topo/generators.hpp"
#include "topo/topo_view.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::kMillisecond;

// ---------------------------------------------------------------------------
// RoundEngine semantics
// ---------------------------------------------------------------------------

TEST(RoundEngine, RoundSumsWorkerContributions) {
  RoundEngine engine(4);
  ASSERT_EQ(engine.worker_count(), 4u);
  engine.set_round_job([](std::size_t worker) { return worker + 1; });
  // 1 + 2 + 3 + 4, every round, every worker exactly once.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(engine.run_round(), 10u);
  }
}

TEST(RoundEngine, RunOnTargetsTheRequestedWorker) {
  RoundEngine engine(4);
  std::vector<std::thread::id> ids(4);
  for (std::size_t w = 0; w < 4; ++w) {
    engine.run_on(w, [&ids, w] {
      ids[w] = std::this_thread::get_id();
      EXPECT_EQ(RoundEngine::current_worker(), w);
    });
  }
  // Four distinct worker threads, none of them this one.
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
}

TEST(RoundEngine, StopIsIdempotentAndTerminal) {
  RoundEngine engine(3);
  engine.set_round_job([](std::size_t) { return std::size_t{1}; });
  EXPECT_EQ(engine.run_round(), 3u);
  EXPECT_TRUE(engine.running());
  engine.stop();
  engine.stop();  // second stop is a no-op
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(engine.run_round(), 0u);  // rounds after stop inject nothing
}

TEST(RoundEngine, CurrentWorkerIsSentinelOutsideWorkers) {
  EXPECT_EQ(RoundEngine::current_worker(), SIZE_MAX);
  RoundEngine engine(2);
  engine.quiesce();  // barrier with no work is fine
  EXPECT_EQ(RoundEngine::current_worker(), SIZE_MAX);
}

// ---------------------------------------------------------------------------
// WallclockRuntime cross-thread post lane
// ---------------------------------------------------------------------------

TEST(WallclockRuntime, PostRunsClosuresOnTheLoopThread) {
  channel::WallclockRuntime rt;
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  std::thread poster([&rt, &ran, &loop_thread] {
    rt.post([&ran, &loop_thread] {
      loop_thread = std::this_thread::get_id();
      ran.store(true, std::memory_order_release);
    });
  });
  // The loop observes the posted closure within its 50 ms wait cap.
  rt.run(nullptr, [&ran] { return ran.load(std::memory_order_acquire); });
  poster.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(loop_thread, std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Seeded determinism parity: N workers vs the single-threaded driver
// ---------------------------------------------------------------------------

TEST(MtFastPath, ClassificationsMatchSingleWorkerByteForByte) {
  const auto topo = topo::make_rocketfuel_as(24, 7);
  std::vector<std::uint64_t> reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    bench::MtFastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = 6;
    bench::MtFastPathRig rig(topo, opts);
    for (int round = 0; round < 12; ++round) rig.round(3);
    rig.stop();
    EXPECT_GT(rig.probes_injected(), 0u);
    EXPECT_EQ(rig.probes_caught(), rig.probes_injected());
    const auto sig = rig.classification_signature();
    if (reference.empty()) {
      reference = sig;
    } else {
      EXPECT_EQ(sig, reference)
          << "classifications diverged at " << workers << " workers";
    }
  }
}

TEST(MtFastPath, FailurePathMatchesSingleWorkerByteForByte) {
  // Drop every third rule's probes at the loopback: those rules march
  // through timeout -> retry -> failure on every worker count, exercising
  // the timer path (worker-local runtimes) and the verdict machine.
  const auto topo = topo::make_rocketfuel_as(16, 11);
  std::vector<std::uint64_t> reference;
  std::set<std::pair<SwitchId, std::uint64_t>> reference_failed;
  for (const std::size_t workers : {1u, 4u}) {
    bench::MtFastPathRig::Options opts;
    opts.workers = workers;
    opts.rules_per_switch = 6;
    opts.fail_stride = 3;
    bench::MtFastPathRig rig(topo, opts);
    for (int round = 0; round < 6; ++round) {
      rig.round(3);
      rig.advance(60 * kMillisecond);  // past probe_timeout: retries fire
    }
    rig.advance(600 * kMillisecond);  // exhaust every retry train
    rig.stop();

    std::set<std::pair<SwitchId, std::uint64_t>> failed;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      const SwitchId sw = topo::TopoView(topo).dpid_of(n);
      for (const openflow::Rule& r :
           rig.monitor(sw).expected_table().rules()) {
        if (rig.monitor(sw).rule_state(r.cookie) == RuleState::kFailed) {
          failed.emplace(sw, r.cookie);
        }
      }
    }
    EXPECT_FALSE(failed.empty()) << "fail_stride produced no failures";
    const auto sig = rig.classification_signature();
    if (reference.empty()) {
      reference = sig;
      reference_failed = failed;
    } else {
      EXPECT_EQ(sig, reference);
      EXPECT_EQ(failed, reference_failed);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet with the multi-worker driver: a loopback rig around Fleet itself
// ---------------------------------------------------------------------------

/// Fleet-level loopback rig: per-worker SlotRuntimes + InjectContexts wired
/// through Fleet::Config::worker_runtimes, probes looped back worker-locally
/// exactly like bench::MtFastPathRig, plus switch-level failure injection
/// (probes of dead switches vanish).  workers == 1 runs the single-threaded
/// Fleet driver on the orchestration runtime — the parity baseline.
class FleetMtRig {
 public:
  /// Optional crash-safety plane (docs/DESIGN.md §15), off by default so the
  /// parity tests keep their exact baseline config.
  struct Extras {
    telemetry::CheckpointStore* checkpoints = nullptr;
    CrashPlan* crash_plan = nullptr;
    /// Monitor::Config::confirm_probes (K-of-N suspect machine; 0 = off).
    int confirm_probes = 0;
  };

  // Two overloads instead of `Extras extras = {}` (GCC 12 nested-class
  // NSDMI workaround, same as Fleet::enable_supervision).
  FleetMtRig(const topo::Topology& topo, std::size_t workers,
             std::set<SwitchId> dead = {})
      : FleetMtRig(topo, workers, std::move(dead), Extras{}) {}
  FleetMtRig(const topo::Topology& topo, std::size_t workers,
             std::set<SwitchId> dead, Extras extras)
      : view_(topo), dead_(std::move(dead)) {
    std::vector<SwitchId> dpids;
    for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
      dpids.push_back(view_.dpid_of(n));
    }
    plan_ = CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);
    mux_ = std::make_unique<Multiplexer>(&view_);

    for (std::size_t w = 0; w < std::max<std::size_t>(workers, 1); ++w) {
      wk_.push_back(std::make_unique<Wk>());
    }

    Fleet::Config config;
    config.monitor.probe_timeout = 20 * kMillisecond;
    config.monitor.probe_retries = 1;
    config.monitor.confirm_probes = extras.confirm_probes;
    config.probes_per_switch = 3;
    config.localize_debounce = 50 * kMillisecond;
    config.on_diagnosis = [this](const NetworkDiagnosis& d) {
      diagnoses_.push_back(d);
    };
    config.round_workers = workers;
    config.checkpoints = extras.checkpoints;
    config.crash_plan = extras.crash_plan;
    if (workers > 1) {
      for (auto& wk : wk_) config.worker_runtimes.push_back(&wk->runtime);
    }
    fleet_ = std::make_unique<Fleet>(config, &orch_, &view_, &plan_);

    for (const SwitchId sw : dpids) {
      const SwitchOrdinal ord = mux_->intern(sw);
      Monitor::Hooks hooks;
      hooks.to_switch = [](const openflow::Message&) {};
      hooks.to_controller = [](const openflow::Message&) {};
      // Send through the CALLING worker's inject context, not one bound at
      // registration: restore_shard may migrate the shard to another worker.
      hooks.inject = [this, ord](std::uint16_t in_port,
                                 std::span<const std::uint8_t> bytes) {
        const std::size_t cw = RoundEngine::current_worker();
        return mux_->inject_at(ord, in_port, bytes,
                               cw < wk_.size() ? &wk_[cw]->ctx : nullptr);
      };
      Monitor* mon = fleet_->add_shard(sw, std::move(hooks));
      mux_->register_monitor(sw, mon);
      // Loopback sender: queue on the CALLING worker (the probed shard's
      // owner), so delivery stays thread-local (see bench::MtFastPathRig).
      mux_->set_switch_sender(sw, [this](const openflow::Message& m) {
        const std::size_t cw = RoundEngine::current_worker();
        queue_packet_out(*wk_[cw < wk_.size() ? cw : 0], m);
      });
      for (const openflow::Rule& r :
           workloads::l3_host_routes_even(4, view_.ports(sw))) {
        mon->seed_rule(r);
      }
    }
    fleet_->prepare();
    for (const SwitchId sw : dpids) {
      const Monitor& mon = *fleet_->monitor(sw);
      for (const openflow::Rule& r : mon.expected_table().rules()) {
        if (mon.rule_state(r.cookie) != RuleState::kConfirmed) continue;
        add_catch_point(sw, r);
      }
    }
    // The Fleet only warms routes for the backend add_shard overload; the
    // plain overload leaves the Multiplexer to the host — us.
    mux_->warm_routes();
  }

  /// One fleet round, then worker-local delivery of its loopbacks.
  std::size_t round() {
    const std::size_t injected = fleet_->start_round();
    for (std::size_t w = 0; w < wk_.size(); ++w) {
      fleet_->run_on_worker(w, [this, w] { deliver_pending(*wk_[w]); });
    }
    return injected;
  }

  /// Advances shard timers on their owning workers (multi) or the
  /// orchestration runtime (single), then the orchestration timers —
  /// debounced localization fires here.
  void advance(netbase::SimTime by) {
    if (fleet_->worker_count() > 1) {
      for (std::size_t w = 0; w < wk_.size(); ++w) {
        fleet_->run_on_worker(w, [this, w, by] {
          wk_[w]->runtime.advance(by);
          deliver_pending(*wk_[w]);
        });
      }
    }
    orch_.advance(by);
    if (fleet_->worker_count() == 1) deliver_pending(*wk_[0]);
  }

  /// Where the loopback delivers probes of `rule` (its first egress peer).
  /// Between rounds only: workers read the map while a round runs.
  void add_catch_point(SwitchId sw, const openflow::Rule& r) {
    for (const auto& [port, rewrite] : r.outcome().emissions) {
      const auto peer = view_.peer(sw, port);
      if (!peer) break;
      catch_points_[bench::FastPathRig::catch_key(sw, r.cookie)] =
          bench::FastPathRig::CatchPoint{peer->sw, peer->port};
      break;
    }
  }
  /// Rule-level failure injection: probes of (sw, cookie) vanish.  Between
  /// rounds only.
  void fail_rule(SwitchId sw, std::uint64_t cookie) {
    dropped_.insert(bench::FastPathRig::catch_key(sw, cookie));
  }
  void heal_rule(SwitchId sw, std::uint64_t cookie) {
    dropped_.erase(bench::FastPathRig::catch_key(sw, cookie));
  }

  [[nodiscard]] Fleet& fleet() { return *fleet_; }
  [[nodiscard]] Multiplexer& mux() { return *mux_; }
  [[nodiscard]] const std::vector<NetworkDiagnosis>& diagnoses() const {
    return diagnoses_;
  }
  [[nodiscard]] std::size_t pending_timers() const {
    std::size_t n = orch_.pending();
    for (const auto& wk : wk_) n += wk->runtime.pending();
    return n;
  }

  /// Flattened, comparable form of a diagnosis (order is deterministic:
  /// the localizer sorts its output).
  static std::vector<std::uint64_t> flatten(const NetworkDiagnosis& d) {
    std::vector<std::uint64_t> out;
    for (const auto& l : d.links) {
      out.insert(out.end(), {l.a, l.port_a, l.b, l.port_b,
                             static_cast<std::uint64_t>(l.corroborated),
                             l.failed_rules});
    }
    out.push_back(0xFFFF'FFFF'FFFF'FFFFull);
    for (const auto& s : d.switches) {
      out.insert(out.end(), {s.sw, s.suspect_links, s.total_links,
                             s.failed_rules});
    }
    out.push_back(0xFFFF'FFFF'FFFF'FFFFull);
    for (const auto& i : d.isolated) out.insert(out.end(), {i.sw, i.cookie});
    return out;
  }

  /// Per-rule classification fingerprint across every shard.
  [[nodiscard]] std::vector<std::uint64_t> classification_signature() const {
    std::vector<std::uint64_t> sig;
    for (const auto& [sw, mon] : fleet_->shards()) {
      sig.push_back(sw);
      for (const openflow::Rule& r : mon->expected_table().rules()) {
        sig.push_back(r.cookie);
        sig.push_back(static_cast<std::uint64_t>(mon->rule_state(r.cookie)));
      }
    }
    return sig;
  }

 private:
  struct Wk {
    bench::SlotRuntime runtime;
    Multiplexer::InjectContext ctx;
    std::vector<bench::FastPathRig::PendingIn> pending;
    std::vector<openflow::PacketIn> pending_data;
    std::size_t pending_used = 0;
  };

  void queue_packet_out(Wk& wk, const openflow::Message& m) {
    if (!m.is<openflow::PacketOut>()) return;
    const auto& po = m.as<openflow::PacketOut>();
    static constexpr std::uint8_t kMagic[4] = {0x4D, 0x4E, 0x43, 0x4C};
    const auto at = std::search(po.data.begin(), po.data.end(),
                                std::begin(kMagic), std::end(kMagic));
    if (at == po.data.end()) return;
    const auto meta = netbase::ProbeMetadataView::parse(std::span(
        po.data.data() + (at - po.data.begin()),
        po.data.size() - static_cast<std::size_t>(at - po.data.begin())));
    if (!meta) return;
    if (dead_.count(meta->switch_id()) != 0) return;  // dead switch: vanish
    const std::uint64_t key =
        bench::FastPathRig::catch_key(meta->switch_id(), meta->rule_cookie());
    if (dropped_.count(key) != 0) return;  // failed rule: vanish
    const auto it = catch_points_.find(key);
    if (it == catch_points_.end()) return;
    if (wk.pending.size() <= wk.pending_used) {
      wk.pending.resize(wk.pending_used + 1);
      wk.pending_data.resize(wk.pending_used + 1);
    }
    wk.pending[wk.pending_used].catcher = it->second.catcher;
    wk.pending[wk.pending_used].live = true;
    wk.pending_data[wk.pending_used].in_port = it->second.catcher_in_port;
    wk.pending_data[wk.pending_used].data.assign(po.data.begin(),
                                                 po.data.end());
    ++wk.pending_used;
  }

  void deliver_pending(Wk& wk) {
    for (std::size_t i = 0; i < wk.pending_used; ++i) {
      if (!wk.pending[i].live) continue;
      wk.pending[i].live = false;
      mux_->on_packet_in(wk.pending[i].catcher, wk.pending_data[i]);
    }
    wk.pending_used = 0;
  }

  topo::TopoView view_;
  std::set<SwitchId> dead_;
  std::set<std::uint64_t> dropped_;  // catch keys of failed rules
  CatchPlan plan_;
  std::unique_ptr<Multiplexer> mux_;
  bench::SlotRuntime orch_;
  std::vector<std::unique_ptr<Wk>> wk_;
  std::unique_ptr<Fleet> fleet_;
  std::unordered_map<std::uint64_t, bench::FastPathRig::CatchPoint>
      catch_points_;
  std::vector<NetworkDiagnosis> diagnoses_;
};

TEST(FleetMt, LocalizationVerdictsMatchSingleWorkerDriver) {
  const auto topo = topo::make_rocketfuel_as(20, 5);
  const SwitchId dead = topo::TopoView(topo).dpid_of(3);

  std::vector<std::uint64_t> ref_sig;
  std::vector<std::uint64_t> ref_diag;
  for (const std::size_t workers : {1u, 8u}) {
    FleetMtRig rig(topo, workers, {dead});
    // Full schedule rotations with timer advances between: probes of the
    // dead switch time out, retry and fail on their shard's own runtime.
    const std::size_t rounds = rig.fleet().schedule().round_count();
    for (std::size_t i = 0; i < rounds * 2; ++i) {
      rig.round();
      rig.advance(25 * kMillisecond);
    }
    rig.advance(200 * kMillisecond);
    EXPECT_GT(rig.fleet().failed_rule_count(), 0u) << workers << " workers";

    const auto sig = rig.classification_signature();
    const auto diag = FleetMtRig::flatten(rig.fleet().diagnose());
    if (ref_sig.empty()) {
      ref_sig = sig;
      ref_diag = diag;
    } else {
      EXPECT_EQ(sig, ref_sig) << "classifications diverged";
      EXPECT_EQ(diag, ref_diag) << "localization verdict diverged";
    }
    rig.fleet().stop();
    EXPECT_EQ(rig.pending_timers(), 0u);
  }
}

TEST(FleetMt, CrossWorkerAlarmsReachTheOrchestrationLocalizer) {
  const auto topo = topo::make_rocketfuel_as(20, 9);
  // Registration order == node order, so nodes 0 and 1 land on workers 0
  // and 1 of a 4-worker fleet: their alarms MUST cross workers through the
  // mailbox to arm the orchestration thread's debounce timer.
  const topo::TopoView view(topo);
  const std::set<SwitchId> dead = {view.dpid_of(0), view.dpid_of(1)};
  FleetMtRig rig(topo, 4, dead);

  const std::size_t rounds = rig.fleet().schedule().round_count();
  for (std::size_t i = 0; i < rounds * 2; ++i) {
    rig.round();
    rig.advance(25 * kMillisecond);
  }
  rig.advance(200 * kMillisecond);  // past the 50 ms localize debounce

  EXPECT_GT(rig.fleet().stats_snapshot().alarms, 0u);
  ASSERT_FALSE(rig.diagnoses().empty())
      << "worker alarms never reached the orchestration localizer";
  // The published diagnosis explains failures on BOTH dead switches —
  // reports from shards on different workers were all collected.
  const NetworkDiagnosis& d = rig.diagnoses().back();
  std::set<SwitchId> blamed;
  for (const auto& l : d.links) {
    blamed.insert(l.a);
    blamed.insert(l.b);
  }
  for (const auto& s : d.switches) blamed.insert(s.sw);
  for (const auto& i : d.isolated) blamed.insert(i.sw);
  for (const SwitchId sw : dead) {
    EXPECT_EQ(blamed.count(sw), 1u) << "diagnosis missed dead switch " << sw;
  }
  rig.fleet().stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

TEST(FleetMt, StressTeardownMidRoundLeavesNothingDangling) {
  const auto topo = topo::make_rocketfuel_as(32, 13);
  FleetMtRig rig(topo, 8);
  Fleet& fleet = rig.fleet();
  ASSERT_NE(fleet.engine(), nullptr);

  // Driver (orchestration) thread hammers rounds; this thread pulls the
  // plug mid-round through the one entry point that is thread-safe by
  // contract, RoundEngine::stop().  The driver's next start_round() sees
  // the dead engine and falls back to the inline path, which is fine — the
  // join inside stop() made the shards exclusively the driver's again.
  std::atomic<std::uint64_t> rounds{0};
  std::thread driver([&fleet, &rounds] {
    while (fleet.engine()->running()) {
      fleet.start_round();
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (rounds.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  fleet.engine()->stop();  // mid-round, from the wrong thread — by design
  driver.join();

  fleet.stop();
  // No dangling timers anywhere (worker runtimes AND orchestration), and
  // the counters were not torn by the teardown: fleet-side injection total
  // equals the sum over shards.
  EXPECT_EQ(rig.pending_timers(), 0u);
  std::uint64_t shard_total = 0;
  for (const auto& [sw, mon] : fleet.shards()) {
    shard_total += mon->stats().probes_injected;
  }
  EXPECT_EQ(fleet.stats_snapshot().probes_injected, shard_total);
}

TEST(FleetMt, StatsSnapshotIsConsistentUnderConcurrentRounds) {
  const auto topo = topo::make_rocketfuel_as(24, 17);
  FleetMtRig rig(topo, 4);
  Fleet& fleet = rig.fleet();

  // Telemetry scraper: loops consistent snapshots while rounds execute on
  // the workers.  Every snapshot must be coherent — probes_injected only
  // grows, and rounds_started never lags behind what we have observed.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread scraper([&fleet, &done, &snapshots] {
    std::uint64_t last_probes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Fleet::Stats s = fleet.stats_snapshot();
      EXPECT_GE(s.probes_injected, last_probes);
      last_probes = s.probes_injected;
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 200; ++i) rig.round();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Quiesced: the relaxed per-shard counters sum to the fleet totals.
  fleet.engine()->quiesce();
  std::uint64_t shard_total = 0;
  for (const auto& [sw, mon] : fleet.shards()) {
    shard_total += mon->stats().probes_injected;
  }
  const Fleet::Stats s = fleet.stats_snapshot();
  EXPECT_EQ(s.probes_injected, shard_total);
  EXPECT_EQ(s.rounds_started, 200u);
  fleet.stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

// ---------------------------------------------------------------------------
// Supervised recovery on the multi-worker driver (docs/DESIGN.md §15)
// ---------------------------------------------------------------------------

TEST(FleetMt, WorkerWedgeMigratesShardsToHealthyWorker) {
  // Wedge EVERY shard of worker 1 for a long window.  The supervisor knows
  // nothing about the plan — it sees worker 1's heartbeats stall, reads it
  // as a stuck worker, and migrates the shards to worker 2 (rebinding each
  // Monitor's Runtime), where they must resume bursting WHILE worker 1 is
  // still wedged.
  const auto topo = topo::make_rocketfuel_as(16, 21);
  telemetry::CheckpointStore store;
  CrashPlan plan;
  plan.wedge_worker(1, 20, 60);
  FleetMtRig rig(topo, 4, {}, {&store, &plan});
  Fleet& fleet = rig.fleet();
  Fleet::SupervisorOptions sup;
  sup.missed_rounds = 2;
  sup.min_worker_shards_stuck = 1;
  fleet.enable_supervision(sup);

  std::set<SwitchId> pinned;  // worker 1's shards, before any migration
  for (const auto& [sw, mon] : fleet.shards()) {
    if (fleet.shard_worker(sw) == 1) pinned.insert(sw);
  }
  ASSERT_GE(pinned.size(), 2u);

  for (int i = 0; i < 70; ++i) {
    rig.round();
    rig.advance(25 * kMillisecond);
  }

  const Fleet::SupervisorStats& stats = fleet.supervisor().stats;
  EXPECT_EQ(stats.quarantines, pinned.size());
  EXPECT_EQ(stats.worker_reassignments, pinned.size());
  EXPECT_EQ(stats.readmissions, pinned.size());
  EXPECT_EQ(stats.restores + stats.cold_restores, pinned.size());
  EXPECT_GE(stats.restores, 1u) << "checkpoints existed; restores must be warm";
  for (const SwitchId sw : pinned) {
    EXPECT_EQ(fleet.shard_worker(sw), 2u) << "shard " << sw << " not migrated";
    EXPECT_FALSE(fleet.shard_quarantined(sw));
    // Migrated shards are live again: probes flowed after re-admission.
    EXPECT_GT(fleet.monitor(sw)->stats().probes_injected, 0u);
  }
  // A healthy data plane through a wedge + migration yields zero failures.
  EXPECT_EQ(fleet.failed_rule_count(), 0u);
  fleet.stop();
  EXPECT_EQ(rig.pending_timers(), 0u);
}

TEST(FleetMt, MigratedShardSendsThroughItsNewWorkersInjectContext) {
  // Every leaf of a star injects through the hub, so all leaf shards share
  // one upstream deliverer.  restore_shard moves one leaf to the other
  // worker while its old worker keeps bursting the remaining leaves.  Each
  // PacketOut envelope (an InjectContext's scratch message) must then be
  // filled by exactly one worker: a migrated hook still bound to its old
  // worker's context has two workers writing one envelope and arena at once.
  const auto topo = topo::make_star(6);  // hub dpid 1, leaves 2..7
  const topo::TopoView view(topo);
  std::vector<SwitchId> dpids;
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    dpids.push_back(view.dpid_of(n));
  }
  const CatchPlan plan =
      CatchPlan::build(topo, dpids, CatchStrategy::kSingleField);

  struct EnvelopeLog {
    std::mutex mu;
    std::map<const openflow::Message*, std::set<std::size_t>> workers;
  };
  struct StubBackend final : channel::SwitchBackend {
    explicit StubBackend(EnvelopeLog* log) : log(log) {}
    void start() override {}
    void stop() override {}
    void send(const openflow::Message& m) override {
      if (!m.is<openflow::PacketOut>()) return;
      const std::lock_guard<std::mutex> lock(log->mu);
      log->workers[&m].insert(RoundEngine::current_worker());
    }
    void set_receiver(Receiver) override {}
    void set_state_handler(StateHandler) override {}
    [[nodiscard]] bool up() const override { return true; }
    [[nodiscard]] std::uint64_t datapath_id() const override { return 0; }
    EnvelopeLog* log;
  };

  // Declared before the Fleet: its destructor rebinds them monitor-less.
  EnvelopeLog log;
  Multiplexer mux(&view);
  std::vector<std::unique_ptr<StubBackend>> backends;
  bench::SlotRuntime orch;
  std::array<bench::SlotRuntime, 2> runtimes;

  Fleet::Config config;
  config.round_workers = 2;
  config.worker_runtimes = {&runtimes[0], &runtimes[1]};
  config.probes_per_switch = 4;
  Fleet fleet(config, &orch, &view, &plan);
  for (const SwitchId sw : dpids) {
    backends.push_back(std::make_unique<StubBackend>(&log));
    Monitor* mon = fleet.add_shard(sw, *backends.back(), mux);
    for (const openflow::Rule& r :
         workloads::l3_host_routes_even(4, view.ports(sw))) {
      mon->seed_rule(r);
    }
  }
  // Radius-1 colouring: the hub alone, then every leaf in one round.
  RoundScheduleOptions sched;
  sched.conflict_radius = 1;
  fleet.set_schedule(RoundSchedule::build(topo, dpids, sched));
  fleet.prepare();

  // The leaf to migrate, and the leaves its old worker keeps.
  const SwitchId moved = 3;
  const std::size_t from = fleet.shard_worker(moved);
  const std::size_t to = 1 - from;
  std::size_t stay = 0;
  for (const SwitchId sw : dpids) {
    stay += sw != 1 && sw != moved && fleet.shard_worker(sw) == from;
  }
  ASSERT_GE(stay, 2u);

  for (int i = 0; i < 10; ++i) fleet.start_round();
  ASSERT_TRUE(fleet.restore_shard(moved, to));
  ASSERT_EQ(fleet.shard_worker(moved), to);
  const std::uint64_t before = fleet.monitor(moved)->stats().probes_injected;
  for (int i = 0; i < 60; ++i) fleet.start_round();
  EXPECT_GT(fleet.monitor(moved)->stats().probes_injected, before)
      << "the migrated shard never burst on its new worker";
  fleet.stop();

  ASSERT_GE(log.workers.size(), 2u);
  for (const auto& [envelope, workers] : log.workers) {
    EXPECT_EQ(workers.size(), 1u)
        << "one PacketOut envelope was filled by " << workers.size()
        << " workers";
    EXPECT_EQ(workers.count(SIZE_MAX), 0u) << "probe sent off the workers";
  }
}

TEST(FleetMt, StressTeardownWithCheckpointWritesInFlight) {
  // The StressTeardown scenario with the checkpoint writer enabled: the
  // driver thread's rounds are appending snapshots through the reusable
  // encode buffers when the engine dies under it.  stop() must leave no
  // dangling timers AND no torn store state — every surviving snapshot
  // still decodes.
  const auto topo = topo::make_rocketfuel_as(32, 29);
  telemetry::CheckpointStore store;
  FleetMtRig rig(topo, 8, {}, {&store, nullptr});
  Fleet& fleet = rig.fleet();
  fleet.enable_supervision();
  ASSERT_NE(fleet.engine(), nullptr);

  std::atomic<std::uint64_t> rounds{0};
  std::thread driver([&fleet, &rounds] {
    while (fleet.engine()->running()) {
      fleet.start_round();
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (rounds.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  fleet.engine()->stop();  // mid-round, from the wrong thread — by design
  driver.join();
  fleet.stop();

  EXPECT_EQ(rig.pending_timers(), 0u);
  EXPECT_GT(store.appended(), 0u);
  const auto latest = store.load_latest();
  EXPECT_FALSE(latest.empty());
  for (const auto& [key, bytes] : latest) {
    if (key == Checkpoint::kFleetStateKey) {
      EXPECT_TRUE(FleetCheckpoint::decode(bytes).has_value());
    } else {
      const auto cp = Checkpoint::decode(bytes);
      ASSERT_TRUE(cp.has_value()) << "snapshot for shard " << key << " torn";
      EXPECT_EQ(cp->shard, key);
    }
  }
}


// ---------------------------------------------------------------------------
// Changed-only snapshots and the round plan
// ---------------------------------------------------------------------------

/// A snapshot payload with its `when` word (header word 2, which restore
/// never reads) zeroed, so two encodes of one state compare equal.
std::vector<std::uint8_t> without_when(std::vector<std::uint8_t> bytes) {
  constexpr std::size_t kWhenAt = 2 * sizeof(std::uint64_t);
  if (bytes.size() >= kWhenAt + sizeof(std::uint64_t)) {
    std::memset(bytes.data() + kWhenAt, 0, sizeof(std::uint64_t));
  }
  return bytes;
}

struct SnapshotParityCounts {
  std::size_t checked = 0;   // unchanged-version comparisons made
  std::size_t written = 0;   // rounds whose visited shard was encoded
  std::size_t skipped = 0;   // rounds whose visited shard was unchanged
};

/// Randomized churn (benign modifies and cookie rotations), rule faults
/// and CrashPlan kills/wedges/tears with supervised restores.  Two checks:
///  * after every round, each shard the writer would skip — its checkpoint
///    version and budget equal those of its stored snapshot — must have
///    that stored snapshot byte-equal (when aside) to a fresh encode;
///  * after every round and every timer advance, each shard whose
///    checkpoint_version() did not move since the previous check must
///    encode the same bytes as then (the version contract itself, checked
///    on every shard, not only the one the writer visits).
SnapshotParityCounts run_snapshot_parity(std::size_t workers,
                                         telemetry::CheckpointStore& store,
                                         std::uint64_t seed) {
  SnapshotParityCounts counts;
  const auto topo = topo::make_rocketfuel_as(16, 21);
  CrashPlan plan;
  FleetMtRig rig(topo, workers, {}, {&store, &plan, /*confirm_probes=*/3});
  Fleet& fleet = rig.fleet();
  std::vector<SwitchId> ids;
  for (const auto& [sw, mon] : fleet.shards()) ids.push_back(sw);
  std::mt19937_64 rng(seed);
  const auto pick = [&](const auto& v) { return v[rng() % v.size()]; };
  plan.kill_shard(pick(ids), 60);
  plan.kill_shard(pick(ids), 150);
  plan.wedge_shard(pick(ids), 200, 20);
  plan.tear_channel(pick(ids), 250, 10);
  // Two rotations long, so EVERY shard of worker 1 migrates: the rig's
  // inject contexts are per worker, fixed at add_shard, and must not end up
  // shared by two running workers.
  if (workers > 1) plan.wedge_worker(1, 300, 40);
  Fleet::SupervisorOptions sup;
  sup.missed_rounds = 2;
  sup.min_worker_shards_stuck = 1;
  fleet.enable_supervision(sup);

  std::uint64_t next_cookie = 0x7000'0000;
  std::uint32_t xid = 1;
  std::vector<std::pair<SwitchId, std::uint64_t>> failing;
  std::vector<std::uint8_t> fresh;
  std::map<SwitchId, std::pair<std::uint64_t, std::vector<std::uint8_t>>> seen;
  const auto check_versions = [&](int round, const char* phase) {
    for (const auto& [sw, mon] : fleet.shards()) {
      mon->encode_checkpoint(fresh, 0);
      fresh = without_when(std::move(fresh));
      const std::uint64_t version = mon->checkpoint_version();
      auto [it, first] = seen.try_emplace(sw, version, fresh);
      if (!first && it->second.first == version) {
        EXPECT_EQ(it->second.second, fresh)
            << "shard " << sw << " changed at version " << version
            << " by round " << round << " " << phase;
        ++counts.checked;
      }
      it->second = {version, fresh};
    }
  };
  for (int i = 0; i < 400; ++i) {
    const SwitchId sw = pick(ids);
    std::vector<openflow::Rule> rules;
    for (const openflow::Rule& r : fleet.monitor(sw)->expected_table().rules()) {
      if ((r.cookie >> 48) == 0) rules.push_back(r);  // not infrastructure
    }
    const int op = static_cast<int>(rng() % 20);
    if (op < 6 && !rules.empty() && !fleet.shard_quarantined(sw)) {
      const openflow::Rule r = pick(rules);
      if (op < 2) {  // rotate: delete, re-add under a fresh cookie
        openflow::FlowMod del;
        del.match = r.match;
        del.cookie = r.cookie;
        del.priority = r.priority;
        del.command = openflow::FlowModCommand::kDeleteStrict;
        fleet.route_flow_mod(sw, del, xid++);
        openflow::FlowMod add = del;
        add.command = openflow::FlowModCommand::kAdd;
        add.cookie = next_cookie++;
        add.actions = r.actions;
        rig.add_catch_point(sw, add.rule());
        fleet.route_flow_mod(sw, add, xid++);
      } else {  // benign modify: same semantics, full confirm cost
        openflow::FlowMod mod;
        mod.match = r.match;
        mod.cookie = r.cookie;
        mod.priority = r.priority;
        mod.command = openflow::FlowModCommand::kModifyStrict;
        mod.actions = r.actions;
        fleet.route_flow_mod(sw, mod, xid++);
      }
    } else if (op < 8 && !rules.empty() && failing.size() < 4) {
      failing.emplace_back(sw, pick(rules).cookie);
      rig.fail_rule(failing.back().first, failing.back().second);
    } else if (op == 8 && !failing.empty()) {
      rig.heal_rule(failing.front().first, failing.front().second);
      failing.erase(failing.begin());
    }

    const std::uint64_t appended = store.appended();
    rig.round();
    switch (store.appended() - appended) {
      case 2: ++counts.written; break;  // shard snapshot + fleet record
      case 1: ++counts.skipped; break;  // fleet record only
      default: break;
    }
    const auto latest = store.load_latest();
    for (std::size_t c = 0; c < fleet.schedule().round_count(); ++c) {
      for (const Fleet::ShardSlot& slot : fleet.round_plan(c)) {
        if (!slot.checkpoint_written ||
            slot.monitor->checkpoint_version() != slot.checkpoint_version) {
          continue;  // changed: the next visit re-encodes it
        }
        const auto it = latest.find(slot.sw);
        EXPECT_NE(it, latest.end()) << "shard " << slot.sw << " lost";
        if (it == latest.end()) continue;
        slot.monitor->encode_checkpoint(fresh, slot.checkpoint_budget);
        EXPECT_TRUE(Checkpoint::decode(it->second).has_value());
        EXPECT_EQ(without_when(it->second), without_when(fresh))
            << "shard " << slot.sw << " round " << i << " workers "
            << workers;
        ++counts.checked;
      }
    }
    check_versions(i, "(round)");
    rig.advance(static_cast<netbase::SimTime>(5 + rng() % 25) * kMillisecond);
    check_versions(i, "(timers)");
  }
  EXPECT_GE(plan.stats().kills, 2u);
  EXPECT_GE(fleet.supervisor().stats.restores +
                fleet.supervisor().stats.cold_restores,
            2u);
  fleet.stop();
  return counts;
}

TEST(SnapshotParity, StoredSnapshotsMatchFreshEncodeAfterEveryRound) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    telemetry::CheckpointStore store;
    const SnapshotParityCounts counts =
        run_snapshot_parity(workers, store, 0x5EED + workers);
    // Not vacuous: thousands of comparisons, and both writer paths ran.
    EXPECT_GT(counts.checked, 2000u) << workers << " workers";
    EXPECT_GT(counts.written, 20u) << workers << " workers";
    EXPECT_GT(counts.skipped, 100u) << workers << " workers";
  }
}

TEST(SnapshotParity, DiskStoreKeepsSkippedShardsAcrossSegmentDeletion) {
  // The same run over a small on-disk store: segments rotate and the
  // oldest are deleted while most shards are skipped for many rounds, so
  // their only snapshot must be carried forward, never lost.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "monocle_snapshot_parity")
          .string();
  std::filesystem::remove_all(dir);
  {
    telemetry::CheckpointStore::Options opts;
    opts.dir = dir;
    opts.segment_bytes = 4 * 1024;
    opts.max_total_bytes = 32 * 1024;  // about twice the fleet's live set
    telemetry::CheckpointStore store(opts);
    const SnapshotParityCounts counts = run_snapshot_parity(1, store, 0xD15C);
    EXPECT_GT(counts.checked, 2000u);
    EXPECT_GT(store.segments_deleted(), 0u);
    EXPECT_GT(store.records_carried(), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RoundPlan, FollowsScheduleShardSetAndWorkerMigration) {
  const auto topo = topo::make_rocketfuel_as(16, 21);
  telemetry::CheckpointStore store;
  FleetMtRig rig(topo, 2, {}, {&store, nullptr});
  Fleet& fleet = rig.fleet();
  // Every scheduled shard appears exactly once, in its colour, with its
  // Monitor and worker resolved.
  const auto expect_plan_matches = [&](const std::string& when) {
    std::size_t slots = 0;
    for (std::size_t c = 0; c < fleet.schedule().round_count(); ++c) {
      const auto& round = fleet.schedule().round(c);
      const auto& plan = fleet.round_plan(c);
      std::size_t at = 0;
      for (const SwitchId sw : round) {
        Monitor* mon = fleet.monitor(sw);
        if (mon == nullptr) continue;
        ASSERT_LT(at, plan.size()) << when;
        EXPECT_EQ(plan[at].sw, sw) << when;
        EXPECT_EQ(plan[at].monitor, mon) << when;
        EXPECT_EQ(plan[at].worker, fleet.shard_worker(sw)) << when;
        ++at;
      }
      EXPECT_EQ(at, plan.size()) << when << " colour " << c;
      slots += plan.size();
    }
    EXPECT_EQ(slots, fleet.shard_count()) << when;
  };
  expect_plan_matches("after prepare (sequential fallback)");
  for (int i = 0; i < 30; ++i) {
    rig.round();
    rig.advance(10 * kMillisecond);
  }

  std::vector<SwitchId> ids;
  for (const auto& [sw, mon] : fleet.shards()) ids.push_back(sw);
  fleet.set_schedule(RoundSchedule::build(topo, ids));
  ASSERT_GT(fleet.schedule().max_round_size(), 1u);
  expect_plan_matches("after set_schedule");
  // Per-shard bookkeeping survives the re-colouring.
  std::size_t visited = 0;
  for (std::size_t c = 0; c < fleet.schedule().round_count(); ++c) {
    for (const auto& slot : fleet.round_plan(c)) {
      if (slot.checkpoint_age > 0) ++visited;
    }
  }
  EXPECT_GT(visited, 0u);

  // No rounds run past this point: the rig's loopback wiring is per shard
  // and per worker, and re-wiring it is not what is under test.
  const SwitchId victim = ids[3];
  ASSERT_TRUE(fleet.remove_shard(victim));
  rig.mux().unregister_monitor(victim);
  expect_plan_matches("after remove_shard");
  Monitor::Hooks hooks;
  hooks.to_switch = [](const openflow::Message&) {};
  hooks.to_controller = [](const openflow::Message&) {};
  hooks.inject = [](std::uint16_t, std::span<const std::uint8_t>) {
    return false;
  };
  Monitor* readded = fleet.add_shard(victim, std::move(hooks));
  ASSERT_NE(readded, nullptr);
  rig.mux().register_monitor(victim, readded);
  expect_plan_matches("after add_shard");

  const SwitchId mover = ids[5];
  const std::size_t from = fleet.shard_worker(mover);
  ASSERT_TRUE(fleet.restore_shard(mover, (from + 1) % 2));
  EXPECT_NE(fleet.shard_worker(mover), from);
  expect_plan_matches("after restore_shard migration");
  fleet.stop();
}

}  // namespace
}  // namespace monocle
