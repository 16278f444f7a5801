// Randomized churn parity suite (PR 4 acceptance): interleave 1k+
// add/modify/delete deltas and prove, at EVERY epoch, that delta-driven
// probe maintenance is indistinguishable from from-scratch generation —
// identical per-rule classifications for the full affected set, surviving
// cached probes that still verify byte-for-byte against the live table
// (verify_probe), and periodic full-table classification sweeps.  Also pins
// the Monitor-level §4.2 properties under the delta path: overlapping
// updates queue FIFO behind unconfirmed updates, a sustained churn stream
// confirms every update exactly once and ends on the table a standalone
// TableVersion replay reaches, with every rule classified as a fresh
// session classifies it, and churn never turns stale echoes into rule
// failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>

#include "monocle/monitor.hpp"
#include "monocle/probe_batch.hpp"
#include "monocle/probe_generator.hpp"
#include "openflow/table_version.hpp"
#include "switchsim/testbed.hpp"
#include "topo/generators.hpp"
#include "workloads/churn.hpp"
#include "workloads/forwarding.hpp"

namespace monocle {
namespace {

using netbase::Field;
using netbase::kMillisecond;
using netbase::SimTime;
using openflow::Action;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowTable;
using openflow::Match;
using openflow::Rule;
using openflow::TableDelta;
using openflow::TableVersion;
using switchsim::SwitchModel;
using switchsim::Testbed;

Match collect_match() {
  Match m;
  m.set_exact(Field::VlanId, 0xF05);
  return m;
}

Rule catch_rule() {
  Rule r;
  r.priority = 0xFFFF;
  r.cookie = 0xCA7C000000000001ull;
  r.match.set_exact(Field::VlanId, 0xF06);
  r.actions = {Action::output(openflow::kPortController)};
  return r;
}

/// Catching, filter and drop-tag rules (Monitor's infrastructure cookies).
bool infra(std::uint64_t cookie) {
  const std::uint64_t prefix = cookie >> 48;
  return prefix == 0xCA7C || prefix == 0xF117 || prefix == 0xD209;
}

const std::vector<std::uint16_t> kInPorts{1, 2, 3, 4};

TEST(ChurnParity, DeltaMaintainedSessionMatchesFromScratchAtEveryEpoch) {
  workloads::AclProfile acl;
  acl.rule_count = 200;
  acl.sites = 4;  // dense overlaps: the hard case for precise invalidation
  const auto initial = workloads::generate_acl(acl);

  workloads::ChurnProfile churn;
  churn.seed = 17;
  churn.acl = acl;
  churn.min_rules = 120;
  churn.max_rules = 320;
  workloads::ChurnGenerator gen(churn, initial);

  TableVersion tv;
  tv.apply_add(catch_rule());
  for (const Rule& r : initial) tv.apply_add(r);

  ProbeBatchSession live(tv.table(), collect_match(), {});
  std::unordered_map<std::uint64_t, ProbeCache::Entry> cache;
  auto regen = [&](std::uint64_t cookie) -> const ProbeCache::Entry& {
    const Rule* rule = tv.table().find_by_cookie(cookie);
    ProbeGenResult r = live.generate(*rule, kInPorts);
    ProbeCache::Entry& e = cache[cookie];
    e.failure = r.failure;
    e.probe = std::move(r.probe);
    e.epoch = tv.epoch();
    return e;
  };
  for (const Rule& r : tv.table().rules()) {
    if (!infra(r.cookie)) regen(r.cookie);
  }

  const int kUpdates = 1200;
  std::size_t kept_total = 0;
  std::size_t regen_total = 0;
  for (int u = 0; u < kUpdates; ++u) {
    const FlowMod fm = gen.next();
    const std::vector<TableDelta> deltas = tv.apply(fm);
    ASSERT_FALSE(deltas.empty()) << "churn stream targets installed rules";
    for (const TableDelta& delta : deltas) {
      live.apply_delta(tv.table(), delta);
      if (delta.kind == TableDelta::Kind::kDelete) {
        cache.erase(delta.rule.cookie);
      }
      if (delta.replaced.has_value() &&
          delta.replaced->cookie != delta.rule.cookie) {
        cache.erase(delta.replaced->cookie);
      }

      // From-scratch reference for THIS epoch.
      ProbeBatchSession fresh(tv.table(), collect_match(), {});
      for (const std::uint64_t cookie : delta.affected_cookies()) {
        if (infra(cookie)) continue;
        const Rule* rule = tv.table().find_by_cookie(cookie);
        if (rule == nullptr) continue;  // deleted/displaced
        const auto it = cache.find(cookie);
        const bool keep = cookie != delta.rule.cookie && it != cache.end() &&
                          Monitor::delta_survives(it->second, delta, cookie);
        if (keep) {
          ++kept_total;
        } else {
          regen(cookie);
          ++regen_total;
        }
        const ProbeCache::Entry& entry = cache.at(cookie);
        const ProbeGenResult ref = fresh.generate(*rule, kInPorts);
        // 1. Classification parity at this epoch (found vs §3.5 taxonomy).
        ASSERT_EQ(entry.failure, ref.failure)
            << "epoch " << delta.epoch << " cookie " << cookie
            << (keep ? " (kept)" : " (regenerated)");
        // 2. The delta-maintained probe — kept or regenerated — verifies
        //    byte-for-byte against the CURRENT table: same Hit, and
        //    distinguishable predictions.
        if (entry.probe.has_value()) {
          EXPECT_TRUE(verify_probe(tv.table(), *rule, *entry.probe, {}))
              << "epoch " << delta.epoch << " cookie " << cookie;
        }
      }
    }

    // 3. Periodic full-table sweep: EVERY rule classifies identically.
    if ((u + 1) % 400 == 0) {
      ProbeBatchSession fresh(tv.table(), collect_match(), {});
      for (const Rule& r : tv.table().rules()) {
        if (infra(r.cookie)) continue;
        const auto it = cache.find(r.cookie);
        ASSERT_NE(it, cache.end()) << "uncached live rule " << r.cookie;
        const ProbeGenResult ref = fresh.generate(r, kInPorts);
        ASSERT_EQ(it->second.failure, ref.failure)
            << "sweep after update " << u << " cookie " << r.cookie;
      }
    }
  }
  // The precise-invalidation predicate must actually bite — otherwise this
  // suite degenerates into regenerate-everything and proves nothing about
  // surviving probes.
  EXPECT_GT(kept_total, regen_total);
}

/// Survival predicate edge cases, incl. the same-priority shadower: equal
/// priorities land in overlapping_higher, so a delete there must always
/// regenerate a kShadowed verdict — the deleted rule may have been the
/// shadower.
TEST(ChurnParity, ShadowedVerdictRegeneratesOnSamePriorityDelete) {
  TableVersion tv;
  tv.apply_add(catch_rule());
  Rule narrow;  // will be shadowed
  narrow.priority = 10;
  narrow.cookie = 1;
  narrow.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  narrow.match.set_prefix(Field::IpDst, 0x0A000042, 32);
  narrow.actions = {Action::output(1)};
  Rule broad = narrow;  // SAME priority, subsumes narrow
  broad.cookie = 2;
  broad.match = Match{};
  broad.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  broad.match.set_prefix(Field::IpDst, 0x0A000000, 24);
  broad.actions = {Action::output(2)};
  tv.apply_add(narrow);
  tv.apply_add(broad);

  ProbeBatchSession session(tv.table(), collect_match(), {});
  ProbeCache::Entry entry;
  {
    ProbeGenResult r =
        session.generate(*tv.table().find_by_cookie(1), kInPorts);
    ASSERT_EQ(r.failure, ProbeFailure::kShadowed);
    entry.failure = r.failure;
  }
  // Adds and modifies cannot unshadow: the verdict survives.
  const TableDelta add_delta = tv.apply_add([] {
    Rule other;
    other.priority = 5;
    other.cookie = 3;
    other.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    other.match.set_prefix(Field::IpDst, 0x0A000040, 30);
    other.actions = {};
    return other;
  }());
  session.apply_delta(tv.table(), add_delta);
  EXPECT_TRUE(Monitor::delta_survives(entry, add_delta, 1));

  // Deleting the SAME-priority shadower must force regeneration...
  const auto del = tv.apply_delete_strict(broad.match, broad.priority);
  ASSERT_TRUE(del.has_value());
  EXPECT_FALSE(Monitor::delta_survives(entry, *del, 1));
  // ... and the regenerated classification flips: the rule is monitorable.
  session.apply_delta(tv.table(), *del);
  const ProbeGenResult after =
      session.generate(*tv.table().find_by_cookie(1), kInPorts);
  EXPECT_EQ(after.failure, ProbeFailure::kNone);
  // From-scratch agrees (parity at this epoch).
  ProbeBatchSession fresh(tv.table(), collect_match(), {});
  EXPECT_EQ(fresh.generate(*tv.table().find_by_cookie(1), kInPorts).failure,
            ProbeFailure::kNone);
}

// ---------------------------------------------------------------------------
// Monitor-level properties under the delta path
// ---------------------------------------------------------------------------

Monitor::Config fast_config() {
  Monitor::Config cfg;
  cfg.steady_probe_rate = 1000.0;
  cfg.steady_warmup = 50 * kMillisecond;
  cfg.generation_delay = 1 * kMillisecond;
  cfg.update_probe_interval = 2 * kMillisecond;
  return cfg;
}

FlowMod add_fm(std::uint64_t cookie, std::uint32_t dst, int prefix,
               std::uint16_t port, std::uint16_t priority = 20) {
  FlowMod fm;
  fm.command = FlowModCommand::kAdd;
  fm.priority = priority;
  fm.cookie = cookie;
  fm.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  fm.match.set_prefix(Field::IpDst, dst, prefix);
  fm.actions = {Action::output(port)};
  return fm;
}

/// §4.2: an update overlapping a still-unconfirmed update must queue and
/// apply FIFO after the first confirms.
TEST(ChurnParity, OverlapQueueSemanticsPreservedUnderDeltaPath) {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(3), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(1);
  std::vector<std::uint64_t> confirmed;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  bed.start_monitoring();
  eq.run_until(100 * kMillisecond);

  // Two overlapping adds back-to-back: the second must queue (§4.2).
  bed.controller_send(1, openflow::make_message(1, add_fm(501, 0x0A000100, 24, 1)));
  bed.controller_send(1, openflow::make_message(2, add_fm(502, 0x0A000142, 32, 2, 30)));
  EXPECT_EQ(mon->pending_update_count(), 1u);
  EXPECT_EQ(mon->stats().updates_queued, 1u);
  // A third, non-overlapping add still queues FIFO behind the queue.
  bed.controller_send(1, openflow::make_message(3, add_fm(503, 0x0AFF0001, 32, 1)));
  EXPECT_EQ(mon->stats().updates_queued, 2u);

  eq.run_until(eq.now() + 2 * netbase::kSecond);
  EXPECT_EQ(confirmed, (std::vector<std::uint64_t>{501, 502, 503}));
  EXPECT_EQ(mon->pending_update_count(), 0u);
  EXPECT_EQ(mon->rule_state(502), RuleState::kConfirmed);
}

/// A sustained churn stream through the full simulated control channel
/// confirms every update exactly once, fails none, never false-alarms a
/// steady rule, and ends on the expected table a standalone TableVersion
/// reaches by replaying the same stream — with every rule classified the
/// way a fresh batch session on that final table classifies it.
TEST(ChurnParity, MonitorChurnStreamEquivalentWithAndWithoutDelta) {
  constexpr SwitchId kSw = 1;
  constexpr std::size_t kUpdates = 150;
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(4), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(kSw);

  const auto rules = workloads::l3_host_routes(60, {1, 2, 3, 4}, 21);
  for (const Rule& r : rules) {
    mon->seed_rule(r);
    bed.sw(kSw)->mutable_dataplane().add(r);
  }
  std::vector<std::uint64_t> confirmed;
  std::size_t failed = 0;
  std::size_t alarms = 0;
  mon->hooks_for_test().on_update_confirmed =
      [&](std::uint64_t cookie, SimTime) { confirmed.push_back(cookie); };
  mon->hooks_for_test().on_update_failed = [&](std::uint64_t, SimTime) {
    ++failed;
  };
  mon->hooks_for_test().on_alarm = [&](const RuleAlarm&) { ++alarms; };
  bed.start_monitoring();
  eq.run_until(200 * kMillisecond);

  workloads::ChurnProfile churn;
  churn.seed = 5;
  churn.acl.sites = 4;
  churn.acl.ports = 4;
  churn.min_rules = 30;
  churn.max_rules = 120;
  // The reference replays the same seeded stream on a standalone versioned
  // table, starting from the Monitor's pre-churn expected table.
  TableVersion replay(mon->expected_table());
  workloads::ChurnGenerator reference(churn, rules);
  std::vector<std::uint64_t> issued;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    const FlowMod fm = reference.next();
    issued.push_back(fm.cookie);
    replay.apply(fm);
  }

  auto gen = std::make_shared<workloads::ChurnGenerator>(churn, rules);
  bed.drive_churn(kSw, gen, 8 * kMillisecond, kUpdates);
  eq.run_until(eq.now() + kUpdates * 8 * kMillisecond + 3 * netbase::kSecond);
  EXPECT_EQ(mon->pending_update_count(), 0u);

  // Every issued update confirmed exactly once (a cookie issued k times —
  // add, then modifies — is confirmed k times), none failed, no alarms:
  // churn must never read as rule failure.
  EXPECT_GT(confirmed.size(), 100u);
  std::sort(issued.begin(), issued.end());
  std::sort(confirmed.begin(), confirmed.end());
  EXPECT_EQ(confirmed, issued);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(alarms, 0u);
  // The delta path did the regeneration work.
  EXPECT_GT(mon->stats().delta_regens, 0u);

  // The Monitor's expected table is the replayed one.
  const FlowTable& final_table = mon->expected_table();
  EXPECT_EQ(final_table.rules(), replay.table().rules());

  // Every rule's state agrees with a fresh session on the final table:
  // monitorable <=> kConfirmed, unmonitorable <=> kUnmonitorable.
  const NetworkView& net = bed.network();
  std::vector<std::uint16_t> in_ports;
  for (const std::uint16_t p : net.ports(kSw)) {
    if (net.peer(kSw, p).has_value()) in_ports.push_back(p);
  }
  const auto downstream = [&](const Rule& r) {
    for (const auto& [port, rewrite] : r.outcome().emissions) {
      if (const auto peer = net.peer(kSw, port)) return peer->sw;
    }
    return in_ports.empty() ? kSw : net.peer(kSw, in_ports.front())->sw;
  };
  const auto observable = [&](const OutcomePrediction& pred) {
    return std::all_of(
        pred.observations.begin(), pred.observations.end(),
        [&](const Observation& o) {
          return o.output_port == openflow::kPortController ||
                 net.peer(kSw, o.output_port).has_value();
        });
  };
  std::size_t monitorable = 0;
  std::size_t unmonitorable = 0;
  for (const Rule& r : final_table.rules()) {
    if (infra(r.cookie)) continue;
    ProbeBatchSession fresh(final_table,
                            bed.plan().collect_match_for(kSw, downstream(r)),
                            {});
    const ProbeGenResult gen_result = fresh.generate(r, in_ports);
    const bool ok = gen_result.ok() &&
                    observable(gen_result.probe->if_present) &&
                    observable(gen_result.probe->if_absent);
    EXPECT_EQ(mon->rule_state(r.cookie),
              ok ? RuleState::kConfirmed : RuleState::kUnmonitorable)
        << "rule " << r.cookie << " ("
        << probe_failure_name(gen_result.failure) << ")";
    ++(ok ? monitorable : unmonitorable);
  }
  EXPECT_GT(monitorable, 0u);
}

/// Epoch bookkeeping: cache entries are stamped with the generation epoch,
/// and invalidation floors advance with deltas.
TEST(ChurnParity, CacheEntriesCarryEpochs) {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = fast_config();
  Testbed bed(&eq, topo::make_star(3), SwitchModel::ideal(), opts);
  Monitor* mon = bed.monitor(1);
  bed.start_monitoring();
  eq.run_until(100 * kMillisecond);

  const openflow::Epoch before = mon->epoch();
  bed.controller_send(1, openflow::make_message(1, add_fm(601, 0x0A000201, 32, 1)));
  EXPECT_EQ(mon->epoch(), before + 1);
  eq.run_until(eq.now() + 500 * kMillisecond);
  EXPECT_EQ(mon->rule_state(601), RuleState::kConfirmed);
  // The table version is externally observable and snapshot-stable.
  const auto snap = mon->table_version().snapshot();
  EXPECT_EQ(snap.epoch(), mon->epoch());
  ASSERT_NE(snap.table().find_by_cookie(601), nullptr);
}

}  // namespace
}  // namespace monocle
