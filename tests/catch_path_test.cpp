// Catch-path exactness.  A caught probe reaches its cache entry, staleness
// floor and predictions through what its injection recorded; these tests
// pin that the verdicts and counters are the ones a fresh lookup per echo
// gives:
//  * a golden single-Monitor scenario (churn that erases and regenerates
//    entries under in-flight echoes, a probe-cache swap, update jobs over
//    steadily probed cookies, a checkpoint restore with restored floors)
//    whose full counter set and verdict stream were recorded from the
//    lookup-per-echo implementation;
//  * one test per guard: the cache identity, the cache version and the
//    floor bound, each in a setup where skipping it changes the verdict;
//  * the observation list at 0, 1 and 3 entries.
#include <gtest/gtest.h>

#include <random>

#include "monocle/checkpoint.hpp"
#include "monocle/monitor.hpp"
#include "monocle/probe_generator.hpp"
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
using openflow::FlowTable;
using openflow::Rule;
using switchsim::SwitchModel;
using switchsim::Testbed;

constexpr SwitchId kHub = 1;

Monitor::Config base_config() {
  Monitor::Config cfg;
  cfg.steady_probe_rate = 6000.0;
  cfg.steady_warmup = 50 * kMillisecond;
  cfg.probe_timeout = 150 * kMillisecond;
  cfg.probe_retries = 3;
  cfg.generation_delay = 1 * kMillisecond;
  cfg.update_probe_interval = 2 * kMillisecond;
  cfg.confirm_probes = 3;
  cfg.confirm_failures = 2;
  cfg.batch_threads = 1;
  return cfg;
}

/// Folds everything the Monitor reports to its host, in order, into one
/// FNV-1a digest.
struct Recorder {
  std::uint64_t digest = 1469598103934665603ull;
  std::size_t events = 0;

  void note(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
            std::uint64_t c) {
    for (const std::uint64_t v : {tag, a, b, c}) {
      digest ^= v;
      digest *= 1099511628211ull;
    }
    ++events;
  }

  void attach(Monitor& mon, switchsim::EventQueue& eq) {
    auto& h = mon.hooks_for_test();
    h.on_verdict = [this, &eq](std::uint64_t cookie, RuleState state,
                               openflow::Epoch epoch) {
      note(1, static_cast<std::uint64_t>(eq.now()), cookie,
           (static_cast<std::uint64_t>(state) << 56) ^ epoch);
    };
    h.on_update_confirmed = [this](std::uint64_t cookie, SimTime when) {
      note(2, static_cast<std::uint64_t>(when), cookie, 0);
    };
    h.on_update_failed = [this](std::uint64_t cookie, SimTime when) {
      note(3, static_cast<std::uint64_t>(when), cookie, 0);
    };
    h.on_alarm = [this](const RuleAlarm& a) {
      note(4, static_cast<std::uint64_t>(a.when), a.cookie,
           a.failed_rule_count);
    };
  }
};

/// A drop rule over a broader forwarding rule: its probe is negative
/// (present = silence), so its verdicts come from the timeout path.
Rule drop_rule(std::uint32_t i) {
  Rule r;
  r.priority = 20;
  r.cookie = 5000 + i;
  r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  r.match.set_prefix(Field::IpDst, 0x0B000000u + i, 32);
  return r;
}

Rule drop_cover_rule() {
  Rule r;
  r.priority = 5;
  r.cookie = 4999;
  r.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
  r.match.set_prefix(Field::IpDst, 0x0B000000u, 24);
  r.actions = {Action::output(2)};
  return r;
}

struct GoldenResult {
  MonitorStats stats;
  Monitor::RestoreStats restore;
  std::uint64_t digest = 0;
  std::size_t events = 0;
};

GoldenResult run_golden_scenario() {
  switchsim::EventQueue eq;
  Testbed::Options opts;
  opts.monitor = base_config();
  // Premature acknowledgments: update jobs stay pending while the data
  // plane lags, so confirmation probes overlap the steady cycle.
  Testbed bed(&eq, topo::make_star(4), SwitchModel::hp5406zl(), opts);
  Monitor* mon = bed.monitor(kHub);
  Recorder rec;
  rec.attach(*mon, eq);

  auto first_cache = std::make_shared<ProbeCache>();
  mon->set_probe_cache(first_cache);
  const auto rules = workloads::l3_host_routes(40, {1, 2, 3, 4}, 31);
  std::vector<Rule> seeded = rules;
  seeded.push_back(drop_cover_rule());
  for (std::uint32_t i = 0; i < 4; ++i) seeded.push_back(drop_rule(i));
  for (const Rule& r : seeded) {
    mon->seed_rule(r);
    bed.sw(kHub)->mutable_dataplane().add(r);
  }
  bed.start_monitoring();
  eq.run_until(200 * kMillisecond);

  // Two data-plane faults: suspect trains, then K-of-N confirmation.
  bed.sw(kHub)->fail_rule(rules[3].cookie);
  bed.sw(kHub)->fail_rule(rules[17].cookie);
  eq.run_until(eq.now() + 300 * kMillisecond);

  // Churn at a 3 ms cadence while probes leave every ~0.17 ms and queue at
  // the switch's PacketOut/PacketIn rates: deltas erase and regenerate
  // cache entries while their echoes are on the wire.
  workloads::ChurnProfile churn;
  churn.seed = 9;
  churn.acl.sites = 4;
  churn.acl.ports = 4;
  churn.min_rules = 30;
  churn.max_rules = 80;
  auto gen = std::make_shared<workloads::ChurnGenerator>(churn, rules);
  constexpr std::size_t kUpdates = 90;
  bed.drive_churn(kHub, gen, 3 * kMillisecond, kUpdates);
  eq.run_until(eq.now() + 120 * kMillisecond);

  // Swap in a fresh cache at the outgoing cache's version while probes
  // from the outgoing one are still in flight.
  auto second_cache = std::make_shared<ProbeCache>();
  second_cache->version = first_cache->version;
  mon->set_probe_cache(second_cache);
  eq.run_until(eq.now() + kUpdates * 3 * kMillisecond + 600 * kMillisecond);

  // One fault heals in the data plane.
  bed.sw(kHub)->mutable_dataplane().add(rules[3]);
  eq.run_until(eq.now() + 300 * kMillisecond);

  // Restore from the Monitor's own snapshot, with one extra floor set above
  // the snapshot epoch, so the first deltas after restore still find it in
  // force.
  std::vector<std::uint8_t> bytes;
  mon->encode_checkpoint(bytes, 0);
  auto cp = Checkpoint::decode(bytes);
  EXPECT_TRUE(cp.has_value());
  GoldenResult out;
  if (!cp.has_value()) return out;
  for (const Rule& r : rules) {
    if (mon->expected_table().find_by_cookie(r.cookie) != nullptr &&
        mon->rule_state(r.cookie) == RuleState::kConfirmed) {
      cp->floors.push_back({r.cookie, cp->epoch + 4});
      break;
    }
  }
  mon->reset_for_recovery();
  out.restore = mon->restore_checkpoint(*cp);
  mon->start();
  eq.run_until(eq.now() + 300 * kMillisecond);
  churn.seed = 10;
  auto gen2 =
      std::make_shared<workloads::ChurnGenerator>(churn, gen->live_rules());
  bed.drive_churn(kHub, gen2, 5 * kMillisecond, 12);
  eq.run_until(eq.now() + 800 * kMillisecond);

  out.stats = mon->stats();
  out.digest = rec.digest;
  out.events = rec.events;
  return out;
}

// Recorded from the lookup-per-echo catch path (every caught probe found
// its cache entry with entries.find and its floor with rule_floor_.find).
// Any drift here means a verdict or counter changed, not just its cost.
TEST(CatchPathGolden, CountersAndVerdictStreamMatchLookupPerEcho) {
  const GoldenResult g = run_golden_scenario();
  const MonitorStats& s = g.stats;
  EXPECT_EQ(s.probes_injected, 19257u);
  EXPECT_EQ(s.probes_caught, 16234u);
  EXPECT_EQ(s.stale_probes, 55u);
  EXPECT_EQ(s.probe_generations, 218u);
  EXPECT_EQ(s.updates_confirmed, 102u);
  EXPECT_EQ(s.updates_queued, 28u);
  EXPECT_EQ(s.alarms, 2u);
  EXPECT_EQ(s.flowmods_forwarded, 104u);
  EXPECT_EQ(s.channel_disconnects, 0u);
  EXPECT_EQ(s.probe_cache_hits, 16717u);
  EXPECT_EQ(s.probe_cache_misses, 100u);
  EXPECT_EQ(s.probe_invalidations, 56u);
  EXPECT_EQ(s.deltas_applied, 149u);
  EXPECT_EQ(s.delta_regens, 188u);
  EXPECT_EQ(s.scratch_regens, 30u);
  EXPECT_EQ(s.stale_epoch_drops, 32u);
  EXPECT_EQ(s.probe_retries, 307u);
  EXPECT_EQ(s.suspects_raised, 3u);
  EXPECT_EQ(s.suspects_confirmed, 2u);
  EXPECT_EQ(s.flap_suppressions, 1u);
  EXPECT_EQ(s.confirm_latency_count, 102u);
  EXPECT_EQ(s.confirm_latency_sum_ns, 4675475728u);
  EXPECT_EQ(s.floor_sweeps, 0u);
  EXPECT_EQ(g.restore.verdicts, 63u);
  EXPECT_EQ(g.restore.suspects, 0u);
  EXPECT_EQ(g.restore.floors, 66u);
  EXPECT_EQ(g.restore.manifest_admitted, 49u);
  EXPECT_EQ(g.restore.manifest_dropped, 0u);
  EXPECT_EQ(g.events, 112u);
  EXPECT_EQ(g.digest, 0x8db6623000611e79ull);
}

// ---------------------------------------------------------------------------
// One guard at a time
// ---------------------------------------------------------------------------

/// An ideal star whose hub Monitor is paced by the test: one burst puts
/// every rule's steady probe on the wire at once, and the test acts before
/// any echo returns.
struct BurstRig {
  switchsim::EventQueue eq;
  std::unique_ptr<Testbed> bed;
  Monitor* mon = nullptr;
  std::shared_ptr<ProbeCache> cache = std::make_shared<ProbeCache>();
  std::vector<Rule> rules = workloads::l3_host_routes(20, {1, 2, 3, 4}, 41);

  BurstRig() {
    Testbed::Options opts;
    opts.monitor = base_config();
    opts.monitor.steady_probe_rate = 0;  // no self-paced ticks
    bed = std::make_unique<Testbed>(&eq, topo::make_star(4),
                                    SwitchModel::ideal(), opts);
    mon = bed->monitor(kHub);
    mon->set_probe_cache(cache);
    for (const Rule& r : rules) {
      mon->seed_rule(r);
      bed->sw(kHub)->mutable_dataplane().add(r);
    }
    bed->start_monitoring();
    mon->start_externally_paced();
    eq.run_until(50 * kMillisecond);  // catch rules reach the data plane
  }

  std::size_t burst() { return mon->steady_probe_burst(rules.size()); }
  /// Long enough for every echo, shorter than the first retry timeout.
  void deliver_echoes() { eq.run_until(eq.now() + 20 * kMillisecond); }
};

TEST(CatchPathGuards, HealthyBurstEchoesPresent) {
  BurstRig rig;
  const MonitorStats before = rig.mon->stats();
  ASSERT_EQ(rig.burst(), rig.rules.size());
  rig.deliver_echoes();
  EXPECT_EQ(rig.mon->stats().probes_caught - before.probes_caught,
            rig.rules.size());
  EXPECT_EQ(rig.mon->stats().stale_probes, before.stale_probes);
  EXPECT_EQ(rig.mon->outstanding_probe_count(), 0u);
}

// set_probe_cache may install a cache whose version equals the outgoing
// one.  Echoes of probes injected from the outgoing cache must look their
// rule up in the new cache (empty here: stale), not follow the recorded
// entry into the old one.
TEST(CatchPathGuards, CacheSwapAtEqualVersionRefetches) {
  BurstRig rig;
  const std::size_t sent = rig.burst();
  ASSERT_EQ(sent, rig.rules.size());
  auto fresh = std::make_shared<ProbeCache>();
  fresh->version = rig.cache->version;
  rig.mon->set_probe_cache(fresh);  // rig.cache stays alive
  const MonitorStats before = rig.mon->stats();
  rig.deliver_echoes();
  EXPECT_EQ(rig.mon->stats().probes_caught - before.probes_caught, sent);
  EXPECT_EQ(rig.mon->stats().stale_probes - before.stale_probes, sent);
  // Their timeouts find no entry either: no verdict about any rule.
  rig.eq.run_until(rig.eq.now() + 400 * kMillisecond);
  EXPECT_EQ(rig.mon->failed_rule_count(), 0u);
  EXPECT_EQ(rig.mon->stats().suspects_raised, before.suspects_raised);
}

// An entry erased from a shared cache (version bumped) while its probe is
// in flight: the echo must see the erasure.  The extracted nodes are kept
// alive so that following the recorded pointer would read a well-defined,
// wrong entry instead of freed memory.
TEST(CatchPathGuards, EntryErasedUnderEchoRefetches) {
  BurstRig rig;
  const std::size_t sent = rig.burst();
  ASSERT_EQ(sent, rig.rules.size());
  std::vector<decltype(rig.cache->entries)::node_type> held;
  for (const Rule& r : rig.rules) held.push_back(rig.cache->entries.extract(r.cookie));
  ++rig.cache->version;
  const MonitorStats before = rig.mon->stats();
  rig.deliver_echoes();
  EXPECT_EQ(rig.mon->stats().probes_caught - before.probes_caught, sent);
  EXPECT_EQ(rig.mon->stats().stale_probes - before.stale_probes, sent);
}

// restore_checkpoint copies floors verbatim, and one can lie above the
// restored epoch.  A probe injected right after the restore carries the
// current epoch, which is below that floor: its echo is stale.
TEST(CatchPathGuards, RestoredFloorAboveEpochKeepsEchoStale) {
  BurstRig rig;
  rig.burst();
  rig.deliver_echoes();
  std::vector<std::uint8_t> bytes;
  rig.mon->encode_checkpoint(bytes, 0);
  auto cp = Checkpoint::decode(bytes);
  ASSERT_TRUE(cp.has_value());
  const std::uint64_t floored = rig.rules.front().cookie;
  cp->floors.push_back({floored, cp->epoch + 5});
  rig.mon->reset_for_recovery();
  rig.mon->restore_checkpoint(*cp);
  rig.mon->start_externally_paced();
  ASSERT_LT(rig.mon->epoch(), cp->epoch + 5);
  const MonitorStats before = rig.mon->stats();
  const std::size_t sent = rig.burst();
  ASSERT_EQ(sent, rig.rules.size());
  rig.deliver_echoes();
  EXPECT_EQ(rig.mon->stats().probes_caught - before.probes_caught, sent);
  EXPECT_EQ(rig.mon->stats().stale_epoch_drops - before.stale_epoch_drops, 1u);
  EXPECT_EQ(rig.mon->stats().stale_probes - before.stale_probes, 1u);
}

// ---------------------------------------------------------------------------
// Observation list
// ---------------------------------------------------------------------------

Observation make_obs(std::uint16_t port, int bit) {
  Observation o;
  o.output_port = port;
  o.header.set(bit, true);
  return o;
}

std::vector<Observation> sample_observations(std::size_t n) {
  std::vector<Observation> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_obs(static_cast<std::uint16_t>(9 - i),
                           static_cast<int>(40 + 3 * i)));
  }
  return out;
}

ObservationList list_of(const std::vector<Observation>& obs) {
  ObservationList list;
  for (const Observation& o : obs) list.push_back(o);
  return list;
}

TEST(ObservationList, KeepsOrderAndEqualityAtZeroOneAndThree) {
  for (const std::size_t n : {0u, 1u, 3u}) {
    SCOPED_TRACE(n);
    const std::vector<Observation> want = sample_observations(n);
    const ObservationList list = list_of(want);
    EXPECT_EQ(list.size(), n);
    EXPECT_EQ(list.empty(), n == 0);
    EXPECT_TRUE(std::equal(list.begin(), list.end(), want.begin(), want.end()));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(list[i], want[i]);
    EXPECT_EQ(list, list_of(want));

    ObservationList longer = list;
    longer.push_back(make_obs(1, 100));
    EXPECT_NE(longer, list);
    if (n > 0) {
      std::vector<Observation> other = want;
      other.back().output_port = 77;
      EXPECT_NE(list_of(other), list);
    }
    ObservationList cleared = list;
    cleared.clear();
    EXPECT_TRUE(cleared.empty());
    EXPECT_EQ(cleared, ObservationList{});
  }
  EXPECT_EQ((ObservationList{make_obs(1, 2), make_obs(3, 4)}),
            list_of({make_obs(1, 2), make_obs(3, 4)}));
}

TEST(ObservationList, CopiesAndMovesAtZeroOneAndThree) {
  for (const std::size_t n : {0u, 1u, 3u}) {
    SCOPED_TRACE(n);
    const ObservationList original = list_of(sample_observations(n));

    ObservationList copy = original;
    EXPECT_EQ(copy, original);
    if (n > 0) {
      copy[0].output_port = 1234;  // a deep copy: the original is untouched
      EXPECT_NE(copy, original);
      EXPECT_EQ(original[0], sample_observations(n)[0]);
    }
    ObservationList assigned = list_of(sample_observations(5));
    assigned = original;
    EXPECT_EQ(assigned, original);

    ObservationList source = original;
    ObservationList moved = std::move(source);
    EXPECT_EQ(moved, original);
    ObservationList move_assigned = list_of(sample_observations(2));
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);

    // A Probe carries two lists through generation and cache commit.
    Probe probe;
    probe.if_present.observations = original;
    probe.if_absent.observations = list_of(sample_observations(3 - n));
    const Probe probe_copy = probe;
    Probe probe_moved = std::move(probe);
    EXPECT_EQ(probe_moved.if_present.observations, original);
    EXPECT_EQ(probe_moved.if_absent.observations,
              probe_copy.if_absent.observations);
    EXPECT_EQ(probe_moved.if_present.is_drop(), n == 0);
  }
}

// verify_probe compares a rule's prediction with the next rule's as SETS
// (predictions_distinguishable sorts both lists): emission order must not
// matter, membership must.
TEST(ObservationList, VerifyProbeComparesSortedLists) {
  auto distinguishable = [](openflow::ActionList present,
                            openflow::ActionList absent) {
    Rule low;
    low.priority = 10;
    low.cookie = 2;
    low.match.set_exact(Field::EthType, netbase::kEthTypeIpv4);
    low.actions = std::move(absent);
    Rule probed = low;
    probed.priority = 20;
    probed.cookie = 1;
    probed.match.set_prefix(Field::IpDst, 0x0A000001u, 32);
    probed.actions = std::move(present);
    FlowTable table;
    table.add(low);
    table.add(probed);
    Probe probe;
    probe.packet.set(Field::InPort, 7);
    probe.packet.set(Field::EthType, netbase::kEthTypeIpv4);
    probe.packet.set(Field::IpDst, 0x0A000001u);
    return verify_probe(table, probed, probe, {}, {});
  };
  const auto out = [](std::uint16_t p) { return Action::output(p); };
  EXPECT_FALSE(distinguishable({}, {}));
  EXPECT_TRUE(distinguishable({}, {out(1)}));
  EXPECT_FALSE(distinguishable({out(1)}, {out(1)}));
  EXPECT_TRUE(distinguishable({out(1)}, {out(2)}));
  EXPECT_FALSE(distinguishable({out(3), out(1), out(2)},
                               {out(1), out(2), out(3)}));
  EXPECT_TRUE(distinguishable({out(3), out(1), out(2)},
                              {out(1), out(2), out(4)}));
  EXPECT_TRUE(distinguishable({out(3), out(1), out(2)}, {out(2)}));
}

TEST(ObservationList, CheckpointManifestRoundTripsZeroOneAndThree) {
  std::vector<Probe> probes;
  for (const std::size_t n : {0u, 1u, 3u}) {
    Probe p;
    p.rule_cookie = 0x100 + n;
    p.packet.set(Field::InPort, 2);
    p.packet.set(Field::EthType, netbase::kEthTypeIpv4);
    p.if_present.kind = openflow::ForwardKind::kMulticast;
    p.if_present.observations = list_of(sample_observations(n));
    p.if_absent.kind = openflow::ForwardKind::kEcmp;
    p.if_absent.observations = list_of(sample_observations(3 - n));
    probes.push_back(p);
  }
  std::vector<std::uint8_t> bytes;
  CheckpointWriter w(bytes, 7, 0, 3, 0, 0);
  w.begin_verdicts();
  w.begin_floors();
  w.begin_suspects();
  w.begin_manifest();
  for (const Probe& p : probes) w.add_manifest(p.rule_cookie, 3, p);
  w.finish();
  const auto cp = Checkpoint::decode(bytes);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(cp->manifest.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Probe& got = cp->manifest[i].probe;
    EXPECT_EQ(got.packet, probes[i].packet);
    EXPECT_EQ(got.if_present.kind, probes[i].if_present.kind);
    EXPECT_EQ(got.if_present.observations, probes[i].if_present.observations);
    EXPECT_EQ(got.if_absent.kind, probes[i].if_absent.kind);
    EXPECT_EQ(got.if_absent.observations, probes[i].if_absent.observations);
  }
}

TEST(StripInPort, ClearsOnlyInPortBits) {
  std::mt19937_64 rng(5);
  const auto& info = netbase::field_info(Field::InPort);
  for (int trial = 0; trial < 64; ++trial) {
    netbase::PackedBits header;
    for (auto& word : header.w) word = rng();
    const netbase::PackedBits stripped = strip_in_port(header);
    for (int bit = 0; bit < netbase::kHeaderWords * 64; ++bit) {
      const bool in_port =
          bit >= info.bit_offset && bit < info.bit_offset + info.width;
      EXPECT_EQ(stripped.get(bit), in_port ? false : header.get(bit)) << bit;
    }
  }
}

}  // namespace
}  // namespace monocle
