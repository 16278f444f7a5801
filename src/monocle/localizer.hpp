// Failure localization on top of per-rule alarms (paper §1).
//
// "This localization of misbehaving rules can then be used to build a higher
// level troubleshooting tool.  For example, link failures manifest
// themselves as multiple simultaneously failed rules."  This module is that
// tool: given Monocle's expected table and the set of currently failed
// rules, it groups failures by the output port they forward through and
// diagnoses a link (port) failure when a large fraction of that port's rules
// failed together; leftover failures are reported as isolated rule faults
// (soft errors, firmware bugs).
// Two layers:
//
//  * localize_failures — the single-switch heuristic (failed rules grouped
//    by output port; a port whose rules failed together implicates the link
//    behind it);
//  * localize_network — the fleet-level pipeline: it consumes one failure
//    report per monitored switch (expected table + failed cookies, i.e. the
//    per-probe verdicts accumulated through the Multiplexer/Catching path),
//    maps blamed ports to links through the NetworkView, corroborates
//    suspicions reported independently by both endpoints of a link, and
//    promotes a switch whose links are (almost) all suspect to a
//    whole-switch diagnosis.  The Fleet (fleet.hpp) runs this after alarms.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "monocle/runtime.hpp"
#include "openflow/flow_table.hpp"

namespace monocle {

/// A suspected link (port) failure.
struct LinkSuspect {
  std::uint16_t port = 0;
  std::size_t failed_rules = 0;  ///< failed rules forwarding via this port
  std::size_t total_rules = 0;   ///< all rules forwarding via this port
  /// failed / total — 1.0 means every rule using the port is down.
  [[nodiscard]] double fraction() const {
    return total_rules == 0
               ? 0.0
               : static_cast<double>(failed_rules) /
                     static_cast<double>(total_rules);
  }
};

/// Localization result: explained link failures + unexplained rule faults.
struct Diagnosis {
  std::vector<LinkSuspect> failed_links;     // sorted by fraction, descending
  std::vector<std::uint64_t> isolated_rules; // cookies not explained above

  [[nodiscard]] bool link_failure_suspected() const {
    return !failed_links.empty();
  }
};

/// Options for the localization heuristic.
struct LocalizerOptions {
  /// Minimum fraction of a port's rules that must have failed to blame the
  /// link rather than the individual rules.
  double link_threshold = 0.8;
  /// Minimum absolute number of failed rules on the port (avoids declaring a
  /// "link failure" from a single rule on a lightly-used port).
  std::size_t min_failed_rules = 3;
};

/// Diagnoses the failure pattern of one switch.  `expected` is the Monocle
/// expected table (its unicast rules' output ports define the per-link rule
/// groups); `failed` the cookies currently marked failed by the Monitor.
/// Rules in `excluded` (in-flight updates, recently-deltaed rules — the
/// TableDelta stream's view of active churn) are left out of BOTH the
/// failed and the total counts: their probe behaviour is confirmation
/// traffic in transition, not failure evidence.
Diagnosis localize_failures(
    const openflow::FlowTable& expected,
    const std::unordered_set<std::uint64_t>& failed,
    const LocalizerOptions& options = {},
    const std::unordered_set<std::uint64_t>* excluded = nullptr);

// ---------------------------------------------------------------------------
// Network-wide localization (fleet pipeline)
// ---------------------------------------------------------------------------

/// Per-switch input to network-wide localization: what one Monitor shard
/// knows.  Both pointers must outlive the localize_network call.
struct SwitchFailureReport {
  SwitchId sw = 0;
  const openflow::FlowTable* expected = nullptr;
  const std::unordered_set<std::uint64_t>* failed = nullptr;
  /// Optional: cookies to exclude from corroboration (rules with in-flight
  /// updates or recent deltas).  The Fleet derives this from each shard's
  /// pending updates plus its TableDelta stream, so churn never reads as a
  /// fault.  Null = nothing excluded.
  const std::unordered_set<std::uint64_t>* excluded = nullptr;
};

/// A suspected inter-switch link, named by both endpoints.
struct LinkDiagnosis {
  SwitchId a = 0;               ///< lower endpoint (a < b when both known)
  std::uint16_t port_a = 0;
  SwitchId b = 0;               ///< 0 when the port faces a host/edge
  std::uint16_t port_b = 0;
  /// Both endpoints' monitors independently blamed this link.
  bool corroborated = false;
  /// Which endpoint(s) testified.  In one localize_network pass
  /// corroborated == (reported_a && reported_b); the evidence accumulator
  /// (evidence.hpp) ORs these across passes, so a marginal gray link whose
  /// endpoints cross the group threshold in different passes still reads
  /// as two-sided testimony.
  bool reported_a = false;
  bool reported_b = false;
  /// Both endpoints known and present in the report set — a silent peer is
  /// then a monitored witness, not a blind spot.
  bool peer_monitored = false;
  std::size_t failed_rules = 0;  ///< failed rules forwarding into the link
  double fraction = 0.0;         ///< worst per-endpoint failed/total ratio
};

/// A switch whose incident links are (almost) all suspect — the failure
/// pattern of a dead switch or line card rather than one bad cable.
struct SwitchSuspect {
  SwitchId sw = 0;
  std::size_t suspect_links = 0;  ///< incident links under suspicion
  std::size_t total_links = 0;    ///< incident inter-switch links
  std::size_t failed_rules = 0;   ///< failed rules across those links
};

/// One failed rule no link/switch pattern explains (soft error, firmware
/// bug) — the paper's original per-rule alarm, now with its switch attached.
struct IsolatedRuleFault {
  SwitchId sw = 0;
  std::uint64_t cookie = 0;
};

/// Fleet-level localization result.
struct NetworkDiagnosis {
  std::vector<LinkDiagnosis> links;        ///< corroborated first, then by fraction
  std::vector<SwitchSuspect> switches;     ///< subsume their incident links
  std::vector<IsolatedRuleFault> isolated; ///< sorted by (switch, cookie)

  [[nodiscard]] bool healthy() const {
    return links.empty() && switches.empty() && isolated.empty();
  }
};

struct NetworkLocalizerOptions {
  LocalizerOptions per_switch;
  /// Fraction of a switch's inter-switch links that must be suspect before
  /// the switch itself (not its cables) is blamed.
  double switch_threshold = 0.75;
  /// ... and at least this many of them (degree-2 switches should not be
  /// declared dead on one bad link).
  std::size_t min_suspect_links = 3;
  /// Structural probe-path contamination filter.  Probes are injected at
  /// the upstream peer and enter the probed switch over a real link, so one
  /// dead element kills every probe whose INGRESS path crosses it — whole
  /// egress groups on innocent ports fail in bulk on both adjacent
  /// switches.  With the filter on:
  ///  * an uncorroborated link suspect whose peer is monitored and
  ///    reporting stays out of the switch-promotion tally (collateral
  ///    groups cannot vote a healthy switch dead) — it is still emitted,
  ///    flagged via reported_a/reported_b/peer_monitored, so the evidence
  ///    accumulator can apply cross-pass corroboration instead of a
  ///    one-shot veto;
  ///  * isolated rule faults on a switch incident to a link or switch
  ///    suspect are discarded (parsimony): that element already explains
  ///    sub-threshold probe loss on its endpoints.
  /// Off by default (the single-pass diagnose() path keeps every lead);
  /// the evidence accumulator turns it on (evidence.hpp).
  bool contamination_filter = false;
};

/// Diagnoses the whole fabric from per-switch failure reports.  `view`
/// supplies the port-level topology used to name links and to corroborate
/// the two independent per-endpoint suspicions of one link.  Reports with
/// an empty failed set are not walked (they can name no suspect unless both
/// LocalizerOptions thresholds are 0) and only witness peer_monitored, so
/// the cost follows the failing switches' tables, not the fleet's.
NetworkDiagnosis localize_network(std::span<const SwitchFailureReport> reports,
                                  const NetworkView& view,
                                  const NetworkLocalizerOptions& options = {});

}  // namespace monocle
