#include "monocle/localizer.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

namespace monocle {

Diagnosis localize_failures(const openflow::FlowTable& expected,
                            const std::unordered_set<std::uint64_t>& failed,
                            const LocalizerOptions& options,
                            const std::unordered_set<std::uint64_t>* excluded) {
  // Group rules by their (sole) output port; multicast/ECMP rules join every
  // port in their forwarding set — a dead link breaks them too, but they
  // alone cannot implicate a single link.
  struct PortGroup {
    std::size_t total = 0;
    std::vector<std::uint64_t> failed_cookies;
  };
  std::map<std::uint16_t, PortGroup> by_port;
  for (const openflow::Rule& r : expected.rules()) {
    // Mid-update/mid-churn rules carry no usable evidence either way: out
    // of the numerator AND the denominator.
    if (excluded != nullptr && excluded->contains(r.cookie)) continue;
    const auto ports = r.outcome().forwarding_set();
    for (const std::uint16_t port : ports) {
      if (port >= openflow::kPortMax) continue;  // controller/flood pseudo-ports
      PortGroup& g = by_port[port];
      ++g.total;
      if (failed.contains(r.cookie)) g.failed_cookies.push_back(r.cookie);
    }
  }

  Diagnosis out;
  std::unordered_set<std::uint64_t> explained;
  for (const auto& [port, group] : by_port) {
    if (group.failed_cookies.size() < options.min_failed_rules) continue;
    const double fraction = static_cast<double>(group.failed_cookies.size()) /
                            static_cast<double>(group.total);
    if (fraction < options.link_threshold) continue;
    LinkSuspect suspect;
    suspect.port = port;
    suspect.failed_rules = group.failed_cookies.size();
    suspect.total_rules = group.total;
    out.failed_links.push_back(suspect);
    explained.insert(group.failed_cookies.begin(), group.failed_cookies.end());
  }
  std::sort(out.failed_links.begin(), out.failed_links.end(),
            [](const LinkSuspect& a, const LinkSuspect& b) {
              return a.fraction() > b.fraction();
            });

  for (const std::uint64_t cookie : failed) {
    if (excluded != nullptr && excluded->contains(cookie)) continue;
    if (!explained.contains(cookie)) out.isolated_rules.push_back(cookie);
  }
  std::sort(out.isolated_rules.begin(), out.isolated_rules.end());
  return out;
}

NetworkDiagnosis localize_network(std::span<const SwitchFailureReport> reports,
                                  const NetworkView& view,
                                  const NetworkLocalizerOptions& options) {
  NetworkDiagnosis out;

  // Per-switch localization, then port->link translation.  A link is keyed
  // by its canonically ordered endpoints so the two endpoint monitors'
  // independent suspicions land on the same entry (= corroboration).
  using LinkKey = std::tuple<SwitchId, std::uint16_t, SwitchId, std::uint16_t>;
  std::map<LinkKey, LinkDiagnosis> links;
  // A switch with no failed rule yields no suspect as long as a port group
  // needs at least one failed rule or a non-zero failed fraction, so its
  // table is never walked: a pass costs O(tables of failing switches), not
  // O(fleet).  Its report still counts as a monitored witness below.
  const LocalizerOptions& per_switch = options.per_switch;
  const bool healthy_is_silent =
      per_switch.min_failed_rules > 0 || per_switch.link_threshold > 0;
  for (const SwitchFailureReport& rep : reports) {
    if (rep.expected == nullptr || rep.failed == nullptr) continue;
    if (healthy_is_silent && rep.failed->empty()) continue;
    const Diagnosis local = localize_failures(*rep.expected, *rep.failed,
                                              per_switch, rep.excluded);
    for (const LinkSuspect& suspect : local.failed_links) {
      SwitchId a = rep.sw;
      std::uint16_t port_a = suspect.port;
      SwitchId b = 0;
      std::uint16_t port_b = 0;
      if (const auto peer = view.peer(rep.sw, suspect.port)) {
        b = peer->sw;
        port_b = peer->port;
      }
      const bool flip = b != 0 && b < a;
      const LinkKey key = flip ? LinkKey{b, port_b, a, port_a}
                               : LinkKey{a, port_a, b, port_b};
      auto [it, inserted] = links.try_emplace(key);
      LinkDiagnosis& link = it->second;
      if (inserted) {
        link.a = std::get<0>(key);
        link.port_a = std::get<1>(key);
        link.b = std::get<2>(key);
        link.port_b = std::get<3>(key);
      } else {
        link.corroborated = true;  // the other endpoint reported it too
      }
      if (rep.sw == link.a) {
        link.reported_a = true;
      } else {
        link.reported_b = true;
      }
      link.failed_rules += suspect.failed_rules;
      link.fraction = std::max(link.fraction, suspect.fraction());
    }
    for (const std::uint64_t cookie : local.isolated_rules) {
      out.isolated.push_back({rep.sw, cookie});
    }
  }

  // peer_monitored: both endpoints sent a report (failing or not).  Only
  // the suspects' endpoints are looked up, so the scan allocates in
  // proportion to the suspects, never to the fleet.
  if (!links.empty()) {
    std::vector<std::pair<SwitchId, bool>> reporting;  // endpoint, reported
    for (const auto& [key, link] : links) {
      reporting.emplace_back(link.a, false);
      if (link.b != 0) reporting.emplace_back(link.b, false);
    }
    std::sort(reporting.begin(), reporting.end());
    reporting.erase(std::unique(reporting.begin(), reporting.end()),
                    reporting.end());
    const auto entry = [&](SwitchId sw) {
      return std::lower_bound(reporting.begin(), reporting.end(),
                              std::pair<SwitchId, bool>{sw, false});
    };
    for (const SwitchFailureReport& rep : reports) {
      if (rep.expected == nullptr || rep.failed == nullptr) continue;
      const auto it = entry(rep.sw);
      if (it != reporting.end() && it->first == rep.sw) it->second = true;
    }
    const auto reported = [&](SwitchId sw) {
      const auto it = entry(sw);
      return it != reporting.end() && it->first == sw && it->second;
    };
    for (auto& [key, link] : links) {
      link.peer_monitored =
          link.b != 0 && reported(link.a) && reported(link.b);
    }
  }

  // Switch promotion: a switch most of whose inter-switch links are suspect
  // has itself failed (dead switch / line card), not n independent cables.
  // Host-facing suspects (b == 0) stay out of the tally on both sides: the
  // denominator below counts only ports with a switch peer, and a bad edge
  // port says nothing about the fabric side of the switch.
  struct PerSwitch {
    std::size_t suspect_links = 0;
    std::size_t failed_rules = 0;
  };
  std::map<SwitchId, PerSwitch> by_switch;
  for (const auto& [key, link] : links) {
    if (link.b == 0) continue;
    // Ingress-contamination collateral (one-sided despite a monitored,
    // reporting peer) must not vote a healthy switch dead.
    if (options.contamination_filter && !link.corroborated &&
        link.peer_monitored) {
      continue;
    }
    by_switch[link.a].suspect_links += 1;
    by_switch[link.a].failed_rules += link.failed_rules;
    by_switch[link.b].suspect_links += 1;
    by_switch[link.b].failed_rules += link.failed_rules;
  }
  std::unordered_set<SwitchId> blamed;
  for (const auto& [sw, acc] : by_switch) {
    if (acc.suspect_links < options.min_suspect_links) continue;
    std::size_t total_links = 0;
    for (const std::uint16_t port : view.ports(sw)) {
      if (view.peer(sw, port).has_value()) ++total_links;
    }
    if (total_links == 0) continue;
    const double fraction = static_cast<double>(acc.suspect_links) /
                            static_cast<double>(total_links);
    if (fraction < options.switch_threshold) continue;
    blamed.insert(sw);
    out.switches.push_back({sw, acc.suspect_links, total_links,
                            acc.failed_rules});
  }
  std::sort(out.switches.begin(), out.switches.end(),
            [](const SwitchSuspect& x, const SwitchSuspect& y) {
              return x.suspect_links > y.suspect_links;
            });

  // Links incident to a blamed switch are subsumed by its diagnosis.
  for (const auto& [key, link] : links) {
    if (blamed.contains(link.a) || (link.b != 0 && blamed.contains(link.b))) {
      continue;
    }
    out.links.push_back(link);
  }
  std::sort(out.links.begin(), out.links.end(),
            [](const LinkDiagnosis& x, const LinkDiagnosis& y) {
              if (x.corroborated != y.corroborated) return x.corroborated;
              return x.fraction > y.fraction;
            });

  // Parsimony: a confirmed-suspect element already explains sub-threshold
  // probe loss on its endpoint switches — ingress-contaminated rules there
  // are not independent soft faults.
  if (options.contamination_filter && (!links.empty() || !blamed.empty())) {
    std::erase_if(out.isolated, [&](const IsolatedRuleFault& fault) {
      if (blamed.contains(fault.sw)) return true;
      for (const auto& [key, link] : links) {
        if (fault.sw == link.a || (link.b != 0 && fault.sw == link.b)) {
          return true;
        }
      }
      return false;
    });
  }

  std::sort(out.isolated.begin(), out.isolated.end(),
            [](const IsolatedRuleFault& x, const IsolatedRuleFault& y) {
              return x.sw != y.sw ? x.sw < y.sw : x.cookie < y.cookie;
            });
  return out;
}

}  // namespace monocle
