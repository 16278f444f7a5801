#include "monocle/probe.hpp"

#include <algorithm>

namespace monocle {

namespace {
/// Every header bit except in_port's.
constexpr netbase::PackedBits in_port_clear_mask() {
  netbase::PackedBits mask = ~netbase::PackedBits{};
  const auto& info = netbase::field_info(netbase::Field::InPort);
  for (int i = 0; i < info.width; ++i) mask.set(info.bit_offset + i, false);
  return mask;
}
constexpr netbase::PackedBits kInPortClearMask = in_port_clear_mask();

bool contains(const ObservationList& set, const Observation& obs) {
  return std::find(set.begin(), set.end(), obs) != set.end();
}
}  // namespace

netbase::PackedBits strip_in_port(netbase::PackedBits header) {
  return header & kInPortClearMask;
}

std::uint32_t hash_prediction(const OutcomePrediction& prediction) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(prediction.kind));
  for (const Observation& o : prediction.observations) {
    mix(o.output_port);
    for (const auto word : o.header.w) mix(word);
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

Verdict classify_observation(const Probe& probe, const Observation& seen) {
  Observation canonical = seen;
  canonical.header = strip_in_port(canonical.header);
  const bool in_present = contains(probe.if_present.observations, canonical);
  const bool in_absent = contains(probe.if_absent.observations, canonical);
  if (in_present && !in_absent) return Verdict::kPresent;
  if (in_absent && !in_present) return Verdict::kAbsent;
  return Verdict::kInconclusive;
}

}  // namespace monocle
