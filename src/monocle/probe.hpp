// Probe packets and outcome prediction (paper §3).
//
// A Probe is a concrete packet header plus the two predicted data-plane
// outcomes: what the switch does when the probed rule IS installed
// (`if_present`) and when it is NOT (`if_absent`).  The Distinguish
// constraint guarantees the two predictions are observably different, so a
// single caught packet (or a definite absence of one) decides rule presence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "netbase/abstract_packet.hpp"
#include "netbase/packed_bits.hpp"
#include "openflow/actions.hpp"

namespace monocle {

/// One predicted/actual catch event: the probe left the probed switch on
/// `output_port` carrying `header` (in_port bits zeroed — ingress is
/// meaningless downstream).  kPortController models rules that punt straight
/// to the controller.
struct Observation {
  std::uint16_t output_port = 0;
  netbase::PackedBits header;

  friend bool operator==(const Observation&, const Observation&) = default;
};

/// The observations of one prediction, in insertion order.  A forwarding
/// rule predicts one observation and a drop rule none, so a list of at most
/// one lives inline — classifying a caught probe then reads nothing beyond
/// the probe itself.  A list of two or more (multicast, ECMP) moves wholly
/// to the heap, so iteration stays contiguous.
class ObservationList {
 public:
  using value_type = Observation;
  using iterator = Observation*;
  using const_iterator = const Observation*;

  ObservationList() = default;
  ObservationList(std::initializer_list<Observation> init) {
    for (const Observation& o : init) push_back(o);
  }

  [[nodiscard]] std::size_t size() const {
    return spill_.empty() ? inline_size_ : spill_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] Observation* data() {
    return spill_.empty() ? &first_ : spill_.data();
  }
  [[nodiscard]] const Observation* data() const {
    return spill_.empty() ? &first_ : spill_.data();
  }
  [[nodiscard]] iterator begin() { return data(); }
  [[nodiscard]] iterator end() { return data() + size(); }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size(); }
  Observation& operator[](std::size_t i) { return data()[i]; }
  const Observation& operator[](std::size_t i) const { return data()[i]; }

  void push_back(const Observation& o) {
    if (spill_.empty()) {
      if (inline_size_ == 0) {
        first_ = o;
        inline_size_ = 1;
        return;
      }
      spill_.reserve(2);
      spill_.push_back(first_);
      inline_size_ = 0;
    }
    spill_.push_back(o);
  }
  void clear() {
    spill_.clear();
    inline_size_ = 0;
  }

  friend bool operator==(const ObservationList& a, const ObservationList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Observation first_;               ///< the element while size() <= 1
  std::vector<Observation> spill_;  ///< every element once size() >= 2
  std::uint8_t inline_size_ = 0;    ///< 0 or 1 while spill_ is empty
};

/// The observable result of one rule processing the probe.
struct OutcomePrediction {
  openflow::ForwardKind kind = openflow::ForwardKind::kMulticast;
  /// Multicast: ALL of these observations occur (none, for a drop rule).
  /// ECMP: exactly ONE of them occurs.
  ObservationList observations;

  [[nodiscard]] bool is_drop() const { return observations.empty(); }
};

/// A generated probe for one rule.
struct Probe {
  netbase::AbstractPacket packet;  ///< injected header (in_port = ingress port)
  std::uint64_t rule_cookie = 0;   ///< rule under test
  OutcomePrediction if_present;
  OutcomePrediction if_absent;

  /// Ingress port the probe must enter the probed switch through.
  [[nodiscard]] std::uint16_t in_port() const {
    return static_cast<std::uint16_t>(
        packet.get(netbase::Field::InPort));
  }
};

/// What a single caught observation tells us about the probed rule.
enum class Verdict : std::uint8_t {
  kPresent,       ///< consistent only with the rule being installed
  kAbsent,        ///< consistent only with the rule missing/misbehaving
  kInconclusive,  ///< consistent with both or with neither (foreign packet)
};

/// Classifies one observation against the probe's two predictions.
Verdict classify_observation(const Probe& probe, const Observation& seen);

/// Zeroes the in_port bits of `header` (canonical form for Observation).
netbase::PackedBits strip_in_port(netbase::PackedBits header);

/// Stable hash of a prediction, used as ProbeMetadata::expected so stale
/// probes (generated against an older table) are recognized and dropped.
std::uint32_t hash_prediction(const OutcomePrediction& prediction);

}  // namespace monocle
