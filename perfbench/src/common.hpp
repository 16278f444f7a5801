// Shared pieces of the perfbench harness: wall clock, order statistics,
// peak RSS, the seeded RNG, and the span tracer of the traced run.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Processor time the process has used so far, over all its threads, in
/// seconds.  Set-up is timed on this clock: it runs on the orchestrating
/// thread plus one warm-up thread, so the clock counts all of its work but
/// not the time the host lets the process wait.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// Clock resolutions of the sim-clock metrics (see quantile_grouped).
constexpr double kConfirmTickMs = 2.0;
constexpr double kTtdTickMs = 1.0;

/// Quantile of a sample observed on a clock of resolution `tick`: the
/// grouped-data estimate (as Python's statistics.median_grouped), which
/// spreads the samples tied at one value uniformly over one tick.  The
/// sim-clock latencies are such samples: a Monitor sees an update land only
/// at its next update probe (every Monitor::Config::update_probe_interval,
/// 2 ms), and the loopback rig's timers fire on a 1 ms step grid.
inline double quantile_grouped(std::vector<double> v, double q, double tick) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const auto pos = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const double x = v[pos];
  const auto lo = std::lower_bound(v.begin(), v.end(), x) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), x) - v.begin();
  return x - tick / 2 +
         tick * (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// splitmix64: every input the benchmark generates derives from --seed
/// through one of these streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Span names of the traced run.  Spans are opened only at the benchmark's
/// own call sites into the program and in the hooks the program calls back
/// into (inject, sender, update-confirm).
enum class SpanName : std::uint8_t {
  kStartRound,     // Fleet::start_round
  kBurst,          // Monitor::steady_probe_burst (direct-burst phase)
  kInject,         // Monitor inject hook -> Multiplexer::inject_at
  kSender,         // Multiplexer switch sender -> the stand-in data plane
  kPacketIn,       // Multiplexer::on_packet_in
  kRouteFlowMod,   // Fleet::route_flow_mod
  kConfirmHook,    // Monitor::Hooks::on_update_confirmed
  kRunUntil,       // switchsim::EventQueue::run_until
  kPublish,        // Fleet::publish_telemetry + TelemetryHub::poll
  kRestoreShard,   // Fleet::restore_shard
  kDiagnose,       // Fleet::diagnose
  kCount
};

inline const char* span_label(SpanName n) {
  static const char* const kLabels[] = {
      "fleet.start_round", "monitor.steady_probe_burst",
      "multiplexer.inject_at", "standin.sender", "multiplexer.on_packet_in",
      "fleet.route_flow_mod", "hook.on_update_confirmed",
      "switchsim.run_until", "telemetry.publish", "fleet.restore_shard",
      "fleet.diagnose"};
  return kLabels[static_cast<std::size_t>(n)];
}

/// In-memory span recorder.  Spans of one top-level call (a round, a
/// FlowMod, a run_until slice) are folded into per-name totals when that
/// call ends; the first kKeep spans are also kept verbatim and written out
/// when the run ends.  Self time = duration minus the time covered by the
/// span's children.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Span {
    SpanName name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  /// Spans are recorded only while enabled (the traced run toggles this per
  /// measurement window to price the tracing itself).
  bool enabled = false;

  std::uint32_t begin(SpanName name) {
    if (!enabled) return kNone;
    const auto index = static_cast<std::uint32_t>(open_.size());
    open_.push_back(
        {name, stack_.empty() ? kNone : stack_.back(), now_ns(), 0});
    stack_.push_back(index);
    return index;
  }

  void end(std::uint32_t index) {
    if (index == kNone) return;
    open_[index].end_ns = now_ns();
    stack_.pop_back();
    if (stack_.empty()) fold();
  }

  [[nodiscard]] const Totals& totals(SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }

  /// Writes the kept spans as tab-separated lines (name, parent, start, end).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# span\tparent\tstart_ns\tend_ns\n");
    for (const Span& s : kept_) {
      std::fprintf(f, "%s\t%ld\t%lld\t%lld\n", span_label(s.name),
                   s.parent == kNone ? -1L : static_cast<long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kKeep = 200'000;

  void fold() {
    child_ns_.assign(open_.size(), 0);
    for (const Span& s : open_) {
      if (s.parent != kNone) {
        child_ns_[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    const auto base = static_cast<std::uint32_t>(kept_.size());
    for (std::size_t i = 0; i < open_.size(); ++i) {
      const Span& s = open_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      Totals& t = totals_[static_cast<std::size_t>(s.name)];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns_[i];
    }
    if (kept_.size() + open_.size() <= kKeep) {
      for (Span s : open_) {
        if (s.parent != kNone) s.parent += base;
        kept_.push_back(s);
      }
    }
    open_.clear();
  }

  std::vector<Span> open_;  // spans of the current top-level call
  std::vector<std::uint32_t> stack_;
  std::vector<double> child_ns_;
  std::vector<Span> kept_;
  Totals totals_[static_cast<std::size_t>(SpanName::kCount)];
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, SpanName n) : t_(t), index_(t.begin(n)) {}
  ~Scope() { t_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t index_;
};

}  // namespace perfbench
