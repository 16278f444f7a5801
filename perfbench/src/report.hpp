// What one benchmark run reports: the metrics, the operation counts behind
// `fail_frac`, and the fingerprint lines.  The last line of stdout is the
// JSON result the benchmark contract asks for.
#pragma once

#include <unistd.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// A violated correctness check: counted as a failed operation and
  /// printed, and the run exits non-zero.
  void violation(const std::string& what, std::uint64_t count = 1) {
    correct = false;
    failed += count;
    std::printf("VIOLATION: %s (%llu)\n", what.c_str(),
                static_cast<unsigned long long>(count));
  }

  /// Informational line (fingerprint, sample counts, cross-checks).
  static void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
  }
};

inline void Report::info(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::printf("# ");
  std::vprintf(fmt, ap);
  std::printf("\n");
  va_end(ap);
}

inline void print_fingerprint(const char* workload, std::uint64_t seed,
                              double seconds, bool trace) {
#ifdef NDEBUG
  const char* build = "Release (NDEBUG)";
#else
  const char* build = "Debug (assertions on)";
#endif
  Report::info("workload=%s seed=%llu seconds=%g trace=%d", workload,
               static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  Report::info("nproc=%ld compiler=\"g++ %s\" build=%s round_workers=1 "
               "warmup_threads=1 journal=memory checkpoints=memory",
               sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, build);
}

}  // namespace perfbench
