// monocle_perfbench: one benchmark run of one workload.
//
//   monocle_perfbench --workload steady|recovery|faults|churn --seed N
//                     --seconds S --trace 0|1
//
// Prints the fingerprint and sample counts as `# ` lines, any violated
// correctness check as a `VIOLATION:` line, and, as the last line, the JSON
// result: the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1).  Exits 1 when a correctness check failed, 2
// on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "churn_workload.hpp"
#include "loop_workload.hpp"
#include "report.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && (argc % 2 == 1) && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload steady|recovery|faults|churn --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  perfbench::LoopMix mix;
  const bool loop = perfbench::loop_mix(args.workload, mix);
  if (!loop && args.workload != "churn") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::print_fingerprint(args.workload.c_str(), args.seed, args.seconds,
                               args.trace);
  const perfbench::Report report =
      loop ? perfbench::run_loop_workload(args, mix)
           : perfbench::run_churn_workload(args);
  for (const auto& m : report.metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_frac %.6g (%llu failed / %llu attempted)\n",
              report.attempted == 0
                  ? 1.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  report.print_json();
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
