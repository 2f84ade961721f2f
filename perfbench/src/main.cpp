// Benchmark harness entry point:
//   fj_perfbench --workload <plan-cold|serve-warm> --seed <n>
//                --seconds <s> --trace <0|1> [--out <dir>]
// Prints the run record and, as the last line, the result object.
#include <sys/prctl.h>

#include <cstdio>
#include <exception>

#include "bench.h"

int main(int argc, char** argv) {
  // Transparent huge pages off for this process: with them on, whether the
  // heap gets huge pages depends on the host's free memory, which made the
  // update probe vary from one process to the next.
  if (prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0) {
    std::fprintf(stderr,
                 "perfbench: could not turn transparent huge pages off\n");
  }
  try {
    perfbench::Args args = perfbench::ParseArgs(argc, argv);
    if (args.workload == "plan-cold") return perfbench::RunPlanCold(args);
    if (args.workload == "serve-warm") return perfbench::RunServeWarm(args);
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
