/// \file main.cpp
/// \brief lbmem_perfbench: run one workload, print every metric with its
/// unit, then the JSON result line.
///
///   lbmem_perfbench --workload offline|modechange|churn --seed N
///                   --seconds S --trace 0|1 [--spans-out FILE]
///
/// Exit codes: 0 when every output check passed, 1 when one failed (the
/// result line is still printed, with "correct": false), 2 on bad usage or
/// an error that left no result.

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "lbmem_perfbench: %s\n"
               "usage: lbmem_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--spans-out") {
        config.spans_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad value: ") + e.what());
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::RunResult result = perfbench::run_workload(config);
    std::fputs(result.metrics.text().c_str(), stdout);
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
    }
    std::puts(perfbench::result_line(result.correct(), result.attempted,
                                     result.failed, result.metrics)
                  .c_str());
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbmem_perfbench: %s\n", e.what());
    return 2;
  }
}
