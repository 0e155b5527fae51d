#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads: `offline` (design-time solves)
/// and the open-loop serve workloads `modechange` and `churn`.
///
/// Every input is generated here from the run's seed; the library receives
/// only the generated task graphs and event traces. perfbench/README.md
/// explains why each workload exists and what each metric means.

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;        ///< offline | modechange | churn
  std::uint64_t seed = 1;
  double seconds = 10.0;       ///< measured span of one run
  bool trace = false;          ///< traced run: per-layer metrics
  std::string spans_out;       ///< traced run: where the span log goes
};

struct RunResult {
  /// Every output check passed.
  bool correct() const { return problems.empty(); }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricSheet metrics;
  /// One line per failed output check.
  std::vector<std::string> problems;
};

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
