/// \file test_stats.cpp
/// \brief Unit test of the benchmark's percentile helper, the metric-name
/// rule and the result line. Exits non-zero on the first failed check.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  using perfbench::percentile;

  // Nearest rank: p50 of 1..20 is rank 10, with 10 samples beyond it.
  const auto p50 = percentile(one_to(20), 50.0);
  check(p50.supported && p50.value == 10.0, "p50 of 1..20 is 10");
  check(p50.samples == 20 && p50.beyond == 10, "p50 of 1..20 counts");

  // 19 samples leave only 9 beyond the median: unsupported, printed as 0.
  const auto p50_short = percentile(one_to(19), 50.0);
  check(!p50_short.supported && p50_short.value == 0.0,
        "p50 of 19 samples is unsupported");
  check(p50_short.beyond == 9, "p50 of 19 samples has 9 beyond");

  // p90 needs 100 samples; p99 needs 1000.
  const auto p90 = percentile(one_to(100), 90.0);
  check(p90.supported && p90.value == 90.0, "p90 of 1..100 is 90");
  check(!percentile(one_to(99), 90.0).supported, "p90 of 99 unsupported");
  check(!percentile(one_to(999), 99.0).supported, "p99 of 999 unsupported");
  const auto p99 = percentile(one_to(1000), 99.0);
  check(p99.supported && p99.value == 990.0, "p99 of 1..1000 is 990");

  // Empty sets and p100.
  const auto empty = percentile({}, 50.0);
  check(!empty.supported && empty.samples == 0 && empty.value == 0.0,
        "empty set is unsupported");
  check(!percentile(one_to(50), 100.0).supported, "p100 has nothing beyond");

  bool threw = false;
  try {
    percentile(one_to(10), 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "p0 is rejected");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* good :
       {"setup_s", "latency_ms_p90", "online.apply_ms.wcet.rejected.p50",
        "ingress.late_ms_p90", "a-b", "9"}) {
    check(valid_metric_name(good), good);
  }
  for (const char* bad : {"", "a b", "lat/ms", "p90%", "é", "a\"b", "x{"}) {
    check(!valid_metric_name(bad), bad);
  }

  perfbench::MetricSheet sheet;
  bool threw = false;
  try {
    sheet.add("bad name", 1.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "sheet rejects a bad name");
  sheet.add("x", 1.5, "ms");
  threw = false;
  try {
    sheet.add("x", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "sheet rejects a duplicate name");
}

void test_result_line() {
  perfbench::MetricSheet sheet;
  sheet.add("setup_s", 0.25, "s");
  sheet.add("latency_ms_p90", perfbench::percentile(one_to(5), 90.0), "ms");
  const std::string line = perfbench::result_line(true, 7, 0, sheet);
  check(line ==
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"latency_ms_p90\": {\"value\": 0, \"unit\": \"ms\"}}}",
        "result line");
  check(sheet.text().find("unsupported") != std::string::npos,
        "text flags an unsupported percentile");
}

}  // namespace

int main() {
  test_percentile();
  test_metric_names();
  test_result_line();
  if (failures == 0) std::puts("perfbench_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
