#pragma once
/// \file stats.hpp
/// \brief Percentiles with their sample support, and the metric sheet the
/// benchmark prints.
///
/// Percentile discipline: a percentile is reported only when at least
/// kMinBeyond samples lie beyond it. An unsupported percentile is still
/// printed (the result line must carry every declared metric) but its value
/// is 0 and its text line says so.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::int64_t kMinBeyond = 10;

/// One percentile of a sample set.
struct Percentile {
  double value = 0.0;        ///< 0 when unsupported
  std::int64_t samples = 0;  ///< size of the sample set
  std::int64_t beyond = 0;   ///< samples strictly above the rank
  bool supported = false;    ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile \p p (0 < p <= 100) of \p samples: the value at
/// rank ceil(p/100 * n) of the sorted set. `beyond` counts the n - rank
/// samples above that rank.
Percentile percentile(std::vector<double> samples, double p);

/// The metric-name rule: one or more of [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);

/// The unit rule: 1 to 16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

/// Metrics of one run, in insertion order, printed as text lines and as the
/// final JSON result line.
class MetricSheet {
 public:
  /// Record a plain value. Throws std::invalid_argument on a bad or
  /// duplicate name, or a bad unit.
  void add(const std::string& name, double value, const std::string& unit);
  /// Record a percentile; the text line carries its sample count.
  void add(const std::string& name, const Percentile& pct,
           const std::string& unit);

  /// One "name value unit [note]" line per metric.
  std::string text() const;
  /// The "metrics" object of the result line.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  void push(Entry entry);

  std::vector<Entry> entries_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSheet& sheet);

}  // namespace perfbench
