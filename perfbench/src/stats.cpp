#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile must be in (0, 100]");
  }
  Percentile out;
  out.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(out.samples))));
  out.beyond = out.samples - rank;
  out.supported = out.beyond >= kMinBeyond;
  if (out.supported) out.value = samples[static_cast<std::size_t>(rank - 1)];
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

namespace {

/// Shortest text that reads back as exactly \p value.
std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric value is not finite");
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void MetricSheet::push(Entry entry) {
  if (!valid_metric_name(entry.name)) {
    throw std::invalid_argument("bad metric name: " + entry.name);
  }
  if (!valid_unit(entry.unit)) {
    throw std::invalid_argument("bad unit for " + entry.name);
  }
  for (const Entry& e : entries_) {
    if (e.name == entry.name) {
      throw std::invalid_argument("duplicate metric: " + entry.name);
    }
  }
  entries_.push_back(std::move(entry));
}

void MetricSheet::add(const std::string& name, double value,
                      const std::string& unit) {
  push(Entry{name, value, unit, ""});
}

void MetricSheet::add(const std::string& name, const Percentile& pct,
                      const std::string& unit) {
  std::string note = "(n=" + std::to_string(pct.samples) + ")";
  if (!pct.supported) {
    note = "(n=" + std::to_string(pct.samples) + ", " +
           std::to_string(pct.beyond) + " beyond: unsupported, printed as 0)";
  }
  push(Entry{name, pct.value, unit, note});
}

std::string MetricSheet::text() const {
  std::string out;
  for (const Entry& e : entries_) {
    out += e.name + " " + number(e.value) + " " + e.unit;
    if (!e.note.empty()) out += " " + e.note;
    out += "\n";
  }
  return out;
}

std::string MetricSheet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSheet& sheet) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + sheet.json() + "}";
}

}  // namespace perfbench
