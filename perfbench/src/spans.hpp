#pragma once
/// \file spans.hpp
/// \brief In-memory span log for the traced run.
///
/// A span is recorded around each call into a library layer: its name, the
/// request it belongs to (a solve or an admission window), the span that
/// enclosed it, and its start and end. Spans stay in memory and are written
/// out once, when the run ends. A null log makes every span a no-op, so the
/// untraced run pays only a pointer test.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";      ///< a string literal
    std::int64_t request = -1;  ///< solve or window index; -1 = set-up
    int parent = -1;            ///< index of the enclosing span
    double start_us = 0.0;      ///< since the log was created
    double end_us = -1.0;       ///< -1 while open
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Open a span nested in the innermost open one; returns its index.
  int open(const char* name, std::int64_t request);
  /// Close span \p id (the innermost open one); returns its duration in ms.
  double close(int id);

  /// Durations in ms of every closed span called \p name.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Write "id,parent,request,name,start_us,end_us" lines to \p path.
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// RAII span: opens on construction, closes on close() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t request = -1)
      : log_(log), id_(log != nullptr ? log->open(name, request) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close now; returns the duration in ms (0 for a null log or a second
  /// close).
  double close() {
    if (log_ == nullptr || id_ < 0) return 0.0;
    const double ms = log_->close(id_);
    id_ = -1;
    return ms;
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
