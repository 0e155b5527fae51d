#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanLog::open(const char* name, std::int64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = now_us();
  return (span.end_us - span.start_us) / 1000.0;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name && span.end_us >= 0.0) {
      out.push_back((span.end_us - span.start_us) / 1000.0);
    }
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,request,name,start_us,end_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_us << ',' << s.end_us << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
