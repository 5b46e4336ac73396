#include "trace.hpp"

#include <atomic>
#include <ostream>

#include "stats.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.  One stack per thread
/// serves every tracer: spans nest strictly within a thread.
thread_local std::vector<int64_t> open_spans;

uint32_t thread_number() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Tracer::Span Tracer::span(const std::string& name, uint64_t job) {
  if (!enabled_) return Span();
  const double entered = wall_now();
  Record record;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.job = job;
  record.thread = thread_number();
  int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int64_t>(records_.size());
    record.start = wall_now();
    record.end = record.start;
    records_.push_back(std::move(record));
    closed_.push_back(false);
  }
  open_spans.push_back(index);
  charge(entered);
  return Span(this, index);
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  tracer_->finish(index_);
  tracer_ = nullptr;
}

void Tracer::finish(int64_t index) {
  const double now = wall_now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<size_t>(index)].end = now;
    closed_[static_cast<size_t>(index)] = true;
  }
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  charge(now);
}

void Tracer::charge(double since) {
  self_ns_ += static_cast<int64_t>((wall_now() - since) * 1e9);
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations(name)) total += d;
  return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (closed_[i] && records_[i].name == name) {
      out.push_back(records_[i].end - records_[i].start);
    }
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<Record> all = records();
  const double origin = all.empty() ? 0.0 : all.front().start;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Record& r = all[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":" << json_string(r.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << r.thread << ",\"ts\":" << json_number((r.start - origin) * 1e6)
       << ",\"dur\":" << json_number((r.end - r.start) * 1e6) << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << r.parent << ",\"job\":" << r.job << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
