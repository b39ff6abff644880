#include "trace.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

std::uint64_t since_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::uint64_t SpanRecorder::now_ns() const { return since_ns(epoch_); }

std::uint64_t SpanRecorder::thread_index_locked() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return threads_.try_emplace(key, threads_.size()).first->second;
}

std::uint64_t SpanRecorder::open(std::string name, std::string detail,
                                 std::uint64_t parent) {
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.id = spans_.size() + 1;
  rec.parent = parent;
  rec.name = std::move(name);
  rec.detail = std::move(detail);
  rec.thread = thread_index_locked();
  rec.start_ns = start;
  rec.end_ns = start;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint64_t id) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = end;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_ms_by_name() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      all.size() + 1);
  for (const SpanRecord& s : all) {
    if (s.parent >= 1 && s.parent <= all.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to the parent's interval.
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::uint64_t lo = std::max(b, cursor);
      const std::uint64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    out[s.name] += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::total_ms_by_name() const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans()) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

std::vector<double> SpanRecorder::durations_ms(
    const std::string& name, const std::string& detail) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans()) {
    if (s.name == name && (detail.empty() || s.detail == detail)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

Span::Span(SpanRecorder* recorder, std::string name, std::string detail,
           std::uint64_t parent)
    : recorder_(recorder) {
  if (recorder_ != nullptr) {
    id_ = recorder_->open(std::move(name), std::move(detail), parent);
  }
}

Span::~Span() {
  if (recorder_ != nullptr) recorder_->close(id_);
}

}  // namespace perfbench
