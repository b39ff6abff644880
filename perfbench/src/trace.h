// In-memory span recording for the traced run.
//
// The traced run wraps calls into the library's public functions (graph
// builders, from_text, GraphStore::insert, light_tree, Oracle::advise,
// BatchRunner::run, ServiceClient calls) in spans, keeps them in memory,
// and writes them as JSON when the run ends. Nothing inside the library is
// instrumented. With tracing off, Span objects are inert: one branch on a
// null recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since `t0`.
std::uint64_t since_ns(Clock::time_point t0);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;          ///< "<layer>.<call>", e.g. "graph.build"
  std::string detail;        ///< free-form attribute (family, task, op)
  std::uint64_t thread = 0;  ///< small per-recorder thread index
  std::uint64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span; returns its id. Thread-safe.
  std::uint64_t open(std::string name, std::string detail,
                     std::uint64_t parent);
  /// Closes the span `id` at the current time. Thread-safe.
  void close(std::uint64_t id);

  std::vector<SpanRecord> spans() const;

  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals (children may run on other threads), summed.
  std::map<std::string, double> self_ms_by_name() const;

  /// Sum of durations per span name.
  std::map<std::string, double> total_ms_by_name() const;

  /// Durations (ms) of every closed span with this name (and detail, when
  /// `detail` is non-empty).
  std::vector<double> durations_ms(const std::string& name,
                                   const std::string& detail = "") const;

 private:
  std::uint64_t now_ns() const;
  std::uint64_t thread_index_locked();

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index = id - 1
  std::map<std::uint64_t, std::uint64_t> threads_;
};

/// RAII span. A null recorder makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* recorder, std::string name, std::string detail = "",
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench
