// Named counters and histograms, plain and atomic.
//
// Two recorders share one sealed form (HistogramStats, MetricsSnapshot):
//
//  * HistogramAccumulator — a plain, single-writer histogram. The batch
//    runtime (core/batch_runner.h) gives every pool worker its own shard of
//    plain counters and accumulators, records each trial there with no
//    atomics and no shared cache lines, and folds the shards once, after
//    the workers join.
//  * MetricsRegistry — named atomic instruments for recorders that are
//    never joined, such as the advice service's per-request instruments
//    (service/advice_service.h). Registration (`counter(name)` /
//    `histogram(name)`) takes a mutex and returns a STABLE reference
//    (std::map storage is node-based); recording (`Counter::add`,
//    `Histogram::observe`) is a relaxed atomic operation — no locks, no
//    allocation, safe from any thread. snapshot() seals each histogram
//    through HistogramAccumulator::seal, so both recorders export alike.
//
// Everything the batch runtime records is a sum of per-trial contributions,
// and every per-trial contribution is deterministic in the trial's spec
// (counts, scheduler keys — never wall-clock time). Counter addition and
// HistogramStats::merge commute, so the merged snapshot is bit-identical
// regardless of the worker count. tests/test_metrics.cpp pins that jobs=1
// and jobs=8 produce equal snapshots.
//
// Histograms use power-of-two buckets: a value lands in bucket
// bit_width(value), i.e. bucket 0 holds exactly the zeros and bucket b >= 1
// holds [2^(b-1), 2^b). Coarse, but allocation-free and mergeable.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace oraclesize {

/// A sealed histogram: plain values, comparable and mergeable.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;
  /// Non-empty buckets only, as (bit_width, count), ascending by width.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  void merge(const HistogramStats& other);

  friend bool operator==(const HistogramStats&,
                         const HistogramStats&) = default;
};

/// A plain power-of-two-bucket histogram for a single writer: the same
/// buckets, count, sum, min and max as Histogram, without the atomics.
struct HistogramAccumulator {
  /// bit_width ranges over 0..64, one bucket each.
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t buckets[kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~0ULL;  ///< meaningful only when count > 0
  std::uint64_t max = 0;

  void observe(std::uint64_t value) noexcept {
    ++buckets[std::bit_width(value)];
    ++count;
    sum += value;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// The sealed form: min/max zeroed when empty, non-empty buckets only.
  HistogramStats seal() const;
};

/// A monotone counter. add() is wait-free; value() is a relaxed load, so
/// read it only after the writers are quiescent (post-join).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A power-of-two-bucket histogram of unsigned values. observe() performs
/// a handful of relaxed atomic ops (bucket, count, sum, min/max CAS).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramAccumulator::kBuckets;

  void observe(std::uint64_t value) noexcept;

  /// A plain copy of every field (relaxed loads): read it only after the
  /// writers are quiescent.
  HistogramAccumulator load() const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

/// A consistent copy of a registry: plain values in deterministic (name)
/// order, suitable for equality checks, merging, and JSON export.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramStats> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }

  /// Adds `other` into this snapshot (counters sum, histograms merge).
  void merge(const MetricsSnapshot& other);

  /// One JSON object: {"counters": {...}, "histograms": {name: {"count":..,
  /// "sum":.., "min":.., "max":.., "buckets": [[w, c], ...]}, ...}}.
  /// Keys are emitted in sorted order, so equal snapshots serialize
  /// byte-identically.
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition format (version 0.0.4). Counters become
  /// `# TYPE <name> counter` samples; histograms become cumulative-bucket
  /// families with `le` boundaries at 2^b - 1 (the inclusive upper edge of
  /// power-of-two bucket b, since observed values are integers), plus the
  /// conventional `+Inf`, `_sum` and `_count` samples. Names are sanitized
  /// to the Prometheus charset ([a-zA-Z0-9_:], leading digit prefixed with
  /// '_'). Sorted-key iteration keeps equal snapshots byte-identical here
  /// too.
  void write_prometheus(std::ostream& out) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Named instrument storage. Thread-safe registration; instruments live as
/// long as the registry and their references never dangle or move.
class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. Takes a mutex — call during
  /// setup, not from recording hot paths.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every instrument into plain values. Call after writers join.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace oraclesize
