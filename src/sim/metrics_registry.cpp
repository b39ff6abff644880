#include "sim/metrics_registry.h"

#include <bit>
#include <ostream>

namespace oraclesize {

void Histogram::observe(std::uint64_t value) noexcept {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(value));
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramStats HistogramAccumulator::seal() const {
  HistogramStats s;
  s.count = count;
  s.sum = sum;
  if (count > 0) {
    s.min = min;
    s.max = max;
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] > 0) {
      s.buckets.emplace_back(static_cast<std::uint32_t>(b), buckets[b]);
    }
  }
  return s;
}

HistogramAccumulator Histogram::load() const noexcept {
  HistogramAccumulator acc;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    acc.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  acc.count = count_.load(std::memory_order_relaxed);
  acc.sum = sum_.load(std::memory_order_relaxed);
  acc.min = min_.load(std::memory_order_relaxed);
  acc.max = max_.load(std::memory_order_relaxed);
  return acc;
}

void HistogramStats::merge(const HistogramStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  // Merge the sparse bucket lists (both ascending by width).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               other.buckets[j].first < buckets[i].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first,
                          buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].merge(hist);
  }
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": " << value;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": {\"count\": " << h.count
        << ", \"sum\": " << h.sum << ", \"min\": " << h.min
        << ", \"max\": " << h.max << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out << ", ";
      out << '[' << h.buckets[i].first << ", " << h.buckets[i].second << ']';
    }
    out << "]}";
  }
  out << "}}";
}

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

void MetricsSnapshot::write_prometheus(std::ostream& out) const {
  for (const auto& [name, value] : counters) {
    const std::string n = prometheus_name(name);
    out << "# TYPE " << n << " counter\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = prometheus_name(name);
    out << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [width, count] : h.buckets) {
      cumulative += count;
      // Bucket b holds integer values in [2^(b-1), 2^b), so the inclusive
      // upper boundary is 2^b - 1; width 0 holds exactly the zeros.
      const std::uint64_t le =
          width == 0 ? 0
                     : (width >= 64 ? ~0ULL : (1ULL << width) - 1);
      out << n << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    out << n << "_bucket{le=\"+Inf\"} " << h.count << '\n'
        << n << "_sum " << h.sum << '\n'
        << n << "_count " << h.count << '\n';
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h.load().seal();
  }
  return snap;
}

}  // namespace oraclesize
