#include "report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  std::uint64_t samples) {
  metrics[name] = MetricValue{value, samples};
}

void Outcome::mismatch(const std::string& what) {
  ++failed;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ok_frac", "ratio"},
      {"peak_rss_mb", "MiB"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.build_ms.complete", "ms"},
      {"graph.build_ms.random", "ms"},
      {"graph.build_ms.other", "ms"},
      {"graph.build_share", "ratio"},
      {"graph.edges_per_s", "1/s"},
      {"graph.parse_ms_p50", "ms"},
      {"oracle.advise_ms.wakeup", "ms"},
      {"oracle.advise_ms.broadcast", "ms"},
      {"oracle.advise_share", "ratio"},
      {"oracle.tree_ms", "ms"},
      {"oracle.encode_ms", "ms"},
      {"oracle.tree_phases", "count"},
      {"oracle.tree_edges_erased", "count"},
      {"oracle.bits_per_node", "bits"},
      {"sim.run_ms", "ms"},
      {"sim.run_share", "ratio"},
      {"sim.deliveries", "count"},
      {"sim.deliveries_per_s", "1/s"},
      {"sim.lockstep_shared_frac", "ratio"},
      {"sim.replayed_lanes", "count"},
      {"core.batch_overhead_frac", "ratio"},
      {"core.advice_hit_rate", "ratio"},
      {"core.unique_advice", "count"},
      {"core.retries", "count"},
      {"service.server_ms_p50", "ms"},
      {"service.server_ms_p99", "ms"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.transport_ms_p50", "ms"},
      {"service.batch_lanes_mean", "count"},
      {"service.cache_hit_rate", "ratio"},
      {"service.evictions", "count"},
      {"service.rejected_overload", "count"},
      {"service.upload_ms_p50", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.advise_ms_p50", "ms"},
      {"service.ref_p50_ms", "ms"},
      {"service.max_rps", "1/s"},
      {"service.gen_late_ms_p99", "ms"},
      {"tail_p99_ms", "ms"},
      {"trace_overhead_frac", "ratio"},
  };
  return defs;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double Windows::latency_ms(double q) const {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    if (!w.latency_ms.empty()) per_window.push_back(quantile(w.latency_ms, q));
  }
  return median(per_window);
}

double Windows::ops_per_s() const {
  std::vector<double> rates;
  for (const Window& w : windows) {
    if (w.wall_s > 0) rates.push_back(w.ops / w.wall_s);
  }
  return median(rates);
}

std::uint64_t Windows::samples() const {
  std::uint64_t n = 0;
  for (const Window& w : windows) n += w.latency_ms.size();
  return n;
}

double Windows::rss_mb() const {
  std::vector<double> peaks;
  for (const Window& w : windows) peaks.push_back(w.rss_mb);
  return median(peaks);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

void reset_peak_rss() {
  // Hand freed heap memory back first: otherwise whatever glibc's
  // per-thread arenas kept from earlier windows (it varies with thread
  // timing) counts toward this window's peak.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench
