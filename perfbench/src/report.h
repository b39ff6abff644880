// What a workload run hands back, the metric catalogue, and the small
// statistics helpers every workload shares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short mode for the benchmark's own smoke test: small inputs, a short
  /// window, every metric still emitted.
  bool smoke = false;
  /// BatchRunner and service worker threads: two, or fewer on a host with
  /// fewer cores.
  std::size_t workers = 2;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_path;
};

struct MetricValue {
  double value = 0.0;
  std::uint64_t samples = 0;  ///< observations behind the value
};

struct Outcome {
  std::uint64_t attempted = 0;
  /// Failed operations plus every correctness mismatch.
  std::uint64_t failed = 0;
  /// The first few mismatch descriptions (for the log; counted in failed).
  std::vector<std::string> mismatches;
  std::map<std::string, MetricValue> metrics;
  /// Workload-specific provenance (rate ladder, sizes, sample counts).
  std::map<std::string, std::string> provenance;

  void set(const std::string& name, double value, std::uint64_t samples);
  /// Records a mismatch: counts it as a failure and keeps the first few.
  void mismatch(const std::string& what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports with tracing off.
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every workload reports in the traced run. A layer
/// a workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// A run cut into windows — a sweep pass, a campaign round, a slice of
/// service traffic. Quantiles are taken inside each window and the median
/// across windows is reported, so one disturbed window moves the figure
/// little.
struct Windows {
  struct Window {
    std::vector<double> latency_ms;
    double ops = 0;
    double wall_s = 0;
    double rss_mb = 0;  ///< peak resident set size inside the window
  };
  std::vector<Window> windows;

  Window& open() { return windows.emplace_back(); }
  /// Median across windows of each window's q-quantile latency.
  double latency_ms(double q) const;
  /// Median across windows of ops / wall.
  double ops_per_s() const;
  /// Median across windows of their peak resident set size.
  double rss_mb() const;
  std::uint64_t samples() const;
};

/// Peak resident set size of this process since the last reset_peak_rss(),
/// in MiB.
double peak_rss_mb();
/// Trims the heap and restarts the peak at the current resident set size,
/// so each window reports its own peak rather than the process's lifetime
/// maximum. Call outside timed regions.
void reset_peak_rss();

/// Setup runs repeated this many times; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

}  // namespace perfbench
