// Shared workload definitions and harness plumbing for the experiment
// binaries (E1..E12 + perf).
//
// Each bench binary prints the table(s) reproducing one theorem/claim of the
// paper; EXPERIMENTS.md records the expected shapes. Keep the sweeps here
// moderate so the full harness runs in seconds, not hours.
//
// Every binary drives its executions through core/batch_runner.h (parallel
// across trials, deterministic in spec order) and emits a machine-readable
// JSON record per trial alongside the human tables, so BENCH_*.json
// trajectories can be tracked across PRs. Common flags, parsed by Harness:
//
//   --jobs N            worker threads for the batch runner (default:
//                       hardware)
//   --json FILE         where to write the JSON records (default
//                       BENCH_<id>.json)
//   --no-json           skip the JSON file entirely
//   --no-advice-cache   disable the batch advice-memoization pre-pass
//                       (the measurement baseline; see core/advice_cache.h)
//   --fault-rate P      drop each message with probability P (decorates
//                       every spec's RunOptions before it runs)
//   --fault-seed S      seed for the fault plan (default 0)
//   --deadline-ms T     per-trial wall-clock deadline (0 = none)
//   --retries K         bounded re-seeded retry of transient trial failures
//   --record-metrics    add per-record metric snapshots (deliveries, queue
//                       depth, status) to the JSON records
//
// Every BENCH_<id>.json also carries a batch-wide "metrics" object — the
// MetricsSnapshot aggregated across all run() calls (messages by kind, bits
// on wire, fault impact, queue-depth / wakeup-latency histograms). The
// addition is backward compatible: existing keys are untouched.
#pragma once

#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/port_graph.h"
#include "util/rng.h"

namespace oraclesize::bench {

struct Workload {
  std::string family;
  std::size_t n;
  PortGraph graph;
  std::uint64_t build_ns = 0;  ///< wall time of the builder call (incl. freeze)
};

/// Resident adjacency bytes per edge in the graph's current layout (the
/// quantity tracked by the graph_bytes_per_edge JSON key).
inline double bytes_per_edge(const PortGraph& g) {
  return g.num_edges() == 0
             ? 0.0
             : static_cast<double>(g.memory_bytes()) /
                   static_cast<double>(g.num_edges());
}

/// Builds one workload through `make`, timing construction + freeze.
template <typename MakeFn>
Workload timed_workload(std::string family, std::size_t n, MakeFn&& make) {
  const auto t0 = std::chrono::steady_clock::now();
  PortGraph g = make();
  const auto build_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return {std::move(family), n, std::move(g), build_ns};
}

/// The standard graph-family sweep used by E1/E3/E4/E6: one graph per
/// (family, n) pair. Sizes chosen so dense families stay tractable.
inline std::vector<Workload> standard_workloads() {
  std::vector<Workload> out;
  Rng rng(0xbeefcafeULL);
  for (std::size_t n : {128u, 512u, 2048u}) {
    out.push_back(timed_workload("complete", n,
                                 [&] { return make_complete_star(n); }));
  }
  for (std::size_t n : {256u, 1024u, 4096u}) {
    out.push_back(timed_workload("random(p=8/n)", n, [&] {
      return make_random_connected(n, 8.0 / static_cast<double>(n), rng);
    }));
  }
  for (int d : {8, 10, 12}) {
    out.push_back(timed_workload("hypercube", std::size_t{1} << d,
                                 [&] { return make_hypercube(d); }));
  }
  for (std::size_t side : {16u, 32u, 64u}) {
    out.push_back(timed_workload("grid", side * side,
                                 [&] { return make_grid(side, side); }));
  }
  for (std::size_t n : {256u, 1024u, 4096u}) {
    out.push_back(timed_workload("random-tree", n,
                                 [&] { return make_random_tree(n, rng); }));
  }
  for (std::size_t n : {128u, 512u}) {
    out.push_back(timed_workload("lollipop", n,
                                 [&] { return make_lollipop(n); }));
  }
  for (std::size_t side : {16u, 48u}) {
    out.push_back(timed_workload("torus", side * side,
                                 [&] { return make_torus(side, side); }));
  }
  out.push_back(timed_workload("bipartite", 512, [] {
    return make_complete_bipartite(256, 256);
  }));
  for (std::size_t n : {512u, 2048u}) {
    out.push_back(timed_workload("random-regular(d=4)", n, [&] {
      return make_random_regular(n, 4, rng);
    }));
  }
  out.push_back(timed_workload("caterpillar", 1024,
                               [] { return make_caterpillar(128, 7); }));
  return out;
}

/// One executed trial, as tracked across PRs in BENCH_*.json.
struct TrialRecord {
  std::string family;
  std::size_t n = 0;
  std::string scheduler;
  std::uint64_t oracle_bits = 0;
  std::uint64_t messages_total = 0;
  std::int64_t completion_key = 0;
  std::uint64_t wall_ns = 0;    ///< advise_ns + run_ns
  std::uint64_t advise_ns = 0;  ///< oracle advise() share (0 when cached)
  std::uint64_t run_ns = 0;     ///< execution-engine share
  bool advice_cached = false;   ///< advice served precomputed
  bool ok = true;
  // Graph-storage extras (new keys; zero when the caller didn't supply a
  // workload to attribute them to).
  std::uint64_t graph_build_ns = 0;  ///< builder + freeze wall time
  double graph_bytes_per_edge = 0.0;  ///< resident adjacency bytes / edge
  // Per-record metric snapshot, emitted only under --record-metrics.
  std::uint64_t deliveries = 0;
  std::uint64_t queue_depth_peak = 0;
  std::string status = "completed";  ///< RunStatus of the trial
};

inline TrialRecord make_record(std::string family, std::size_t n,
                               SchedulerKind sched, const TaskReport& r,
                               std::uint64_t graph_build_ns = 0,
                               double graph_bytes_per_edge = 0.0) {
  TrialRecord rec{std::move(family),
                  n,
                  to_string(sched),
                  r.oracle_bits,
                  r.run.metrics.messages_total,
                  r.run.metrics.completion_key,
                  r.wall_ns,
                  r.advise_ns,
                  r.run_ns,
                  r.advice_cached,
                  r.ok()};
  rec.graph_build_ns = graph_build_ns;
  rec.graph_bytes_per_edge = graph_bytes_per_edge;
  rec.deliveries = r.run.metrics.deliveries;
  rec.queue_depth_peak = r.run.metrics.queue_depth_peak;
  rec.status = to_string(r.run.status);
  return rec;
}

/// Flag parsing + batch runner + JSON emission for one bench binary.
/// Construct it first thing in main; records added via record() are
/// written as BENCH_<id>.json when the harness is destroyed.
class Harness {
 public:
  Harness(std::string id, int argc, char** argv)
      : id_(std::move(id)), started_(std::chrono::steady_clock::now()) {
    std::size_t jobs = 0;  // hardware concurrency
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << "error: missing value after " << a << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (a == "--jobs") {
        jobs = static_cast<std::size_t>(std::stoull(next()));
      } else if (a == "--json") {
        json_path_ = next();
      } else if (a == "--no-json") {
        json_path_.clear();
        json_enabled_ = false;
      } else if (a == "--no-advice-cache") {
        advice_cache_ = false;
      } else if (a == "--fault-rate") {
        fault_rate_ = std::stod(next());
      } else if (a == "--fault-seed") {
        fault_seed_ = std::stoull(next());
      } else if (a == "--deadline-ms") {
        deadline_ms_ = std::stoull(next());
      } else if (a == "--retries") {
        retries_ = static_cast<std::uint32_t>(std::stoull(next()));
      } else if (a == "--record-metrics") {
        record_metrics_ = true;
      } else {
        std::cerr << "error: unknown option '" << a
                  << "' (supported: --jobs N, --json FILE, --no-json, "
                     "--no-advice-cache, --fault-rate P, --fault-seed S, "
                     "--deadline-ms T, --retries K, --record-metrics)\n";
        std::exit(2);
      }
    }
    if (json_enabled_ && json_path_.empty()) {
      json_path_ = "BENCH_" + id_ + ".json";
    }
    const RetryPolicy retry{retries_, 0x9e3779b97f4a7c15ULL,
                            /*retry_task_failures=*/fault_rate_ > 0};
    runner_ = BatchRunner(jobs, advice_cache_, retry);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  ~Harness() { write_json(); }

  const BatchRunner& runner() const { return runner_; }
  std::size_t jobs() const { return runner_.jobs(); }
  bool advice_cache() const { return advice_cache_; }
  bool json_enabled() const { return json_enabled_; }

  /// Runs a batch of specs and returns reports in spec order. Pass `stats`
  /// to receive the batch's advice-cache accounting. When the harness-level
  /// fault/deadline flags are set, every spec's RunOptions is decorated
  /// with them before running (a copy — the caller's specs are untouched).
  std::vector<TaskReport> run(const std::vector<TrialSpec>& specs,
                              BatchStats* stats = nullptr) const {
    // Always request BatchStats: the batch's MetricsSnapshot accumulates
    // across run() calls into the harness-wide aggregate for the JSON
    // footer. Aggregation happens outside the timed trial sections, so
    // per-trial wall numbers are unaffected.
    BatchStats local;
    BatchStats* sink = stats != nullptr ? stats : &local;
    std::vector<TaskReport> reports;
    if (fault_rate_ <= 0 && deadline_ms_ == 0) {
      reports = runner_.run(specs, sink);
    } else {
      std::vector<TrialSpec> decorated = specs;
      for (TrialSpec& spec : decorated) {
        if (fault_rate_ > 0) {
          spec.options.fault.drop = fault_rate_;
          spec.options.fault.seed = fault_seed_;
        }
        if (deadline_ms_ > 0) {
          spec.options.deadline_ns = deadline_ms_ * 1'000'000;
        }
      }
      reports = runner_.run(decorated, sink);
    }
    metrics_.merge(sink->metrics);
    return reports;
  }

  void record(TrialRecord r) { records_.push_back(std::move(r)); }

  /// The metric aggregate across every run() call so far.
  const MetricsSnapshot& metrics() const { return metrics_; }

 private:
  void write_json() const {
    if (!json_enabled_) return;
    const auto total_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started_)
            .count();
    std::ofstream out(json_path_);
    if (!out) {
      std::cerr << "warning: cannot write " << json_path_ << "\n";
      return;
    }
    out << "{\n  \"bench\": \"" << id_ << "\",\n"
        << "  \"jobs\": " << runner_.jobs() << ",\n"
        << "  \"total_wall_ns\": " << total_ns << ",\n"
        << "  \"records\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const TrialRecord& r = records_[i];
      out << (i == 0 ? "\n" : ",\n")
          << "    {\"family\": \"" << r.family << "\", \"n\": " << r.n
          << ", \"scheduler\": \"" << r.scheduler << "\""
          << ", \"oracle_bits\": " << r.oracle_bits
          << ", \"messages_total\": " << r.messages_total
          << ", \"completion_key\": " << r.completion_key
          << ", \"wall_ns\": " << r.wall_ns
          << ", \"advise_ns\": " << r.advise_ns
          << ", \"run_ns\": " << r.run_ns << ", \"advice_cached\": "
          << (r.advice_cached ? "true" : "false") << ", \"ok\": "
          << (r.ok ? "true" : "false")
          << ", \"graph_build_ns\": " << r.graph_build_ns
          << ", \"graph_bytes_per_edge\": " << r.graph_bytes_per_edge;
      if (record_metrics_) {
        out << ", \"deliveries\": " << r.deliveries
            << ", \"queue_depth_peak\": " << r.queue_depth_peak
            << ", \"status\": \"" << r.status << "\"";
      }
      out << "}";
    }
    out << (records_.empty() ? "],\n" : "\n  ],\n") << "  \"metrics\": ";
    metrics_.write_json(out);
    out << "\n}\n";
    std::cerr << "[bench] wrote " << records_.size() << " records to "
              << json_path_ << " (jobs=" << runner_.jobs() << ")\n";
  }

  std::string id_;
  std::chrono::steady_clock::time_point started_;
  std::string json_path_;
  bool json_enabled_ = true;
  bool advice_cache_ = true;
  double fault_rate_ = 0.0;
  std::uint64_t fault_seed_ = 0;
  std::uint64_t deadline_ms_ = 0;
  std::uint32_t retries_ = 0;
  bool record_metrics_ = false;
  BatchRunner runner_{1};
  std::vector<TrialRecord> records_;
  /// Accumulated across run() calls; run() is const (the harness is shared
  /// by value-capture-free lambdas), so the aggregate is mutable state.
  mutable MetricsSnapshot metrics_;
};

}  // namespace oraclesize::bench
