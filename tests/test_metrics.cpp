// Metamorphic metric invariants.
//
// The metrics layer reports the same execution three ways — per-run Metrics,
// per-event trace streams, and batch-wide MetricsSnapshot aggregates — so
// internal consistency between the three is a free oracle: no golden values
// needed, any disagreement is a bug. Pinned here:
//
//  * per-node delivered-event counts (from a full trace) sum to
//    Metrics::deliveries, and on reliable runs deliveries == messages_total,
//    under EVERY scheduler;
//  * wall_ns == advise_ns + run_ns in every TaskReport;
//  * a BatchStats::metrics snapshot is bit-identical at jobs=1 and jobs=8,
//    and equals the returned reports folded by hand, histogram buckets,
//    min and max included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/gossip.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/metrics_registry.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

PortGraph metrics_graph() {
  Rng rng(424242);
  return make_random_connected(64, 0.12, rng);
}

TEST(MetricsInvariants, PerNodeDeliveredCountsSumToTotalsEveryScheduler) {
  const PortGraph g = metrics_graph();
  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm algorithm;
  const SchedulerKind kinds[] = {
      SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
      SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
      SchedulerKind::kAsyncLinkFifo};
  for (const SchedulerKind sched : kinds) {
    RunOptions opts;
    opts.scheduler = sched;
    opts.seed = 31337;
    TraceRecorder recorder(TraceLevel::kFull);
    opts.trace_sink = &recorder;
    const TaskReport report = run_task(g, 5, oracle, algorithm, opts);
    ASSERT_TRUE(report.ok()) << to_string(sched);
    const RecordedTrace trace = recorder.take();

    std::map<NodeId, std::uint64_t> delivered_at;
    std::uint64_t sends = 0;
    for (const TraceEvent& e : trace.events) {
      if (e.kind == TraceEventKind::kDeliver) ++delivered_at[e.node];
      if (e.kind == TraceEventKind::kSend) ++sends;
    }
    std::uint64_t delivered_sum = 0;
    for (const auto& [node, count] : delivered_at) delivered_sum += count;

    EXPECT_EQ(delivered_sum, report.run.metrics.deliveries)
        << to_string(sched);
    EXPECT_EQ(sends, report.run.metrics.messages_total) << to_string(sched);
    // Reliable network: every sent message is delivered exactly once.
    EXPECT_EQ(report.run.metrics.deliveries,
              report.run.metrics.messages_total)
        << to_string(sched);
  }
}

TEST(MetricsInvariants, WallTimeIsExactlyAdvisePlusRunInEveryReport) {
  const PortGraph g = metrics_graph();
  const TreeWakeupOracle tree_oracle;
  const LightBroadcastOracle light_oracle;
  const WakeupTreeAlgorithm wakeup;
  const CensusAlgorithm census;
  const BroadcastBAlgorithm broadcast;
  std::vector<TrialSpec> specs;
  for (NodeId s = 0; s < 12; ++s) {
    specs.push_back({&g, s, &tree_oracle, &wakeup});
    specs.push_back({&g, s, &tree_oracle, &census});
    specs.push_back({&g, s, &light_oracle, &broadcast});
  }
  for (const bool cache : {true, false}) {
    const std::vector<TaskReport> reports =
        BatchRunner(4, cache).run(specs);
    for (const TaskReport& r : reports) {
      EXPECT_EQ(r.wall_ns, r.advise_ns + r.run_ns)
          << r.algorithm_name << " cache=" << cache;
    }
  }
}

std::vector<TrialSpec> mixed_specs(const PortGraph& g, const Oracle& tree,
                                   const Oracle& light, const Oracle& null,
                                   const Algorithm& wakeup,
                                   const Algorithm& broadcast,
                                   const Algorithm& flooding,
                                   const Algorithm& gossip) {
  std::vector<TrialSpec> specs;
  for (NodeId s = 0; s < 6; ++s) {
    RunOptions async;
    async.scheduler = SchedulerKind::kAsyncRandom;
    async.seed = 100 + s;
    specs.push_back({&g, s, &tree, &wakeup});
    specs.push_back({&g, s, &tree, &gossip, async});
    specs.push_back({&g, s, &light, &broadcast});
    RunOptions faulty;
    faulty.fault.seed = 55 + s;
    faulty.fault.drop = 0.08;
    specs.push_back({&g, s, &null, &flooding, faulty});
  }
  return specs;
}

TEST(MetricsInvariants, SnapshotBitIdenticalAcrossJobs) {
  const PortGraph g = metrics_graph();
  const TreeWakeupOracle tree;
  const LightBroadcastOracle light;
  const NullOracle null;
  const WakeupTreeAlgorithm wakeup;
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  const GossipTreeAlgorithm gossip;
  const std::vector<TrialSpec> specs =
      mixed_specs(g, tree, light, null, wakeup, broadcast, flooding, gossip);

  BatchStats serial;
  BatchStats parallel;
  BatchRunner(1).run(specs, &serial);
  BatchRunner(8).run(specs, &parallel);
  EXPECT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics, parallel.metrics);

  // Equal snapshots must serialize byte-identically (sorted keys).
  std::ostringstream a;
  std::ostringstream b;
  serial.metrics.write_json(a);
  parallel.metrics.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

/// The snapshot name of the counter a trial's final status increments.
const char* status_counter(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted: return "trials_completed";
    case RunStatus::kTaskFailed: return "trials_task_failed";
    case RunStatus::kTimeout: return "trials_timeout";
    case RunStatus::kBudgetExhausted: return "trials_budget_exhausted";
    case RunStatus::kCrashed: return "trials_crashed";
    case RunStatus::kByzantineDetected: return "trials_byzantine_detected";
  }
  return "unknown";
}

/// BatchStats::metrics recomputed from the returned reports alone: all 25
/// trial counters, all three histograms field by field, and the six batch
/// counters. Every instrument is named even when it stays zero or empty.
MetricsSnapshot fold_reports(const std::vector<TaskReport>& reports,
                             const BatchStats& stats) {
  MetricsSnapshot want;
  std::map<std::string, std::uint64_t>& c = want.counters;
  for (const char* name :
       {"trials", "trials_completed", "trials_task_failed", "trials_timeout",
        "trials_budget_exhausted", "trials_crashed",
        "trials_byzantine_detected", "messages_total", "messages_source",
        "messages_hello", "messages_control", "bits_on_wire", "deliveries",
        "faults_dropped", "faults_duplicated", "faults_delayed",
        "faults_crashed_nodes", "faults_dead_deliveries",
        "faults_advice_bits_flipped", "byz_lying_nodes", "byz_forged",
        "byz_equivocated", "byz_replayed", "byz_structured_lies",
        "byz_advice_lies"}) {
    c[name] = 0;
  }
  std::map<std::string, std::map<std::uint32_t, std::uint64_t>> widths;
  for (const char* name :
       {"messages_per_trial", "queue_depth_peak", "wakeup_latency"}) {
    want.histograms[name] = HistogramStats{};
    widths[name];
  }
  const auto observe = [&](const char* name, std::uint64_t v) {
    HistogramStats& h = want.histograms[name];
    h.min = h.count == 0 ? v : std::min(h.min, v);
    h.max = h.count == 0 ? v : std::max(h.max, v);
    ++h.count;
    h.sum += v;
    ++widths[name][static_cast<std::uint32_t>(std::bit_width(v))];
  };

  std::uint64_t retries = 0;
  for (const TaskReport& r : reports) {
    retries += r.attempts - 1;
    ++c["trials"];
    ++c[status_counter(r.run.status)];
    if (r.failed()) continue;
    const Metrics& m = r.run.metrics;
    c["messages_total"] += m.messages_total;
    c["messages_source"] += m.messages_source;
    c["messages_hello"] += m.messages_hello;
    c["messages_control"] += m.messages_control;
    c["bits_on_wire"] += m.bits_sent;
    c["deliveries"] += m.deliveries;
    c["faults_dropped"] += r.run.faults.dropped;
    c["faults_duplicated"] += r.run.faults.duplicated;
    c["faults_delayed"] += r.run.faults.delayed;
    c["faults_crashed_nodes"] += r.run.faults.crashed_nodes;
    c["faults_dead_deliveries"] += r.run.faults.dead_deliveries;
    c["faults_advice_bits_flipped"] += r.run.faults.advice_bits_flipped;
    c["byz_lying_nodes"] += r.run.adversary.lying_nodes;
    c["byz_forged"] += r.run.adversary.forged;
    c["byz_equivocated"] += r.run.adversary.equivocated;
    c["byz_replayed"] += r.run.adversary.replayed;
    c["byz_structured_lies"] += r.run.adversary.structured_lies;
    c["byz_advice_lies"] += r.run.adversary.advice_lies;
    observe("messages_per_trial", m.messages_total);
    observe("queue_depth_peak", m.queue_depth_peak);
    for (const std::int64_t at : r.run.informed_at) {
      if (at != RunResult::kNeverInformed) {
        observe("wakeup_latency", static_cast<std::uint64_t>(at));
      }
    }
  }
  for (const auto& [name, by_width] : widths) {
    for (const auto& [width, count] : by_width) {
      want.histograms[name].buckets.emplace_back(width, count);
    }
  }
  c["retries"] = retries;
  c["advice_cache_hits"] = stats.cache_hits;
  c["advice_unique"] = stats.unique_advice;
  c["seed_families"] = stats.seed_families;
  c["batched_lanes"] = stats.batched_lanes;
  c["lockstep_shared_lanes"] = stats.lockstep_shared;
  return want;
}

TEST(MetricsInvariants, SnapshotAgreesWithSummedReports) {
  // Three kinds of work in one batch: scalar singles, a lockstep family
  // whose fault lanes diverge and replay scalar, and trials that retry.
  const PortGraph g = metrics_graph();
  const TreeWakeupOracle tree;
  const LightBroadcastOracle light;
  const NullOracle null;
  const WakeupTreeAlgorithm wakeup;
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  const GossipTreeAlgorithm gossip;
  std::vector<TrialSpec> specs =
      mixed_specs(g, tree, light, null, wakeup, broadcast, flooding, gossip);
  for (std::uint64_t lane = 0; lane < 16; ++lane) {
    RunOptions faulty;
    faulty.fault.seed = 900 + lane;
    faulty.fault.drop = 0.02;
    specs.push_back({&g, 7, &tree, &wakeup, faulty});
  }
  RetryPolicy retry;
  retry.max_retries = 2;
  retry.retry_task_failures = true;

  std::vector<MetricsSnapshot> snapshots;
  for (const std::size_t jobs : {1u, 4u}) {
    BatchStats stats;
    const std::vector<TaskReport> reports =
        BatchRunner(jobs, true, retry).run(specs, &stats);
    ASSERT_EQ(reports.size(), specs.size());
    EXPECT_EQ(stats.seed_families, 1u) << "jobs=" << jobs;
    EXPECT_GT(stats.lockstep_shared, 0u) << "jobs=" << jobs;
    EXPECT_LT(stats.lockstep_shared, stats.batched_lanes) << "jobs=" << jobs;
    EXPECT_GT(stats.retries, 0u) << "jobs=" << jobs;
    EXPECT_EQ(stats.metrics, fold_reports(reports, stats)) << "jobs=" << jobs;
    snapshots.push_back(stats.metrics);
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

// ---- Registry unit behavior ------------------------------------------------

TEST(MetricsRegistry, HistogramBucketsByBitWidth) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  for (const std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 8ULL, 1023ULL}) {
    h.observe(v);
  }
  HistogramAccumulator acc;
  for (const std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 8ULL, 1023ULL}) {
    acc.observe(v);
  }
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramStats& s = snap.histograms.at("h");
  // The plain accumulator seals to exactly what the atomic one snapshots.
  EXPECT_EQ(acc.seal(), s);
  EXPECT_EQ(HistogramAccumulator{}.seal(), HistogramStats{});
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 1037u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1023u);
  // bit_width: 0→0, 1→1, {2,3}→2, 8→4, 1023→10.
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want = {
      {0, 1}, {1, 1}, {2, 2}, {4, 1}, {10, 1}};
  EXPECT_EQ(s.buckets, want);
}

TEST(MetricsRegistry, SnapshotMergeSumsEverything) {
  MetricsRegistry a;
  a.counter("c").add(3);
  a.histogram("h").observe(4);
  MetricsRegistry b;
  b.counter("c").add(5);
  b.counter("only_b").add(1);
  b.histogram("h").observe(16);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  // BatchRunner folds per-worker shards in worker order, so the merge must
  // commute.
  MetricsSnapshot reversed = b.snapshot();
  reversed.merge(a.snapshot());
  EXPECT_EQ(reversed, merged);
  EXPECT_EQ(merged.counters.at("c"), 8u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  const HistogramStats& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 20u);
  EXPECT_EQ(h.min, 4u);
  EXPECT_EQ(h.max, 16u);
}

TEST(MetricsRegistry, WriteJsonShape) {
  MetricsRegistry reg;
  reg.counter("beta").add(2);
  reg.counter("alpha").add(1);
  reg.histogram("lat").observe(5);
  std::ostringstream out;
  reg.snapshot().write_json(out);
  const std::string json = out.str();
  // Sorted keys, both sections present.
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"beta\""));
  EXPECT_NE(json.find("\"lat\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [[3, 1]]"), std::string::npos);
}

}  // namespace
}  // namespace oraclesize
