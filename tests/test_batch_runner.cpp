#include "core/batch_runner.h"

#include <gtest/gtest.h>

#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

// The E1/E4 workload shapes at test-friendly sizes.
std::vector<PortGraph> test_workloads() {
  std::vector<PortGraph> graphs;
  Rng rng(0xbeefcafeULL);
  graphs.push_back(make_complete_star(128));
  graphs.push_back(make_random_connected(256, 8.0 / 256.0, rng));
  graphs.push_back(make_grid(16, 16));
  graphs.push_back(make_random_tree(256, rng));
  return graphs;
}

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
    SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
    SchedulerKind::kAsyncLinkFifo,
};

// The determinism contract: identical RunResults for jobs=1 vs jobs=8 on
// the E1 (wakeup) and E4 (broadcast) workloads under all five schedulers.
TEST(BatchRunner, DeterministicAcrossJobCounts) {
  const auto graphs = test_workloads();
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle light_oracle;
  const BroadcastBAlgorithm broadcast;

  std::vector<TrialSpec> specs;
  for (const PortGraph& g : graphs) {
    for (SchedulerKind sched : kAllSchedulers) {
      RunOptions opts;
      opts.scheduler = sched;
      opts.seed = 42;
      opts.anonymous = true;
      specs.push_back(TrialSpec{&g, 0, &wakeup_oracle, &wakeup, opts});
      specs.push_back(TrialSpec{&g, 0, &light_oracle, &broadcast, opts});
    }
  }

  const auto serial = BatchRunner(1).run(specs);
  const auto parallel = BatchRunner(8).run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << i;
    EXPECT_EQ(serial[i].run, parallel[i].run) << i;
    EXPECT_EQ(serial[i].oracle_bits, parallel[i].oracle_bits) << i;
    EXPECT_EQ(serial[i].oracle_name, parallel[i].oracle_name) << i;
  }
}

// For a fixed TrialSpec, BatchRunner output is bit-identical to the
// single-trial engine path, whatever the worker count.
TEST(BatchRunner, MatchesSingleTrialEngine) {
  Rng rng(7);
  const PortGraph g = make_random_connected(200, 0.06, rng);
  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm algorithm;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 99;
  TraceRecorder direct_trace(TraceLevel::kMessages);
  opts.trace_sink = &direct_trace;

  const auto advice = oracle.advise(g, 5);
  const RunResult direct = run_execution(g, 5, advice, algorithm, opts);
  ASSERT_FALSE(direct_trace.trace().events.empty());

  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    TraceRecorder batch_trace(TraceLevel::kMessages);
    opts.trace_sink = &batch_trace;
    const auto reports = BatchRunner(jobs).run(
        {TrialSpec{&g, 5, &oracle, &algorithm, opts}});
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].run, direct) << "jobs=" << jobs;
    EXPECT_EQ(batch_trace.trace().events, direct_trace.trace().events)
        << "jobs=" << jobs;
  }
}

TEST(BatchRunner, RunTaskIsAThinWrapper) {
  const PortGraph g = make_grid(8, 8);
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncLifo;

  const TaskReport via_task = run_task(g, 3, oracle, algorithm, opts);
  const auto via_batch =
      BatchRunner(2).run({TrialSpec{&g, 3, &oracle, &algorithm, opts}});
  EXPECT_EQ(via_task.run, via_batch[0].run);
  EXPECT_EQ(via_task.oracle_bits, via_batch[0].oracle_bits);
}

TEST(BatchRunner, ResultsStayInSpecOrder) {
  // Distinguishable graphs: trial i runs on a path of i+2 nodes, so the
  // result size identifies which spec produced it.
  std::vector<PortGraph> graphs;
  for (std::size_t i = 0; i < 32; ++i) graphs.push_back(make_path(i + 2));
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  std::vector<TrialSpec> specs;
  for (const PortGraph& g : graphs) {
    specs.push_back(TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}});
  }
  const auto reports = BatchRunner(8).run(specs);
  ASSERT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].run.informed.size(), i + 2) << i;
    EXPECT_TRUE(reports[i].ok()) << i;
  }
}

TEST(BatchRunner, EnforcesWakeupAutomatically) {
  // BroadcastB transmits spontaneously; run as a wakeup algorithm it would
  // violate. WakeupTree must keep enforce_wakeup on through the batch path.
  const PortGraph g = make_path(6);
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm wakeup;
  const auto reports =
      BatchRunner(1).run({TrialSpec{&g, 0, &oracle, &wakeup, RunOptions{}}});
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[0].run.violation.empty());
}

TEST(BatchRunner, NullSpecPointersThrow) {
  const PortGraph g = make_path(3);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  EXPECT_THROW(
      BatchRunner(1).run({TrialSpec{nullptr, 0, &oracle, &algorithm, {}}}),
      std::invalid_argument);
  EXPECT_THROW(
      BatchRunner(1).run({TrialSpec{&g, 0, nullptr, &algorithm, {}}}),
      std::invalid_argument);
  EXPECT_THROW(BatchRunner(1).run({TrialSpec{&g, 0, &oracle, nullptr, {}}}),
               std::invalid_argument);
}

TEST(BatchRunner, BadSourceIsIsolatedToItsTrial) {
  const PortGraph g = make_path(4);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  std::vector<TrialSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}});
  }
  specs[3].source = 999;  // out of range -> the engine throws
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchStats stats;
    const auto reports = BatchRunner(jobs).run(specs, &stats);
    ASSERT_EQ(reports.size(), specs.size()) << "jobs=" << jobs;
    EXPECT_EQ(stats.failed, 1u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == 3) {
        EXPECT_TRUE(reports[i].failed());
        EXPECT_FALSE(reports[i].ok());
        EXPECT_EQ(reports[i].run.status, RunStatus::kCrashed);
        EXPECT_NE(reports[i].error.find("bad source"), std::string::npos)
            << reports[i].error;
      } else {
        EXPECT_FALSE(reports[i].failed()) << i;
        EXPECT_TRUE(reports[i].ok()) << i;
      }
    }
  }
  // The single-trial convenience path keeps the legacy typed-throw contract.
  EXPECT_THROW(run_task(g, 999, oracle, algorithm), std::invalid_argument);
  EXPECT_THROW(BatchRunner(1).run_rethrow(specs), std::invalid_argument);
}

TEST(BatchRunner, EmptyBatchIsEmpty) {
  EXPECT_TRUE(BatchRunner(4).run({}).empty());
}

TEST(BatchRunner, ZeroJobsPicksHardwareConcurrency) {
  EXPECT_GE(BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(BatchRunner(3).jobs(), 3u);
}

}  // namespace
}  // namespace oraclesize
