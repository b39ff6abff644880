// Theorem 2.1 end to end: the tree oracle + tree wakeup scheme performs
// wakeup with exactly n-1 messages, asynchronously, anonymously, with
// constant-size messages — and never violates the wakeup constraint.
#include "core/wakeup.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/runner.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/subdivision.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/trace_analysis.h"
#include "util/mathx.h"

namespace oraclesize {
namespace {

struct WakeupCase {
  std::string name;
  PortGraph graph;
  NodeId source;
};

std::vector<WakeupCase> wakeup_cases() {
  Rng rng(101);
  std::vector<WakeupCase> cases;
  cases.push_back({"path", make_path(20), 0});
  cases.push_back({"path-mid-source", make_path(21), 10});
  cases.push_back({"cycle", make_cycle(17), 3});
  cases.push_back({"star-center", make_star(25), 0});
  cases.push_back({"star-leaf", make_star(25), 7});
  cases.push_back({"grid", make_grid(6, 7), 11});
  cases.push_back({"hypercube", make_hypercube(6), 0});
  cases.push_back({"complete", make_complete_star(30), 0});
  cases.push_back({"lollipop", make_lollipop(30), 29});
  cases.push_back({"random", make_random_connected(50, 0.1, rng), 13});
  cases.push_back(
      {"shuffled", shuffle_ports(make_random_connected(40, 0.3, rng), rng),
       0});
  cases.push_back({"gns", make_gns(12, 12, rng).graph, 0});
  cases.push_back({"singleton", make_path(1), 0});
  cases.push_back({"pair", make_path(2), 1});
  return cases;
}

class WakeupEndToEnd : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(WakeupEndToEnd, ExactlyNMinusOneMessagesEverywhere) {
  for (const WakeupCase& c : wakeup_cases()) {
    RunOptions opts;
    opts.scheduler = GetParam();
    opts.seed = 7;
    const TaskReport report = run_task(c.graph, c.source, TreeWakeupOracle(),
                                       WakeupTreeAlgorithm(), opts);
    EXPECT_TRUE(report.ok()) << c.name << ": " << report.summary();
    EXPECT_EQ(report.run.metrics.messages_total, c.graph.num_nodes() - 1)
        << c.name;
    // Wakeup only ever sends the source message M.
    EXPECT_EQ(report.run.metrics.messages_source,
              report.run.metrics.messages_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, WakeupEndToEnd,
    ::testing::Values(SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
                      SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
                      SchedulerKind::kAsyncLinkFifo),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      std::string name = to_string(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(Wakeup, WorksAnonymously) {
  // The paper's upper bound holds for anonymous nodes: hiding ids must not
  // change a single message.
  Rng rng(102);
  const PortGraph g = make_random_connected(40, 0.2, rng);
  TraceRecorder named_trace(TraceLevel::kMessages);
  TraceRecorder anon_trace(TraceLevel::kMessages);
  RunOptions named;
  named.trace_sink = &named_trace;
  RunOptions anon = named;
  anon.anonymous = true;
  anon.trace_sink = &anon_trace;
  const TaskReport a =
      run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm(), named);
  const TaskReport b =
      run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm(), anon);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto sa = send_events(named_trace.trace().events);
  const auto sb = send_events(anon_trace.trace().events);
  ASSERT_EQ(sa.size(), a.run.metrics.messages_total);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].node, sb[i].node);
    EXPECT_EQ(sa[i].port, sb[i].port);
  }
}

TEST(Wakeup, MessagesAreBoundedSize) {
  const PortGraph g = make_complete_star(40);
  const TaskReport report =
      run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm());
  ASSERT_TRUE(report.ok());
  // Every message is the bare source tag: 2 bits.
  EXPECT_EQ(report.run.metrics.bits_sent,
            2 * report.run.metrics.messages_total);
}

TEST(Wakeup, OracleSizeWithinTheorem21Bound) {
  for (std::size_t n : {32u, 128u, 512u, 2048u}) {
    const PortGraph g = make_complete_star(n);
    const TaskReport report =
        run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm());
    ASSERT_TRUE(report.ok());
    const double nlogn =
        static_cast<double>(n) * ceil_log2(static_cast<std::uint64_t>(n));
    // n log n + o(n log n): allow 1.5x to cover the O(n log log n) headers.
    EXPECT_LE(static_cast<double>(report.oracle_bits), 1.5 * nlogn);
  }
}

TEST(Wakeup, EveryTreeKindWorks) {
  Rng rng(103);
  const PortGraph g = make_random_connected(35, 0.2, rng);
  for (TreeKind kind : {TreeKind::kBfs, TreeKind::kDfs, TreeKind::kKruskal,
                        TreeKind::kLight}) {
    const TaskReport report =
        run_task(g, 4, TreeWakeupOracle(kind), WakeupTreeAlgorithm());
    EXPECT_TRUE(report.ok()) << to_string(kind);
    EXPECT_EQ(report.run.metrics.messages_total, g.num_nodes() - 1);
  }
}

TEST(Wakeup, TrafficFollowsTheTree) {
  Rng rng(104);
  const PortGraph g = make_random_connected(30, 0.3, rng);
  const SpanningTree tree = bfs_tree(g, 0);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  const TaskReport report =
      run_task(g, 0, TreeWakeupOracle(TreeKind::kBfs), WakeupTreeAlgorithm(),
               opts);
  ASSERT_TRUE(report.ok());
  const auto sends = send_events(recorder.trace().events);
  EXPECT_EQ(sends.size(), g.num_nodes() - 1);
  for (const TraceEvent& s : sends) {
    // Each message goes parent -> child along a tree edge.
    const NodeId child = g.neighbor(s.node, s.port).node;
    EXPECT_EQ(tree.parent(child), s.node);
  }
}

TEST(Wakeup, SourceMessageNeverDuplicated) {
  // Each node receives M exactly once (n-1 messages, n-1 receivers).
  Rng rng(105);
  const PortGraph g = make_random_connected(45, 0.15, rng);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  const TaskReport report =
      run_task(g, 9, TreeWakeupOracle(), WakeupTreeAlgorithm(), opts);
  ASSERT_TRUE(report.ok());
  std::vector<int> received(g.num_nodes(), 0);
  for (const TraceEvent& s : send_events(recorder.trace().events)) {
    ++received[s.peer];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(received[v], v == 9 ? 0 : 1);
  }
}

TEST(Wakeup, CorruptAdviceIsDetectedNotMisexecuted) {
  // A truncated advice string must raise a decode error, not silently send
  // garbage.
  const PortGraph g = make_star(5);
  auto advice = TreeWakeupOracle().advise(g, 0);
  BitString truncated;
  for (std::size_t i = 0; i + 1 < advice[0].size(); ++i) {
    truncated.append_bit(advice[0].bit(i));
  }
  advice[0] = truncated;
  EXPECT_THROW(run_execution(g, 0, advice, WakeupTreeAlgorithm(),
                             RunOptions{}),
               std::exception);
}

}  // namespace
}  // namespace oraclesize
