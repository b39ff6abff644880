// Theorem 3.1 end to end: the O(n)-bit light-tree oracle + scheme B
// broadcasts with a linear number of messages under every scheduler,
// anonymously, with constant-size messages.
#include "core/broadcast_b.h"

#include <gtest/gtest.h>

#include <algorithm>

#include <set>

#include "core/runner.h"
#include "graph/builders.h"
#include "graph/clique_replace.h"
#include "graph/complete_star.h"
#include "graph/light_tree.h"
#include "graph/subdivision.h"
#include "oracle/light_broadcast_oracle.h"
#include "sim/trace_analysis.h"

namespace oraclesize {
namespace {

struct BroadcastCase {
  std::string name;
  PortGraph graph;
  NodeId source;
};

std::vector<BroadcastCase> broadcast_cases() {
  Rng rng(201);
  std::vector<BroadcastCase> cases;
  cases.push_back({"path", make_path(20), 0});
  cases.push_back({"cycle", make_cycle(18), 9});
  cases.push_back({"star-leaf", make_star(22), 5});
  cases.push_back({"grid", make_grid(7, 6), 0});
  cases.push_back({"hypercube", make_hypercube(6), 63});
  cases.push_back({"complete", make_complete_star(28), 0});
  cases.push_back({"lollipop", make_lollipop(32), 31});
  cases.push_back({"random-sparse", make_random_connected(60, 0.05, rng), 7});
  cases.push_back({"random-dense", make_random_connected(40, 0.5, rng), 0});
  cases.push_back(
      {"shuffled", shuffle_ports(make_random_connected(40, 0.2, rng), rng),
       3});
  cases.push_back({"gns", make_gns(12, 12, rng).graph, 0});
  cases.push_back({"gnsc", make_random_gnsc(16, 4, rng).graph, 0});
  cases.push_back({"singleton", make_path(1), 0});
  cases.push_back({"pair", make_path(2), 0});
  return cases;
}

class BroadcastEndToEnd : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(BroadcastEndToEnd, LinearMessagesEverywhere) {
  for (const BroadcastCase& c : broadcast_cases()) {
    RunOptions opts;
    opts.scheduler = GetParam();
    opts.seed = 5;
    const TaskReport report = run_task(c.graph, c.source,
                                       LightBroadcastOracle(),
                                       BroadcastBAlgorithm(), opts);
    const std::size_t n = c.graph.num_nodes();
    EXPECT_TRUE(report.ok()) << c.name << ": " << report.summary();
    // M <= 2(n-1) (at most twice per tree edge under races),
    // hello <= n-1 (once per tree edge, from one side).
    EXPECT_LE(report.run.metrics.messages_source, n <= 1 ? 0 : 2 * (n - 1))
        << c.name;
    EXPECT_LE(report.run.metrics.messages_hello, n <= 1 ? 0 : n - 1)
        << c.name;
    EXPECT_LE(report.run.metrics.messages_total, n <= 1 ? 0 : 3 * (n - 1))
        << c.name;
    EXPECT_EQ(report.run.metrics.messages_control, 0u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, BroadcastEndToEnd,
    ::testing::Values(SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
                      SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
                      SchedulerKind::kAsyncLinkFifo),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      std::string name = to_string(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(BroadcastB, ManyAsyncSeedsNeverExceedLinear) {
  // Property sweep: random asynchronous schedules are exactly where the
  // hello-after-M race (DESIGN.md deviation #4) lives.
  Rng rng(202);
  const PortGraph g = make_random_connected(50, 0.15, rng);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = seed;
    opts.max_delay = 64;  // exaggerate reordering
    const TaskReport report =
        run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
    EXPECT_TRUE(report.ok()) << "seed " << seed;
    EXPECT_LE(report.run.metrics.messages_total, 3 * (g.num_nodes() - 1))
        << "seed " << seed;
  }
}

TEST(BroadcastB, AllTrafficRidesTreeEdges) {
  Rng rng(203);
  const PortGraph g = make_random_connected(40, 0.3, rng);
  const SpanningTree tree = build_tree(g, 6, TreeKind::kLight);
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (const Edge& e : tree.edges(g)) tree_edges.insert({e.u, e.v});

  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  opts.scheduler = SchedulerKind::kAsyncLifo;
  const TaskReport report =
      run_task(g, 6, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  ASSERT_TRUE(report.ok());
  const auto sends = send_events(recorder.trace().events);
  EXPECT_EQ(sends.size(), report.run.metrics.messages_total);
  for (const TraceEvent& s : sends) {
    const NodeId a = std::min(s.node, s.peer);
    const NodeId b = std::max(s.node, s.peer);
    EXPECT_TRUE(tree_edges.count({a, b}))
        << "non-tree traffic " << a << "-" << b;
  }
}

TEST(BroadcastB, HelloAtMostOncePerEdgeAndOneDirection) {
  Rng rng(204);
  const PortGraph g = make_random_connected(45, 0.2, rng);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  const TaskReport report =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  ASSERT_TRUE(report.ok());
  std::set<std::pair<NodeId, NodeId>> hello_edges;
  for (const TraceEvent& s : send_events(recorder.trace().events)) {
    if (s.msg != MsgKind::kHello) continue;
    const auto key =
        std::pair{std::min(s.node, s.peer), std::max(s.node, s.peer)};
    EXPECT_TRUE(hello_edges.insert(key).second)
        << "duplicate hello on " << key.first << "-" << key.second;
  }
}

TEST(BroadcastB, SourceMessagePerEdgePerDirectionAtMostOnce) {
  Rng rng(205);
  const PortGraph g = make_random_connected(45, 0.25, rng);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  opts.scheduler = SchedulerKind::kAsyncLifo;
  const TaskReport report =
      run_task(g, 2, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  ASSERT_TRUE(report.ok());
  std::set<std::pair<NodeId, NodeId>> directed;
  for (const TraceEvent& s : send_events(recorder.trace().events)) {
    if (s.msg != MsgKind::kSource) continue;
    EXPECT_TRUE(directed.insert({s.node, s.peer}).second)
        << "M resent " << s.node << "->" << s.peer;
  }
}

TEST(BroadcastB, AnonymousRunIsBitIdentical) {
  Rng rng(206);
  const PortGraph g = make_random_connected(35, 0.2, rng);
  TraceRecorder named_trace(TraceLevel::kMessages);
  TraceRecorder anon_trace(TraceLevel::kMessages);
  RunOptions named;
  named.trace_sink = &named_trace;
  RunOptions anon = named;
  anon.anonymous = true;
  anon.trace_sink = &anon_trace;
  const TaskReport a =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), named);
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), anon);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto sa = send_events(named_trace.trace().events);
  const auto sb = send_events(anon_trace.trace().events);
  ASSERT_EQ(sa.size(), a.run.metrics.messages_total);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].node, sb[i].node);
    EXPECT_EQ(sa[i].port, sb[i].port);
    EXPECT_EQ(sa[i].msg, sb[i].msg);
  }
}

TEST(BroadcastB, ConstantSizeMessages) {
  const PortGraph g = make_complete_star(30);
  const TaskReport report =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.run.metrics.bits_sent,
            2 * report.run.metrics.messages_total);
}

TEST(BroadcastB, IsNotAWakeupScheme) {
  // Scheme B transmits hellos spontaneously — enforcing the wakeup
  // constraint must flag it. This is the behavioral heart of the paper's
  // separation: B's linearity *requires* pre-M transmissions.
  Rng rng(207);
  const PortGraph g = make_random_connected(20, 0.3, rng);
  RunOptions opts;
  opts.enforce_wakeup = true;
  const auto advice = LightBroadcastOracle().advise(g, 0);
  const RunResult r =
      run_execution(g, 0, advice, BroadcastBAlgorithm(), opts);
  EXPECT_FALSE(r.violation.empty());
}

TEST(BroadcastB, WorksWithNonLightTreeOracles) {
  // Any spanning-tree advice is *correct* for scheme B; only the size bound
  // needs the light tree.
  Rng rng(208);
  const PortGraph g = make_random_connected(30, 0.2, rng);
  for (TreeKind kind : {TreeKind::kBfs, TreeKind::kDfs, TreeKind::kKruskal}) {
    const TaskReport report = run_task(g, 0, LightBroadcastOracle(kind),
                                       BroadcastBAlgorithm());
    EXPECT_TRUE(report.ok()) << to_string(kind);
    EXPECT_LE(report.run.metrics.messages_total, 3 * (g.num_nodes() - 1));
  }
}

TEST(BroadcastB, DeepAsyncStress) {
  // A long path under LIFO scheduling maximizes hello/M interleaving depth.
  const PortGraph g = make_path(200);
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncLifo;
  const TaskReport report =
      run_task(g, 100, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  EXPECT_TRUE(report.ok());
  EXPECT_LE(report.run.metrics.messages_total, 3 * 199u);
}

}  // namespace
}  // namespace oraclesize
