// Golden regression pins.
//
// Every component in this library is deterministic given its seeds, so the
// exact numbers below are stable across platforms and builds. They exist to
// catch *silent semantic drift*: a refactor that changes an encoding, a
// tree tie-break, or the scheduler's ordering will move these values even
// when all behavioral invariants still hold. If a change legitimately
// alters them (e.g. an intentional codec improvement), update the constants
// and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/gossip.h"
#include "core/hybrid_wakeup.h"
#include "core/replay.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/light_tree.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

PortGraph golden_graph() {
  Rng rng(20260706);
  return make_random_connected(100, 0.08, rng);
}

TEST(Goldens, GraphGeneration) {
  const PortGraph g = golden_graph();
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 482u);
}

TEST(Goldens, WakeupOracleAndRun) {
  const PortGraph g = golden_graph();
  const TaskReport w =
      run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.oracle_bits, 909u);
  EXPECT_EQ(w.run.metrics.messages_total, 99u);
}

TEST(Goldens, BroadcastOracleAndRun) {
  const PortGraph g = golden_graph();
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.oracle_bits, 396u);
  EXPECT_EQ(b.run.metrics.messages_total, 197u);
  EXPECT_EQ(b.run.metrics.messages_hello, 98u);
}

TEST(Goldens, LightTreeContribution) {
  EXPECT_EQ(light_tree(golden_graph(), 0).contribution, 99u);
}

TEST(Goldens, CompleteGraphOracleSizes) {
  const PortGraph k = make_complete_star(64);
  EXPECT_EQ(oracle_size_bits(TreeWakeupOracle().advise(k, 0)), 386u);
  EXPECT_EQ(oracle_size_bits(LightBroadcastOracle().advise(k, 0)), 252u);
}

// 64-bit FNV-1a over g.edges(), each field as 4 little-endian bytes: pins
// every edge AND every port number of a builder's output, not just counts.
std::uint64_t edge_digest(const PortGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint32_t x) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : g.edges()) {
    mix(e.u);
    mix(e.port_u);
    mix(e.v);
    mix(e.port_v);
  }
  return h;
}

TEST(Goldens, RandomConnectedEdgeDigests) {
  // p index: 0 -> 0.0, 1 -> 0.1, 2 -> 8/n, 3 -> 1.0. `next_draw` is the
  // generator's next output after the build, so the number of draws the
  // builder makes (one per non-tree pair) is pinned along with the graph.
  struct Row {
    std::size_t n;
    int p_index;
    std::uint64_t seed;
    std::size_t m;
    std::uint64_t digest;
    std::uint64_t next_draw;
  };
  const Row rows[] = {
      {1, 0, 5, 0, 0xcbf29ce484222325ULL, 0x63033b0ca389c35aULL},
      {1, 0, 77, 0, 0xcbf29ce484222325ULL, 0x6258cbe07c1ff081ULL},
      {1, 1, 5, 0, 0xcbf29ce484222325ULL, 0x63033b0ca389c35aULL},
      {1, 1, 77, 0, 0xcbf29ce484222325ULL, 0x6258cbe07c1ff081ULL},
      {1, 2, 5, 0, 0xcbf29ce484222325ULL, 0x63033b0ca389c35aULL},
      {1, 2, 77, 0, 0xcbf29ce484222325ULL, 0x6258cbe07c1ff081ULL},
      {1, 3, 5, 0, 0xcbf29ce484222325ULL, 0x63033b0ca389c35aULL},
      {1, 3, 77, 0, 0xcbf29ce484222325ULL, 0x6258cbe07c1ff081ULL},
      {2, 0, 5, 1, 0x692558b056101a44ULL, 0x63033b0ca389c35aULL},
      {2, 0, 77, 1, 0x692558b056101a44ULL, 0x6258cbe07c1ff081ULL},
      {2, 1, 5, 1, 0x692558b056101a44ULL, 0x63033b0ca389c35aULL},
      {2, 1, 77, 1, 0x692558b056101a44ULL, 0x6258cbe07c1ff081ULL},
      {2, 2, 5, 1, 0x692558b056101a44ULL, 0x63033b0ca389c35aULL},
      {2, 2, 77, 1, 0x692558b056101a44ULL, 0x6258cbe07c1ff081ULL},
      {2, 3, 5, 1, 0x692558b056101a44ULL, 0x63033b0ca389c35aULL},
      {2, 3, 77, 1, 0x692558b056101a44ULL, 0x6258cbe07c1ff081ULL},
      {30, 0, 5, 29, 0x487b21df9f8e8d2aULL, 0x75646c12c55ba4dfULL},
      {30, 0, 77, 29, 0xfd929947a0c78e0eULL, 0x8290c06b2a3eced9ULL},
      {30, 1, 5, 67, 0xe0e58a1f97a65177ULL, 0x1bfe655b23cf5176ULL},
      {30, 1, 77, 74, 0xd364808c791d29caULL, 0xdec209146db05347ULL},
      {30, 2, 5, 128, 0xeeef279d8ff92487ULL, 0x1bfe655b23cf5176ULL},
      {30, 2, 77, 137, 0x48d44bb9fa493e72ULL, 0xdec209146db05347ULL},
      {30, 3, 5, 435, 0xfe46db1e5358ca24ULL, 0x75646c12c55ba4dfULL},
      {30, 3, 77, 435, 0xf531a497f3563a64ULL, 0x8290c06b2a3eced9ULL},
      {300, 0, 5, 299, 0xd0bfd90c095bf7adULL, 0x650cfe5ba9d6c609ULL},
      {300, 0, 77, 299, 0x011edb8ae7a2b4f8ULL, 0x862368c06cc18153ULL},
      {300, 1, 5, 4816, 0x4489e880fe0364ebULL, 0x47acf6a829ede50cULL},
      {300, 1, 77, 4787, 0x527bb4c5037b203dULL, 0xe9e6104c63bdf9caULL},
      {300, 2, 5, 1523, 0x8649af26931bcfceULL, 0x47acf6a829ede50cULL},
      {300, 2, 77, 1470, 0x96f702bb2f7aca19ULL, 0xe9e6104c63bdf9caULL},
      {300, 3, 5, 44850, 0xf417728ecee4b765ULL, 0x650cfe5ba9d6c609ULL},
      {300, 3, 77, 44850, 0xb3b87d5578f8e0e9ULL, 0x862368c06cc18153ULL},
  };
  for (const Row& r : rows) {
    const double p = r.p_index == 0   ? 0.0
                     : r.p_index == 1 ? 0.1
                     : r.p_index == 2 ? 8.0 / static_cast<double>(r.n)
                                      : 1.0;
    Rng rng(r.seed);
    const PortGraph g = make_random_connected(r.n, p, rng);
    SCOPED_TRACE("n=" + std::to_string(r.n) + " p_index=" +
                 std::to_string(r.p_index) + " seed=" + std::to_string(r.seed));
    EXPECT_EQ(g.num_edges(), r.m);
    EXPECT_EQ(edge_digest(g), r.digest);
    EXPECT_EQ(rng.next_u64(), r.next_draw);
  }
}

TEST(Goldens, CompleteStarEdgeDigests) {
  const std::pair<std::size_t, std::uint64_t> rows[] = {
      {2, 0x692558b056101a44ULL},
      {3, 0xc0bd901074372094ULL},
      {64, 0xaf62971c14792925ULL},
      {257, 0x9592310885e8cd25ULL},
  };
  for (const auto& [n, digest] : rows) {
    const PortGraph g = make_complete_star(n);
    EXPECT_EQ(g.num_edges(), n * (n - 1) / 2) << n;
    EXPECT_EQ(edge_digest(g), digest) << n;
  }
}

TEST(Goldens, ZeroFaultPlanIsInvisible) {
  // A fault plan with a seed but all probabilities zero must leave every
  // golden above untouched — the fault layer's "costs nothing, changes
  // nothing" contract at the report level.
  const PortGraph g = golden_graph();
  RunOptions opts;
  opts.fault.seed = 123456789;
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.run.status, RunStatus::kCompleted);
  EXPECT_EQ(b.oracle_bits, 396u);
  EXPECT_EQ(b.run.metrics.messages_total, 197u);
  EXPECT_EQ(b.run.metrics.messages_hello, 98u);
  EXPECT_EQ(b.run.faults, FaultCounters{});
}

TEST(Goldens, ZeroAdversaryPlanIsInvisible) {
  // The Byzantine layer's "costs nothing, changes nothing" contract: an
  // adversary plan with a seed but no colluding set (zero rate, zero node
  // count) must leave every golden above untouched.
  const PortGraph g = golden_graph();
  RunOptions opts;
  opts.adversary.seed = 123456789;
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.run.status, RunStatus::kCompleted);
  EXPECT_EQ(b.oracle_bits, 396u);
  EXPECT_EQ(b.run.metrics.messages_total, 197u);
  EXPECT_EQ(b.run.metrics.messages_hello, 98u);
  EXPECT_EQ(b.run.adversary, AdversaryCounters{});
}

TEST(Goldens, ByzantineBroadcastRun) {
  // One pinned Byzantine execution: moves only if the adversary keying
  // (colluding-set selection, forge/equivocation draws) or the engine's
  // delivery order changes. Random-bits forging eventually hands scheme B
  // a control message, which it treats as proof of misbehavior.
  const PortGraph g = golden_graph();
  RunOptions opts;
  opts.adversary.seed = 2026;
  opts.adversary.byz_rate = 0.1;
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  EXPECT_EQ(b.run.status, RunStatus::kByzantineDetected);
  EXPECT_EQ(b.run.adversary.lying_nodes, 10u);
  EXPECT_EQ(b.run.adversary.forged, 10u);
  EXPECT_EQ(b.run.adversary.equivocated, 1u);
  EXPECT_EQ(b.run.adversary.advice_lies, 2u);
  EXPECT_EQ(b.run.metrics.messages_total, 99u);
}

TEST(Goldens, FaultyBroadcastRun) {
  // One pinned faulty execution: moves only if the fault keying, the
  // scheduler interaction, or the engine's delivery order changes.
  const PortGraph g = golden_graph();
  RunOptions opts;
  opts.fault.seed = 2026;
  opts.fault.drop = 0.05;
  opts.fault.duplicate = 0.05;
  opts.fault.delay = 0.1;
  const TaskReport b =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  EXPECT_EQ(b.run.status, RunStatus::kTaskFailed);
  EXPECT_EQ(b.run.metrics.messages_total, 194u);
  EXPECT_EQ(b.run.faults.dropped, 2u);
  EXPECT_EQ(b.run.faults.duplicated, 7u);
  EXPECT_EQ(b.run.faults.delayed, 21u);
  EXPECT_EQ(b.run.informed_count(), 97u);
}

TEST(Goldens, AsyncCensusBits) {
  // Counter-keyed async delivery: delays are a pure function of
  // (seed, seq, link), so this pin moves only if the keying mix or the
  // engine's ordering changes.
  const PortGraph g = golden_graph();
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 777;
  const TaskReport c =
      run_task(g, 13, TreeWakeupOracle(), CensusAlgorithm(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.run.outputs[13], 100u);
  EXPECT_EQ(c.run.metrics.bits_sent, 548u);
}

// ---- Golden traces ---------------------------------------------------------
//
// One digest per core algorithm on the golden graph: a 64-bit FNV-1a over
// the full event stream + outcome. These move only when the engine's
// observable behavior moves — scheduler ordering, fault keying, message
// sizing, or the informed-transition logic. If a change legitimately moves
// one, re-pin and justify in the commit (the `trace diff` CLI localizes
// exactly what changed).

RecordedTrace record_golden_trace(const Oracle& oracle,
                                  const Algorithm& algorithm,
                                  RunOptions opts = {}) {
  const PortGraph g = golden_graph();
  TraceRecorder recorder;
  opts.trace_sink = &recorder;
  run_task(g, 0, oracle, algorithm, opts);
  RecordedTrace t = recorder.take();
  t.header.oracle = oracle.name();
  return t;
}

TEST(GoldenTraces, DigestsPinAllSixAlgorithms) {
  EXPECT_EQ(record_golden_trace(TreeWakeupOracle(), WakeupTreeAlgorithm())
                .digest(),
            12482672791752212186ULL);
  EXPECT_EQ(record_golden_trace(LightBroadcastOracle(), BroadcastBAlgorithm())
                .digest(),
            4152892400039325060ULL);
  EXPECT_EQ(record_golden_trace(NullOracle(), FloodingAlgorithm()).digest(),
            10675381301312508844ULL);
  EXPECT_EQ(record_golden_trace(TreeWakeupOracle(), CensusAlgorithm())
                .digest(),
            13703897230507141977ULL);
  EXPECT_EQ(record_golden_trace(TreeWakeupOracle(), GossipTreeAlgorithm())
                .digest(),
            990213898690826506ULL);
  EXPECT_EQ(record_golden_trace(PartialTreeOracle(0.5, 7),
                                HybridWakeupAlgorithm())
                .digest(),
            10095278961887261379ULL);
}

TEST(GoldenTraces, EveryGoldenTraceReplaysBitIdentically) {
  // Save → load → re-execute: the full artifact round trip must reproduce
  // every stream. Covers the async scheduler and an armed fault plan too.
  std::vector<RecordedTrace> traces;
  traces.push_back(
      record_golden_trace(TreeWakeupOracle(), WakeupTreeAlgorithm()));
  RunOptions async;
  async.scheduler = SchedulerKind::kAsyncRandom;
  async.seed = 777;
  traces.push_back(
      record_golden_trace(TreeWakeupOracle(), CensusAlgorithm(), async));
  RunOptions faulty;
  faulty.fault.seed = 2026;
  faulty.fault.drop = 0.05;
  faulty.fault.duplicate = 0.05;
  faulty.fault.delay = 0.1;
  traces.push_back(record_golden_trace(LightBroadcastOracle(),
                                       BroadcastBAlgorithm(), faulty));
  for (const RecordedTrace& t : traces) {
    std::stringstream ss;
    save_trace(ss, t);
    const RecordedTrace loaded = load_trace(ss);
    const ReplayReport report = replay_trace(loaded);
    EXPECT_TRUE(report.match) << t.header.algorithm << ": "
                              << (report.mismatches.empty()
                                      ? ""
                                      : report.mismatches.front());
  }
}

TEST(GoldenTraces, BatchTracesIdenticalAcrossJobs) {
  // The batch determinism contract, at event-stream granularity: per-spec
  // recorders capture bit-identical traces whether the batch runs on one
  // worker or eight.
  const PortGraph g = golden_graph();
  const TreeWakeupOracle oracle;
  const CensusAlgorithm algorithm;
  auto digests_at = [&](std::size_t jobs) {
    constexpr std::size_t kTrials = 12;
    std::vector<TraceRecorder> recorders(kTrials);
    std::vector<TrialSpec> specs;
    for (std::size_t i = 0; i < kTrials; ++i) {
      RunOptions opts;
      opts.scheduler = SchedulerKind::kAsyncRandom;
      opts.seed = 1000 + i;
      opts.trace_sink = &recorders[i];
      specs.push_back({&g, static_cast<NodeId>(i * 7 % g.num_nodes()),
                       &oracle, &algorithm, opts});
    }
    BatchRunner(jobs).run(specs);
    std::vector<std::uint64_t> digests;
    for (TraceRecorder& r : recorders) digests.push_back(r.take().digest());
    return digests;
  };
  EXPECT_EQ(digests_at(1), digests_at(8));
}

TEST(GoldenTraces, ZeroFaultRateTraceMatchesDisabledPlan) {
  // A plan with a seed but all-zero probabilities must not only leave the
  // report untouched (ZeroFaultPlanIsInvisible above) — it must produce the
  // SAME event stream as no plan at all. Digests cover events + outcome
  // (not the header), so the two recordings hash identically.
  RunOptions zero;
  zero.fault.seed = 987654321;  // armed seed, zero probabilities
  const std::uint64_t with_zero_plan =
      record_golden_trace(LightBroadcastOracle(), BroadcastBAlgorithm(), zero)
          .digest();
  const std::uint64_t with_no_plan =
      record_golden_trace(LightBroadcastOracle(), BroadcastBAlgorithm())
          .digest();
  EXPECT_EQ(with_zero_plan, with_no_plan);
}

TEST(GoldenTraces, ZeroAdversaryTraceMatchesDisabledPlan) {
  // Same stream-level contract for the Byzantine layer: a seeded but empty
  // adversary plan (no rate, no node count) produces the SAME event stream
  // as no plan at all — no forge events, no digest movement.
  RunOptions zero;
  zero.adversary.seed = 987654321;  // junk seed, zero rates: disabled
  const std::uint64_t with_zero_plan =
      record_golden_trace(LightBroadcastOracle(), BroadcastBAlgorithm(), zero)
          .digest();
  const std::uint64_t with_no_plan =
      record_golden_trace(LightBroadcastOracle(), BroadcastBAlgorithm())
          .digest();
  EXPECT_EQ(with_zero_plan, with_no_plan);
}

}  // namespace
}  // namespace oraclesize
