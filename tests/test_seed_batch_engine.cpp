// The seed-batched lockstep executor's contract, made exhaustive.
//
// Three layers, mirroring how the engine is used:
//
//  * SeedBatchEngine.*      — the engine itself: a 40-seed fuzz sweep over
//    every algorithm x {sync, async-random, async-lifo, async-link-fifo} x
//    fault rates {0, 0.01} demanding bit-identity with the scalar
//    ExecutionContext per lane (the seeded schedulers run counter-keyed,
//    with options.seed varying per lane — the key-class machinery), plus
//    the lane-retirement edge cases (first lane dies, last lane dies,
//    all-but-one die, all die), key-class order-split retirement,
//    eligibility fallbacks, budget statuses, and the behavior-exception
//    split.
//  * SeedFamily.*           — seed_family_key: seed-blind, everything-else
//    sensitive.
//  * SeedBatchRunner.*      — BatchRunner's family collapsing: batched
//    batches reproduce scalar batches report for report (including retried
//    attempts — the RetryPolicy re-seeding fix), stats account for lanes,
//    and the cache-off path stays scalar.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.h"
#include "core/replay.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

using Lane = SeedBatchExecutionContext::Lane;
using Disposition = SeedBatchExecutionContext::LaneDisposition;

PortGraph fuzz_graph() {
  Rng rng(515151);
  return make_random_connected(48, 0.12, rng);
}

/// The oracle each algorithm is designed to pair with (the replay matrix's
/// pairing).
std::unique_ptr<Oracle> oracle_for(const std::string& algorithm) {
  if (algorithm == "broadcast-B") {
    return std::make_unique<LightBroadcastOracle>();
  }
  if (algorithm == "flooding") return std::make_unique<NullOracle>();
  if (algorithm == "hybrid-wakeup") {
    return std::make_unique<PartialTreeOracle>(0.5, 7);
  }
  return std::make_unique<TreeWakeupOracle>();
}

/// Whether a scalar run consumed any fault at all — exactly the engine's
/// shared/replay split: a lane stays on the clean stream iff nothing
/// materialized in its own stream.
bool fault_free(const RunResult& r) {
  const FaultCounters& f = r.faults;
  return f.dropped == 0 && f.duplicated == 0 && f.delayed == 0 &&
         f.crashed_nodes == 0 && f.advice_bits_flipped == 0;
}

TEST(SeedBatchEngine, FuzzFortySeedsBitIdenticalAcrossMatrix) {
  const PortGraph g = fuzz_graph();
  constexpr NodeId kSource = 3;
  constexpr std::size_t kLanes = 40;
  SeedBatchExecutionContext batched;
  ExecutionContext scalar;
  int cells = 0;
  for (const std::string& name : known_algorithms()) {
    const Algorithm* algorithm = algorithm_by_name(name);
    ASSERT_NE(algorithm, nullptr) << name;
    const std::unique_ptr<Oracle> oracle = oracle_for(name);
    const std::vector<BitString> advice = oracle->advise(g, kSource);
    for (const SchedulerKind sched :
         {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
          SchedulerKind::kAsyncLifo, SchedulerKind::kAsyncLinkFifo}) {
      for (const double rate : {0.0, 0.01}) {
        RunOptions base;
        base.scheduler = sched;
        base.enforce_wakeup = algorithm->is_wakeup();
        base.fault.drop = rate;
        base.fault.duplicate = rate;
        base.fault.delay = rate;
        base.fault.crash = rate;
        base.fault.advice_flip = rate / 2;
        std::vector<Lane> lanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
          lanes.push_back({1000 + 7 * l, 90000 + 13 * l});
        }
        const std::vector<RunResult> got =
            batched.run(g, kSource, advice, *algorithm, base, lanes);
        ASSERT_EQ(got.size(), kLanes);
        const SeedBatchStats stats = batched.last_stats();
        EXPECT_EQ(stats.lanes, kLanes);
        EXPECT_EQ(stats.shared + stats.replayed, kLanes);
        if (sched == SchedulerKind::kAsyncRandom ||
            sched == SchedulerKind::kAsyncLinkFifo) {
          // Counter-keyed seeded scheduler: the pass runs with one key
          // class per scheduler seed. On this branching graph most
          // classes split from the driver's order and retire, but the
          // driver class itself always survives a fault-free pass.
          EXPECT_TRUE(stats.lockstep_ran);
          if (rate == 0.0) {
            EXPECT_GE(stats.shared, 1u);
          }
        } else if (rate == 0.0) {
          // Fault-free family on a pure scheduler: one pass serves all.
          EXPECT_TRUE(stats.lockstep_ran);
          EXPECT_EQ(stats.shared, kLanes);
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          RunOptions options = base;
          options.seed = lanes[l].seed;
          options.fault.seed = lanes[l].fault_seed;
          const RunResult want =
              scalar.run(g, kSource, advice, *algorithm, options);
          EXPECT_EQ(got[l], want)
              << name << " " << to_string(sched) << " rate=" << rate
              << " lane=" << l;
        }
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 48);  // 6 algorithms x 4 schedulers x 2 rates
}

TEST(SeedBatchEngine, CounterKeyedSeedAxisSharesOnSequentialWorkloads) {
  // A tree-cast down a path keeps exactly one message in flight, so every
  // scheduler-seed key class agrees on the delivery ORDER even though each
  // assigns different delivery KEYS — the whole 40-wide seed axis rides a
  // single pass. This is the workload shape behind the perf_schedbatch
  // floor rows.
  const PortGraph g = make_path(64);
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ASSERT_NE(wakeup, nullptr);
  ExecutionContext scalar;
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncRandom, SchedulerKind::kAsyncLinkFifo}) {
    RunOptions base;
    base.scheduler = sched;
    base.enforce_wakeup = true;
    std::vector<Lane> lanes;
    for (std::size_t l = 0; l < 40; ++l) lanes.push_back({1 + 13 * l, 0});
    SeedBatchExecutionContext batched;
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, *wakeup, base, lanes);
    const SeedBatchStats stats = batched.last_stats();
    EXPECT_TRUE(stats.lockstep_ran) << to_string(sched);
    EXPECT_EQ(stats.shared, 40u) << to_string(sched);
    std::map<std::int64_t, int> completion_keys;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      const RunResult want = scalar.run(g, 0, advice, *wakeup, options);
      EXPECT_EQ(got[l], want) << to_string(sched) << " lane " << l;
      ++completion_keys[got[l].metrics.completion_key];
    }
    // The per-class patching is real: different scheduler seeds yield
    // genuinely different completion keys out of the one shared pass.
    EXPECT_GT(completion_keys.size(), 1u) << to_string(sched);
  }
}

TEST(SeedBatchEngine, KeyClassOrderSplitRetiresToScalarReplay) {
  // A star's source fans out to every leaf at once, so the pending set is
  // wide and scheduler-seed classes disagree on pop order almost surely.
  // Disagreeing classes must retire to bit-exact scalar replays while the
  // driver class keeps the pass.
  const PortGraph g = make_star(9);
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ASSERT_NE(wakeup, nullptr);
  RunOptions base;
  base.scheduler = SchedulerKind::kAsyncRandom;
  base.max_delay = 64;
  base.enforce_wakeup = true;
  std::vector<Lane> lanes;
  for (std::size_t l = 0; l < 40; ++l) lanes.push_back({7 + 31 * l, 0});
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *wakeup, base, lanes);
  const SeedBatchStats stats = batched.last_stats();
  EXPECT_TRUE(stats.lockstep_ran);
  EXPECT_GE(stats.shared, 1u);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.shared + stats.replayed, 40u);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    EXPECT_EQ(got[l], scalar.run(g, 0, advice, *wakeup, options))
        << "lane " << l;
  }
}

/// Records the send sequence number of every delivery, in order.
class DeliveryOrder final : public TraceSink {
 public:
  void begin_run(const TraceRunInfo&) override { seqs.clear(); }
  void record(const TraceEvent& e) override {
    if (e.kind == TraceEventKind::kDeliver) seqs.push_back(e.seq);
  }
  void end_run(const RunResult&) override {}
  std::vector<std::uint64_t> seqs;
};

/// Runs a fault-free scheduler-seed family through one lockstep pass and
/// checks every disposition against its definition: a lane shares the
/// pass iff its scalar run delivers in exactly the driver lane's (lane
/// 0's) order, and a shared lane's result equals its scalar run.
SeedBatchStats expect_dispositions_match_delivery_orders(
    SeedBatchExecutionContext& batched, const PortGraph& g,
    const std::vector<BitString>& advice, const Algorithm& algorithm,
    const RunOptions& base, const std::vector<Lane>& lanes) {
  std::vector<Disposition> dispositions;
  batched.run_lockstep(g, 0, advice, algorithm, base, lanes, dispositions);
  ExecutionContext scalar;
  DeliveryOrder order;
  std::vector<std::uint64_t> driver_order;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    options.trace_sink = &order;
    const RunResult want = scalar.run(g, 0, advice, algorithm, options);
    if (l == 0) driver_order = order.seqs;
    const bool shared = dispositions[l] == Disposition::kShared;
    EXPECT_EQ(shared, order.seqs == driver_order)
        << to_string(base.scheduler) << " lane " << l;
    if (shared) {
      EXPECT_EQ(batched.lane_result(l), want)
          << to_string(base.scheduler) << " lane " << l;
    }
  }
  return batched.last_stats();
}

TEST(SeedBatchEngine, KeyClassesKeyTheStartBatchOnlyUntilTheyDisagree) {
  // Scheme B's start batch is one message per node, so eager keying would
  // cost every class n - 1 keys before the first pop: >= 63 (n - 1) on
  // this 64-lane family. Classes key it lazily instead, each only until
  // its first entry that orders before the driver's first delivery. One
  // context serves every family, so state a retired class leaves behind
  // must not leak into the next family.
  Rng rng(2024);
  const std::size_t n = 512;
  const PortGraph g =
      make_random_connected(n, 8.0 / static_cast<double>(n), rng);
  const LightBroadcastOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* scheme_b = algorithm_by_name("broadcast-B");
  ASSERT_NE(scheme_b, nullptr);
  SeedBatchExecutionContext batched;
  std::vector<Lane> lanes;
  for (std::size_t l = 0; l < 64; ++l) lanes.push_back({1 + 17 * l, 0});
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncLinkFifo, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncLinkFifo}) {
    RunOptions base;
    base.scheduler = sched;
    const SeedBatchStats stats = expect_dispositions_match_delivery_orders(
        batched, g, advice, *scheme_b, base, lanes);
    EXPECT_TRUE(stats.lockstep_ran) << to_string(sched);
    EXPECT_GE(stats.shared, 1u) << to_string(sched);
    EXPECT_LT(stats.class_keys, 8 * n) << to_string(sched);

    // max_delay 1 gives every seed the same keys, so every class agrees
    // with the driver on the wide start batch, ties and all, and all 64
    // lanes share the pass.
    base.max_delay = 1;
    EXPECT_EQ(expect_dispositions_match_delivery_orders(
                  batched, g, advice, *scheme_b, base, lanes)
                  .shared,
              64u)
        << to_string(sched);
  }

  // One message in flight at a time: every class agrees at every pop, so
  // a 64-lane scheduler-seed wakeup family still shares all 64 lanes.
  const PortGraph path = make_path(64);
  const TreeWakeupOracle wakeup_oracle;
  const std::vector<BitString> path_advice = wakeup_oracle.advise(path, 0);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ASSERT_NE(wakeup, nullptr);
  lanes.clear();
  for (std::size_t l = 0; l < 64; ++l) lanes.push_back({5 + 11 * l, 0});
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncRandom, SchedulerKind::kAsyncLinkFifo}) {
    RunOptions base;
    base.scheduler = sched;
    base.enforce_wakeup = true;
    EXPECT_EQ(expect_dispositions_match_delivery_orders(
                  batched, path, path_advice, *wakeup, base, lanes)
                  .shared,
              64u)
        << to_string(sched);
  }
}

/// Scans fault seeds on a small drop-only regime and splits them into
/// lanes that stay clean vs lanes that diverge, then exercises every
/// retirement shape. Deterministic: the classification is a pure function
/// of the seeds.
class SeedBatchRetirementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    graph_ = make_random_tree(12, rng);
    oracle_ = std::make_unique<TreeWakeupOracle>();
    algorithm_ = algorithm_by_name("wakeup-tree");
    ASSERT_NE(algorithm_, nullptr);
    advice_ = oracle_->advise(graph_, 0);
    base_.enforce_wakeup = true;
    base_.fault.drop = 0.02;
    ExecutionContext scalar;
    for (std::uint64_t s = 1; s <= 400; ++s) {
      RunOptions options = base_;
      options.fault.seed = s;
      const RunResult r =
          scalar.run(graph_, 0, advice_, *algorithm_, options);
      (fault_free(r) ? clean_ : diverging_).push_back(s);
      if (clean_.size() >= 4 && diverging_.size() >= 4) break;
    }
    ASSERT_GE(clean_.size(), 4u) << "seed scan found too few clean lanes";
    ASSERT_GE(diverging_.size(), 4u)
        << "seed scan found too few diverging lanes";
  }

  void check(const std::vector<std::uint64_t>& fault_seeds,
             const std::vector<Disposition>& want_disp) {
    std::vector<Lane> lanes;
    for (const std::uint64_t s : fault_seeds) lanes.push_back({1, s});
    std::vector<Disposition> disp;
    SeedBatchExecutionContext batched;
    batched.run_lockstep(graph_, 0, advice_, *algorithm_, base_, lanes,
                         disp);
    EXPECT_EQ(disp, want_disp);
    // And the full per-lane results still match scalar bit for bit.
    const std::vector<RunResult> got =
        batched.run(graph_, 0, advice_, *algorithm_, base_, lanes);
    ExecutionContext scalar;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base_;
      options.fault.seed = lanes[l].fault_seed;
      EXPECT_EQ(got[l], scalar.run(graph_, 0, advice_, *algorithm_, options))
          << "lane " << l;
    }
  }

  PortGraph graph_;
  std::unique_ptr<Oracle> oracle_;
  const Algorithm* algorithm_ = nullptr;
  std::vector<BitString> advice_;
  RunOptions base_;
  std::vector<std::uint64_t> clean_;
  std::vector<std::uint64_t> diverging_;
};

TEST_F(SeedBatchRetirementTest, FirstLaneDies) {
  check({diverging_[0], clean_[0], clean_[1], clean_[2]},
        {Disposition::kReplay, Disposition::kShared, Disposition::kShared,
         Disposition::kShared});
}

TEST_F(SeedBatchRetirementTest, LastLaneDies) {
  check({clean_[0], clean_[1], clean_[2], diverging_[1]},
        {Disposition::kShared, Disposition::kShared, Disposition::kShared,
         Disposition::kReplay});
}

TEST_F(SeedBatchRetirementTest, AllButOneDie) {
  check({diverging_[0], diverging_[1], diverging_[2], clean_[3]},
        {Disposition::kReplay, Disposition::kReplay, Disposition::kReplay,
         Disposition::kShared});
}

TEST_F(SeedBatchRetirementTest, AllLanesDieAndThePassAborts) {
  std::vector<Lane> lanes;
  for (int k = 0; k < 3; ++k) lanes.push_back({1, diverging_[k]});
  std::vector<Disposition> disp;
  SeedBatchExecutionContext batched;
  batched.run_lockstep(graph_, 0, advice_, *algorithm_, base_, lanes, disp);
  EXPECT_EQ(batched.last_stats().shared, 0u);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  for (const Disposition d : disp) EXPECT_EQ(d, Disposition::kReplay);
  // The convenience path still produces every lane correctly via replays.
  const std::vector<RunResult> got =
      batched.run(graph_, 0, advice_, *algorithm_, base_, lanes);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base_;
    options.fault.seed = lanes[l].fault_seed;
    EXPECT_EQ(got[l], scalar.run(graph_, 0, advice_, *algorithm_, options));
  }
}

TEST(SeedBatchEngine, EligibilityGates) {
  RunOptions base;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncFifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncLifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  // Counter-keyed seeded schedulers batch.
  base.scheduler = SchedulerKind::kAsyncRandom;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncLinkFifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  // The online Lemma 2.1 scheduler's probe history is execution-dependent.
  base.scheduler = SchedulerKind::kAsyncAdversarial;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  // An observed run (a trace sink attached) replays scalar.
  base = RunOptions{};
  TraceRecorder recorder;
  base.trace_sink = &recorder;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.deadline_ns = 1;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  // Byzantine runs always execute scalar: forged content depends on the
  // delivery order of observed traffic, which lockstep cannot share.
  base = RunOptions{};
  base.adversary.byz_rate = 0.1;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.adversary.byz_nodes = 2;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.adversary.seed = 99;  // seeded but empty: still the honest network
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
}

TEST(SeedBatchEngine, ByzantineFamilyReplaysEveryLaneIdenticallyToScalar) {
  const PortGraph g = fuzz_graph();
  const LightBroadcastOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* broadcast = algorithm_by_name("broadcast-B");
  ASSERT_NE(broadcast, nullptr);
  RunOptions base;
  base.adversary.seed = 42;
  base.adversary.byz_rate = 0.2;
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *broadcast, base, lanes);
  EXPECT_FALSE(batched.last_stats().lockstep_ran);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    const RunResult want = scalar.run(g, 0, advice, *broadcast, options);
    EXPECT_EQ(got[l], want) << "lane " << l;
    EXPECT_GT(want.adversary.lying_nodes, 0u) << "lane " << l;
  }
}

TEST(SeedBatchEngine, IneligibleFamilyReplaysEveryLane) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  TraceRecorder batched_trace(TraceLevel::kMessages);
  RunOptions base;
  base.trace_sink = &batched_trace;  // tracing: an unsupported feature
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  std::vector<Disposition> disp;
  SeedBatchExecutionContext batched;
  batched.run_lockstep(g, 0, advice, *flooding, base, lanes, disp);
  EXPECT_FALSE(batched.last_stats().lockstep_ran);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  // Replays honor the unsupported feature: the recorder keeps the last
  // run, so it ends with the final lane's stream on either path.
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *flooding, base, lanes);
  const std::vector<TraceEvent> replayed = batched_trace.take().events;
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    EXPECT_EQ(got[l], scalar.run(g, 0, advice, *flooding, options))
        << "lane " << l;
  }
  EXPECT_FALSE(replayed.empty());
  EXPECT_EQ(batched_trace.trace().events, replayed);
}

TEST(SeedBatchEngine, EmptyLanesAndPreconditionErrors) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  SeedBatchExecutionContext batched;
  std::vector<Disposition> disp;
  batched.run_lockstep(g, 0, advice, *flooding, RunOptions{}, {}, disp);
  EXPECT_TRUE(disp.empty());
  EXPECT_EQ(batched.last_stats().lanes, 0u);
  const std::vector<BitString> short_advice(3);
  EXPECT_THROW(batched.run_lockstep(g, 0, short_advice, *flooding,
                                    RunOptions{}, {{1, 0}}, disp),
               std::invalid_argument);
  EXPECT_THROW(batched.run_lockstep(g, g.num_nodes(), advice, *flooding,
                                    RunOptions{}, {{1, 0}}, disp),
               std::invalid_argument);
}

TEST(SeedBatchEngine, BudgetStatusesMatchScalar) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  ExecutionContext scalar;
  SeedBatchExecutionContext batched;
  for (const bool by_events : {false, true}) {
    RunOptions base;
    if (by_events) {
      base.max_events = 5;
    } else {
      base.max_messages = 5;
    }
    std::vector<Lane> lanes = {{1, 0}, {2, 0}};
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, *flooding, base, lanes);
    EXPECT_EQ(batched.last_stats().shared, 2u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      const RunResult want = scalar.run(g, 0, advice, *flooding, options);
      EXPECT_EQ(want.status, RunStatus::kBudgetExhausted);
      EXPECT_EQ(got[l], want);
    }
  }
}

/// Deliberately breaks the wakeup rule: every node transmits on the empty
/// history, source or not.
class EagerBehavior : public NodeBehavior {
 public:
  void on_start(const NodeInput& input, std::vector<Send>& out) override {
    for (Port p = 0; p < static_cast<Port>(input.degree); ++p) {
      out.push_back({Message{}, p});
    }
  }
  void on_receive(const NodeInput&, const Message&, Port,
                  std::vector<Send>&) override {}
};

class EagerAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    return std::make_unique<EagerBehavior>();
  }
  std::string name() const override { return "eager-violator"; }
  bool is_wakeup() const override { return true; }
};

TEST(SeedBatchEngine, WakeupViolationIsSharedAndIdentical) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const EagerAlgorithm eager;
  RunOptions base;
  base.enforce_wakeup = true;
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, eager, base, lanes);
  EXPECT_EQ(batched.last_stats().shared, 3u);
  ExecutionContext scalar;
  RunOptions options = base;
  options.seed = 1;
  const RunResult want = scalar.run(g, 0, advice, eager, options);
  EXPECT_EQ(want.status, RunStatus::kTaskFailed);
  EXPECT_FALSE(want.violation.empty());
  EXPECT_EQ(got[0], want);
}

/// Behaviors that throw, from on_start or from the constructor — the two
/// scalar-engine exception sites whose fault/clean split the lockstep pass
/// must reproduce.
class ThrowingBehavior : public NodeBehavior {
 public:
  void on_start(const NodeInput&, std::vector<Send>&) override {
    throw std::runtime_error("scripted on_start failure");
  }
  void on_receive(const NodeInput&, const Message&, Port,
                  std::vector<Send>&) override {}
};

class ThrowOnStartAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    return std::make_unique<ThrowingBehavior>();
  }
  std::string name() const override { return "throw-on-start"; }
};

class ThrowOnMakeAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    throw std::runtime_error("scripted make_behavior failure");
  }
  std::string name() const override { return "throw-on-make"; }
};

TEST(SeedBatchEngine, BehaviorExceptionsFollowTheFaultSplit) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  ExecutionContext scalar;
  for (const bool at_make : {false, true}) {
    const ThrowOnStartAlgorithm on_start;
    const ThrowOnMakeAlgorithm on_make;
    const Algorithm& algorithm =
        at_make ? static_cast<const Algorithm&>(on_make)
                : static_cast<const Algorithm&>(on_start);
    std::vector<Lane> lanes = {{1, 0}, {2, 0}};

    // Fault-free family: the scalar engine propagates, so replays must too.
    SeedBatchExecutionContext batched;
    EXPECT_THROW(batched.run(g, 0, advice, algorithm, RunOptions{}, lanes),
                 std::runtime_error);
    EXPECT_EQ(batched.last_stats().shared, 0u);

    // Fault-enabled family: the scalar engine absorbs the exception into a
    // kTaskFailed result; the shared pass serves it to every lane.
    RunOptions faulty;
    faulty.fault.delay = 0.01;
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, algorithm, faulty, lanes);
    EXPECT_EQ(batched.last_stats().shared, 2u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = faulty;
      options.seed = lanes[l].seed;
      options.fault.seed = lanes[l].fault_seed;
      const RunResult want = scalar.run(g, 0, advice, algorithm, options);
      EXPECT_EQ(want.status, RunStatus::kTaskFailed);
      EXPECT_EQ(got[l], want);
    }
  }
}

TEST(SeedBatchEngine, CrashAndAdviceFlipLanesRetireAtArm) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 3);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ExecutionContext scalar;
  for (const bool by_flip : {false, true}) {
    RunOptions base;
    base.enforce_wakeup = true;
    if (by_flip) {
      base.fault.advice_flip = 0.2;
    } else {
      base.fault.crash = 0.5;
    }
    std::vector<Lane> lanes;
    for (std::uint64_t s = 1; s <= 12; ++s) lanes.push_back({1, s});
    SeedBatchExecutionContext batched;
    const std::vector<RunResult> got =
        batched.run(g, 3, advice, *wakeup, base, lanes);
    // At these rates some lanes must retire before the pass starts.
    EXPECT_GT(batched.last_stats().replayed, 0u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.fault.seed = lanes[l].fault_seed;
      EXPECT_EQ(got[l], scalar.run(g, 3, advice, *wakeup, options))
          << (by_flip ? "advice_flip" : "crash") << " lane " << l;
    }
  }
}

TEST(SeedFamily, KeyIsSeedBlindAndOtherwiseSensitive) {
  const PortGraph g = fuzz_graph();
  Rng rng(7);
  const PortGraph h = make_random_tree(10, rng);
  const TreeWakeupOracle oracle;
  const NullOracle null_oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const Algorithm* flooding = algorithm_by_name("flooding");

  TrialSpec a(&g, 3, &oracle, wakeup);
  TrialSpec b = a;
  b.options.seed = 999;
  b.options.fault.seed = 777;
  EXPECT_EQ(seed_family_key(a), seed_family_key(b));
  EXPECT_FALSE(seed_family_key(a) < seed_family_key(b));
  EXPECT_FALSE(seed_family_key(b) < seed_family_key(a));

  TrialSpec c = a;
  c.options.fault.drop = 0.5;
  EXPECT_NE(seed_family_key(a), seed_family_key(c));
  TrialSpec d = a;
  d.options.scheduler = SchedulerKind::kAsyncLifo;
  EXPECT_NE(seed_family_key(a), seed_family_key(d));
  TrialSpec e = a;
  e.graph = &h;
  EXPECT_NE(seed_family_key(a), seed_family_key(e));
  TrialSpec f = a;
  f.source = 4;
  EXPECT_NE(seed_family_key(a), seed_family_key(f));
  TrialSpec i = a;
  i.oracle = &null_oracle;
  EXPECT_NE(seed_family_key(a), seed_family_key(i));
  TrialSpec j = a;
  j.algorithm = flooding;
  EXPECT_NE(seed_family_key(a), seed_family_key(j));
  TrialSpec k = a;
  k.options.max_events = 123;
  EXPECT_NE(seed_family_key(a), seed_family_key(k));
  TrialSpec l = a;
  l.advice = std::make_shared<const std::vector<BitString>>(
      oracle.advise(g, 3));
  EXPECT_NE(seed_family_key(a), seed_family_key(l));

  // The Byzantine regime is part of the family identity — INCLUDING its
  // seed (different adversary seeds mean different colluding sets, which
  // lockstep could never share even if Byzantine families were eligible).
  TrialSpec m = a;
  m.options.adversary.byz_rate = 0.1;
  EXPECT_NE(seed_family_key(a), seed_family_key(m));
  TrialSpec n = m;
  n.options.adversary.seed = 1;
  EXPECT_NE(seed_family_key(m), seed_family_key(n));
  TrialSpec o = m;
  o.options.adversary.strategy = ByzantineStrategy::kStructuredLie;
  EXPECT_NE(seed_family_key(m), seed_family_key(o));
  TrialSpec p = m;
  p.options.adversary.byz_nodes = 3;
  EXPECT_NE(seed_family_key(m), seed_family_key(p));
}

/// Everything deterministic in a TaskReport (the timing fields are the
/// documented exception to batch determinism).
void expect_reports_equal(const TaskReport& a, const TaskReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.run, b.run) << label;
  EXPECT_EQ(a.oracle_name, b.oracle_name) << label;
  EXPECT_EQ(a.algorithm_name, b.algorithm_name) << label;
  EXPECT_EQ(a.oracle_bits, b.oracle_bits) << label;
  EXPECT_EQ(a.max_advice_bits, b.max_advice_bits) << label;
  EXPECT_EQ(a.advice_cached, b.advice_cached) << label;
  EXPECT_EQ(a.attempts, b.attempts) << label;
  EXPECT_EQ(a.error, b.error) << label;
}

std::vector<TrialSpec> family_specs(const PortGraph& g, const Oracle& oracle,
                                    const Algorithm& algorithm,
                                    std::size_t lanes, double drop) {
  std::vector<TrialSpec> specs;
  for (std::size_t l = 0; l < lanes; ++l) {
    RunOptions options;
    options.fault.drop = drop;
    options.fault.seed = 1000 + 17 * l;
    specs.emplace_back(&g, 3, &oracle, &algorithm, options);
  }
  return specs;
}

TEST(SeedBatchRunner, BatchedFamilyReproducesScalarBatch) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const std::vector<TrialSpec> specs =
      family_specs(g, oracle, *wakeup, 16, 0.02);

  BatchStats batched_stats;
  const std::vector<TaskReport> batched =
      BatchRunner(2).run(specs, &batched_stats);
  BatchStats scalar_stats;
  const std::vector<TaskReport> scalar =
      BatchRunner(2, true, {}, {}, SeedBatchPolicy{false, 2})
          .run(specs, &scalar_stats);

  ASSERT_EQ(batched.size(), scalar.size());
  std::size_t fault_free_lanes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(batched[i], scalar[i], "spec " + std::to_string(i));
    fault_free_lanes += fault_free(scalar[i].run);
  }
  EXPECT_EQ(batched_stats.seed_families, 1u);
  EXPECT_EQ(batched_stats.batched_lanes, specs.size());
  // The shared/replayed split is exactly the fault-free/faulted split of
  // the scalar runs.
  EXPECT_EQ(batched_stats.lockstep_shared, fault_free_lanes);
  EXPECT_GT(fault_free_lanes, 0u);
  EXPECT_LT(fault_free_lanes, specs.size());
  EXPECT_EQ(scalar_stats.seed_families, 0u);
  EXPECT_EQ(scalar_stats.batched_lanes, 0u);
  // The new accounting reaches the metrics snapshot as plain counters.
  EXPECT_EQ(batched_stats.metrics.counters.at("seed_families"), 1u);
  EXPECT_EQ(batched_stats.metrics.counters.at("batched_lanes"),
            specs.size());
  EXPECT_EQ(batched_stats.metrics.counters.at("lockstep_shared_lanes"),
            fault_free_lanes);
}

TEST(SeedBatchRunner, RetriedAttemptsStayInFamilyAndMatchScalar) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  // A drop rate high enough that several lanes fail the task and retry.
  const std::vector<TrialSpec> specs =
      family_specs(g, oracle, *wakeup, 12, 0.15);
  RetryPolicy retry;
  retry.max_retries = 2;
  retry.retry_task_failures = true;

  BatchStats batched_stats;
  const std::vector<TaskReport> batched =
      BatchRunner(2, true, retry).run(specs, &batched_stats);
  const std::vector<TaskReport> scalar =
      BatchRunner(2, true, retry, {}, SeedBatchPolicy{false, 2}).run(specs);

  bool any_retried = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(batched[i], scalar[i], "spec " + std::to_string(i));
    any_retried |= batched[i].attempts > 1;
  }
  EXPECT_TRUE(any_retried) << "the retry path was not exercised";
  EXPECT_EQ(batched_stats.seed_families, 1u);
}

TEST(SeedBatchRunner, MixedBatchIsJobsInvariant) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const NullOracle null_oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const Algorithm* flooding = algorithm_by_name("flooding");
  std::vector<TrialSpec> specs = family_specs(g, oracle, *wakeup, 8, 0.02);
  // Singles that must stay scalar: a different algorithm, a different
  // source, and an adversarial-scheduler pair (ineligible scheduler).
  specs.emplace_back(&g, 3, &null_oracle, flooding);
  specs.emplace_back(&g, 5, &oracle, wakeup);
  for (int k = 0; k < 2; ++k) {
    RunOptions options;
    options.scheduler = SchedulerKind::kAsyncAdversarial;
    options.seed = 40 + k;
    specs.emplace_back(&g, 3, &oracle, wakeup, options);
  }
  // Counter-keyed async-random pair: options.seed is now a lane axis, so
  // these two collapse into a second family.
  for (int k = 0; k < 2; ++k) {
    RunOptions options;
    options.scheduler = SchedulerKind::kAsyncRandom;
    options.seed = 40 + k;
    specs.emplace_back(&g, 3, &oracle, wakeup, options);
  }

  BatchStats stats1, stats3;
  const std::vector<TaskReport> at1 = BatchRunner(1).run(specs, &stats1);
  const std::vector<TaskReport> at3 = BatchRunner(3).run(specs, &stats3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(at1[i], at3[i], "spec " + std::to_string(i));
  }
  EXPECT_EQ(stats1.metrics.counters, stats3.metrics.counters);
  EXPECT_EQ(stats1.seed_families, 2u);
  EXPECT_EQ(stats1.batched_lanes, 10u);
}

TEST(SeedBatchRunner, CacheOffTrialsStayScalar) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const std::vector<TrialSpec> specs =
      family_specs(g, oracle, *wakeup, 6, 0.0);

  BatchStats no_cache_stats;
  BatchRunner(1, false).run(specs, &no_cache_stats);
  EXPECT_EQ(no_cache_stats.seed_families, 0u);

  SeedBatchPolicy min_lanes;
  min_lanes.min_lanes = 7;  // family of 6 stays below the routing floor
  BatchStats floor_stats;
  BatchRunner(1, true, {}, {}, min_lanes).run(specs, &floor_stats);
  EXPECT_EQ(floor_stats.seed_families, 0u);
}

}  // namespace
}  // namespace oraclesize
