// The Byzantine adversary layer's contract (sim/adversary_plan.h).
//
// Three layers:
//  * AdversaryPlan.*    — the plan in isolation: colluding-set selection
//    (exact counts, source exclusion, seed determinism), the bounded
//    replay buffer, per-link equivocation divergence, and the persistence
//    of inconsistent-advice lies.
//  * ByzantineEngine.*  — the plan threaded through ExecutionContext:
//    detected-vs-silent status split, zero-plan invisibility, advice-
//    certified immunity of the tree-cast, determinism at any --jobs
//    (Byzantine families route to the scalar engine), and the online
//    adversarial scheduler.
//  * ByzantineTrace.*   — record -> save -> load -> replay -> diff round
//    trip of a Byzantine run, forge events and counters included.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/replay.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/adversary_plan.h"
#include "sim/execution_context.h"
#include "sim/trace_recorder.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

PortGraph byz_graph() {
  Rng rng(424242);
  return make_random_connected(64, 0.1, rng);
}

PortGraph byz_tree() {
  Rng rng(515151);
  return make_random_tree(64, rng);
}

std::vector<bool> membership(const AdversaryPlan& plan, std::size_t n) {
  std::vector<bool> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = plan.lying(v);
  return out;
}

TEST(AdversaryPlan, ExplicitColludingSetIsExactAndExcludesTheSource) {
  AdversaryPlanParams params;
  params.seed = 7;
  params.byz_nodes = 10;
  AdversaryPlan plan;
  plan.arm(params, 64, /*source=*/3);
  EXPECT_EQ(plan.num_lying(), 10u);
  EXPECT_FALSE(plan.lying(3));
  std::size_t count = 0;
  for (NodeId v = 0; v < 64; ++v) count += plan.lying(v) ? 1 : 0;
  EXPECT_EQ(count, 10u);

  // Asking for more liars than eligible nodes clamps: the source still
  // never lies unless byz_source opts it in.
  params.byz_nodes = 64;
  plan.arm(params, 64, 3);
  EXPECT_EQ(plan.num_lying(), 63u);
  EXPECT_FALSE(plan.lying(3));
  params.byz_source = true;
  plan.arm(params, 64, 3);
  EXPECT_EQ(plan.num_lying(), 64u);
  EXPECT_TRUE(plan.lying(3));
}

TEST(AdversaryPlan, ColludingSetIsSeedKeyed) {
  AdversaryPlanParams params;
  params.seed = 7;
  params.byz_nodes = 10;
  AdversaryPlan a, b;
  a.arm(params, 64, 0);
  b.arm(params, 64, 0);
  EXPECT_EQ(membership(a, 64), membership(b, 64));
  params.seed = 8;
  b.arm(params, 64, 0);
  EXPECT_NE(membership(a, 64), membership(b, 64));
}

TEST(AdversaryPlan, RateMembershipIsPerNodeKeyedAndDeterministic) {
  AdversaryPlanParams params;
  params.seed = 11;
  params.byz_rate = 0.5;
  AdversaryPlan a, b;
  a.arm(params, 256, 0);
  b.arm(params, 256, 0);
  EXPECT_EQ(membership(a, 256), membership(b, 256));
  EXPECT_FALSE(a.lying(0));  // source
  EXPECT_GT(a.num_lying(), 64u);  // ~128 expected; far from degenerate
  EXPECT_LT(a.num_lying(), 192u);
}

TEST(AdversaryPlan, ReplayBufferIsBoundedAndServesStaleTraffic) {
  AdversaryPlanParams params;
  params.seed = 5;
  params.byz_nodes = 8;
  params.strategy = ByzantineStrategy::kReplay;
  params.replay_window = 4;
  params.advice_lie = 0.0;
  AdversaryPlan plan;
  plan.arm(params, 16, 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    plan.observe(Message::control(100 + i));
  }
  EXPECT_EQ(plan.replay_buffer_size(), 4u);

  NodeId liar = 0;
  for (NodeId v = 0; v < 16; ++v) {
    if (plan.lying(v)) liar = v;
  }
  Message msg = Message::source();
  const AdversaryPlan::ForgeOutcome fo = plan.forge(liar, 0, 0, 4, msg);
  EXPECT_TRUE(fo.forged);
  EXPECT_TRUE(fo.replayed);
  // The ring keeps the LAST window observations (payloads 106..109).
  EXPECT_GE(msg.payload, 106u);
  EXPECT_LE(msg.payload, 109u);
}

TEST(AdversaryPlan, EquivocationDivergesPerLinkAndReproduces) {
  AdversaryPlanParams params;
  params.seed = 13;
  params.byz_nodes = 1;
  params.forge = 1.0;
  params.equivocate = 1.0;
  params.advice_lie = 0.0;
  AdversaryPlan plan;
  plan.arm(params, 8, 0);
  NodeId liar = 0;
  for (NodeId v = 0; v < 8; ++v) {
    if (plan.lying(v)) liar = v;
  }

  // Same logical send, two links: different content per neighbor.
  Message a = Message::source();
  Message b = Message::source();
  const AdversaryPlan::ForgeOutcome fa = plan.forge(liar, 0, 100, 4, a);
  const AdversaryPlan::ForgeOutcome fb = plan.forge(liar, 0, 101, 4, b);
  EXPECT_TRUE(fa.forged);
  EXPECT_TRUE(fa.equivocated);
  EXPECT_TRUE(fb.equivocated);
  EXPECT_NE(a, b);

  // Pure counter keying: the same coordinates reproduce the same lie.
  Message c = Message::source();
  plan.forge(liar, 0, 100, 4, c);
  EXPECT_EQ(a, c);
}

TEST(AdversaryPlan, AdviceLiesArePersistentPerLink) {
  AdversaryPlanParams params;
  params.seed = 21;
  params.byz_nodes = 1;
  params.forge = 0.0;  // isolate the advice-lie mechanism
  params.advice_lie = 1.0;
  AdversaryPlan plan;
  plan.arm(params, 8, 0);
  NodeId liar = 0;
  for (NodeId v = 0; v < 8; ++v) {
    if (plan.lying(v)) liar = v;
  }

  Message first = Message::control(42);
  Message later = Message::control(42);
  const AdversaryPlan::ForgeOutcome f1 = plan.forge(liar, 0, 7, 4, first);
  const AdversaryPlan::ForgeOutcome f2 = plan.forge(liar, 99, 7, 4, later);
  EXPECT_TRUE(f1.advice_lie);
  EXPECT_FALSE(f1.forged);
  EXPECT_NE(first.payload, 42u);     // the lie applied...
  EXPECT_EQ(first, later);           // ...identically, any group, same link
  EXPECT_TRUE(f2.advice_lie);

  Message other = Message::control(42);
  plan.forge(liar, 0, 8, 4, other);  // a different neighbor
  EXPECT_NE(other.payload, first.payload);
}

TEST(ByzantineEngine, ClumsyLiesAreDetectedTargetedLiesStaySilent) {
  // Broadcast scheme B owns a checkable invariant (no honest node sends
  // control messages), so random-bits forging is caught red-handed...
  const PortGraph g = byz_graph();
  RunOptions opts;
  opts.adversary.seed = 2026;
  opts.adversary.byz_rate = 0.2;
  opts.adversary.strategy = ByzantineStrategy::kRandomBits;
  const TaskReport detected =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  EXPECT_FALSE(detected.ok());
  EXPECT_EQ(detected.run.status, RunStatus::kByzantineDetected);
  EXPECT_FALSE(detected.run.violation.empty());
  EXPECT_GT(detected.run.adversary.lying_nodes, 0u);
  EXPECT_GT(detected.run.adversary.forged, 0u);

  // ...while structured lies against flooding on a tree keep every message
  // well-formed: the run ends as a quiet wrong answer, not a detection.
  const PortGraph t = byz_tree();
  RunOptions silent_opts;
  silent_opts.adversary.seed = 5;
  silent_opts.adversary.byz_rate = 0.3;
  silent_opts.adversary.strategy = ByzantineStrategy::kStructuredLie;
  const TaskReport silent =
      run_task(t, 0, NullOracle(), FloodingAlgorithm(), silent_opts);
  EXPECT_FALSE(silent.ok());
  EXPECT_EQ(silent.run.status, RunStatus::kTaskFailed);
  EXPECT_TRUE(silent.run.violation.empty());
  EXPECT_GT(silent.run.adversary.structured_lies, 0u);
}

TEST(ByzantineEngine, ZeroPlanIsInvisible) {
  const PortGraph g = byz_graph();
  RunOptions plain;
  RunOptions zeroed;
  zeroed.adversary.seed = 123456789;  // junk seed, zero rates: disabled
  const TaskReport a = run_task(g, 0, NullOracle(), FloodingAlgorithm(), plain);
  const TaskReport b =
      run_task(g, 0, NullOracle(), FloodingAlgorithm(), zeroed);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.run, b.run);
}

TEST(ByzantineEngine, AdviceCertifiedTreeCastIsImmuneToContentForging) {
  // The buyback mechanism E16 measures: the full-advice tree-cast relays on
  // delivery, not on content, so a heavily Byzantine network still wakes
  // everyone — while zero-advice flooding on the same tree does not (the
  // silent case above).
  const PortGraph t = byz_tree();
  RunOptions opts;
  opts.adversary.seed = 5;
  opts.adversary.byz_rate = 0.3;
  opts.adversary.strategy = ByzantineStrategy::kStructuredLie;
  const TaskReport w =
      run_task(t, 0, TreeWakeupOracle(), WakeupTreeAlgorithm(), opts);
  EXPECT_TRUE(w.ok()) << to_string(w.run.status);
  EXPECT_GT(w.run.adversary.forged, 0u);  // lies happened; they were inert
}

TEST(ByzantineEngine, DeterministicAcrossJobs) {
  const PortGraph g = byz_graph();
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast_algorithm;
  const NullOracle null_oracle;
  const FloodingAlgorithm flooding_algorithm;
  std::vector<TrialSpec> specs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunOptions opts;
    opts.adversary.seed = seed;
    opts.adversary.byz_rate = 0.25;
    specs.emplace_back(&g, 0, &broadcast_oracle, &broadcast_algorithm, opts);
    opts.adversary.strategy = ByzantineStrategy::kStructuredLie;
    specs.emplace_back(&g, 0, &null_oracle, &flooding_algorithm, opts);
  }
  const BatchRunner serial(1);
  const BatchRunner parallel(4);
  const std::vector<TaskReport> a = serial.run(specs);
  const std::vector<TaskReport> b = parallel.run(specs);
  ASSERT_EQ(a.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a[i].run, b[i].run) << i;
  }
}

TEST(ByzantineEngine, AdversarialSchedulerIsDeterministicAndOnlyDelays) {
  const PortGraph g = byz_graph();
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncAdversarial;
  const TaskReport a = run_task(g, 0, NullOracle(), FloodingAlgorithm(), opts);
  const TaskReport b = run_task(g, 0, NullOracle(), FloodingAlgorithm(), opts);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.run, b.run);

  // The online Lemma 2.1 game answers first-use probes "special" while
  // candidates remain, so the schedule completes later than unbiased
  // random asynchrony — but it can only reorder and delay, never break
  // the task.
  RunOptions rnd;
  rnd.scheduler = SchedulerKind::kAsyncRandom;
  const TaskReport f = run_task(g, 0, NullOracle(), FloodingAlgorithm(), rnd);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(a.run.metrics.completion_key, f.run.metrics.completion_key);

  // Byzantine content under the adversarial schedule stays reproducible.
  RunOptions both = opts;
  both.adversary.seed = 3;
  both.adversary.byz_rate = 0.2;
  const TaskReport c =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), both);
  const TaskReport d =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), both);
  EXPECT_EQ(c.run, d.run);
  EXPECT_GT(c.run.adversary.forged, 0u);
}

TEST(ByzantineTrace, RecordSaveLoadReplayDiffRoundTrip) {
  const PortGraph g = byz_graph();
  RunOptions opts;
  opts.adversary.seed = 2026;
  opts.adversary.byz_rate = 0.2;
  TraceRecorder recorder;
  opts.trace_sink = &recorder;
  const TaskReport r =
      run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  EXPECT_EQ(r.run.status, RunStatus::kByzantineDetected);
  RecordedTrace t = recorder.take();
  t.header.oracle = LightBroadcastOracle().name();
  EXPECT_EQ(t.header.adversary, opts.adversary);
  EXPECT_GT(t.adversary.forged, 0u);

  // The artifact round trip preserves the adversary header and counters.
  std::stringstream ss;
  save_trace(ss, t);
  const RecordedTrace loaded = load_trace(ss);
  EXPECT_TRUE(diff_traces(t, loaded).equal);
  EXPECT_EQ(loaded.header.adversary, t.header.adversary);
  EXPECT_EQ(loaded.adversary, t.adversary);
  EXPECT_EQ(loaded.digest(), t.digest());

  // Re-executing the loaded trace reproduces every stream, forge events
  // and Byzantine outcome included.
  const ReplayReport replayed = replay_trace(loaded);
  EXPECT_TRUE(replayed.match)
      << (replayed.mismatches.empty() ? "" : replayed.mismatches.front());
}

TEST(ByzantineTrace, ForgeEventsAppearOnlyWhenTheAdversaryActs) {
  const PortGraph g = byz_graph();
  auto count_forge_events = [&](const RunOptions& base) {
    RunOptions opts = base;
    TraceRecorder recorder;
    opts.trace_sink = &recorder;
    run_task(g, 0, NullOracle(), FloodingAlgorithm(), opts);
    const RecordedTrace t = recorder.take();
    std::size_t forged = 0;
    for (const TraceEvent& e : t.events) {
      if (e.kind == TraceEventKind::kForge ||
          e.kind == TraceEventKind::kEquivocate ||
          e.kind == TraceEventKind::kReplayAttack ||
          e.kind == TraceEventKind::kAdviceLie) {
        ++forged;
      }
    }
    return forged;
  };
  RunOptions clean;
  EXPECT_EQ(count_forge_events(clean), 0u);
  RunOptions byz;
  byz.adversary.seed = 9;
  byz.adversary.byz_rate = 0.3;
  EXPECT_GT(count_forge_events(byz), 0u);
}

}  // namespace
}  // namespace oraclesize
