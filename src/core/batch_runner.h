// Batched, parallel trial execution: the experiment-scale entry point.
//
// A TrialSpec names everything one execution needs — network, source,
// oracle, algorithm, run options — without owning any of it. BatchRunner
// takes a vector of specs and plays them on a pool of worker threads, one
// reusable ExecutionContext per worker (sim/execution_context.h), so a
// sweep of thousands of trials performs no per-trial setup allocation
// beyond what the trials themselves demand.
//
// Advice memoization: before any trial runs, BatchRunner dedupes the batch
// by (graph, oracle name, source) and computes each distinct advice vector
// ONCE, in parallel, via core/advice_cache.h. Trials then share immutable
// `shared_ptr<const vector<BitString>>` advice. Repeat-heavy sweeps thus
// pay each advise() exactly once instead of once per trial. Pass
// `advice_cache = false` to restore per-trial advise() (the measurement
// baseline for bench_perf --no-advice-cache).
//
// Seed-family collapsing: specs identical up to their two randomness seeds
// (seed_family_key) are additionally grouped into FAMILY units and executed
// by the seed-batched lockstep engine (sim/seed_batch_engine.h) — one clean
// pass serves every lane whose fault decisions stay benign, divergent lanes
// replay scalar inside the unit, and retries re-batch. SeedBatchPolicy
// turns this off (bench_perf's scalar measurement arm does).
//
// Determinism contract: every trial is an independent, deterministic
// function of its spec, and results are returned IN SPEC ORDER. The
// RunResult for a given spec is bit-identical to what the single-trial
// path (run_task / run_execution) produces, regardless of the worker
// count and of whether the advice cache is on — only the timing fields
// (wall_ns, advise_ns, run_ns) vary between runs. Advice-cache
// attribution is deterministic too: the FIRST spec (lowest index) with a
// given key reports the advise cost; later duplicates report
// advice_cached = true. tests/test_batch_runner.cpp and
// tests/test_advice_cache.cpp enforce all of this.
#pragma once

#include <cstddef>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/advice_cache.h"
#include "core/runner.h"
#include "sim/metrics_registry.h"

namespace oraclesize {

/// One trial: run `algorithm` with `oracle`'s advice on `graph` from
/// `source` under `options`. Pointers are non-owning and must outlive the
/// BatchRunner::run call. As in run_task, wakeup enforcement is switched
/// on automatically when the algorithm reports is_wakeup().
struct TrialSpec {
  TrialSpec() = default;
  TrialSpec(const PortGraph* graph_in, NodeId source_in,
            const Oracle* oracle_in, const Algorithm* algorithm_in,
            RunOptions options_in = {}, AdvicePtr advice_in = nullptr)
      : graph(graph_in),
        source(source_in),
        oracle(oracle_in),
        algorithm(algorithm_in),
        options(std::move(options_in)),
        advice(std::move(advice_in)) {}

  const PortGraph* graph = nullptr;
  NodeId source = 0;
  const Oracle* oracle = nullptr;
  const Algorithm* algorithm = nullptr;
  RunOptions options;
  /// Optional precomputed advice (one BitString per node). When set, the
  /// oracle is never asked to advise for this trial — it still names the
  /// report and prices the oracle_bits fields. Size must match the graph.
  AdvicePtr advice;
};

/// Everything that must match for two TrialSpecs to be seed-family peers:
/// the full spec identity minus the two randomness seeds (options.seed and
/// options.fault.seed). Two specs with equal keys run the same (graph,
/// source, oracle, algorithm, advice, options) and differ at most in which
/// seeds they draw — exactly the shape the seed-batched lockstep executor
/// (sim/seed_batch_engine.h) collapses into one pass. Identity is by
/// pointer for the graph/algorithm/advice (keys are meaningful within one
/// batch, not across processes) and by name for the oracle, matching the
/// advise pre-pass key so family peers always share one cached advice
/// artifact.
struct SeedFamilyKey {
  const PortGraph* graph = nullptr;
  NodeId source = 0;
  std::string oracle;
  const Algorithm* algorithm = nullptr;
  const void* advice = nullptr;  ///< TrialSpec::advice identity (may be null)
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint32_t max_delay = 0;
  std::uint64_t max_messages = 0;
  bool enforce_wakeup = false;
  bool anonymous = false;
  std::uint64_t deadline_ns = 0;
  std::uint64_t max_events = 0;
  const void* trace_sink = nullptr;
  /// FaultPlanParams minus its seed.
  double fault_drop = 0.0;
  double fault_duplicate = 0.0;
  double fault_delay = 0.0;
  std::uint32_t fault_max_extra_delay = 0;
  double fault_crash = 0.0;
  std::uint32_t fault_max_crash_key = 0;
  bool fault_crash_source = false;
  double fault_advice_flip = 0.0;
  /// AdversaryPlanParams INCLUDING its seed: the Byzantine regime is part
  /// of the family identity (lanes with different adversary seeds face
  /// different colluding sets, which the lockstep executor cannot share —
  /// and Byzantine families are ineligible anyway, so keeping the seed in
  /// the key just keeps the grouping honest).
  std::uint64_t adv_seed = 0;
  double adv_rate = 0.0;
  std::uint32_t adv_nodes = 0;
  bool adv_source = false;
  ByzantineStrategy adv_strategy = ByzantineStrategy::kRandomBits;
  double adv_forge = 0.0;
  double adv_equivocate = 0.0;
  double adv_advice_lie = 0.0;
  std::uint32_t adv_replay_window = 0;

  friend bool operator==(const SeedFamilyKey&,
                         const SeedFamilyKey&) = default;

 private:
  auto tie() const {
    return std::tie(graph, source, oracle, algorithm, advice, scheduler,
                    max_delay, max_messages, enforce_wakeup, anonymous,
                    deadline_ns, max_events, trace_sink, fault_drop,
                    fault_duplicate, fault_delay, fault_max_extra_delay,
                    fault_crash, fault_max_crash_key, fault_crash_source,
                    fault_advice_flip, adv_seed, adv_rate, adv_nodes,
                    adv_source, adv_strategy, adv_forge, adv_equivocate,
                    adv_advice_lie, adv_replay_window);
  }

 public:
  friend bool operator<(const SeedFamilyKey& a, const SeedFamilyKey& b) {
    return a.tie() < b.tie();
  }
};

/// The spec's seed-family identity. Pure in the spec; see SeedFamilyKey.
SeedFamilyKey seed_family_key(const TrialSpec& spec);

/// Aggregate accounting of one BatchRunner::run call.
struct BatchStats {
  std::size_t unique_advice = 0;  ///< distinct advice vectors computed
  /// Specs served precomputed advice (batch duplicates + TrialSpec::advice).
  std::size_t cache_hits = 0;
  std::uint64_t advise_ns = 0;  ///< total time inside advise() calls
  std::size_t failed = 0;   ///< trials that ended with TaskReport::failed()
  std::size_t retries = 0;  ///< extra attempts consumed across the batch
  /// Seed-family collapsing (sim/seed_batch_engine.h): families routed
  /// through the batched context, the trials they covered, and how many of
  /// those trials' final attempts were served by a shared lockstep pass
  /// (the rest replayed scalar inside the family unit).
  std::size_t seed_families = 0;
  std::size_t batched_lanes = 0;
  std::size_t lockstep_shared = 0;
  /// Named cross-trial aggregates (sim/metrics_registry.h): trial outcomes,
  /// messages by kind, bits on wire, fault impact, and the queue-depth /
  /// per-node-wakeup-latency histograms. Recorded lock-free by the workers
  /// (relaxed atomic adds) and snapshotted after they join. Every recorded
  /// quantity is deterministic in the specs, so the snapshot is
  /// bit-identical for any jobs() — tests/test_metrics.cpp pins this.
  /// Populated only when a BatchStats out-param is passed; runs without one
  /// skip all metric recording.
  MetricsSnapshot metrics;
};

/// Bounded retry for transient trial outcomes. A trial is retried (up to
/// `max_retries` extra attempts) when its attempt threw, timed out, or
/// exhausted a budget — and, with `retry_task_failures`, when the scheme
/// failed the task (useful under fault injection, where a different fault
/// seed can succeed). Each retry RE-SEEDS deterministically: attempt `a`
/// runs with scheduler and fault seeds shifted by `a * reseed_stride`, so
/// a retried batch is still a pure function of its specs. Because only the
/// two seeds shift, a retried attempt stays in its spec's seed family
/// (seed_family_key is seed-blind) — family units re-batch their pending
/// retries into fresh lockstep passes instead of degrading to scalar.
struct RetryPolicy {
  std::uint32_t max_retries = 0;  ///< 0 = retry disabled
  std::uint64_t reseed_stride = 0x9e3779b97f4a7c15ULL;
  bool retry_task_failures = false;
};

/// The retired fourth constructor argument (an intra-run sharding policy
/// that is gone). Field-less, and BatchRunner ignores it. It is kept only
/// because the benchmark's `BatchRunner(workers, true, {}, {}, seed_batch)`
/// call in perfbench/src/campaign.cpp passes `{}` there; drop it, and the
/// `{}` every caller that sets `seed_batch` passes, with the next change to
/// the benchmark.
struct RetiredPolicy {};

/// Automatic seed-family collapsing (ON by default). Specs identical up to
/// their seeds (seed_family_key) are grouped and routed through one
/// seed-batched lockstep context (sim/seed_batch_engine.h) as a single
/// work unit; per-trial TaskReports are fanned back out bit-identical to
/// the scalar path, so the policy is purely a wall-clock decision. Families
/// only form over resolved shared advice: with the advice cache off (the
/// measurement baseline) every trial stays scalar.
struct SeedBatchPolicy {
  bool enabled = true;
  /// Smallest family routed through the batched context; families below it
  /// (and every spec without family peers) run scalar. Minimum meaningful
  /// value is 2.
  std::size_t min_lanes = 2;

  bool enabled_for(std::size_t lanes) const noexcept {
    return enabled && lanes >= (min_lanes < 2 ? 2 : min_lanes);
  }
};

class BatchRunner {
 public:
  /// `jobs` = number of worker threads; 0 picks the hardware concurrency.
  /// `advice_cache` toggles the batch-wide advice memoization pre-pass.
  /// `retry` bounds re-execution of transient trial failures.
  /// The fourth argument is ignored (see RetiredPolicy).
  /// `seed_batch` collapses seed families onto the lockstep executor.
  explicit BatchRunner(std::size_t jobs = 0, bool advice_cache = true,
                       RetryPolicy retry = {}, RetiredPolicy = {},
                       SeedBatchPolicy seed_batch = {});

  std::size_t jobs() const noexcept { return jobs_; }
  bool advice_cache() const noexcept { return advice_cache_; }
  const RetryPolicy& retry() const noexcept { return retry_; }
  const SeedBatchPolicy& seed_batch() const noexcept { return seed_batch_; }

  /// Executes every spec and returns one TaskReport per spec, in spec
  /// order. Throws std::invalid_argument on a null graph/oracle/algorithm
  /// before any trial runs. Trials are FAULT-ISOLATED: a trial (or its
  /// advise() pre-pass) that throws becomes a TaskReport with failed() set
  /// and the exception text in `error`, and every other trial still runs —
  /// a poisoned oracle cannot abort a campaign. When `stats` is non-null
  /// it receives the batch's accounting, including failure/retry counts.
  std::vector<TaskReport> run(const std::vector<TrialSpec>& specs,
                              BatchStats* stats = nullptr) const;

  /// Like run(), but restores the legacy abort contract: if any trial
  /// failed, the lowest-index trial's original exception is rethrown after
  /// the whole batch has drained (deterministic for any jobs()). The
  /// single-trial path (run_task) uses this to keep throwing typed
  /// exceptions at its callers.
  std::vector<TaskReport> run_rethrow(const std::vector<TrialSpec>& specs,
                                      BatchStats* stats = nullptr) const;

 private:
  std::vector<TaskReport> run_impl(const std::vector<TrialSpec>& specs,
                                   BatchStats* stats,
                                   std::vector<std::exception_ptr>* eptrs) const;

  std::size_t jobs_;
  bool advice_cache_;
  RetryPolicy retry_;
  SeedBatchPolicy seed_batch_;
};

}  // namespace oraclesize
