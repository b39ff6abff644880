// A reusable execution engine: one ExecutionContext plays many runs.
//
// `run_execution` (sim/engine.h) is a convenience that builds a fresh
// context per call. For experiment sweeps — thousands of trials over the
// same or similar networks — that means re-heap-allocating the behavior
// table, the input table, and the event queue on every trial.
// ExecutionContext keeps all of that storage alive across runs:
//
//  * per-node tables (`NodeInput`, behavior slots) are resized, not
//    reallocated;
//  * pending events live in a flat slot pool with a free list, ordered by
//    the calendar EventQueue (sim/event_heap.h), which moves 24-byte index
//    entries instead of Message-carrying events;
//  * the scheduler's per-link FIFO clock is a flat vector indexed by the
//    graph's prefix-summed (node, port) offsets, reset (not rebuilt) per
//    run;
//  * behavior objects are pooled: when consecutive runs use algorithms
//    reporting `Algorithm::reusable()` with the same name(), existing
//    behaviors are re-armed via `NodeBehavior::reset` instead of being
//    destroyed and re-`make_behavior`'d — so the steady state of a sweep
//    performs zero per-node heap allocations per run;
//  * sends are appended into one scratch vector recycled across events
//    (the sink protocol of sim/scheme.h).
//
// This node plane (inputs, behavior pool, send scratch, event pool, link
// offsets) is also the one the seed-batch lockstep pass runs on
// (sim/seed_batch_engine.h): a SeedBatchExecutionContext embeds one
// ExecutionContext, plays its pass on it, and replays diverged lanes on it.
//
// The contract: for a fixed (graph, source, advice, algorithm, options),
// ExecutionContext::run returns a RunResult bit-identical to
// run_execution's, regardless of how many runs the context played before —
// see tests/test_execution_context.cpp and tests/test_behavior_reuse.cpp.
// A context is NOT thread-safe; use one per worker (core/batch_runner.h
// gives each worker one, embedded in its SeedBatchExecutionContext).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/event_heap.h"

namespace oraclesize {

class ExecutionContext {
 public:
  ExecutionContext() : scheduler_(SchedulerKind::kSynchronous, 0, 1) {}

  /// Plays one execution. Identical semantics to run_execution; see
  /// sim/engine.h for the meaning of each argument and of the result.
  RunResult run(const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice,
                const Algorithm& algorithm, const RunOptions& options);

 private:
  // The lockstep pass shares this node plane and the steps below.
  friend class SeedBatchExecutionContext;

  /// Binds one run on `g`: inputs_[v] reads advice[v], link_offset_ holds
  /// the degree prefix sums, and `result`'s per-node vectors start with
  /// only the source informed.
  void bind_run(const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice, bool anonymous,
                RunResult& result);

  /// (Re)populates behaviors_[0..n) for this run: pooled behaviors are
  /// re-armed with reset() when the algorithm allows it, otherwise fresh
  /// ones are constructed. Updates the pool identity bookkeeping. When a
  /// constructor or reset() throws, the pool is dropped (a partial arm
  /// matches no bookkeeping) and the exception propagates.
  void arm_behaviors(std::size_t n, const Algorithm& algorithm);

  /// Reads every behavior's terminated()/output() into `result` and sets
  /// all_informed.
  void collect_outputs(std::size_t n, RunResult& result) const;

  // Violation texts, shared so both engines' results match byte for byte.
  // Cold and out of line: the hot submit path carries no std::ostringstream
  // machinery (construction alone costs a locale grab + buffer allocation).
  [[gnu::cold]] static std::string format_wakeup_violation(NodeId v);
  [[gnu::cold]] static std::string format_invalid_send(NodeId v, Port port,
                                                       std::size_t degree);
  [[gnu::cold]] static std::string format_behavior_exception(
      const char* what);

  Scheduler scheduler_;
  FaultPlan fault_plan_;
  AdversaryPlan adversary_plan_;
  /// Scratch for FaultPlan::corrupt_advice — trials share immutable advice
  /// vectors, so corruption writes a private copy here instead.
  std::vector<BitString> corrupted_advice_;
  std::vector<NodeInput> inputs_;
  std::vector<std::unique_ptr<NodeBehavior>> behaviors_;
  std::vector<Send> sends_;  ///< scratch sink, recycled per event
  /// Pending events: slot pool + calendar EventQueue (sim/event_heap.h).
  EventHeap events_;
  std::vector<std::uint64_t> link_offset_;  ///< prefix sums of degrees
  /// Behavior-pool identity: behaviors_[v] (v < pool_count_) were produced
  /// by a reusable algorithm named pool_algorithm_ and may be re-armed via
  /// reset() by any same-named reusable algorithm.
  std::string pool_algorithm_;
  std::size_t pool_count_ = 0;
};

}  // namespace oraclesize
