// A reusable execution engine: one ExecutionContext plays many runs.
//
// `run_execution` (sim/engine.h) is a convenience that builds a fresh
// context per call. For experiment sweeps — thousands of trials over the
// same or similar networks — that means re-heap-allocating the behavior
// table, the input table, and the event queue on every trial, and the
// `std::priority_queue<Event>` sifts full `Message`-carrying structs on
// every push/pop. ExecutionContext keeps all of that storage alive across
// runs:
//
//  * per-node tables (`NodeInput`, behavior slots) are resized, not
//    reallocated;
//  * pending events live in a flat pool with a free list; the priority
//    queue is an index heap over the pool, so heap sifts move 8-byte
//    indices instead of events;
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
// The contract: for a fixed (graph, source, advice, algorithm, options),
// ExecutionContext::run returns a RunResult bit-identical to
// run_execution's, regardless of how many runs the context played before —
// see tests/test_execution_context.cpp and tests/test_behavior_reuse.cpp.
// A context is NOT thread-safe; use one per worker (core/batch_runner.h
// does exactly that).
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
  /// (Re)populates behaviors_[0..n) for this run: pooled behaviors are
  /// re-armed with reset() when the algorithm allows it, otherwise fresh
  /// ones are constructed. Updates the pool identity bookkeeping.
  void arm_behaviors(std::size_t n, const Algorithm& algorithm);

  Scheduler scheduler_;
  FaultPlan fault_plan_;
  AdversaryPlan adversary_plan_;
  /// Scratch for FaultPlan::corrupt_advice — trials share immutable advice
  /// vectors, so corruption writes a private copy here instead.
  std::vector<BitString> corrupted_advice_;
  std::vector<NodeInput> inputs_;
  std::vector<std::unique_ptr<NodeBehavior>> behaviors_;
  std::vector<Send> sends_;  ///< scratch sink, recycled per event
  /// Pending events: slot pool + (key, seq) index heap (sim/event_heap.h).
  EventHeap events_;
  std::vector<std::uint64_t> link_offset_;  ///< prefix sums of degrees
  /// Behavior-pool identity: behaviors_[v] (v < pool_count_) were produced
  /// by a reusable algorithm named pool_algorithm_ and may be re-armed via
  /// reset() by any same-named reusable algorithm.
  std::string pool_algorithm_;
  std::size_t pool_count_ = 0;
};

}  // namespace oraclesize
