// The discrete-event execution engine.
//
// Given a network, a source, per-node advice strings (the oracle's output),
// and an algorithm, the engine instantiates one scheme per node and plays
// the message-passing execution under a chosen scheduler. It tracks the
// paper's notion of "informed" — the source is informed, and a node becomes
// informed upon receiving a message *sent by an informed node* (the source
// message can be piggybacked on any such message) — and can machine-check
// the wakeup constraint: a non-source node must not transmit before it is
// informed.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bitio/bitstring.h"
#include "graph/port_graph.h"
#include "sim/adversary_plan.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/scheme.h"

namespace oraclesize {

class TraceSink;  // sim/trace_recorder.h

/// Structured outcome of one execution. A run always terminates with
/// exactly one of these instead of looping or throwing for anything the
/// scheme (or the injected faults) did:
///  * kCompleted       — event queue drained, no violation, task criterion
///                       (all nodes informed) met;
///  * kTaskFailed      — the run ended cleanly but the task was not solved
///                       (uninformed nodes, a wakeup/port violation, or a
///                       behavior that threw on corrupted advice);
///  * kTimeout         — RunOptions::deadline_ns elapsed mid-run;
///  * kBudgetExhausted — the event or message budget ran out;
///  * kCrashed         — the trial infrastructure itself threw (set by
///                       BatchRunner, never by the engine);
///  * kByzantineDetected — the adversary plan was active and the run ended
///                       with an observable symptom (a violation, or a
///                       behavior that threw on forged content). A fooled
///                       run that terminates cleanly with a wrong answer
///                       stays kTaskFailed — the silent-wrong-answer case
///                       the detected case is distinguished from.
enum class RunStatus : std::uint8_t {
  kCompleted,
  kTaskFailed,
  kTimeout,
  kBudgetExhausted,
  kCrashed,
  kByzantineDetected,
};

const char* to_string(RunStatus status);

struct RunOptions {
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;          ///< randomness for kAsyncRandom
  std::uint32_t max_delay = 16;    ///< max per-message delay, kAsyncRandom
  std::uint64_t max_messages = 50'000'000;  ///< runaway-scheme safety valve
  bool enforce_wakeup = false;  ///< flag transmissions by uninformed nodes
  bool anonymous = false;       ///< hide id(v) from the algorithm (pass 0)
  /// Deterministic fault injection (sim/fault_plan.h). The default plan is
  /// disabled: the run takes the legacy reliable-network path bit for bit.
  FaultPlanParams fault;
  /// Deterministic Byzantine injection (sim/adversary_plan.h): lying node
  /// sets, forged/equivocated/replayed messages, per-link advice lies. The
  /// default plan is disabled and costs nothing on the hot path.
  AdversaryPlanParams adversary;
  /// Wall-clock cap on one run; 0 = none. A run that exceeds it stops with
  /// RunStatus::kTimeout. NOTE: the only machine-dependent knob — runs
  /// racing a deadline are not reproducible across hosts.
  std::uint64_t deadline_ns = 0;
  /// Cap on delivered events; 0 = none. Exceeding it stops the run with
  /// RunStatus::kBudgetExhausted (deterministic, unlike deadline_ns).
  std::uint64_t max_events = 0;
  /// Structured event tracing (sim/trace_recorder.h). Null = disabled —
  /// the hot path pays one branch per event group and allocates nothing.
  /// Non-owning; the sink must outlive the run. A sink sees every send,
  /// delivery, fault decision, and node-state transition, stamped with the
  /// fault plan's counter keys; sim/trace_analysis.h reads per-edge traffic
  /// off the recorded stream.
  TraceSink* trace_sink = nullptr;

  /// Field-by-field comparisons: core/batch_runner.h's SeedFamilyKey orders
  /// seed families by every field but the two seeds.
  friend bool operator==(const RunOptions&, const RunOptions&) = default;
  friend auto operator<=>(const RunOptions&, const RunOptions&) = default;
};

struct RunResult {
  Metrics metrics;
  RunStatus status = RunStatus::kCompleted;  ///< structured outcome
  FaultCounters faults;  ///< what the fault plan did (all zero when disabled)
  AdversaryCounters adversary;  ///< what the Byzantine layer did (zero when off)
  std::vector<bool> informed;  ///< per node
  bool all_informed = false;   ///< the task's success criterion
  /// Empty when the run is clean; otherwise the first violation detected
  /// (wakeup constraint, invalid port, message budget).
  std::string violation;
  std::vector<bool> terminated;   ///< per-node NodeBehavior::terminated()
  std::vector<std::uint64_t> outputs;  ///< per-node NodeBehavior::output()
  std::vector<std::uint64_t> sends_by_node;  ///< per-node message load
  /// Scheduler key (round, under kSynchronous) at which each node became
  /// informed; kNeverInformed for nodes that never did, 0 for the source.
  static constexpr std::int64_t kNeverInformed =
      std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> informed_at;

  /// The heaviest sender's message count (load balance of the scheme —
  /// the paper counts totals; per-node load is a natural refinement).
  std::uint64_t max_node_sends() const;

  std::size_t informed_count() const;

  /// Field-by-field equality: the batch runtime's determinism contract
  /// ("bit-identical results regardless of --jobs") is checked with this.
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Executes `algorithm` on `g` from `source` with the given advice strings
/// (advice.size() must equal g.num_nodes()). Deterministic for fixed inputs
/// and options.
RunResult run_execution(const PortGraph& g, NodeId source,
                        const std::vector<BitString>& advice,
                        const Algorithm& algorithm, const RunOptions& options);

}  // namespace oraclesize
