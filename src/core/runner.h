// End-to-end convenience: oracle -> advice -> execution -> report.
//
// This is the public entry point most users want: pick a network, a source,
// an oracle, and an algorithm; get back the oracle size, the message counts,
// and whether the task completed. See examples/quickstart.cpp.
#pragma once

#include <string>

#include "oracle/oracle.h"
#include "sim/engine.h"

namespace oraclesize {

struct TaskReport {
  std::string oracle_name;
  std::string algorithm_name;
  std::uint64_t oracle_bits = 0;   ///< the paper's oracle size on this G
  std::uint64_t max_advice_bits = 0;
  /// Total measured wall time of the trial: advise_ns + run_ns. Kept for
  /// continuity with earlier reports that lumped the two phases.
  std::uint64_t wall_ns = 0;
  /// Time spent computing oracle advice for THIS trial. 0 when the advice
  /// came precomputed (advice cache hit or TrialSpec::advice) — the cost
  /// was paid once and is reported by the trial that computed it.
  std::uint64_t advise_ns = 0;
  /// Time spent inside the execution engine (ExecutionContext::run).
  std::uint64_t run_ns = 0;
  /// True when this trial's advice was served precomputed rather than via
  /// a fresh advise() call.
  bool advice_cached = false;
  /// Infrastructure failure captured by BatchRunner's per-trial isolation:
  /// the exception text of whatever the trial threw (advise(), engine
  /// precondition, behavior construction). Empty for trials that ran to a
  /// RunResult — including runs that merely failed the task.
  std::string error;
  /// How many times the trial executed: 1 + retries consumed. Always >= 1.
  std::uint32_t attempts = 1;
  RunResult run;

  /// The task was solved: the run completed with every node informed and
  /// no violation (RunStatus::kCompleted subsumes all three checks).
  bool ok() const {
    return error.empty() && run.status == RunStatus::kCompleted;
  }
  /// The trial itself broke (exception / crash), as opposed to the scheme
  /// failing the task under faults. failed() trials carry no valid run.
  bool failed() const { return !error.empty(); }
  std::string summary() const;
};

/// Runs `algorithm` using `oracle` on network g from `source`.
/// When the algorithm reports is_wakeup(), the wakeup constraint is
/// enforced automatically (a violation fails the report).
/// A thin single-trial wrapper over BatchRunner (core/batch_runner.h);
/// experiment sweeps should build TrialSpecs and batch them instead.
TaskReport run_task(const PortGraph& g, NodeId source, const Oracle& oracle,
                    const Algorithm& algorithm,
                    RunOptions options = RunOptions{});

}  // namespace oraclesize
