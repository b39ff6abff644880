// Test helper: one ExecutionContext run observed through a TraceRecorder.
// Determinism tests compare TracedRuns, so the recorded event streams must
// match along with the RunResults.
#pragma once

#include <utility>
#include <vector>

#include "sim/execution_context.h"
#include "sim/trace_recorder.h"

namespace oraclesize {

struct TracedRun {
  RunResult run;
  std::vector<TraceEvent> events;

  friend bool operator==(const TracedRun&, const TracedRun&) = default;
};

/// Runs `options` on `context` with a TraceLevel::kMessages recorder
/// attached (any sink already on `options` is replaced).
inline TracedRun run_traced(ExecutionContext& context, const PortGraph& g,
                            NodeId source,
                            const std::vector<BitString>& advice,
                            const Algorithm& algorithm, RunOptions options) {
  TraceRecorder recorder(TraceLevel::kMessages);
  options.trace_sink = &recorder;
  RunResult run = context.run(g, source, advice, algorithm, options);
  return {std::move(run), recorder.take().events};
}

}  // namespace oraclesize
