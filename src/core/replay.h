// Deterministic replay: re-execute a RecordedTrace and demand bit-identity.
//
// A trace (sim/trace_recorder.h) is self-contained: it embeds the network,
// the original advice, and the run configuration. Replay rebuilds all three,
// resolves the algorithm by its recorded name (core/task_registry.h), plays
// the run through a fresh ExecutionContext with a fresh TraceRecorder
// attached, and compares the re-recorded trace against the original — event
// stream, final RunStatus, Metrics, and FaultCounters, all bit for bit.
//
// This is the determinism contract made executable: if a code change (or a
// different machine, worker count, or context-reuse history) alters ANY
// observable of a run, replay localizes the first divergent event instead of
// merely flipping an aggregate. tests/test_trace_replay.cpp round-trips all
// six core algorithms through save/load/replay; `oraclesize_cli trace
// replay` does the same from the command line.
#pragma once

#include <string>
#include <vector>

#include "sim/trace_recorder.h"

namespace oraclesize {

/// The outcome of re-executing one trace.
struct ReplayReport {
  RecordedTrace replayed;  ///< the re-recorded execution
  bool match = false;      ///< streams, status, metrics, faults all equal
  /// Human-readable differences (empty when match). The first entry
  /// localizes the divergence: a differing event index, a status flip, or
  /// a metric delta.
  std::vector<std::string> mismatches;
};

/// Re-executes `trace` from its embedded inputs and compares. Throws
/// std::runtime_error when the trace cannot be replayed at all (unknown
/// algorithm, malformed graph text, advice/node-count mismatch).
ReplayReport replay_trace(const RecordedTrace& trace);

/// Structural comparison of two traces (replay uses this too).
struct TraceDiff {
  bool equal = false;
  std::vector<std::string> differences;
};

/// Compares headers, inputs, event streams, and outcomes. The event-stream
/// report names the first divergent index and renders both events; length
/// mismatches report the first unmatched event.
TraceDiff diff_traces(const RecordedTrace& a, const RecordedTrace& b);

}  // namespace oraclesize
