// Structured run tracing: every event of an execution as an auditable,
// replayable record.
//
// The paper's statements are *counting* statements — messages versus oracle
// bits (Thm 2.1/2.2, Thm 3.1/3.2) — and until now the engine only surfaced
// end-of-run aggregates, so a wrong count could be detected but never
// localized. This header turns a run into an event stream: every send,
// delivery, fault decision, crash, informed-transition, and advice read is
// emitted through a TraceSink hook on RunOptions, stamped with the
// scheduler's logical clock (`key`) and the fault plan's counter keys
// (`seq`, `link` — the exact coordinates sim/fault_plan.h keys its
// decisions on). The stream is deterministic for fixed inputs, so:
//
//  * a RecordedTrace is a self-contained artifact — it embeds the network,
//    the advice, and the run configuration, enough to re-execute the run
//    from scratch (core/replay.h) and demand a bit-identical stream;
//  * a 64-bit FNV digest over the stream pins an execution in one number
//    (golden tests commit digests, not megabytes of events);
//  * the stream exports to Chrome's trace_event JSON for visual audit
//    (chrome://tracing, Perfetto).
//
// Cost contract: a null RunOptions::trace_sink is ZERO-cost — the engine
// pays one branch per event group and allocates nothing
// (tests/test_zero_alloc.cpp still audits the steady state). A non-null
// sink makes the run an observability run; recorders may allocate freely.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace oraclesize {

/// What happened. kSend..kDeadDelivery are message-level events (always
/// recorded); kInformed/kAdviceRead are node-state events (recorded only at
/// TraceLevel::kFull).
enum class TraceEventKind : std::uint8_t {
  kSend,          ///< node submitted a message (counted even if dropped)
  kDeliver,       ///< message handed to the receiver's scheme
  kDrop,          ///< fault plan dropped the message at submit time
  kDuplicate,     ///< fault plan duplicated the message
  kDelay,         ///< fault plan added extra delay (aux = extra key units)
  kCrash,         ///< node is crash-stop scheduled (key = crash key)
  kDeadDelivery,  ///< delivery suppressed: receiver already crashed
  kInformed,      ///< node transitioned to informed (the paper's predicate)
  kAdviceRead,    ///< node's advice string bound at arm time (aux = bits)
  kForge,         ///< Byzantine rewrite of outgoing content (aux = payload)
  kEquivocate,    ///< forged content keyed per link within one send batch
  kReplayAttack,  ///< forged content served from the stale replay buffer
  kAdviceLie,     ///< per-link persistent advice lie (no content forge)
};

const char* to_string(TraceEventKind kind);

/// Event granularity. kMessages keeps only message/fault events (compact);
/// kFull adds the node-state transitions and advice reads.
enum class TraceLevel : std::uint8_t { kMessages, kFull };

const char* to_string(TraceLevel level);

/// One event. Every field is integral, so streams hash and serialize
/// identically on every platform.
struct TraceEvent {
  std::int64_t key = 0;    ///< scheduler logical clock of the event
  std::uint64_t seq = 0;   ///< global send sequence (fault counter key)
  std::uint64_t link = 0;  ///< dense directed-link index (fault counter key)
  std::uint64_t aux = 0;   ///< kind-specific: bits on wire, extra delay, ...
  NodeId node = kNoNode;   ///< acting node (sender / receiver / advisee)
  NodeId peer = kNoNode;   ///< far endpoint, when the event has one
  Port port = kNoPort;     ///< acting node's local port, when meaningful
  TraceEventKind kind = TraceEventKind::kSend;
  MsgKind msg = MsgKind::kControl;  ///< message tag for message events
  bool flag = false;  ///< kSend: sender informed; kAdviceRead: corrupted

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Renders one event as the trace file's `e ...` line payload (also the
/// shape `trace diff` prints).
std::string to_string(const TraceEvent& event);

/// The run configuration a trace was recorded under — everything replay
/// needs besides the graph and the advice. deadline_ns is deliberately NOT
/// carried: it is the one machine-dependent RunOptions knob, and replay
/// only promises bit-identity for deterministic runs.
struct TraceHeader {
  std::string algorithm;  ///< Algorithm::name(), resolved by core/replay.h
  std::string oracle;     ///< informational; empty when unknown
  NodeId source = 0;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;
  std::uint32_t max_delay = 16;
  std::uint64_t max_messages = 50'000'000;
  std::uint64_t max_events = 0;
  bool enforce_wakeup = false;
  bool anonymous = false;
  FaultPlanParams fault;
  /// Byzantine regime the run was recorded under. Serialized only when
  /// enabled(), so pre-adversary trace files load unchanged.
  AdversaryPlanParams adversary;
  TraceLevel level = TraceLevel::kFull;

  /// Rebuilds the RunOptions this header describes (no sink attached).
  RunOptions to_run_options() const;

  friend bool operator==(const TraceHeader&, const TraceHeader&) = default;
};

/// A complete recorded execution: configuration, inputs, event stream, and
/// outcome. Self-contained — save/load round-trips through a line-oriented
/// text format (version tag `oracletrace 1`).
struct RecordedTrace {
  TraceHeader header;
  std::string graph_text;  ///< graph/io.h text serialization of the network
  std::vector<BitString> advice;  ///< the ORIGINAL (pre-corruption) advice
  std::vector<TraceEvent> events;
  RunStatus status = RunStatus::kCompleted;
  Metrics metrics;
  FaultCounters faults;
  AdversaryCounters adversary;

  /// FNV-1a over the event stream, the status, the metrics, and the fault
  /// counters. Pure integer arithmetic: stable across platforms/compilers.
  /// Adversary counters fold in only when nonzero, so every pre-Byzantine
  /// golden digest is unchanged.
  std::uint64_t digest() const;
};

/// Serializes / parses the `oracletrace 1` text format. load_trace throws
/// std::runtime_error with a line diagnostic on malformed input.
void save_trace(std::ostream& os, const RecordedTrace& trace);
RecordedTrace load_trace(std::istream& is);

/// Exports the stream as Chrome trace_event JSON ("traceEvents" array,
/// ts = scheduler key in microseconds, tid = acting node) for
/// chrome://tracing / Perfetto.
void write_chrome_trace(std::ostream& os, const RecordedTrace& trace);

/// Everything the engine knows at the moment a traced run starts. Pointers
/// are valid only for the duration of the begin_run call.
struct TraceRunInfo {
  const PortGraph* graph = nullptr;
  const std::vector<BitString>* advice = nullptr;  ///< original advice
  NodeId source = 0;
  std::string algorithm;
  const RunOptions* options = nullptr;
};

/// The engine-side hook. Implementations must tolerate begin_run being
/// called again after a previous run (retried trials re-enter the sink;
/// recorders reset and keep the LAST run).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin_run(const TraceRunInfo& info) = 0;
  virtual void record(const TraceEvent& event) = 0;
  virtual void end_run(const RunResult& result) = 0;
};

/// The standard sink: captures a RecordedTrace, filtering node-state events
/// at TraceLevel::kMessages. Not thread-safe; attach one recorder per
/// concurrently-running trial (BatchRunner copies the spec's options, so a
/// per-spec recorder is touched only by the worker that claimed the spec).
class TraceRecorder : public TraceSink {
 public:
  explicit TraceRecorder(TraceLevel level = TraceLevel::kFull)
      : level_(level) {}

  void begin_run(const TraceRunInfo& info) override;
  void record(const TraceEvent& event) override;
  void end_run(const RunResult& result) override;

  /// True once end_run has sealed the trace of the most recent run.
  bool complete() const noexcept { return complete_; }

  /// The sealed trace. Call only when complete().
  const RecordedTrace& trace() const { return trace_; }

  /// Moves the sealed trace out, resetting the recorder.
  RecordedTrace take();

 private:
  TraceLevel level_;
  RecordedTrace trace_;
  bool complete_ = false;
};

}  // namespace oraclesize
