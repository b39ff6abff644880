// Seed-batched lockstep execution: R seeds of one spec, one engine pass.
//
// Every statistical sweep in this repo (the BENCH_e13 fault grid, retry
// policies, tradeoff repeats) replays the same (graph, source, advice,
// algorithm, options) spec with only RunOptions::seed / fault.seed varying.
// ExecutionContext charges each of those R trials the full per-run price —
// event-queue traffic, behavior arming, per-node bookkeeping — even though
// under the deterministic fault keying most lanes take *exactly the same
// execution*. SeedBatchExecutionContext exploits that:
//
//  * faults are counter-keyed (sim/fault_plan.h): the fate of the message
//    with global send sequence `seq` on directed link `link` is a pure
//    function of (lane fault seed, seq, link), independent of draw order;
//  * the pure schedulers (kSynchronous, kAsyncFifo, kAsyncLifo) assign
//    delivery keys from (now, seq) alone, so two lanes whose fault
//    decisions all come up benign produce byte-for-byte the same event
//    stream — the CLEAN stream, the one a disabled plan follows;
//  * the counter-keyed seeded schedulers (kAsyncRandom, kAsyncLinkFifo)
//    assign keys that are pure in
//    (options.seed, seq, link), so `options.seed` becomes a lane axis too:
//    lanes are grouped into KEY CLASSES by scheduler seed, each class
//    carries its own EventQueue of index entries (plus link clocks and
//    key-valued outputs: completion_key, informed_at) over ONE shared slot
//    pool and ONE shared behavior plane. Each pop, the driver class's minimum
//    defines the delivery; every other class's minimum must name the same
//    message or that whole class retires to scalar replay — classes share
//    the pass exactly as long as their key orders agree, which they do
//    structurally whenever the pending set stays small (the scheduler seed
//    then only relabels keys without reordering pops);
//  * therefore ONE lockstep pass over the clean stream serves every lane
//    that stays benign on it. State is laid out struct-of-arrays across
//    lanes: one shared node/message state plane (the clean run) plus flat
//    per-lane arrays — armed FaultPlans, the compacted active-lane index
//    set, and dispositions. Per message the engine computes the
//    seed-independent fault prekey once and asks each still-active faulty
//    lane for its decision (one mix + at most three draws per lane, the
//    R-wide mask), and in keyed mode computes the seed-independent
//    delivery prekey once and derives each class's key with one more mix;
//    a lane whose decision is anything but benign RETIRES from the active
//    set on the spot. When every lane has retired the pass aborts early —
//    no wasted clean-stream tail.
//
// Why retirement means full scalar replay rather than per-lane patch-up: a
// single dropped message shifts that lane's global send-sequence stream,
// which decorrelates every later (seq, link)-keyed decision — after the
// first divergence the lane shares nothing bit-exact with the clean run,
// and behaviors are opaque (not clonable), so there is no cheaper resume
// point than the start. Hence a fallback-not-divergence policy: lanes the
// lockstep pass cannot serve — diverged
// lanes, key classes whose delivery order split from the driver's, lanes
// with a non-empty crash schedule or a materialized advice flip, or whole
// families using features the pass doesn't honor (the adversarial
// scheduler, trace sinks, wall-clock deadlines) — are
// REPLAYED on the scalar ExecutionContext, which is the definition of
// correct.
//
// Determinism contract: for every lane, the result handed back (the shared
// clean-run RunResult for lanes that stayed benign, the scalar replay
// otherwise) is bit-identical (RunResult::operator==) to what
// ExecutionContext::run produces for that lane's exact options. Pinned by
// tests/test_seed_batch_engine.cpp (40-seed fuzz across every algorithm)
// and enforced per bench row by tools/perf_gate.py.
//
// Throughput model: a family of R lanes with D divergent lanes costs one
// clean pass plus D scalar replays, so the speedup over R scalar runs is
// ~R/(1+D) — ~R× at fault rate 0 (the BENCH_perf_seedbatch gate rows) and
// honestly degrading toward 1× as the per-message fault rate times the
// message count approaches 1. The ratio is algorithmic (deduplication, not
// parallelism), so it holds on any host. In keyed mode a class pays only
// for the keys it computes before its first disagreement with the driver
// (SeedBatchStats::class_keys counts them): one mix plus one queue
// push/pop per message while it agrees. The on_start sends are recorded
// unkeyed; at the first pop the driver keys the whole start batch, and
// every other class keys it in send order only until the first entry its
// own keys order before the driver's first delivery — the entry that
// would have split it at that pop anyway. So a wide start batch (scheme B
// sends one message per node) costs the retiring classes a few keys each
// instead of n - 1, while a class that agrees pays the full batch. One
// class (every lane shares the scheduler seed, the e13 regime) costs what
// the scalar engine's own keying costs; many agreeing classes on a shallow
// pending set cost one key each per message; deep pending sets under many
// classes decay toward scalar via order-disagreement retirement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/execution_context.h"

namespace oraclesize {

/// How the last run_lockstep call used the machinery. Reported out-of-band
/// (never inside RunResult — result equality with the scalar engine is the
/// contract).
struct SeedBatchStats {
  std::uint32_t lanes = 0;     ///< lanes submitted
  std::uint32_t shared = 0;    ///< lanes served by the clean lockstep pass
  std::uint32_t replayed = 0;  ///< lanes needing a scalar replay
  std::uint64_t lockstep_events = 0;  ///< events the clean pass processed
  /// Per-class delivery keys computed in keyed mode (one per class per
  /// message it keyed) — the pass's scheduler work.
  std::uint64_t class_keys = 0;
  bool lockstep_ran = false;  ///< false when the family was ineligible

  friend bool operator==(const SeedBatchStats&,
                         const SeedBatchStats&) = default;
};

/// A reusable seed-batched engine. Like ExecutionContext, one instance
/// plays many families and retains its storage across them. Not
/// thread-safe: one SeedBatchExecutionContext per worker thread
/// (core/batch_runner.cpp gives each pool worker its own).
class SeedBatchExecutionContext {
 public:
  /// The two per-lane randomness overrides; every other RunOptions field is
  /// shared by the family (core/batch_runner.h's seed_family_key is exactly
  /// this split).
  struct Lane {
    std::uint64_t seed = 1;        ///< RunOptions::seed
    std::uint64_t fault_seed = 0;  ///< RunOptions::fault.seed
  };

  enum class LaneDisposition : std::uint8_t {
    kShared,  ///< served by the clean pass: result == the shared RunResult
    kReplay,  ///< must be re-run on the scalar engine with its exact options
  };

  /// True when a family under `base` can take the lockstep pass at all:
  /// the scheduler must assign delivery keys as a pure per-message function
  /// — every scheduler but kAsyncAdversarial qualifies (the seeded ones
  /// through counter-keyed delays). The run must not be observed (a trace
  /// sink) or race a wall clock (deadline_ns). Ineligible families replay
  /// every lane.
  static bool lockstep_eligible(const RunOptions& base) noexcept;

  /// One lockstep pass over the clean stream. `base` carries the family's
  /// shared options; lanes[i] overrides the two seeds. On return
  /// dispositions[i] says whether lane i is served by the pass (read its
  /// result via lane_result(i)) or must be replayed by the caller on a
  /// scalar ExecutionContext with (base + lanes[i]). The returned
  /// reference is the first served key class's view of the shared result —
  /// meaningful only while at least one lane is kShared, and only until
  /// the next run on this context; under counter-keyed seeded schedulers
  /// the key-valued fields (metrics.completion_key, informed_at) are
  /// per-class, so per-lane readers MUST use lane_result rather than the
  /// shared reference. Throws the scalar engine's precondition
  /// errors (advice size / source range); scheme-level behavior exceptions
  /// follow the scalar engine's fault semantics (absorbed into a
  /// kTaskFailed shared result for fault-enabled lanes, a replay for
  /// fault-disabled lanes, which rethrow scalar-style from their replays).
  const RunResult& run_lockstep(const PortGraph& g, NodeId source,
                                const std::vector<BitString>& advice,
                                const Algorithm& algorithm,
                                const RunOptions& base,
                                const std::vector<Lane>& lanes,
                                std::vector<LaneDisposition>& dispositions);

  /// Convenience: run_lockstep plus scalar replays on the embedded
  /// ExecutionContext, returning one RunResult per lane in lane order.
  /// Replays propagate exceptions exactly as ExecutionContext::run would
  /// for that lane. This is the whole-family equivalent of R scalar runs.
  std::vector<RunResult> run(const PortGraph& g, NodeId source,
                             const std::vector<BitString>& advice,
                             const Algorithm& algorithm,
                             const RunOptions& base,
                             const std::vector<Lane>& lanes);

  /// Lane i's view of the most recent run_lockstep's shared result: the
  /// shared plane patched with lane i's key class's completion_key,
  /// informed_at, and queue_depth_peak. Identity (a plain copy of the
  /// shared result) for the seed-independent schedulers. Meaningful only
  /// for lanes whose disposition is kShared.
  RunResult lane_result(std::size_t lane) const;

  /// Usage accounting of the most recent run_lockstep / run call.
  const SeedBatchStats& last_stats() const noexcept { return stats_; }

  /// The embedded scalar engine (used by run() for replays); exposed so a
  /// caller driving run_lockstep directly can reuse it.
  ExecutionContext& scalar() noexcept { return scalar_; }

 private:
  /// Mirrors ExecutionContext::arm_behaviors, including the reusable-pool
  /// bookkeeping, so a worker alternating between batched and scalar runs
  /// keeps zero steady-state behavior allocations.
  void arm_behaviors(std::size_t n, const Algorithm& algorithm);

  ExecutionContext scalar_;
  SeedBatchStats stats_;
  RunResult result_;  ///< the shared clean-run result (storage for the ref)

  // Clean-pass state, mirroring ExecutionContext's reuse discipline.
  std::vector<NodeInput> inputs_;
  std::vector<std::unique_ptr<NodeBehavior>> behaviors_;
  std::vector<Send> sends_;  ///< scratch sink, recycled per event
  EventHeap events_;
  std::vector<std::uint64_t> link_offset_;  ///< prefix sums of degrees

  // SoA lane plane: one armed plan per fault-enabled lane, plus the
  // compacted index set of lanes still answering the per-message mask.
  std::vector<FaultPlan> lane_plans_;
  std::vector<std::uint32_t> active_mask_lanes_;

  /// One scheduler-seed class for the counter-keyed seeded schedulers: the
  /// lanes sharing `seed`, a private index queue over the shared slot
  /// pool, the class's logical clock / link clocks, and the key-valued
  /// result fields the classes disagree on. SoA keys per class — the SoA
  /// storage the per-lane queues collapse into.
  struct KeyClass {
    std::uint64_t seed = 0;
    bool active = false;       ///< still agreeing with the driver's order
    std::uint32_t live = 0;    ///< kShared lanes still mapped to this class
    std::int64_t now = 0;              ///< key of the class's last pop
    std::int64_t completion_key = 0;
    std::vector<std::int64_t> link_clock;   ///< kAsyncLinkFifo only
    /// Per node; empty until the class survives its first pop.
    std::vector<std::int64_t> informed_at;
    EventQueue queue;  ///< last: its hot fields follow the class's own
  };
  static constexpr std::uint32_t kNoClass = ~0u;

  bool keyed_ = false;  ///< last pass used key classes
  std::vector<KeyClass> classes_;
  std::vector<std::uint32_t> lane_class_;  ///< lane -> class index / kNoClass
  /// Indices of the active classes, ascending: front() drives. Per-message
  /// loops walk this list, not every class.
  std::vector<std::uint32_t> active_classes_;

  /// One on_start send in keyed mode, recorded unkeyed: the classes key
  /// the start batch at the first pop (run_lockstep's key_start_batch).
  struct StartEntry {
    std::uint64_t seq;
    std::uint64_t prekey;  ///< Scheduler::delivery_prekey(seq, link)
    std::uint64_t link;
    std::size_t slot;
  };
  std::vector<StartEntry> start_batch_;

  std::string pool_algorithm_;
  std::size_t pool_count_ = 0;
};

}  // namespace oraclesize
