// Deterministic fault injection for the execution engine.
//
// The paper's upper bounds (Thm 2.1, Thm 3.1) are proved for asynchronous
// but *reliable* networks. To ask how the schemes degrade when the network
// misbehaves — links that lose, duplicate, or delay messages; nodes that
// crash-stop; advice strings corrupted in transit from the oracle — the
// engine accepts a FaultPlanParams inside RunOptions and expands it into a
// per-run fault schedule.
//
// Determinism is the design constraint. Every fault decision is a pure
// function of (plan seed, event coordinates):
//
//  * message faults (drop / duplicate / extra delay) are keyed on the
//    message's global send sequence number and its directed-link index —
//    counter-based RNG, no draw-order dependence;
//  * the crash-stop schedule is keyed per node id;
//  * advice corruption is keyed per (node id, stream of its bits).
//
// Consequently the same (seed, graph, params) tuple reproduces the same
// faulty execution under any worker count, and a plan whose probabilities
// are all zero (`enabled() == false`) takes the legacy code path — runs
// are bit-identical to a build without the fault layer (pinned by
// tests/test_goldens.cpp and tests/test_fault_plan.cpp).
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <vector>

#include "bitio/bitstring.h"
#include "graph/port_graph.h"

namespace oraclesize {

/// The (seed, probabilities) tuple describing one fault regime. All
/// probabilities are per-event Bernoulli rates in [0, 1]; the zero plan is
/// the reliable network.
struct FaultPlanParams {
  std::uint64_t seed = 0;   ///< fault randomness; independent of RunOptions::seed
  double drop = 0.0;        ///< per-message loss probability
  double duplicate = 0.0;   ///< per-message duplication probability
  double delay = 0.0;       ///< per-message extra-delay probability
  std::uint32_t max_extra_delay = 8;  ///< extra delay drawn in [1, max]
  double crash = 0.0;       ///< per-node crash-stop probability
  std::uint32_t max_crash_key = 8;    ///< crash keys drawn in [0, max]
  bool crash_source = false;  ///< when false, the source never crashes
  double advice_flip = 0.0;   ///< per-bit advice corruption probability

  /// True when any fault can occur. A disabled plan is never consulted by
  /// the engine — the zero plan costs nothing and changes nothing.
  bool enabled() const noexcept {
    return drop > 0 || duplicate > 0 || delay > 0 || crash > 0 ||
           advice_flip > 0;
  }

  friend bool operator==(const FaultPlanParams&,
                         const FaultPlanParams&) = default;
  friend auto operator<=>(const FaultPlanParams&,
                          const FaultPlanParams&) = default;
};

/// What the faults did to one run — reported next to Metrics so robustness
/// experiments can treat fault impact as data.
struct FaultCounters {
  std::uint64_t dropped = 0;     ///< messages lost in transit
  std::uint64_t duplicated = 0;  ///< messages delivered twice
  std::uint64_t delayed = 0;     ///< messages given extra delay
  std::uint64_t crashed_nodes = 0;     ///< nodes in the crash-stop set
  std::uint64_t dead_deliveries = 0;   ///< deliveries suppressed at crashed nodes
  std::uint64_t advice_bits_flipped = 0;  ///< corrupted advice bits

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

/// A FaultPlanParams expanded against a concrete run: the crash schedule is
/// materialized per node, message faults are answered on demand from the
/// counter-based keying above. Reusable across runs (arm() re-expands
/// without releasing storage), mirroring ExecutionContext's reuse contract.
class FaultPlan {
 public:
  /// Sentinel crash key for nodes that never crash.
  static constexpr std::int64_t kNoCrash =
      std::numeric_limits<std::int64_t>::max();

  /// The fate of one message: evaluated once at submit time.
  struct MessageFault {
    bool drop = false;
    bool duplicate = false;
    std::uint32_t extra_delay = 0;
  };

  /// Expands `params` for a run over `num_nodes` nodes rooted at `source`.
  void arm(const FaultPlanParams& params, std::size_t num_nodes,
           NodeId source);

  /// True when any per-message fault (drop/duplicate/delay) can occur.
  bool message_faults() const noexcept { return message_faults_; }

  /// Fault decision for the message with global send number `seq` on the
  /// dense directed-link index `link`. Pure in (params, seq, link).
  MessageFault message_fault(std::uint64_t seq, std::uint64_t link) const;

  /// The seed-independent half of the message keying: one mix chain over
  /// (seq, link), shared by every plan consulted about the same message.
  /// The seed-batched executor (sim/seed_batch_engine.h) computes this once
  /// per message and asks each lane's plan via message_fault_prekeyed, so an
  /// R-lane fault mask costs one shared chain plus one mix per lane instead
  /// of R full chains. message_fault(seq, link) is defined as
  /// message_fault_prekeyed(message_prekey(seq, link)) — bit-identical.
  static std::uint64_t message_prekey(std::uint64_t seq,
                                      std::uint64_t link) noexcept;

  /// message_fault with the (seq, link) half of the keying precomputed.
  MessageFault message_fault_prekeyed(std::uint64_t prekey) const;

  /// Scheduler key at which node v crash-stops (it processes events with
  /// key strictly below this); kNoCrash for healthy nodes.
  std::int64_t crash_key(NodeId v) const noexcept {
    return crash_at_.empty() ? kNoCrash : crash_at_[v];
  }

  std::uint64_t num_crashed() const noexcept { return num_crashed_; }

  bool corrupts_advice() const noexcept { return params_.advice_flip > 0; }

  /// Writes a bit-flipped copy of `in` into `out` (cleared first) and
  /// returns the number of flipped bits. The input is never modified —
  /// batched trials share immutable advice vectors.
  std::uint64_t corrupt_advice(const std::vector<BitString>& in,
                               std::vector<BitString>& out) const;

  /// True when corrupt_advice(in, ...) would flip at least one bit. Draws
  /// the same per-(node, bit) decisions as corrupt_advice but stops at the
  /// first flip and writes nothing — the seed-batched executor's cheap
  /// "does this lane's advice stay clean?" eligibility probe.
  bool corrupts_any_bit(const std::vector<BitString>& in) const;

 private:
  FaultPlanParams params_;
  bool message_faults_ = false;
  std::vector<std::int64_t> crash_at_;  ///< empty when crash == 0
  std::uint64_t num_crashed_ = 0;
};

}  // namespace oraclesize
