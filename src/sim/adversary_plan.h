// Deterministic Byzantine adversary injection for the execution engine.
//
// sim/fault_plan.h models a *benign* misbehaving network: messages are
// lost, duplicated, delayed, nodes crash-stop, advice bits flip at random.
// This header models the stronger adversary the paper's lower bounds are
// really about (the Lemma 2.1 game is adversarial, not stochastic): a
// seeded colluding set of LYING nodes whose outgoing messages are actively
// forged. Three lie mechanisms are supported, each separately tunable and
// separately counted:
//
//  * forging — a lying node's outgoing message content (kind / payload /
//    items) is rewritten by a ByzantineStrategy: uniformly random bits,
//    stale payloads replayed from a bounded buffer of genuine traffic the
//    colluding set has observed, or structured lies (wrong parent / port
//    claims, suppressed source marks) aimed at the tree tasks;
//  * equivocation — within one logical send (one on_start / on_receive
//    batch) the forged content is additionally keyed per link, so
//    different neighbors receive *different* content from the same
//    logical transmission;
//  * inconsistent advice — a per-link PERSISTENT payload distortion keyed
//    on (seed, link) only: each neighbor of a lying node sees an
//    internally-consistent but divergent view of what the node claims its
//    advice told it. Unlike FaultPlan's advice_flip (random bit noise at
//    arm time, visible to the node itself), these lies are targeted and
//    consistent per link — the receiving side can never reconcile them by
//    re-reading.
//
// Ground truth is never forged: the engine's `sender_informed` bookkeeping
// (the paper's informing predicate) rides outside the message, so a forged
// kSource from an uninformed Byzantine node can fool the receiving
// *behavior* but never truly informs the receiver.
//
// Determinism mirrors FaultPlan exactly: every decision is a pure function
// of (plan seed, event coordinates) via SplitMix64 counter keying —
// colluding-set membership on (seed, node), forge/equivocation decisions on
// (seed, node, logical send group), forged content on (seed, group [, link
// when equivocating]), advice lies on (seed, link). The replay buffer is
// filled in delivery order, which is itself deterministic for a fixed run,
// and Byzantine runs always execute on the scalar engine (the seed-batched
// engine routes them there), so the same (seed, graph, params) reproduces
// the same Byzantine execution at any --jobs.
//
// A disabled plan (`enabled() == false`: no rate, no explicit node count)
// is never consulted: the run takes the legacy reliable path bit for bit
// and allocation-free (pinned by tests/test_goldens.cpp
// ZeroAdversaryPlanIsInvisible and tests/test_zero_alloc.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/port_graph.h"
#include "sim/message.h"

namespace oraclesize {

/// How a lying node rewrites its outgoing messages.
enum class ByzantineStrategy : std::uint8_t {
  kRandomBits,     ///< kind and payload drawn uniformly at random
  kReplay,         ///< stale genuine payloads from the bounded replay buffer
  kStructuredLie,  ///< wrong parent/port claims; kSource demoted to kHello
};

const char* to_string(ByzantineStrategy strategy);

/// The (seed, colluding set, lie mechanism) tuple describing one Byzantine
/// regime. The zero plan (no rate, no node count) is the honest network.
struct AdversaryPlanParams {
  std::uint64_t seed = 0;  ///< adversary randomness; independent of all others
  /// Per-node probability of joining the colluding set. Ignored when
  /// byz_nodes > 0 (an explicit count takes precedence).
  double byz_rate = 0.0;
  /// Explicit colluding-set size: exactly min(byz_nodes, eligible nodes)
  /// lying nodes are sampled without replacement. 0 = use byz_rate.
  std::uint32_t byz_nodes = 0;
  bool byz_source = false;  ///< when false, the source never lies
  ByzantineStrategy strategy = ByzantineStrategy::kRandomBits;
  /// Per-logical-send probability that a lying node forges the batch.
  double forge = 1.0;
  /// Given a forged batch, probability the node equivocates: forged content
  /// is re-keyed per link, so each neighbor receives different content.
  double equivocate = 0.35;
  /// Per-link probability that a lying node serves that neighbor a
  /// persistent, internally-consistent payload lie (inconsistent advice).
  double advice_lie = 0.25;
  /// Bounded replay buffer (kReplay): at most this many genuine messages
  /// observed by the colluding set are retained for replaying.
  std::uint32_t replay_window = 16;

  /// True when any node can lie. A disabled plan is never consulted by the
  /// engine — the zero plan costs nothing and changes nothing.
  bool enabled() const noexcept { return byz_rate > 0 || byz_nodes > 0; }

  friend bool operator==(const AdversaryPlanParams&,
                         const AdversaryPlanParams&) = default;
};

/// What the adversary did to one run — reported next to FaultCounters so
/// robustness experiments can treat Byzantine impact as data.
struct AdversaryCounters {
  std::uint64_t lying_nodes = 0;     ///< colluding-set size this run
  std::uint64_t forged = 0;          ///< messages with rewritten content
  std::uint64_t equivocated = 0;     ///< forged messages keyed per link
  std::uint64_t replayed = 0;        ///< forgeries served from the buffer
  std::uint64_t structured_lies = 0; ///< wrong parent/port claim forgeries
  std::uint64_t advice_lies = 0;     ///< per-link persistent payload lies

  friend bool operator==(const AdversaryCounters&,
                         const AdversaryCounters&) = default;
};

/// An AdversaryPlanParams expanded against a concrete run: colluding-set
/// membership is materialized per node at arm time; forge decisions are
/// answered on demand from the counter keying above. Reusable across runs
/// (arm() re-expands without releasing storage), mirroring FaultPlan.
class AdversaryPlan {
 public:
  /// What one forge() call did to the message it was given.
  struct ForgeOutcome {
    bool forged = false;       ///< content was rewritten
    bool equivocated = false;  ///< content was keyed per link
    bool replayed = false;     ///< content came from the replay buffer
    bool structured = false;   ///< content is a structured wrong claim
    bool advice_lie = false;   ///< the per-link persistent lie applied
  };

  /// Expands `params` for a run over `num_nodes` nodes rooted at `source`.
  void arm(const AdversaryPlanParams& params, std::size_t num_nodes,
           NodeId source);

  /// True when node v is in the colluding set.
  bool lying(NodeId v) const noexcept {
    return !lying_.empty() && lying_[v] != 0;
  }

  std::uint64_t num_lying() const noexcept { return num_lying_; }

  /// Feeds the bounded replay buffer: the engine calls this for every
  /// message delivered to a lying node (the colluding set shares what any
  /// member observes). Beyond replay_window entries the oldest is evicted.
  void observe(const Message& msg);

  std::size_t replay_buffer_size() const noexcept { return replay_.size(); }

  /// Rewrites `msg` in place according to the armed strategy. `group`
  /// identifies the logical send batch (one behavior invocation), `link`
  /// the dense directed-link index, `degree` the sender's degree (bounds
  /// structured port claims). Pure in (params, group, link) plus the
  /// deterministic replay-buffer state; returns what happened.
  ForgeOutcome forge(NodeId v, std::uint64_t group, std::uint64_t link,
                     std::size_t degree, Message& msg);

 private:
  AdversaryPlanParams params_;
  std::vector<char> lying_;  ///< empty when the plan is disabled
  std::uint64_t num_lying_ = 0;
  std::vector<Message> replay_;  ///< bounded ring of observed messages
  std::uint64_t observed_ = 0;   ///< total observe() calls (ring cursor)
};

}  // namespace oraclesize
