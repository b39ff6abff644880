// Delivery-order policies for the simulator.
//
// The paper's upper bounds hold under *total asynchrony* (any finite delay,
// any interleaving) and the lower bounds already hold synchronously, so the
// engine supports both extremes plus randomized and adversarial middles:
//
//  * kSynchronous — classic rounds: everything sent in round t arrives in
//    round t+1, deliveries within a round in send order.
//  * kAsyncRandom — each message independently delayed by 1..max_delay
//    (seeded), modelling a benign asynchronous network. The delay is a pure
//    function of (seed, seq, link) via the same SplitMix64 counter keying
//    FaultPlan uses for fault decisions: no draw-order stream is consumed,
//    so a message's delivery key depends only on shared per-message state
//    plus the seed — which is what lets the seed-batch executor serve many
//    scheduler seeds from one lockstep pass.
//  * kAsyncFifo — one global FIFO: strictly ordered, single delivery at a
//    time (a degenerate but legal asynchronous executive).
//  * kAsyncLifo — adversarial: always delivers the *most recently sent*
//    pending message first. This is the schedule that exposes
//    hello-after-M races in broadcast scheme B (DESIGN.md deviation #4).
//  * kAsyncLinkFifo — messages on the same directed link arrive in send
//    order (the classic asynchronous message-passing model with FIFO
//    channels), but different links race with independent random delays.
//  * kAsyncAdversarial — the Lemma 2.1 game played online: each directed
//    link's first use is a *probe* answered by the edge-discovery
//    CountingAdversary (lowerbound/counting_adversary.h), and links the
//    adversary marks special are slowed twice as hard as regular ones.
//    The adversary answers by majority to keep the active instance family
//    large, so the links it deems load-bearing — the ones a scheme must
//    discover — are exactly the ones it starves. Fully deterministic: no
//    RNG stream is consumed, every key is a pure function of the probe
//    history, which is itself a function of the execution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace oraclesize {

class CountingAdversary;  // lowerbound/counting_adversary.h

enum class SchedulerKind {
  kSynchronous,
  kAsyncRandom,
  kAsyncFifo,
  kAsyncLifo,
  kAsyncLinkFifo,
  kAsyncAdversarial,
};

const char* to_string(SchedulerKind kind);

/// Inverse of to_string(SchedulerKind); throws std::invalid_argument
/// naming an unknown scheduler.
SchedulerKind scheduler_kind_by_name(const std::string& name);

/// Computes the priority key under which a message becomes deliverable.
/// Lower keys deliver first; ties broken by sequence number (FIFO).
class Scheduler {
 public:
  Scheduler(SchedulerKind kind, std::uint64_t seed, std::uint32_t max_delay);
  ~Scheduler();  // out-of-line: unique_ptr of a forward-declared type

  /// Re-arms the scheduler for a fresh run without releasing the link-clock
  /// storage. `num_links` sizes the per-link clock table up front (pass the
  /// number of directed (node, port) slots). For kAsyncLinkFifo it must
  /// cover every link id delivery_key will see — the hot path asserts
  /// instead of growing the table on demand.
  void reset(SchedulerKind kind, std::uint64_t seed, std::uint32_t max_delay,
             std::size_t num_links = 0);

  /// Key for a message sent with sequence number `seq` while the engine was
  /// processing an event with key `now` (0 for on_start sends). `link`
  /// identifies the directed channel as a dense index (the engine uses the
  /// graph's prefix-summed (node, port) offset); only kAsyncLinkFifo
  /// consults it.
  std::int64_t delivery_key(std::int64_t now, std::uint64_t seq,
                            std::uint64_t link);

  /// The seed-independent half of a counter-keyed delay: hash the
  /// per-message identity once, then derive any lane's delay with one more
  /// mix via counter_delay. Mirrors FaultPlan's message_prekey /
  /// message_fault_prekeyed split and exists for the same reason — the
  /// seed-batch executor hashes each message once and asks every
  /// still-active lane for its key.
  static std::uint64_t delivery_prekey(std::uint64_t seq,
                                       std::uint64_t link) noexcept;

  /// Counter-keyed delay in [0, max_delay) for one (seed, prekey) pair.
  /// max_delay == 0 is treated as 1, matching the constructor's clamp.
  static std::uint32_t counter_delay(std::uint64_t seed, std::uint64_t prekey,
                                     std::uint32_t max_delay) noexcept;

  SchedulerKind kind() const noexcept { return kind_; }

 private:
  SchedulerKind kind_;
  std::uint64_t seed_;
  std::uint32_t max_delay_;
  /// Flat per-link FIFO clock, indexed by the dense link id. Zero means
  /// "nothing delivered yet" — identical to the map-based default the
  /// original implementation relied on.
  std::vector<std::int64_t> link_clock_;

  /// kAsyncAdversarial state: the online Lemma 2.1 adversary, a per-link
  /// probe record (0 = unprobed, 1 = regular, 2 = special), and how many
  /// probes it has answered (it throws past resolution, so we guard).
  std::unique_ptr<CountingAdversary> adversary_;
  std::vector<std::uint8_t> link_state_;
  std::uint64_t probes_ = 0;
  std::size_t num_candidates_ = 0;
};

}  // namespace oraclesize
