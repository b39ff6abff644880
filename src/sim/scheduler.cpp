#include "sim/scheduler.h"

#include <cassert>

#include "lowerbound/counting_adversary.h"

namespace oraclesize {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "sync";
    case SchedulerKind::kAsyncRandom:
      return "async-random";
    case SchedulerKind::kAsyncFifo:
      return "async-fifo";
    case SchedulerKind::kAsyncLifo:
      return "async-lifo";
    case SchedulerKind::kAsyncLinkFifo:
      return "async-link-fifo";
    case SchedulerKind::kAsyncAdversarial:
      return "async-adversarial";
  }
  return "unknown";
}

namespace {

// Domain-separation tag for delivery prekeys — the scheduler's sibling of
// FaultPlan's kMessageTag, so enabling faults never perturbs delays and
// vice versa.
constexpr std::uint64_t kDelayTag = 0x64656c6179ULL;  // "delay"

}  // namespace

Scheduler::Scheduler(SchedulerKind kind, std::uint64_t seed,
                     std::uint32_t max_delay)
    : kind_(kind),
      seed_(seed),
      max_delay_(max_delay == 0 ? 1 : max_delay) {}

Scheduler::~Scheduler() = default;

std::uint64_t Scheduler::delivery_prekey(std::uint64_t seq,
                                         std::uint64_t link) noexcept {
  return mix64(kDelayTag ^ mix64(seq ^ mix64(link)));
}

std::uint32_t Scheduler::counter_delay(std::uint64_t seed,
                                       std::uint64_t prekey,
                                       std::uint32_t max_delay) noexcept {
  if (max_delay == 0) max_delay = 1;
  return static_cast<std::uint32_t>(mix64(seed ^ prekey) % max_delay);
}

void Scheduler::reset(SchedulerKind kind, std::uint64_t seed,
                      std::uint32_t max_delay, std::size_t num_links) {
  kind_ = kind;
  seed_ = seed;
  max_delay_ = max_delay == 0 ? 1 : max_delay;
  link_clock_.assign(kind == SchedulerKind::kAsyncLinkFifo ? num_links : 0,
                     0);
  probes_ = 0;
  if (kind == SchedulerKind::kAsyncAdversarial) {
    // Every directed link is a candidate edge; one in four is special —
    // enough specials that the adversary's majority answers keep pressure
    // on throughout the run, few enough that special status stays scarce.
    num_candidates_ = num_links == 0 ? 1 : num_links;
    link_state_.assign(num_candidates_, 0);
    const std::size_t specials =
        num_candidates_ / 4 == 0 ? 1 : num_candidates_ / 4;
    adversary_ = std::make_unique<CountingAdversary>(
        EdgeDiscoveryProblem{num_candidates_, specials});
  } else {
    // No deallocation on the common path: link_state_ keeps its capacity,
    // and the adversary (heap state) is only dropped if one was armed.
    num_candidates_ = 0;
    link_state_.clear();
    adversary_.reset();
  }
}

std::int64_t Scheduler::delivery_key(std::int64_t now, std::uint64_t seq,
                                     std::uint64_t link) {
  switch (kind_) {
    case SchedulerKind::kSynchronous:
      return now + 1;
    case SchedulerKind::kAsyncRandom: {
      const std::int64_t delay = static_cast<std::int64_t>(
          counter_delay(seed_, delivery_prekey(seq, link), max_delay_));
      return now + 1 + delay;
    }
    case SchedulerKind::kAsyncFifo:
      return static_cast<std::int64_t>(seq);
    case SchedulerKind::kAsyncLifo:
      return -static_cast<std::int64_t>(seq);
    case SchedulerKind::kAsyncLinkFifo: {
      // Random per-message delay, clamped so this link's deliveries stay in
      // send order (FIFO channel), while distinct links race freely.
      const std::int64_t delay = static_cast<std::int64_t>(
          counter_delay(seed_, delivery_prekey(seq, link), max_delay_));
      const std::int64_t candidate = now + 1 + delay;
      assert(link < link_clock_.size() &&
             "reset() must size the link-clock table to cover every link");
      std::int64_t& clock = link_clock_[link];
      clock = (candidate > clock) ? candidate : clock + 1;
      return clock;
    }
    case SchedulerKind::kAsyncAdversarial: {
      // Online Lemma 2.1: a link's first use probes the edge-discovery
      // adversary, whose majority answer decides whether the link is
      // "special" (a channel the scheme must discover → starved at twice
      // the regular penalty). Subsequent uses keep the verdict: special
      // links stay slow, regular links settle to the fast lane. No RNG is
      // consumed, so the schedule is a pure function of the probe history.
      if (link >= link_state_.size()) link_state_.resize(link + 1, 0);
      std::uint8_t& st = link_state_[link];
      if (st == 0) {
        bool special = false;
        if (adversary_ && !adversary_->resolved() &&
            probes_ < num_candidates_) {
          special = adversary_->answer(static_cast<std::size_t>(probes_))
                        .special;
          ++probes_;
        }
        st = special ? 2 : 1;
        const std::int64_t delay = static_cast<std::int64_t>(max_delay_);
        return now + 1 + (special ? 2 * delay : delay);
      }
      return st == 2 ? now + 1 + static_cast<std::int64_t>(max_delay_)
                     : now + 1;
    }
  }
  return now + 1;
}

}  // namespace oraclesize
