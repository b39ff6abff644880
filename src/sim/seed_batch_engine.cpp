#include "sim/seed_batch_engine.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace oraclesize {

bool SeedBatchExecutionContext::lockstep_eligible(
    const RunOptions& base) noexcept {
  switch (base.scheduler) {
    case SchedulerKind::kSynchronous:
    case SchedulerKind::kAsyncFifo:
    case SchedulerKind::kAsyncLifo:
      break;
    case SchedulerKind::kAsyncRandom:
    case SchedulerKind::kAsyncLinkFifo:
      // Counter-keyed delays are pure in (options.seed, seq, link), so
      // lanes batch as key classes.
      break;
    default:
      // kAsyncAdversarial's probe history is execution-dependent.
      return false;
  }
  // Byzantine families are ineligible outright: the replay buffer evolves
  // with delivery order, so lanes can't share a clean-stream pass. They
  // route to scalar replay (fallback-not-divergence), never diverge.
  return base.trace_sink == nullptr && base.deadline_ns == 0 &&
         !base.adversary.enabled();
}

const RunResult& SeedBatchExecutionContext::run_lockstep(
    const PortGraph& g, NodeId source, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& base,
    const std::vector<Lane>& lanes,
    std::vector<LaneDisposition>& dispositions) {
  const std::size_t n = g.num_nodes();
  if (advice.size() != n) {
    throw std::invalid_argument("run_execution: advice size != num nodes");
  }
  if (source >= n) throw std::invalid_argument("run_execution: bad source");

  stats_ = SeedBatchStats{};
  stats_.lanes = static_cast<std::uint32_t>(lanes.size());
  result_ = RunResult();
  keyed_ = false;
  lane_class_.assign(lanes.size(), kNoClass);
  dispositions.assign(lanes.size(), LaneDisposition::kShared);
  if (lanes.empty()) return result_;

  if (!lockstep_eligible(base)) {
    dispositions.assign(lanes.size(), LaneDisposition::kReplay);
    stats_.replayed = stats_.lanes;
    return result_;
  }
  stats_.lockstep_ran = true;

  // The fault rates are family-shared (only the seed is per-lane), so
  // either every lane runs a fault plan or none does — and likewise the
  // message-fault mask is armed for all enabled lanes or for none.
  const bool family_faulty = base.fault.enabled();
  std::uint32_t shared = static_cast<std::uint32_t>(lanes.size());
  active_mask_lanes_.clear();
  if (family_faulty) {
    lane_plans_.resize(lanes.size());
    for (std::uint32_t l = 0; l < lanes.size(); ++l) {
      FaultPlanParams params = base.fault;
      params.seed = lanes[l].fault_seed;
      lane_plans_[l].arm(params, n, source);
      // A lane leaves the clean stream the moment any fault materializes:
      // a scheduled crash or a flipped advice bit is known at arm time, so
      // such lanes retire before the pass even starts.
      if (lane_plans_[l].num_crashed() > 0 ||
          (lane_plans_[l].corrupts_advice() &&
           lane_plans_[l].corrupts_any_bit(advice))) {
        dispositions[l] = LaneDisposition::kReplay;
        --shared;
        continue;
      }
      if (lane_plans_[l].message_faults()) active_mask_lanes_.push_back(l);
    }
  }
  bool aborted = shared == 0;

  auto fail = [&](std::string what) {
    if (result_.violation.empty()) result_.violation = std::move(what);
  };

  // The pass runs on the scalar engine's node plane and behavior pool;
  // replays later re-bind and re-arm the same storage. Shared lanes read
  // the ORIGINAL advice: fault lanes that would have decoded a corrupted
  // copy retired at arm time, and a zero-flip copy is content-identical to
  // the original.
  scalar_.bind_run(g, source, advice, base.anonymous, result_);
  std::vector<NodeInput>& inputs = scalar_.inputs_;
  std::vector<std::unique_ptr<NodeBehavior>>& behaviors = scalar_.behaviors_;
  std::vector<Send>& scratch = scalar_.sends_;  // send sink, per event
  EventHeap& events = scalar_.events_;
  const std::vector<std::uint64_t>& link_offset = scalar_.link_offset_;

  // Counter-keyed seeded schedulers: group the surviving lanes into key
  // classes by scheduler seed. Each class gets its own queue / clocks /
  // key-valued outputs; everything else in the pass is shared. The
  // seed-independent schedulers skip all of this (keyed_ stays false) and
  // run the single-queue pass unchanged.
  const SchedulerKind kind = base.scheduler;
  const bool link_fifo = kind == SchedulerKind::kAsyncLinkFifo;
  keyed_ = kind == SchedulerKind::kAsyncRandom || link_fifo;
  active_classes_.clear();
  if (keyed_) {
    std::size_t used = 0;
    for (std::uint32_t l = 0; l < lanes.size(); ++l) {
      if (dispositions[l] != LaneDisposition::kShared) continue;
      // An earlier lane with the same seed names the class (scanning the
      // lanes, not the much larger KeyClass objects).
      std::size_t ci = used;
      for (std::uint32_t k = 0; k < l; ++k) {
        if (lane_class_[k] != kNoClass && lanes[k].seed == lanes[l].seed) {
          ci = lane_class_[k];
          break;
        }
      }
      if (ci == used) {
        if (classes_.size() <= used) classes_.emplace_back();
        KeyClass& c = classes_[used];
        c.seed = lanes[l].seed;
        c.active = true;
        c.live = 0;
        c.queue.clear();
        c.now = 0;
        c.completion_key = 0;
        if (link_fifo) {
          c.link_clock.assign(link_offset[n], 0);
        } else {
          c.link_clock.clear();
        }
        // Most classes retire at the first pop, so informed_at is filled
        // only once the class survives it (arm_informed_at).
        c.informed_at.clear();
        active_classes_.push_back(static_cast<std::uint32_t>(used));
        ++used;
      }
      ++classes_[ci].live;
      lane_class_[l] = static_cast<std::uint32_t>(ci);
    }
    classes_.resize(used);
  }

  // Behavior exceptions (advice decoders, scheme bugs) follow the scalar
  // engine's split: a fault-enabled lane absorbs them into a kTaskFailed
  // result, a fault-disabled lane propagates them from run(). The shared
  // pass always catches — on a fault-free family it then retires every
  // lane, whose scalar replays rethrow the exception canonically.
  auto drop_clean_lanes = [&]() {
    if (family_faulty) return;
    for (std::uint32_t l = 0; l < dispositions.size(); ++l) {
      dispositions[l] = LaneDisposition::kReplay;
    }
    shared = 0;
    aborted = true;
  };

  bool armed = true;
  if (!aborted) {
    try {
      scalar_.arm_behaviors(n, algorithm);
    } catch (const std::exception& e) {
      drop_clean_lanes();
      fail(ExecutionContext::format_behavior_exception(e.what()));
      armed = false;
    }
  }
  if (aborted || !armed) {
    if (!armed && shared > 0) {
      result_.terminated.assign(n, false);
      result_.outputs.assign(n, 0);
      result_.status = RunStatus::kTaskFailed;
    }
    stats_.shared = shared;
    stats_.replayed = stats_.lanes - shared;
    return result_;
  }

  events.clear();
  std::uint64_t seq = 0;
  bool budget_hit = false;
  // Keyed mode bypasses the event pool's own queue (classes carry their
  // own), so the pending count and its peak — the scalar engine's
  // queue-size trajectory — are tracked by hand.
  std::size_t pending = 0;
  std::size_t pending_peak = 0;
  // Keyed mode defers the on_start sends' per-class keys to the first pop
  // (start_batch_ records them unkeyed); see key_start_batch.
  bool starting = true;
  start_batch_.clear();

  const Endpoint* const csr = g.csr_endpoints();

  // The seed-independent schedulers are pure in (now, seq) — inlined here
  // so the clean pass carries no Scheduler state at all.
  auto delivery_key = [kind](std::int64_t now, std::uint64_t seq_in) {
    switch (kind) {
      case SchedulerKind::kAsyncFifo:
        return static_cast<std::int64_t>(seq_in);
      case SchedulerKind::kAsyncLifo:
        return -static_cast<std::int64_t>(seq_in);
      default:
        return now + 1;
    }
  };

  // Class c's delivery key for a message: c keys it with ITS OWN logical
  // clock (c.now is the key its scalar replica would pass as `now`) and,
  // under kAsyncLinkFifo, its own link clocks.
  auto class_key = [&](KeyClass& c, std::uint64_t prekey,
                       std::uint64_t link) {
    ++stats_.class_keys;
    std::int64_t key =
        c.now + 1 +
        static_cast<std::int64_t>(
            Scheduler::counter_delay(c.seed, prekey, base.max_delay));
    if (link_fifo) {
      std::int64_t& clock = c.link_clock[link];
      clock = (key > clock) ? key : clock + 1;
      key = clock;
    }
    return key;
  };

  // Fills class c's informed_at (the clean-run prefix: only the source is
  // informed before the first delivery).
  auto arm_informed_at = [&](KeyClass& c) {
    if (!c.informed_at.empty()) return;
    c.informed_at.assign(n, RunResult::kNeverInformed);
    c.informed_at[source] = 0;
  };

  // Keys the start batch for class c, in send order, into c's queue. With
  // `top` (the driver's first delivery) it stops at the first entry that c
  // orders before `top` and returns false: c's minimum is then not the
  // driver's, so c would split at the first pop — and c pays only for the
  // keys up to that entry. A class that agrees ends with exactly the queue
  // eager keying would have built.
  auto key_start_batch = [&](KeyClass& c, const EventQueue::Entry* top) {
    const std::int64_t floor = c.now + 1;  // no key is smaller
    std::int64_t below_top = std::numeric_limits<std::int64_t>::max();
    std::int64_t top_key = 0;
    bool past_top = top == nullptr;
    for (const StartEntry& s : start_batch_) {
      const std::int64_t key = class_key(c, s.prekey, s.link);
      if (!past_top) {
        if (s.seq == top->seq) {
          // Earlier entries order before `top` on a key tie (lower seq).
          if (below_top <= key) return false;
          top_key = key;
          past_top = true;
        } else {
          if (key == floor) return false;
          if (key < below_top) below_top = key;
        }
      } else if (top != nullptr && key < top_key) {
        return false;
      }
      c.queue.push({key, s.seq, s.slot});
    }
    return true;
  };

  // Drops classes that went inactive from active_classes_ (order kept, so
  // the lowest-index active class still drives).
  auto compact_active_classes = [&]() {
    std::erase_if(active_classes_,
                  [&](std::uint32_t ci) { return !classes_[ci].active; });
  };

  // Retires a whole key class (its delivery order split from the driver's,
  // or its last live lane left): every still-shared lane of the class goes
  // to scalar replay and its lanes stop answering the fault mask.
  auto retire_class = [&](std::size_t ci) {
    KeyClass& c = classes_[ci];
    c.active = false;
    c.live = 0;
    for (std::uint32_t l = 0; l < dispositions.size(); ++l) {
      if (lane_class_[l] == ci && dispositions[l] == LaneDisposition::kShared) {
        dispositions[l] = LaneDisposition::kReplay;
        --shared;
      }
    }
    if (!active_mask_lanes_.empty()) {
      std::size_t w = 0;
      for (std::size_t k = 0; k < active_mask_lanes_.size(); ++k) {
        if (lane_class_[active_mask_lanes_[k]] != ci) {
          active_mask_lanes_[w++] = active_mask_lanes_[k];
        }
      }
      active_mask_lanes_.resize(w);
    }
    if (shared == 0) aborted = true;
  };

  // Validates and enqueues one batch of sends from node v — the scalar
  // submit path minus fault materialization, plus the R-wide mask: each
  // message's seed-independent prekey is computed once, then every lane
  // still on the clean stream is asked for its decision; any non-benign
  // answer retires that lane.
  auto submit = [&](NodeId v, const std::vector<Send>& sends,
                    std::int64_t now) {
    if (!sends.empty() && base.enforce_wakeup && !result_.informed[v]) {
      fail(ExecutionContext::format_wakeup_violation(v));
      return;
    }
    for (const Send& s : sends) {
      if (s.port >= link_offset[v + 1] - link_offset[v]) {
        fail(ExecutionContext::format_invalid_send(v, s.port, g.degree(v)));
        return;
      }
      if (result_.metrics.messages_total >= base.max_messages) {
        budget_hit = true;
        fail("message budget exceeded");
        return;
      }
      const std::uint64_t link = link_offset[v] + s.port;
      const Endpoint dst = csr ? csr[link] : g.neighbor(v, s.port);
      result_.metrics.count_send(s.msg);
      ++result_.sends_by_node[v];
      if (!active_mask_lanes_.empty()) {
        const std::uint64_t prekey = FaultPlan::message_prekey(seq, link);
        for (std::size_t k = 0; k < active_mask_lanes_.size();) {
          const std::uint32_t l = active_mask_lanes_[k];
          const FaultPlan::MessageFault mf =
              lane_plans_[l].message_fault_prekeyed(prekey);
          if (mf.drop || mf.duplicate || mf.extra_delay > 0) {
            dispositions[l] = LaneDisposition::kReplay;
            --shared;
            if (keyed_) {
              KeyClass& c = classes_[lane_class_[l]];
              if (--c.live == 0) {
                c.active = false;
                compact_active_classes();
              }
            }
            active_mask_lanes_[k] = active_mask_lanes_.back();
            active_mask_lanes_.pop_back();
          } else {
            ++k;
          }
        }
        if (shared == 0) {
          aborted = true;
          return;
        }
      }
      const std::size_t slot = events.acquire_slot();
      events.slot(slot) =
          EngineEvent{dst.node, dst.port, s.msg, result_.informed[v]};
      if (!keyed_) {
        events.push({delivery_key(now, seq), seq, slot});
      } else {
        // One seed-independent hash for the message, one mix per active
        // class — the counter-keyed mirror of the fault mask above. The
        // start batch is only recorded here and keyed at the first pop.
        const std::uint64_t prekey = Scheduler::delivery_prekey(seq, link);
        if (starting) {
          start_batch_.push_back({seq, prekey, link, slot});
        } else {
          for (const std::uint32_t ci : active_classes_) {
            KeyClass& c = classes_[ci];
            c.queue.push({class_key(c, prekey, link), seq, slot});
          }
        }
        ++pending;
        if (pending > pending_peak) pending_peak = pending;
      }
      ++seq;
    }
  };

  auto invoke_start = [&](NodeId v) {
    try {
      behaviors[v]->on_start(inputs[v], scratch);
      return true;
    } catch (const std::exception& e) {
      drop_clean_lanes();
      fail(ExecutionContext::format_behavior_exception(e.what()));
      return false;
    }
  };
  auto invoke_receive = [&](NodeId v, const Message& msg, Port at_port) {
    try {
      behaviors[v]->on_receive(inputs[v], msg, at_port, scratch);
      return true;
    } catch (const std::exception& e) {
      drop_clean_lanes();
      fail(ExecutionContext::format_behavior_exception(e.what()));
      return false;
    }
  };

  for (NodeId v = 0; v < n && result_.violation.empty() && !aborted; ++v) {
    scratch.clear();
    if (!invoke_start(v)) break;
    submit(v, scratch, 0);
  }
  starting = false;

  std::uint64_t processed = 0;
  bool eventsexhausted = false;

  while ((keyed_ ? pending > 0 : !events.empty()) &&
         result_.violation.empty() && !aborted) {
    if (base.max_events > 0 && processed >= base.max_events) {
      eventsexhausted = true;
      break;
    }
    ++processed;
    EventHeap::Entry top;
    if (!keyed_) {
      top = events.pop();
    } else {
      // The first active class drives: its minimum defines the delivery.
      // Every other class's minimum must name the same message, or that
      // class's key order has split from the shared stream and the whole
      // class retires to scalar replay. At the first pop the driver keys
      // the whole start batch; every other class keys it only until it
      // disagrees.
      const bool first_pop = !start_batch_.empty();
      KeyClass& d = classes_[active_classes_.front()];
      if (first_pop) key_start_batch(d, nullptr);
      top = d.queue.pop();
      d.now = top.key;
      if (top.key > d.completion_key) d.completion_key = top.key;
      bool retired = false;
      for (std::size_t k = 1; k < active_classes_.size(); ++k) {
        const std::uint32_t ci = active_classes_[k];
        KeyClass& c = classes_[ci];
        if (first_pop && !key_start_batch(c, &top)) {
          retire_class(ci);
          retired = true;
          if (aborted) break;
          continue;
        }
        // The popped entry is discarded either way: a retired class's
        // queue is never read again.
        const EventQueue::Entry e = c.queue.pop();
        if (e.slot != top.slot) {
          retire_class(ci);
          retired = true;
          if (aborted) break;
          continue;
        }
        c.now = e.key;
        if (e.key > c.completion_key) c.completion_key = e.key;
      }
      if (retired) compact_active_classes();
      if (aborted) break;
      if (first_pop) {
        for (const std::uint32_t ci : active_classes_) {
          arm_informed_at(classes_[ci]);
        }
        start_batch_.clear();
      }
      --pending;
    }
    EngineEvent ev = std::move(events.slot(top.slot));
    events.release_slot(top.slot);
    // No crash-stop check: lanes with a non-empty crash schedule never
    // reach the pass, so the clean stream has no dead deliveries.
    ++result_.metrics.deliveries;
    if (!keyed_) {
      if (top.key > result_.metrics.completion_key) {
        result_.metrics.completion_key = top.key;
      }
    }
    if (ev.sender_informed && !result_.informed[ev.to]) {
      result_.informed[ev.to] = true;
      if (!keyed_) {
        result_.informed_at[ev.to] = top.key;
      } else {
        // Every class delivered this event at its own key (c.now, set by
        // the pop above); the informed bit flips once, shared.
        for (const std::uint32_t ci : active_classes_) {
          classes_[ci].informed_at[ev.to] = classes_[ci].now;
        }
      }
    }
    scratch.clear();
    if (!invoke_receive(ev.to, ev.msg, ev.at_port)) break;
    submit(ev.to, scratch, top.key);
  }

  stats_.lockstep_events = processed;
  stats_.shared = shared;
  stats_.replayed = stats_.lanes - shared;
  if (shared == 0) return result_;  // nobody reads the aborted state

  scalar_.collect_outputs(n, result_);
  result_.metrics.queue_depth_peak = keyed_ ? pending_peak : events.peak();
  if (keyed_) {
    // Classes still unarmed saw no pop at all.
    for (const std::uint32_t ci : active_classes_) {
      arm_informed_at(classes_[ci]);
    }
    // Fill the shared plane with the first surviving class's view so the
    // returned reference is a valid result for SOME lane; per-lane readers
    // go through lane_result, which re-patches per class.
    for (const KeyClass& c : classes_) {
      if (!c.active) continue;
      result_.metrics.completion_key = c.completion_key;
      result_.informed_at = c.informed_at;
      break;
    }
  }
  if (eventsexhausted || budget_hit) {
    result_.status = RunStatus::kBudgetExhausted;
  } else if (!result_.violation.empty() || !result_.all_informed) {
    result_.status = RunStatus::kTaskFailed;
  } else {
    result_.status = RunStatus::kCompleted;
  }
  return result_;
}

RunResult SeedBatchExecutionContext::lane_result(std::size_t lane) const {
  RunResult r = result_;
  if (keyed_ && lane < lane_class_.size() && lane_class_[lane] != kNoClass) {
    const KeyClass& c = classes_[lane_class_[lane]];
    r.metrics.completion_key = c.completion_key;
    r.informed_at = c.informed_at;
  }
  return r;
}

std::vector<RunResult> SeedBatchExecutionContext::run(
    const PortGraph& g, NodeId source, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& base,
    const std::vector<Lane>& lanes) {
  std::vector<LaneDisposition> dispositions;
  run_lockstep(g, source, advice, algorithm, base, lanes, dispositions);
  std::vector<RunResult> out(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (dispositions[l] == LaneDisposition::kShared) {
      out[l] = lane_result(l);
    } else {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      options.fault.seed = lanes[l].fault_seed;
      out[l] = scalar_.run(g, source, advice, algorithm, options);
    }
  }
  return out;
}

}  // namespace oraclesize
