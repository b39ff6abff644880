#include "sim/execution_context.h"

#include "sim/trace_recorder.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace oraclesize {

std::string ExecutionContext::format_wakeup_violation(NodeId v) {
  std::ostringstream os;
  os << "wakeup violation: uninformed node " << v << " transmitted";
  return os.str();
}

std::string ExecutionContext::format_invalid_send(NodeId v, Port port,
                                                  std::size_t degree) {
  std::ostringstream os;
  os << "invalid send: node " << v << " port " << port << " (degree " << degree
     << ")";
  return os.str();
}

std::string ExecutionContext::format_behavior_exception(const char* what) {
  std::string s = "behavior exception: ";
  s += what;
  return s;
}

void ExecutionContext::bind_run(const PortGraph& g, NodeId source,
                                const std::vector<BitString>& advice,
                                bool anonymous, RunResult& result) {
  const std::size_t n = g.num_nodes();
  result.informed.assign(n, false);
  result.informed[source] = true;
  result.sends_by_node.assign(n, 0);
  result.informed_at.assign(n, RunResult::kNeverInformed);
  result.informed_at[source] = 0;
  inputs_.resize(n);
  link_offset_.resize(n + 1);
  link_offset_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    inputs_[v] = NodeInput{&advice[v], v == source,
                           anonymous ? Label{0} : g.label(v), g.degree(v)};
    link_offset_[v + 1] = link_offset_[v] + g.degree(v);
  }
}

void ExecutionContext::arm_behaviors(std::size_t n,
                                     const Algorithm& algorithm) {
  const bool reusable = algorithm.reusable();
  const bool pool_matches =
      reusable && pool_count_ > 0 && pool_algorithm_ == algorithm.name();
  behaviors_.resize(n);
  // Pooled behaviors beyond the previous run's node count don't exist; the
  // reusable prefix is whatever survives both the pool and this run's size.
  const std::size_t reuse = pool_matches ? std::min(pool_count_, n) : 0;
  try {
    for (NodeId v = 0; v < reuse; ++v) {
      behaviors_[v]->reset(inputs_[v]);
    }
    for (NodeId v = reuse; v < n; ++v) {
      behaviors_[v] = algorithm.make_behavior(inputs_[v]);
    }
  } catch (...) {
    // A partial arm leaves behaviors_ inconsistent with the pool
    // bookkeeping; drop both so the next run rebuilds from scratch.
    behaviors_.clear();
    pool_algorithm_.clear();
    pool_count_ = 0;
    throw;
  }
  if (reusable) {
    pool_algorithm_ = algorithm.name();
    pool_count_ = n;
  } else {
    pool_algorithm_.clear();
    pool_count_ = 0;
  }
}

void ExecutionContext::collect_outputs(std::size_t n,
                                       RunResult& result) const {
  result.terminated.resize(n);
  result.outputs.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.terminated[v] = behaviors_[v]->terminated();
    result.outputs[v] = behaviors_[v]->output();
  }
  result.all_informed = (result.informed_count() == n);
}

RunResult ExecutionContext::run(const PortGraph& g, NodeId source,
                                const std::vector<BitString>& advice,
                                const Algorithm& algorithm,
                                const RunOptions& options) {
  const std::size_t n = g.num_nodes();
  if (advice.size() != n) {
    throw std::invalid_argument("run_execution: advice size != num nodes");
  }
  if (source >= n) throw std::invalid_argument("run_execution: bad source");

  RunResult result;

  auto fail = [&](std::string what) {
    if (result.violation.empty()) result.violation = std::move(what);
  };

  // Structured tracing (sim/trace_recorder.h). A null sink is the zero-cost
  // default: every emission below hides behind `if (sink)`.
  TraceSink* const sink = options.trace_sink;
  if (sink) {
    TraceRunInfo info;
    info.graph = &g;
    info.advice = &advice;  // the ORIGINAL advice, pre-corruption
    info.source = source;
    info.algorithm = algorithm.name();
    info.options = &options;
    sink->begin_run(info);
  }

  // Everything fault-related is gated on `faulty`: the disabled plan takes
  // the legacy code path bit for bit and allocates nothing new (the
  // zero-allocation steady state is audited by tests/test_zero_alloc.cpp).
  const bool faulty = options.fault.enabled();
  const std::vector<BitString>* advice_used = &advice;
  if (faulty) {
    fault_plan_.arm(options.fault, n, source);
    result.faults.crashed_nodes = fault_plan_.num_crashed();
    if (fault_plan_.corrupts_advice()) {
      result.faults.advice_bits_flipped =
          fault_plan_.corrupt_advice(advice, corrupted_advice_);
      advice_used = &corrupted_advice_;
    }
  }
  const bool message_faulty = faulty && fault_plan_.message_faults();

  // The Byzantine layer rides the same gate discipline: a disabled plan is
  // never armed, never consulted, and the run stays bit-identical to the
  // reliable path (tests/test_goldens.cpp ZeroAdversaryPlanIsInvisible).
  const bool byz = options.adversary.enabled();
  if (byz) {
    adversary_plan_.arm(options.adversary, n, source);
    result.adversary.lying_nodes = adversary_plan_.num_lying();
  }
  // Behaviors may throw on forged content as well as on corrupted advice;
  // either adversarial regime absorbs the exception into a structured
  // outcome instead of the legacy propagate-to-caller contract.
  const bool guarded = faulty || byz;

  bind_run(g, source, *advice_used, options.anonymous, result);

  if (sink) {
    // Node-state prologue: each node's advice binding (the string it will
    // actually decode, possibly corrupted) and the fault plan's crash
    // schedule. Emitted before any scheme code runs.
    const bool corrupted = advice_used != &advice;
    for (NodeId v = 0; v < n; ++v) {
      TraceEvent e;
      e.kind = TraceEventKind::kAdviceRead;
      e.node = v;
      e.aux = (*advice_used)[v].size();
      e.flag = corrupted;
      sink->record(e);
    }
    if (faulty) {
      for (NodeId v = 0; v < n; ++v) {
        const std::int64_t at = fault_plan_.crash_key(v);
        if (at == FaultPlan::kNoCrash) continue;
        TraceEvent e;
        e.kind = TraceEventKind::kCrash;
        e.node = v;
        e.key = at;
        sink->record(e);
      }
    }
  }

  // Corrupted advice can make behavior constructors (which decode it)
  // throw. Only a faulty run absorbs that into a structured failure; a
  // reliable run keeps the legacy contract of letting it propagate.
  bool armed = true;
  if (faulty) {
    try {
      arm_behaviors(n, algorithm);
    } catch (const std::exception& e) {
      fail(format_behavior_exception(e.what()));
      armed = false;
    }
  } else {
    arm_behaviors(n, algorithm);
  }
  if (!armed) {
    result.terminated.assign(n, false);
    result.outputs.assign(n, 0);
    result.status = byz && !result.violation.empty()
                        ? RunStatus::kByzantineDetected
                        : RunStatus::kTaskFailed;
    if (sink) sink->end_run(result);
    return result;
  }

  scheduler_.reset(options.scheduler, options.seed, options.max_delay,
                   link_offset_[n]);
  events_.clear();
  std::uint64_t seq = 0;

  bool budget_hit = false;

  // On a frozen graph the CSR endpoint array is indexed by exactly the
  // directed-link ids the engine keys its per-link clocks on
  // (link_offset_[v] + port), so every delivery target is one load with no
  // bounds re-check. Unfrozen graphs (hand-built test graphs) take the
  // checked accessor.
  const Endpoint* const csr = g.csr_endpoints();

  // Logical send-batch counter for the Byzantine layer: one behavior
  // invocation = one group, so equivocation ("different lies to different
  // neighbors in the same logical send") keys forged content per link
  // within a group while the forge decision itself is per group.
  std::uint64_t send_group = 0;

  // Validates and enqueues one batch of sends from node v, triggered while
  // processing an event with key `now`.
  auto submit = [&](NodeId v, const std::vector<Send>& sends,
                    std::int64_t now) {
    const std::uint64_t group = send_group++;
    const bool lying = byz && adversary_plan_.lying(v);
    if (!sends.empty() && options.enforce_wakeup && !result.informed[v]) {
      fail(format_wakeup_violation(v));
      return;
    }
    for (const Send& s : sends) {
      if (s.port >= link_offset_[v + 1] - link_offset_[v]) {
        fail(format_invalid_send(v, s.port, g.degree(v)));
        return;
      }
      // Budget check BEFORE counting: a run never reports more messages
      // than it was allowed to send (metrics.messages_total <= max_messages
      // is an invariant even on violating runs).
      if (result.metrics.messages_total >= options.max_messages) {
        budget_hit = true;
        fail("message budget exceeded");
        return;
      }
      const std::uint64_t link = link_offset_[v] + s.port;
      const Endpoint dst = csr ? csr[link] : g.neighbor(v, s.port);
      // Byzantine rewrite: a lying node's content is forged BEFORE the
      // network sees it — metrics, traces, and fault decisions all act on
      // the wire content. Ground truth (result.informed / sender_informed)
      // rides outside the message and is never forged, so a fake kSource
      // can fool the receiving behavior but never truly informs it.
      const Message* wire = &s.msg;
      Message forged_msg;
      if (lying) {
        forged_msg = s.msg;
        const AdversaryPlan::ForgeOutcome fo =
            adversary_plan_.forge(v, group, link, g.degree(v), forged_msg);
        if (fo.forged || fo.advice_lie) {
          wire = &forged_msg;
          if (fo.forged) ++result.adversary.forged;
          if (fo.equivocated) ++result.adversary.equivocated;
          if (fo.replayed) ++result.adversary.replayed;
          if (fo.structured) ++result.adversary.structured_lies;
          if (fo.advice_lie) ++result.adversary.advice_lies;
          if (sink) {
            TraceEvent e;
            e.kind = fo.replayed      ? TraceEventKind::kReplayAttack
                     : fo.equivocated ? TraceEventKind::kEquivocate
                     : fo.forged      ? TraceEventKind::kForge
                                      : TraceEventKind::kAdviceLie;
            e.node = v;
            e.port = s.port;
            e.peer = dst.node;
            e.msg = wire->kind;
            e.key = now;
            e.seq = seq;
            e.link = link;
            e.aux = wire->payload;  // the lied content, for diffability
            e.flag = fo.advice_lie;
            sink->record(e);
          }
        }
      }
      result.metrics.count_send(*wire);
      ++result.sends_by_node[v];
      if (sink) {
        TraceEvent e;
        e.kind = TraceEventKind::kSend;
        e.node = v;
        e.port = s.port;
        e.peer = dst.node;
        e.msg = wire->kind;
        e.key = now;
        e.seq = seq;  // the first copy's sequence number: the fault key
        e.link = link;
        e.aux = wire->size_bits();
        e.flag = result.informed[v];
        sink->record(e);
      }
      // The message's fate is decided once, at submit time, keyed on
      // (seq, link) — a send counts toward metrics even when the network
      // then drops it (the node did transmit).
      FaultPlan::MessageFault mf;
      if (message_faulty) mf = fault_plan_.message_fault(seq, link);
      if (sink && (mf.drop || mf.duplicate || mf.extra_delay > 0)) {
        TraceEvent e;
        e.kind = mf.drop ? TraceEventKind::kDrop
                         : (mf.duplicate ? TraceEventKind::kDuplicate
                                         : TraceEventKind::kDelay);
        e.node = v;
        e.port = s.port;
        e.peer = dst.node;
        e.msg = wire->kind;
        e.key = now;
        e.seq = seq;
        e.link = link;
        e.aux = mf.extra_delay;
        sink->record(e);
        // A duplicated message can also be delayed; record both decisions.
        if (mf.duplicate && mf.extra_delay > 0) {
          e.kind = TraceEventKind::kDelay;
          sink->record(e);
        }
      }
      if (mf.drop) {
        ++result.faults.dropped;
        ++seq;  // the dropped message still consumes its sequence number
        continue;
      }
      if (mf.duplicate) ++result.faults.duplicated;
      if (mf.extra_delay > 0) ++result.faults.delayed;
      const int copies = mf.duplicate ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        const std::size_t slot = events_.acquire_slot();
        events_.slot(slot) =
            EngineEvent{dst.node, dst.port, *wire, result.informed[v]};
        events_.push({scheduler_.delivery_key(now, seq, link) +
                          static_cast<std::int64_t>(mf.extra_delay),
                      seq, slot});
        ++seq;
      }
    }
  };

  // A behavior call on a faulty run may throw (corrupted advice feeding a
  // decoder); absorb it into a structured violation there. Reliable runs
  // keep the legacy propagate-to-caller contract.
  auto invoke_start = [&](NodeId v) {
    if (!guarded) {
      behaviors_[v]->on_start(inputs_[v], sends_);
      return true;
    }
    try {
      behaviors_[v]->on_start(inputs_[v], sends_);
      return true;
    } catch (const std::exception& e) {
      fail(format_behavior_exception(e.what()));
      return false;
    }
  };
  auto invoke_receive = [&](NodeId v, const Message& msg, Port at_port) {
    if (!guarded) {
      behaviors_[v]->on_receive(inputs_[v], msg, at_port, sends_);
      return true;
    }
    try {
      behaviors_[v]->on_receive(inputs_[v], msg, at_port, sends_);
      return true;
    } catch (const std::exception& e) {
      fail(format_behavior_exception(e.what()));
      return false;
    }
  };

  // Empty-history activations. Node order is irrelevant to correctness
  // (deliveries all happen strictly later) but kept deterministic.
  for (NodeId v = 0; v < n && result.violation.empty(); ++v) {
    // A node whose crash key is <= 0 is down before its activation fires.
    if (faulty && fault_plan_.crash_key(v) <= 0) continue;
    sends_.clear();
    if (!invoke_start(v)) break;
    submit(v, sends_, 0);
  }

  const bool has_deadline = options.deadline_ns > 0;
  std::chrono::steady_clock::time_point deadline_at;
  if (has_deadline) {
    deadline_at = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(options.deadline_ns);
  }
  std::uint64_t processed = 0;
  bool timed_out = false;
  bool events_exhausted = false;

  while (!events_.empty() && result.violation.empty()) {
    if (options.max_events > 0 && processed >= options.max_events) {
      events_exhausted = true;
      break;
    }
    // The clock check is amortized: one steady_clock read per 1024 events
    // keeps the reliable fast path free of syscall-ish overhead.
    if (has_deadline && (processed & 1023u) == 0 &&
        std::chrono::steady_clock::now() >= deadline_at) {
      timed_out = true;
      break;
    }
    ++processed;
    const EventHeap::Entry top = events_.pop();
    // Move the event out before recycling its slot: submit() below may
    // acquire slots and grow the pool, invalidating references into it.
    EngineEvent ev = std::move(events_.slot(top.slot));
    events_.release_slot(top.slot);
    // Crash-stop: node v processes events with key strictly below its
    // crash key; anything at or after it lands on a dead node.
    if (faulty && top.key >= fault_plan_.crash_key(ev.to)) {
      ++result.faults.dead_deliveries;
      if (sink) {
        TraceEvent e;
        e.kind = TraceEventKind::kDeadDelivery;
        e.node = ev.to;
        e.port = ev.at_port;
        e.msg = ev.msg.kind;
        e.key = top.key;
        e.seq = top.seq;
        sink->record(e);
      }
      continue;
    }
    ++result.metrics.deliveries;
    if (top.key > result.metrics.completion_key) {
      result.metrics.completion_key = top.key;
    }
    if (sink) {
      // The sender is recoverable from the port relation — worth the
      // neighbor lookup only on observability runs.
      const Endpoint from = g.neighbor(ev.to, ev.at_port);
      TraceEvent e;
      e.kind = TraceEventKind::kDeliver;
      e.node = ev.to;
      e.port = ev.at_port;
      e.peer = from.node;
      e.msg = ev.msg.kind;
      e.key = top.key;
      e.seq = top.seq;
      // The same directed-link index the send was keyed on (sender side).
      e.link = link_offset_[from.node] + from.port;
      e.aux = ev.msg.size_bits();
      e.flag = ev.sender_informed;
      sink->record(e);
    }
    // Deliveries to colluding nodes feed the shared replay buffer: the
    // adversary replays genuine traffic its members have seen.
    if (byz && adversary_plan_.lying(ev.to)) adversary_plan_.observe(ev.msg);
    // The paper's informing rule: any message from an informed sender
    // informs the receiver (M can ride along on it).
    if (ev.sender_informed && !result.informed[ev.to]) {
      result.informed[ev.to] = true;
      result.informed_at[ev.to] = top.key;
      if (sink) {
        TraceEvent e;
        e.kind = TraceEventKind::kInformed;
        e.node = ev.to;
        e.peer = g.neighbor(ev.to, ev.at_port).node;
        e.port = ev.at_port;
        e.key = top.key;
        e.seq = top.seq;
        sink->record(e);
      }
    }
    sends_.clear();
    if (!invoke_receive(ev.to, ev.msg, ev.at_port)) break;
    submit(ev.to, sends_, top.key);
  }

  collect_outputs(n, result);
  result.metrics.queue_depth_peak = events_.peak();
  if (timed_out) {
    result.status = RunStatus::kTimeout;
  } else if (events_exhausted || budget_hit) {
    result.status = RunStatus::kBudgetExhausted;
  } else if (byz && !result.violation.empty()) {
    // An adversarial run that produced an observable symptom (violation or
    // behavior exception on forged content) was DETECTED. A fooled run that
    // ends cleanly but wrong stays kTaskFailed — the silent case.
    result.status = RunStatus::kByzantineDetected;
  } else if (!result.violation.empty() || !result.all_informed) {
    result.status = RunStatus::kTaskFailed;
  } else {
    result.status = RunStatus::kCompleted;
  }
  if (sink) sink->end_run(result);
  return result;
}

}  // namespace oraclesize
