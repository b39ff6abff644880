#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"

namespace oraclesize {

SeedFamilyKey seed_family_key(const TrialSpec& spec) {
  SeedFamilyKey key;
  key.graph = spec.graph;
  key.source = spec.source;
  if (spec.oracle != nullptr) key.oracle = spec.oracle->name();
  key.algorithm = spec.algorithm;
  key.advice = spec.advice.get();
  const RunOptions& o = spec.options;
  key.scheduler = o.scheduler;
  key.max_delay = o.max_delay;
  key.max_messages = o.max_messages;
  key.enforce_wakeup = o.enforce_wakeup;
  key.anonymous = o.anonymous;
  key.deadline_ns = o.deadline_ns;
  key.max_events = o.max_events;
  key.trace_sink = o.trace_sink;
  key.fault_drop = o.fault.drop;
  key.fault_duplicate = o.fault.duplicate;
  key.fault_delay = o.fault.delay;
  key.fault_max_extra_delay = o.fault.max_extra_delay;
  key.fault_crash = o.fault.crash;
  key.fault_max_crash_key = o.fault.max_crash_key;
  key.fault_crash_source = o.fault.crash_source;
  key.fault_advice_flip = o.fault.advice_flip;
  key.adv_seed = o.adversary.seed;
  key.adv_rate = o.adversary.byz_rate;
  key.adv_nodes = o.adversary.byz_nodes;
  key.adv_source = o.adversary.byz_source;
  key.adv_strategy = o.adversary.strategy;
  key.adv_forge = o.adversary.forge;
  key.adv_equivocate = o.adversary.equivocate;
  key.adv_advice_lie = o.adversary.advice_lie;
  key.adv_replay_window = o.adversary.replay_window;
  return key;
}

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Per-spec advice resolved by the pre-pass (or carried by the spec).
/// A null pointer means "advise inside the trial" (cache off).
struct PreparedAdvice {
  AdvicePtr advice;
  std::uint64_t advise_ns = 0;
  bool cached = false;
};

/// Extracts a human-readable message from a captured exception.
std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// The report a trial gets when its execution threw: named like a normal
/// report, no valid RunResult, status kCrashed, the exception text captured.
TaskReport error_report(const TrialSpec& spec, std::string what) {
  TaskReport report;
  report.oracle_name = spec.oracle->name();
  report.algorithm_name = spec.algorithm->name();
  report.error = std::move(what);
  report.run.status = RunStatus::kCrashed;
  return report;
}

/// The batch-wide instrument set, registered once before workers start so
/// the recording path is pure relaxed-atomic adds (no registry lookups).
struct TrialMetrics {
  explicit TrialMetrics(MetricsRegistry& reg)
      : trials(reg.counter("trials")),
        completed(reg.counter("trials_completed")),
        task_failed(reg.counter("trials_task_failed")),
        timeout(reg.counter("trials_timeout")),
        budget_exhausted(reg.counter("trials_budget_exhausted")),
        crashed(reg.counter("trials_crashed")),
        byzantine_detected(reg.counter("trials_byzantine_detected")),
        messages_total(reg.counter("messages_total")),
        messages_source(reg.counter("messages_source")),
        messages_hello(reg.counter("messages_hello")),
        messages_control(reg.counter("messages_control")),
        bits_on_wire(reg.counter("bits_on_wire")),
        deliveries(reg.counter("deliveries")),
        faults_dropped(reg.counter("faults_dropped")),
        faults_duplicated(reg.counter("faults_duplicated")),
        faults_delayed(reg.counter("faults_delayed")),
        faults_crashed_nodes(reg.counter("faults_crashed_nodes")),
        faults_dead_deliveries(reg.counter("faults_dead_deliveries")),
        faults_advice_flips(reg.counter("faults_advice_bits_flipped")),
        byz_lying_nodes(reg.counter("byz_lying_nodes")),
        byz_forged(reg.counter("byz_forged")),
        byz_equivocated(reg.counter("byz_equivocated")),
        byz_replayed(reg.counter("byz_replayed")),
        byz_structured_lies(reg.counter("byz_structured_lies")),
        byz_advice_lies(reg.counter("byz_advice_lies")),
        messages_per_trial(reg.histogram("messages_per_trial")),
        queue_depth_peak(reg.histogram("queue_depth_peak")),
        wakeup_latency(reg.histogram("wakeup_latency")) {}

  /// Folds one trial's FINAL report in. Called by the worker that owns the
  /// trial; every recorded value is deterministic in the spec (counts and
  /// scheduler keys — never the timing fields).
  void observe(const TaskReport& report) {
    trials.add();
    switch (report.run.status) {
      case RunStatus::kCompleted: completed.add(); break;
      case RunStatus::kTaskFailed: task_failed.add(); break;
      case RunStatus::kTimeout: timeout.add(); break;
      case RunStatus::kBudgetExhausted: budget_exhausted.add(); break;
      case RunStatus::kCrashed: crashed.add(); break;
      case RunStatus::kByzantineDetected: byzantine_detected.add(); break;
    }
    if (report.failed()) return;  // crashed trials carry no valid run
    const Metrics& m = report.run.metrics;
    messages_total.add(m.messages_total);
    messages_source.add(m.messages_source);
    messages_hello.add(m.messages_hello);
    messages_control.add(m.messages_control);
    bits_on_wire.add(m.bits_sent);
    deliveries.add(m.deliveries);
    const FaultCounters& f = report.run.faults;
    faults_dropped.add(f.dropped);
    faults_duplicated.add(f.duplicated);
    faults_delayed.add(f.delayed);
    faults_crashed_nodes.add(f.crashed_nodes);
    faults_dead_deliveries.add(f.dead_deliveries);
    faults_advice_flips.add(f.advice_bits_flipped);
    const AdversaryCounters& a = report.run.adversary;
    byz_lying_nodes.add(a.lying_nodes);
    byz_forged.add(a.forged);
    byz_equivocated.add(a.equivocated);
    byz_replayed.add(a.replayed);
    byz_structured_lies.add(a.structured_lies);
    byz_advice_lies.add(a.advice_lies);
    messages_per_trial.observe(m.messages_total);
    queue_depth_peak.observe(m.queue_depth_peak);
    for (const std::int64_t at : report.run.informed_at) {
      if (at == RunResult::kNeverInformed) continue;
      wakeup_latency.observe(static_cast<std::uint64_t>(at));
    }
  }

  Counter& trials;
  Counter& completed;
  Counter& task_failed;
  Counter& timeout;
  Counter& budget_exhausted;
  Counter& crashed;
  Counter& byzantine_detected;
  Counter& messages_total;
  Counter& messages_source;
  Counter& messages_hello;
  Counter& messages_control;
  Counter& bits_on_wire;
  Counter& deliveries;
  Counter& faults_dropped;
  Counter& faults_duplicated;
  Counter& faults_delayed;
  Counter& faults_crashed_nodes;
  Counter& faults_dead_deliveries;
  Counter& faults_advice_flips;
  Counter& byz_lying_nodes;
  Counter& byz_forged;
  Counter& byz_equivocated;
  Counter& byz_replayed;
  Counter& byz_structured_lies;
  Counter& byz_advice_lies;
  Histogram& messages_per_trial;
  Histogram& queue_depth_peak;
  Histogram& wakeup_latency;
};

/// Executes one trial on `context`, advising first unless the pre-pass
/// already resolved the advice.
TaskReport run_trial(const TrialSpec& spec, const PreparedAdvice& prep,
                     ExecutionContext& context) {
  TaskReport report;
  report.oracle_name = spec.oracle->name();
  report.algorithm_name = spec.algorithm->name();

  AdvicePtr advice = prep.advice;
  if (advice) {
    report.advise_ns = prep.advise_ns;
    report.advice_cached = prep.cached;
  } else {
    const auto started = std::chrono::steady_clock::now();
    advice = std::make_shared<const std::vector<BitString>>(
        spec.oracle->advise(*spec.graph, spec.source));
    report.advise_ns = elapsed_ns(started);
  }
  report.oracle_bits = oracle_size_bits(*advice);
  report.max_advice_bits = max_advice_bits(*advice);

  RunOptions options = spec.options;
  if (spec.algorithm->is_wakeup()) options.enforce_wakeup = true;
  const auto started = std::chrono::steady_clock::now();
  report.run = context.run(*spec.graph, spec.source, *advice,
                           *spec.algorithm, options);
  report.run_ns = elapsed_ns(started);
  report.wall_ns = report.advise_ns + report.run_ns;
  return report;
}

}  // namespace

BatchRunner::BatchRunner(std::size_t jobs, bool advice_cache,
                         RetryPolicy retry, RetiredPolicy,
                         SeedBatchPolicy seed_batch)
    : jobs_(jobs),
      advice_cache_(advice_cache),
      retry_(retry),
      seed_batch_(seed_batch) {
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw == 0 ? 1 : hw;
  }
}

std::vector<TaskReport> BatchRunner::run(const std::vector<TrialSpec>& specs,
                                         BatchStats* stats) const {
  return run_impl(specs, stats, nullptr);
}

std::vector<TaskReport> BatchRunner::run_rethrow(
    const std::vector<TrialSpec>& specs, BatchStats* stats) const {
  std::vector<std::exception_ptr> errors;
  std::vector<TaskReport> results = run_impl(specs, stats, &errors);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

std::vector<TaskReport> BatchRunner::run_impl(
    const std::vector<TrialSpec>& specs, BatchStats* stats,
    std::vector<std::exception_ptr>* eptrs_out) const {
  for (const TrialSpec& spec : specs) {
    if (spec.graph == nullptr || spec.oracle == nullptr ||
        spec.algorithm == nullptr) {
      throw std::invalid_argument(
          "BatchRunner: spec with null graph/oracle/algorithm");
    }
  }

  std::vector<TaskReport> results(specs.size());
  std::vector<PreparedAdvice> prepared(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());
  BatchStats batch_stats;
  const std::size_t workers =
      specs.size() < jobs_ ? (specs.empty() ? 1 : specs.size()) : jobs_;

  // Specs carrying their own advice never hit the oracle.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].advice) {
      prepared[i] = PreparedAdvice{specs[i].advice, 0, true};
      ++batch_stats.cache_hits;
    }
  }

  if (advice_cache_) {
    // Pre-pass: dedupe by (graph, oracle name, source) — insertion into a
    // std::map keyed this way makes the owner (the lowest spec index of
    // each group, the one that reports the advise cost) deterministic.
    using Key = std::tuple<const PortGraph*, std::string, NodeId>;
    std::map<Key, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].advice) continue;
      groups[Key{specs[i].graph, specs[i].oracle->name(), specs[i].source}]
          .push_back(i);
    }
    std::vector<const std::vector<std::size_t>*> work;
    work.reserve(groups.size());
    for (const auto& [key, indices] : groups) work.push_back(&indices);
    // Largest graphs first: a giant advise landing on the pool last would
    // serialize the tail of the pre-pass behind one worker. Scheduling
    // order affects wall-clock only — owners, advice values, and cost
    // attribution are fixed per group — and the stable sort over the
    // deterministic map order keeps it reproducible.
    std::stable_sort(work.begin(), work.end(),
                     [&](const std::vector<std::size_t>* a,
                         const std::vector<std::size_t>* b) {
                       return specs[a->front()].graph->num_edges() >
                              specs[b->front()].graph->num_edges();
                     });

    AdviceCache cache;
    auto compute_group = [&](const std::vector<std::size_t>& indices) {
      const std::size_t owner = indices.front();
      const TrialSpec& spec = specs[owner];
      try {
        const AdviceCache::Lookup looked =
            cache.lookup(*spec.graph, *spec.oracle, spec.source);
        prepared[owner] =
            PreparedAdvice{looked.advice, looked.advise_ns, false};
        for (std::size_t j = 1; j < indices.size(); ++j) {
          prepared[indices[j]] = PreparedAdvice{looked.advice, 0, true};
        }
      } catch (...) {
        // The uncached path would have thrown in every one of these
        // trials; record the failure for each so rethrow order (lowest
        // spec index) is unchanged.
        for (std::size_t idx : indices) {
          errors[idx] = std::current_exception();
        }
      }
    };

    if (workers <= 1 || work.size() <= 1) {
      for (const auto* indices : work) compute_group(*indices);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(workers < work.size() ? workers : work.size());
      for (std::size_t w = 0;
           w < (workers < work.size() ? workers : work.size()); ++w) {
        pool.emplace_back([&]() {
          while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= work.size()) break;
            compute_group(*work[i]);
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }

    const AdviceCache::Stats cache_stats = cache.stats();
    batch_stats.unique_advice = cache_stats.misses;
    batch_stats.advise_ns = cache_stats.advise_ns;
    for (const auto& [key, indices] : groups) {
      batch_stats.cache_hits += indices.size() - 1;
    }
  }

  // Metric aggregation is opt-in via the stats out-param: instruments are
  // registered here (under the registry mutex), workers record with relaxed
  // atomic adds only, and the snapshot is taken after the join.
  MetricsRegistry registry;
  std::optional<TrialMetrics> trial_metrics;
  if (stats != nullptr) trial_metrics.emplace(registry);

  // Fault-isolated trial execution with bounded, deterministically
  // re-seeded retry. Only the worker that claimed trial i touches
  // errors[i]/results[i], so no synchronization beyond the join is needed.
  auto run_one = [&](std::size_t i, ExecutionContext& context) {
    if (errors[i]) {
      // The advise() pre-pass already failed this spec; advise failures
      // are deterministic in the spec, so retrying cannot help.
      results[i] = error_report(specs[i], what_of(errors[i]));
      return;
    }
    TrialSpec spec = specs[i];
    std::uint32_t attempt = 0;
    while (true) {
      TaskReport report;
      try {
        report = run_trial(spec, prepared[i], context);
      } catch (...) {
        errors[i] = std::current_exception();
        report = error_report(specs[i], what_of(errors[i]));
      }
      report.attempts = attempt + 1;
      const bool transient =
          report.failed() || report.run.status == RunStatus::kTimeout ||
          report.run.status == RunStatus::kBudgetExhausted ||
          (retry_.retry_task_failures &&
           report.run.status == RunStatus::kTaskFailed);
      if (!transient || attempt >= retry_.max_retries) {
        if (!report.failed()) errors[i] = nullptr;  // a retry recovered
        results[i] = std::move(report);
        return;
      }
      ++attempt;
      // Re-seed both randomness domains so the next attempt explores a
      // different schedule/fault draw yet stays a pure function of the
      // spec and the attempt number.
      spec.options.seed += retry_.reseed_stride;
      spec.options.fault.seed += retry_.reseed_stride;
    }
  };

  // Each trial is observed exactly once, by the worker that claimed it,
  // after its LAST attempt settled.
  auto run_and_observe = [&](std::size_t i, ExecutionContext& context) {
    run_one(i, context);
    if (trial_metrics) trial_metrics->observe(results[i]);
  };

  // Group the batch by seed family: specs identical up to their seeds
  // whose advice is already resolved (shared advice is what the lockstep
  // pass amortizes — with the cache off every trial stays scalar, keeping
  // the measurement baseline pure) and whose options the lockstep engine
  // can honor become one FAMILY unit; everything else pools as scalar
  // singles. Family membership is a pure function of the specs, so the unit
  // list — like every result — is jobs-invariant.
  std::vector<std::size_t> pool_work;
  pool_work.reserve(specs.size());
  std::vector<std::vector<std::size_t>> family_work;
  {
    std::vector<char> claimed(specs.size(), 0);
    std::map<SeedFamilyKey, std::vector<std::size_t>> families;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (seed_batch_.enabled && prepared[i].advice && !errors[i] &&
          SeedBatchExecutionContext::lockstep_eligible(specs[i].options)) {
        families[seed_family_key(specs[i])].push_back(i);
      }
    }
    for (auto& [key, indices] : families) {
      if (!seed_batch_.enabled_for(indices.size())) continue;
      for (const std::size_t i : indices) claimed[i] = 1;
      family_work.push_back(std::move(indices));
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!claimed[i]) pool_work.push_back(i);
    }
  }

  // Per-unit count of trials whose FINAL attempt was served by a shared
  // lockstep pass. Written only by the worker that owns the unit, summed
  // serially after the join.
  std::vector<std::size_t> family_shared(family_work.size(), 0);

  // Executes one family unit: repeated lockstep passes over the lanes
  // still pending, with the same per-trial retry/fault-isolation semantics
  // as run_one. Retries shift only the two seeds, so every pass stays one
  // family; lanes retire from `pending` as their attempts settle — shared
  // lanes take the pass's RunResult, diverged lanes replay scalar on this
  // worker's context, reproducing run_one report for report.
  auto run_family = [&](std::size_t u, ExecutionContext& context,
                        SeedBatchExecutionContext& batched) {
    const std::vector<std::size_t>& members = family_work[u];
    const TrialSpec& proto = specs[members.front()];
    const AdvicePtr advice = prepared[members.front()].advice;
    // Every shared lane reports the family's one advice vector.
    const std::uint64_t oracle_bits = oracle_size_bits(*advice);
    const std::uint64_t advice_bits_max = max_advice_bits(*advice);
    RunOptions base = proto.options;
    if (proto.algorithm->is_wakeup()) base.enforce_wakeup = true;

    struct LaneState {
      std::size_t spec;
      std::uint64_t seed;
      std::uint64_t fault_seed;
      std::uint32_t attempt;
    };
    std::vector<LaneState> pending;
    pending.reserve(members.size());
    for (const std::size_t i : members) {
      pending.push_back(
          {i, specs[i].options.seed, specs[i].options.fault.seed, 0});
    }
    std::vector<SeedBatchExecutionContext::Lane> lanes;
    std::vector<SeedBatchExecutionContext::LaneDisposition> disp;
    std::vector<LaneState> still_pending;
    while (!pending.empty()) {
      lanes.clear();
      for (const LaneState& ls : pending) {
        lanes.push_back({ls.seed, ls.fault_seed});
      }
      const auto started = std::chrono::steady_clock::now();
      batched.run_lockstep(*proto.graph, proto.source, *advice,
                           *proto.algorithm, base, lanes, disp);
      const std::uint64_t lockstep_ns = elapsed_ns(started);
      std::size_t shared_count = 0;
      for (const auto d : disp) {
        shared_count +=
            d == SeedBatchExecutionContext::LaneDisposition::kShared;
      }
      // Shared lanes split the pass's wall clock evenly — timing is the
      // one field outside the bit-identity contract, and an even split
      // keeps batch totals comparable with the scalar path.
      const std::uint64_t shared_ns =
          shared_count ? lockstep_ns / shared_count : 0;
      still_pending.clear();
      for (std::size_t j = 0; j < pending.size(); ++j) {
        const std::size_t i = pending[j].spec;
        const bool lane_shared =
            disp[j] == SeedBatchExecutionContext::LaneDisposition::kShared;
        TaskReport report;
        if (lane_shared) {
          report.oracle_name = specs[i].oracle->name();
          report.algorithm_name = specs[i].algorithm->name();
          report.advise_ns = prepared[i].advise_ns;
          report.advice_cached = prepared[i].cached;
          report.oracle_bits = oracle_bits;
          report.max_advice_bits = advice_bits_max;
          // Per-lane materialization: under counter-keyed seeded
          // schedulers the key-valued fields differ per scheduler-seed
          // class; for everything else this is a plain copy of the shared
          // result.
          report.run = batched.lane_result(j);
          report.run_ns = shared_ns;
          report.wall_ns = report.advise_ns + report.run_ns;
        } else {
          TrialSpec attempt_spec = specs[i];
          attempt_spec.options.seed = pending[j].seed;
          attempt_spec.options.fault.seed = pending[j].fault_seed;
          try {
            report = run_trial(attempt_spec, prepared[i], context);
          } catch (...) {
            errors[i] = std::current_exception();
            report = error_report(specs[i], what_of(errors[i]));
          }
        }
        report.attempts = pending[j].attempt + 1;
        const bool transient =
            report.failed() || report.run.status == RunStatus::kTimeout ||
            report.run.status == RunStatus::kBudgetExhausted ||
            (retry_.retry_task_failures &&
             report.run.status == RunStatus::kTaskFailed);
        if (!transient || pending[j].attempt >= retry_.max_retries) {
          if (!report.failed()) errors[i] = nullptr;
          if (lane_shared) ++family_shared[u];
          results[i] = std::move(report);
          if (trial_metrics) trial_metrics->observe(results[i]);
        } else {
          still_pending.push_back(
              {i, pending[j].seed + retry_.reseed_stride,
               pending[j].fault_seed + retry_.reseed_stride,
               pending[j].attempt + 1});
        }
      }
      pending.swap(still_pending);
    }
  };

  // One heterogeneous work list for the pool: family units first (they are
  // the batch's biggest chunks — a unit landing on the pool last would
  // serialize the tail behind one worker), then scalar singles in spec
  // order. Scheduling order affects wall clock only; every result slot is
  // fixed by spec index.
  struct WorkItem {
    bool family;
    std::size_t index;  ///< family_work index or spec index
  };
  std::vector<WorkItem> items;
  items.reserve(family_work.size() + pool_work.size());
  for (std::size_t u = 0; u < family_work.size(); ++u) {
    items.push_back({true, u});
  }
  for (const std::size_t i : pool_work) items.push_back({false, i});

  const std::size_t pool_workers =
      items.size() < workers ? items.size() : workers;
  if (pool_workers <= 1) {
    ExecutionContext context;
    SeedBatchExecutionContext batched;
    for (const WorkItem& item : items) {
      if (item.family) {
        run_family(item.index, context, batched);
      } else {
        run_and_observe(item.index, context);
      }
    }
  } else {
    // Work-stealing by atomic counter: trial i's RESULT slot is fixed by
    // i, so results are in spec order no matter which worker claims which
    // item (a family unit is claimed — and its members' slots written — by
    // exactly one worker).
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(pool_workers);
    for (std::size_t w = 0; w < pool_workers; ++w) {
      pool.emplace_back([&]() {
        ExecutionContext context;
        SeedBatchExecutionContext batched;
        while (true) {
          const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= items.size()) break;
          if (items[k].family) {
            run_family(items[k].index, context, batched);
          } else {
            run_and_observe(items[k].index, context);
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // All remaining accounting reads final per-trial reports, so it can run
  // serially after the join (no atomics needed).
  batch_stats.seed_families = family_work.size();
  for (const std::vector<std::size_t>& members : family_work) {
    batch_stats.batched_lanes += members.size();
  }
  for (const std::size_t s : family_shared) {
    batch_stats.lockstep_shared += s;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (results[i].failed()) ++batch_stats.failed;
    batch_stats.retries += results[i].attempts - 1;
    if (!advice_cache_ && !specs[i].advice && !results[i].failed()) {
      // Per-trial advise: fold the (last attempt's) cost into the batch
      // accounting so cache on/off totals stay comparable.
      batch_stats.advise_ns += results[i].advise_ns;
      ++batch_stats.unique_advice;
    }
  }

  if (stats != nullptr) {
    // Batch-level accounting joins the snapshot as plain counters so one
    // JSON object carries everything.
    registry.counter("retries").add(batch_stats.retries);
    registry.counter("advice_cache_hits").add(batch_stats.cache_hits);
    registry.counter("advice_unique").add(batch_stats.unique_advice);
    registry.counter("seed_families").add(batch_stats.seed_families);
    registry.counter("batched_lanes").add(batch_stats.batched_lanes);
    registry.counter("lockstep_shared_lanes").add(batch_stats.lockstep_shared);
    batch_stats.metrics = registry.snapshot();
  }

  if (eptrs_out != nullptr) *eptrs_out = std::move(errors);
  if (stats != nullptr) *stats = batch_stats;
  return results;
}

}  // namespace oraclesize
