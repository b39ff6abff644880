#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "sim/seed_batch_engine.h"

namespace oraclesize {

SeedFamilyKey seed_family_key(const TrialSpec& spec) {
  SeedFamilyKey key{spec.graph, spec.source,
                    spec.oracle != nullptr ? spec.oracle->name() : "",
                    spec.algorithm, spec.advice.get(), spec.options};
  key.options.seed = 0;
  key.options.fault.seed = 0;
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
  /// oracle_size_bits / max_advice_bits of `advice`, computed once per
  /// advice vector and copied to every spec that shares it.
  std::uint64_t oracle_bits = 0;
  std::uint64_t max_advice_bits = 0;
};

PreparedAdvice prepare_advice(AdvicePtr advice, std::uint64_t advise_ns,
                              bool cached) {
  PreparedAdvice prep{std::move(advice), advise_ns, cached};
  prep.oracle_bits = oracle_size_bits(*prep.advice);
  prep.max_advice_bits = max_advice_bits(*prep.advice);
  return prep;
}

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

/// Whether an attempt's outcome may change under re-seeding, so the retry
/// policy may re-run it.
bool transient_outcome(const TaskReport& report, const RetryPolicy& retry) {
  return report.failed() || report.run.status == RunStatus::kTimeout ||
         report.run.status == RunStatus::kBudgetExhausted ||
         (retry.retry_task_failures &&
          report.run.status == RunStatus::kTaskFailed);
}

/// The fields a trial's report takes from its spec and its prepared advice
/// (zero advice fields when the trial advises for itself).
TaskReport report_header(const TrialSpec& spec, const PreparedAdvice& prep) {
  TaskReport report;
  report.oracle_name = spec.oracle->name();
  report.algorithm_name = spec.algorithm->name();
  report.advise_ns = prep.advise_ns;
  report.advice_cached = prep.cached;
  report.oracle_bits = prep.oracle_bits;
  report.max_advice_bits = prep.max_advice_bits;
  return report;
}

/// Hands out the work indices [0, count) to whichever worker asks next.
class WorkClaim {
 public:
  explicit WorkClaim(std::size_t count) : count_(count) {}

  /// Claims the next index into `k`; false once every index is taken.
  bool next(std::size_t& k) {
    k = next_.fetch_add(1, std::memory_order_relaxed);
    return k < count_;
  }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t count_;
};

/// Runs worker(w, claim) for w in [0, workers) over one shared claim of
/// [0, count). Each worker claims indices until none are left, so which
/// worker runs which index is scheduling only. With workers <= 1 the one
/// worker runs on the calling thread and no thread starts (run_task and
/// oracled call BatchRunner once per trial or micro-batch).
template <class Worker>
void run_workers(std::size_t workers, std::size_t count, Worker&& worker) {
  WorkClaim claim(count);
  if (workers <= 1) {
    worker(std::size_t{0}, claim);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&worker, &claim, w]() { worker(w, claim); });
  }
  for (std::thread& t : pool) t.join();
}

/// One worker's plain record of the trials it settled: every counter and
/// histogram of BatchStats::metrics. Only its owner writes it, so recording
/// is plain adds on worker-local memory; run_impl folds the shards into one
/// snapshot after the join.
struct MetricShard {
  /// Folds one trial's FINAL report in. Every recorded value is
  /// deterministic in the spec (counts and scheduler keys — never the
  /// timing fields).
  void observe(const TaskReport& report) {
    ++trials;
    switch (report.run.status) {
      case RunStatus::kCompleted: ++completed; break;
      case RunStatus::kTaskFailed: ++task_failed; break;
      case RunStatus::kTimeout: ++timeout; break;
      case RunStatus::kBudgetExhausted: ++budget_exhausted; break;
      case RunStatus::kCrashed: ++crashed; break;
      case RunStatus::kByzantineDetected: ++byzantine_detected; break;
    }
    if (report.failed()) return;  // crashed trials carry no valid run
    const Metrics& m = report.run.metrics;
    messages_total += m.messages_total;
    messages_source += m.messages_source;
    messages_hello += m.messages_hello;
    messages_control += m.messages_control;
    bits_on_wire += m.bits_sent;
    deliveries += m.deliveries;
    const FaultCounters& f = report.run.faults;
    faults_dropped += f.dropped;
    faults_duplicated += f.duplicated;
    faults_delayed += f.delayed;
    faults_crashed_nodes += f.crashed_nodes;
    faults_dead_deliveries += f.dead_deliveries;
    faults_advice_flips += f.advice_bits_flipped;
    const AdversaryCounters& a = report.run.adversary;
    byz_lying_nodes += a.lying_nodes;
    byz_forged += a.forged;
    byz_equivocated += a.equivocated;
    byz_replayed += a.replayed;
    byz_structured_lies += a.structured_lies;
    byz_advice_lies += a.advice_lies;
    messages_per_trial.observe(m.messages_total);
    queue_depth_peak.observe(m.queue_depth_peak);
    for (const std::int64_t at : report.run.informed_at) {
      if (at == RunResult::kNeverInformed) continue;
      wakeup_latency.observe(static_cast<std::uint64_t>(at));
    }
  }

  /// Adds this shard into `snap` under the instruments' names. Every name
  /// is written, zero or empty, so the key set never depends on the batch.
  void fold_into(MetricsSnapshot& snap) const;

  std::uint64_t trials = 0;
  std::uint64_t completed = 0;
  std::uint64_t task_failed = 0;
  std::uint64_t timeout = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t crashed = 0;
  std::uint64_t byzantine_detected = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t messages_source = 0;
  std::uint64_t messages_hello = 0;
  std::uint64_t messages_control = 0;
  std::uint64_t bits_on_wire = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_crashed_nodes = 0;
  std::uint64_t faults_dead_deliveries = 0;
  std::uint64_t faults_advice_flips = 0;
  std::uint64_t byz_lying_nodes = 0;
  std::uint64_t byz_forged = 0;
  std::uint64_t byz_equivocated = 0;
  std::uint64_t byz_replayed = 0;
  std::uint64_t byz_structured_lies = 0;
  std::uint64_t byz_advice_lies = 0;
  HistogramAccumulator messages_per_trial;
  HistogramAccumulator queue_depth_peak;
  HistogramAccumulator wakeup_latency;
};

/// The snapshot name of every MetricShard instrument.
constexpr std::pair<const char*, std::uint64_t MetricShard::*>
    kShardCounters[] = {
        {"trials", &MetricShard::trials},
        {"trials_completed", &MetricShard::completed},
        {"trials_task_failed", &MetricShard::task_failed},
        {"trials_timeout", &MetricShard::timeout},
        {"trials_budget_exhausted", &MetricShard::budget_exhausted},
        {"trials_crashed", &MetricShard::crashed},
        {"trials_byzantine_detected", &MetricShard::byzantine_detected},
        {"messages_total", &MetricShard::messages_total},
        {"messages_source", &MetricShard::messages_source},
        {"messages_hello", &MetricShard::messages_hello},
        {"messages_control", &MetricShard::messages_control},
        {"bits_on_wire", &MetricShard::bits_on_wire},
        {"deliveries", &MetricShard::deliveries},
        {"faults_dropped", &MetricShard::faults_dropped},
        {"faults_duplicated", &MetricShard::faults_duplicated},
        {"faults_delayed", &MetricShard::faults_delayed},
        {"faults_crashed_nodes", &MetricShard::faults_crashed_nodes},
        {"faults_dead_deliveries", &MetricShard::faults_dead_deliveries},
        {"faults_advice_bits_flipped", &MetricShard::faults_advice_flips},
        {"byz_lying_nodes", &MetricShard::byz_lying_nodes},
        {"byz_forged", &MetricShard::byz_forged},
        {"byz_equivocated", &MetricShard::byz_equivocated},
        {"byz_replayed", &MetricShard::byz_replayed},
        {"byz_structured_lies", &MetricShard::byz_structured_lies},
        {"byz_advice_lies", &MetricShard::byz_advice_lies},
};
constexpr std::pair<const char*, HistogramAccumulator MetricShard::*>
    kShardHistograms[] = {
        {"messages_per_trial", &MetricShard::messages_per_trial},
        {"queue_depth_peak", &MetricShard::queue_depth_peak},
        {"wakeup_latency", &MetricShard::wakeup_latency},
};

void MetricShard::fold_into(MetricsSnapshot& snap) const {
  for (const auto& [name, field] : kShardCounters) {
    snap.counters[name] += this->*field;
  }
  for (const auto& [name, field] : kShardHistograms) {
    snap.histograms[name].merge((this->*field).seal());
  }
}

/// Executes one trial on `context`, advising first unless the pre-pass
/// already resolved the advice.
TaskReport run_trial(const TrialSpec& spec, const PreparedAdvice& prep,
                     ExecutionContext& context) {
  TaskReport report = report_header(spec, prep);
  AdvicePtr advice = prep.advice;
  if (!advice) {
    const auto started = std::chrono::steady_clock::now();
    advice = std::make_shared<const std::vector<BitString>>(
        spec.oracle->advise(*spec.graph, spec.source));
    report.advise_ns = elapsed_ns(started);
    report.oracle_bits = oracle_size_bits(*advice);
    report.max_advice_bits = max_advice_bits(*advice);
  }

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

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

BatchRunner::BatchRunner(std::size_t jobs, bool advice_cache,
                         RetryPolicy retry, RetiredPolicy,
                         SeedBatchPolicy seed_batch)
    : jobs_(resolve_jobs(jobs)),
      advice_cache_(advice_cache),
      retry_(retry),
      seed_batch_(seed_batch) {}

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

  // Specs carrying their own advice never hit the oracle. Seed-family
  // peers usually carry one shared vector, whose sizes are computed once.
  std::map<const std::vector<BitString>*, std::size_t> first_carrier;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!specs[i].advice) continue;
    const auto [it, fresh] = first_carrier.emplace(specs[i].advice.get(), i);
    prepared[i] = fresh ? prepare_advice(specs[i].advice, 0, true)
                        : prepared[it->second];
    ++batch_stats.cache_hits;
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
            prepare_advice(looked.advice, looked.advise_ns, false);
        PreparedAdvice duplicate = prepared[owner];
        duplicate.advise_ns = 0;
        duplicate.cached = true;
        for (std::size_t j = 1; j < indices.size(); ++j) {
          prepared[indices[j]] = duplicate;
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

    run_workers(std::min(workers, work.size()), work.size(),
                [&](std::size_t, WorkClaim& claim) {
                  for (std::size_t k; claim.next(k);) compute_group(*work[k]);
                });

    const AdviceCache::Stats cache_stats = cache.stats();
    batch_stats.unique_advice = cache_stats.misses;
    batch_stats.advise_ns = cache_stats.advise_ns;
    for (const auto& [key, indices] : groups) {
      batch_stats.cache_hits += indices.size() - 1;
    }
  }

  // Fault-isolated trial execution with bounded, deterministically
  // re-seeded retry. Only the worker that claimed trial i touches
  // errors[i]/results[i], so no synchronization beyond the join is needed.
  //
  // settle_scalar plays spec i's attempts from `attempt` on, whose seeds
  // the caller has already shifted to that attempt, until one settles.
  auto settle_scalar = [&](std::size_t i, std::uint64_t seed,
                           std::uint64_t fault_seed, std::uint32_t attempt,
                           ExecutionContext& context) {
    TrialSpec spec = specs[i];
    spec.options.seed = seed;
    spec.options.fault.seed = fault_seed;
    while (true) {
      TaskReport report;
      try {
        report = run_trial(spec, prepared[i], context);
      } catch (...) {
        errors[i] = std::current_exception();
        report = error_report(specs[i], what_of(errors[i]));
      }
      report.attempts = attempt + 1;
      if (!transient_outcome(report, retry_) ||
          attempt >= retry_.max_retries) {
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
  auto run_one = [&](std::size_t i, ExecutionContext& context) {
    if (errors[i]) {
      // The advise() pre-pass already failed this spec; advise failures
      // are deterministic in the spec, so retrying cannot help.
      results[i] = error_report(specs[i], what_of(errors[i]));
      return;
    }
    settle_scalar(i, specs[i].options.seed, specs[i].options.fault.seed, 0,
                  context);
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
      if (indices.size() < 2) continue;  // a lone spec stays scalar
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
  // lanes take the pass's RunResult, diverged lanes replay on the engine's
  // scalar(), reproducing run_one report for report.
  auto run_family = [&](std::size_t u, SeedBatchExecutionContext& engine,
                        MetricShard* shard) {
    const std::vector<std::size_t>& members = family_work[u];
    const TrialSpec& proto = specs[members.front()];
    const AdvicePtr advice = prepared[members.front()].advice;
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
      try {
        engine.run_lockstep(*proto.graph, proto.source, *advice,
                             *proto.algorithm, base, lanes, disp);
      } catch (...) {
        // A precondition error (carried advice of the wrong size) throws
        // before any lane of the pass settles. Settle every pending lane
        // scalar instead, where the error becomes the failed report — and
        // the retry sequence — a lone spec gets.
        for (const LaneState& ls : pending) {
          settle_scalar(ls.spec, ls.seed, ls.fault_seed, ls.attempt,
                        engine.scalar());
          if (shard != nullptr) shard->observe(results[ls.spec]);
        }
        return;
      }
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
          report = report_header(specs[i], prepared[i]);
          // Per-lane materialization: under counter-keyed seeded
          // schedulers the key-valued fields differ per scheduler-seed
          // class; for everything else this is a plain copy of the shared
          // result.
          report.run = engine.lane_result(j);
          report.run_ns = shared_ns;
          report.wall_ns = report.advise_ns + report.run_ns;
        } else {
          TrialSpec attempt_spec = specs[i];
          attempt_spec.options.seed = pending[j].seed;
          attempt_spec.options.fault.seed = pending[j].fault_seed;
          try {
            report = run_trial(attempt_spec, prepared[i], engine.scalar());
          } catch (...) {
            errors[i] = std::current_exception();
            report = error_report(specs[i], what_of(errors[i]));
          }
        }
        report.attempts = pending[j].attempt + 1;
        if (!transient_outcome(report, retry_) ||
            pending[j].attempt >= retry_.max_retries) {
          if (!report.failed()) errors[i] = nullptr;
          if (lane_shared) ++family_shared[u];
          results[i] = std::move(report);
          if (shard != nullptr) shard->observe(results[i]);
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

  const std::size_t pool_workers = std::min(items.size(), workers);
  // One engine and one plain metric shard per worker: scalar singles and
  // replayed lanes run on the engine's scalar(), the lockstep pass on the
  // same node plane. Each trial is observed exactly once, into its
  // worker's shard, after its LAST attempt settled; without a stats
  // out-param nothing is recorded. Shards are folded in worker order after
  // the join. A family
  // unit is claimed — and its members' result slots written — by exactly
  // one worker; every slot is fixed by spec index, so results are in spec
  // order no matter which worker claims which item.
  const bool record = stats != nullptr;
  std::vector<MetricShard> shards(std::max<std::size_t>(pool_workers, 1));
  run_workers(pool_workers, items.size(), [&](std::size_t w,
                                              WorkClaim& claim) {
    SeedBatchExecutionContext engine;
    MetricShard local;
    MetricShard* shard = record ? &local : nullptr;
    for (std::size_t k; claim.next(k);) {
      const WorkItem& item = items[k];
      if (item.family) {
        run_family(item.index, engine, shard);
      } else {
        run_one(item.index, engine.scalar());
        if (shard != nullptr) shard->observe(results[item.index]);
      }
    }
    if (record) shards[w] = local;
  });

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

  if (record) {
    for (const MetricShard& shard : shards) {
      shard.fold_into(batch_stats.metrics);
    }
    // Batch-level accounting joins the snapshot as plain counters so one
    // JSON object carries everything.
    std::map<std::string, std::uint64_t>& counters =
        batch_stats.metrics.counters;
    counters["retries"] = batch_stats.retries;
    counters["advice_cache_hits"] = batch_stats.cache_hits;
    counters["advice_unique"] = batch_stats.unique_advice;
    counters["seed_families"] = batch_stats.seed_families;
    counters["batched_lanes"] = batch_stats.batched_lanes;
    counters["lockstep_shared_lanes"] = batch_stats.lockstep_shared;
  }

  if (eptrs_out != nullptr) *eptrs_out = std::move(errors);
  if (stats != nullptr) *stats = batch_stats;
  return results;
}

}  // namespace oraclesize
