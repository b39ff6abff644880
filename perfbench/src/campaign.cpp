// Workload `campaign`: a seed campaign over a few fixed graphs.
//
// Set-up builds random(p=8/n) 1024, grid 32x32 and complete 256 from the
// seed and computes every spec's advice once into a long-lived AdviceCache.
// Each round then runs every spec as a family of 64 seed lanes through one
// BatchRunner call, advice served from the cache:
//  * scheme B under scheduler-seed lanes, no faults — the lanes share the
//    lockstep pass;
//  * wakeup under fault-seed lanes at drop 0.001 — lanes that lose a
//    message diverge and replay scalar.
// The seed-batch engine and ExecutionContext do nearly all the work, so a
// graph or oracle change is predicted to move nothing here.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/advice_cache.h"
#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace oraclesize;

constexpr std::size_t kLanes = 64;
constexpr double kDrop = 0.001;

struct CampaignSpec {
  std::size_t graph = 0;
  NodeId source = 0;
  bool wakeup = false;
};

struct Inputs {
  std::vector<std::pair<std::string, PortGraph>> graphs;
  std::vector<CampaignSpec> specs;
};

Inputs make_inputs(std::uint64_t seed, bool smoke, std::size_t sources) {
  Inputs in;
  Rng rng(seed);
  const std::size_t random_n = smoke ? 256 : 1024;
  const std::size_t side = smoke ? 16 : 32;
  in.graphs.emplace_back(
      "random(p=8/n)",
      make_random_connected(random_n, 8.0 / static_cast<double>(random_n),
                            rng));
  in.graphs.emplace_back("grid", make_grid(side, side));
  in.graphs.emplace_back("complete", make_complete_star(smoke ? 64 : 256));
  for (std::size_t g = 0; g < in.graphs.size(); ++g) {
    const std::size_t n = in.graphs[g].second.num_nodes();
    for (std::size_t s = 0; s < sources; ++s) {
      const NodeId source =
          s == 0 ? 0 : static_cast<NodeId>(rng.below(n));
      in.specs.push_back({g, source, false});
      in.specs.push_back({g, source, true});
    }
  }
  return in;
}

struct RoundTotals {
  std::size_t rounds = 0;
  std::uint64_t trials = 0;
  std::uint64_t batch_ns = 0;
  std::uint64_t trial_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  std::uint64_t unique_advice = 0;
  std::uint64_t retries = 0;
  std::uint64_t batched_lanes = 0;
  std::uint64_t lockstep_shared = 0;
  /// Per round: one 64-lane family's work, per spec.
  Windows families;
};

}  // namespace

Outcome run_campaign(const Options& opts, SpanRecorder& recorder) {
  Outcome out;
  const std::size_t sources = opts.smoke ? 1 : 4;
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast;
  const BatchRunner runner(opts.workers);

  const auto oracle_of = [&](const CampaignSpec& s) -> const Oracle& {
    return s.wakeup ? static_cast<const Oracle&>(wakeup_oracle)
                    : broadcast_oracle;
  };

  // Set-up: build the graphs and compute every spec's advice once,
  // kSetupRepeats times from scratch. The last set-up is kept.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<AdviceCache> cache;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    in = make_inputs(opts.seed, opts.smoke, sources);
    cache = std::make_unique<AdviceCache>();
    for (const CampaignSpec& s : in.specs) {
      cache->lookup(in.graphs[s.graph].second, oracle_of(s), s.source);
    }
    setup_s.push_back(static_cast<double>(since_ns(t0)) / 1e9);
  }

  // Lane seeds: scheme B varies the scheduler seed, wakeup the fault seed.
  const auto make_specs = [&](std::vector<AdvicePtr>& advice) {
    std::vector<TrialSpec> specs;
    specs.reserve(in.specs.size() * kLanes);
    for (std::size_t k = 0; k < in.specs.size(); ++k) {
      const CampaignSpec& s = in.specs[k];
      RunOptions o;
      if (s.wakeup) {
        o.fault.drop = kDrop;
      } else {
        o.scheduler = SchedulerKind::kAsyncRandom;
      }
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t lane_seed = mix64(opts.seed * 1000003 + lane);
        (s.wakeup ? o.fault.seed : o.seed) = lane_seed;
        specs.emplace_back(&in.graphs[s.graph].second, s.source,
                           &oracle_of(s),
                           s.wakeup ? static_cast<const Algorithm*>(&wakeup)
                                    : &broadcast,
                           o, advice[k]);
      }
    }
    return specs;
  };

  const auto check = [&](const CampaignSpec& s, const TaskReport& r) {
    const std::uint64_t n = in.graphs[s.graph].second.num_nodes();
    const std::string where = in.graphs[s.graph].first + " source " +
                              std::to_string(s.source) +
                              (s.wakeup ? " wakeup" : " scheme-B");
    const std::uint64_t msgs = r.run.metrics.messages_total;
    if (r.failed()) {
      out.mismatch(where + ": trial failed: " + r.error);
    } else if (!s.wakeup) {
      if (!r.ok() || msgs > 3 * (n - 1)) {
        out.mismatch(where + ": " + to_string(r.run.status) + ", " +
                     std::to_string(msgs) + " messages (want ok, <= 3(n-1))");
      }
    } else if (!r.run.violation.empty() || msgs > n - 1) {
      out.mismatch(where + ": wakeup violation or " + std::to_string(msgs) +
                   " messages > n-1");
    } else if (r.run.faults.dropped == 0 &&
               (!r.ok() || msgs != n - 1)) {
      // A lane that lost no message must solve wakeup with exactly n-1.
      out.mismatch(where + ": fault-free lane " + to_string(r.run.status) +
                   " with " + std::to_string(msgs) + " messages");
    } else if (!r.ok() && r.run.status != RunStatus::kTaskFailed) {
      out.mismatch(where + ": unexpected status " +
                   std::string(to_string(r.run.status)));
    }
  };

  std::vector<TaskReport> last_reports;
  std::vector<TrialSpec> last_specs;
  const auto round = [&](RoundTotals& t, bool traced) {
    SpanRecorder* spans = traced ? &recorder : nullptr;
    reset_peak_rss();
    const auto t0 = Clock::now();
    Span round_span(spans, "harness.round");
    std::vector<AdvicePtr> advice;
    advice.reserve(in.specs.size());
    {
      Span span(spans, "core.advice_lookup", "", round_span.id());
      for (const CampaignSpec& s : in.specs) {
        const AdviceCache::Lookup l =
            cache->lookup(in.graphs[s.graph].second, oracle_of(s), s.source);
        t.lookup_hits += l.hit;
        ++t.lookups;
        advice.push_back(l.advice);
      }
    }
    std::vector<TrialSpec> specs = make_specs(advice);
    BatchStats stats;
    std::vector<TaskReport> reports;
    const auto b0 = Clock::now();
    {
      Span span(spans, "core.batch_run", "", round_span.id());
      reports = runner.run(specs, &stats);
    }
    t.batch_ns += since_ns(b0);
    const std::uint64_t wall_ns = since_ns(t0);
    ++t.rounds;
    Windows::Window& window = t.families.open();
    window.ops = static_cast<double>(reports.size());
    window.wall_s = static_cast<double>(wall_ns) / 1e9;
    window.rss_mb = peak_rss_mb();
    t.trials += reports.size();
    out.attempted += reports.size();
    for (std::size_t k = 0; k < in.specs.size(); ++k) {
      std::uint64_t family_ns = 0;
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const TaskReport& r = reports[k * kLanes + lane];
        check(in.specs[k], r);
        family_ns += r.wall_ns;
        t.run_ns += r.run_ns;
        t.trial_ns += r.wall_ns;
        t.deliveries += r.run.metrics.deliveries;
      }
      window.latency_ms.push_back(static_cast<double>(family_ns) / 1e6);
    }
    t.unique_advice += stats.unique_advice;
    t.retries += stats.retries;
    t.batched_lanes += stats.batched_lanes;
    t.lockstep_shared += stats.lockstep_shared;
    last_reports = std::move(reports);
    last_specs = std::move(specs);
  };

  RoundTotals plain;
  RoundTotals traced;
  const double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto w0 = Clock::now();
  while (plain.rounds == 0 ||
         static_cast<double>(since_ns(w0)) / 1e9 < plain_s) {
    round(plain, false);
  }
  if (opts.trace) {
    const auto w1 = Clock::now();
    while (traced.rounds == 0 ||
           static_cast<double>(since_ns(w1)) / 1e9 < opts.seconds - plain_s) {
      round(traced, true);
    }
  }

  // Outside the window: a fixed sample of lanes re-run scalar, seed
  // batching off, must match the batched results field for field.
  {
    std::vector<TrialSpec> sample;
    std::vector<std::size_t> index;
    for (std::size_t k = 0; k < in.specs.size(); ++k) {
      for (std::size_t lane : {std::size_t{0}, std::size_t{21},
                               std::size_t{42}, kLanes - 1}) {
        index.push_back(k * kLanes + lane);
        sample.push_back(last_specs[k * kLanes + lane]);
      }
    }
    SeedBatchPolicy scalar;
    scalar.enabled = false;
    const std::vector<TaskReport> replay =
        BatchRunner(opts.workers, true, {}, {}, scalar).run(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (!(replay[i].run == last_reports[index[i]].run)) {
        const CampaignSpec& s = in.specs[index[i] / kLanes];
        out.mismatch(in.graphs[s.graph].first + " lane " +
                     std::to_string(index[i] % kLanes) +
                     ": seed-batched result differs from the scalar run");
      }
    }
    out.provenance["scalar_sample_lanes"] = std::to_string(sample.size());
  }

  const double ops_per_s = plain.families.ops_per_s();
  out.provenance["specs"] = std::to_string(in.specs.size());
  out.provenance["lanes_per_spec"] = std::to_string(kLanes);
  out.provenance["rounds"] = std::to_string(plain.rounds + traced.rounds);
  if (!opts.trace) {
    out.set("setup_s", median(setup_s), setup_s.size());
    out.set("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            out.attempted);
    out.set("peak_rss_mb", plain.families.rss_mb(), plain.rounds);
    out.set("ops_per_s", ops_per_s, plain.rounds);
    out.set("p50_ms", plain.families.latency_ms(0.50),
            plain.families.samples());
    return out;
  }

  // Per-layer numbers from the traced half; layer times are per round.
  const double R = static_cast<double>(traced.rounds);
  const double jobs = static_cast<double>(runner.jobs());
  const double batch_ms = static_cast<double>(traced.batch_ns) / 1e6;
  const double run_ms = static_cast<double>(traced.run_ns) / 1e6;
  const double lookup_ms =
      recorder.total_ms_by_name()["core.advice_lookup"];
  const double busy_ms = jobs * batch_ms + lookup_ms;
  std::uint64_t bcast_bits = 0;
  std::uint64_t bcast_nodes = 0;
  for (const CampaignSpec& s : in.specs) {
    if (s.wakeup) continue;
    const AdviceCache::Lookup l =
        cache->lookup(in.graphs[s.graph].second, broadcast_oracle, s.source);
    bcast_bits += oracle_size_bits(*l.advice);
    bcast_nodes += l.advice->size();
  }
  const double traced_ops = traced.families.ops_per_s();

  out.set("oracle.bits_per_node",
          static_cast<double>(bcast_bits) / static_cast<double>(bcast_nodes),
          in.specs.size() / 2);
  out.set("sim.run_ms", run_ms / R, traced.trials);
  out.set("sim.run_share", run_ms / busy_ms, traced.trials);
  out.set("sim.deliveries", static_cast<double>(traced.deliveries) / R,
          traced.trials);
  out.set("sim.deliveries_per_s",
          static_cast<double>(traced.deliveries) / (run_ms / 1e3),
          traced.trials);
  out.set("sim.lockstep_shared_frac",
          static_cast<double>(traced.lockstep_shared) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, traced.batched_lanes)),
          traced.batched_lanes);
  out.set("sim.replayed_lanes",
          static_cast<double>(traced.batched_lanes - traced.lockstep_shared) /
              R,
          traced.batched_lanes);
  out.set("core.batch_overhead_frac",
          1.0 - static_cast<double>(traced.trial_ns) / 1e6 /
                    (jobs * batch_ms),
          traced.rounds);
  out.set("core.advice_hit_rate",
          static_cast<double>(traced.lookup_hits) /
              static_cast<double>(traced.lookups),
          traced.lookups);
  out.set("core.unique_advice", static_cast<double>(traced.unique_advice) / R,
          traced.rounds);
  out.set("core.retries", static_cast<double>(traced.retries), traced.trials);
  out.set("tail_p99_ms", plain.families.latency_ms(0.99),
          plain.families.samples());
  out.set("trace_overhead_frac", ops_per_s / traced_ops - 1.0,
          plain.rounds + traced.rounds);
  return out;
}

}  // namespace perfbench
