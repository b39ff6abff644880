// Workload `sweep`: the paper's regeneration path (E1/E3/E4 shape).
//
// Every pass rebuilds the standard graph families from the seed — complete
// K*_n up to n = 2048, random(p=8/n) up to n = 4096 via
// make_random_connected — and runs one wakeup trial (sync) and one scheme-B
// trial (async-random) per graph through one BatchRunner call. Advice keys
// never repeat (the graphs are fresh objects), so the advice cache and the
// service are bypassed; graph construction and advice do most of the work.
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/light_tree.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace oraclesize;

struct Family {
  std::string name;
  std::size_t n;
  std::function<PortGraph(Rng&)> make;
};

/// The standard sweep's families and sizes. Random families draw from one
/// generator in this order, so a seed fixes every graph of a pass.
std::vector<Family> sweep_families(bool smoke) {
  std::vector<Family> out;
  const auto sizes = [&](std::initializer_list<std::size_t> full) {
    std::vector<std::size_t> v(full);
    if (smoke) v.resize(1);
    return v;
  };
  for (std::size_t n : sizes({128, 512, 2048})) {
    out.push_back({"complete", n, [n](Rng&) { return make_complete_star(n); }});
  }
  for (std::size_t n : sizes({256, 1024, 4096})) {
    out.push_back({"random(p=8/n)", n, [n](Rng& rng) {
                     return make_random_connected(
                         n, 8.0 / static_cast<double>(n), rng);
                   }});
  }
  for (std::size_t d : sizes({8, 10, 12})) {
    out.push_back({"hypercube", std::size_t{1} << d, [d](Rng&) {
                     return make_hypercube(static_cast<int>(d));
                   }});
  }
  for (std::size_t side : sizes({16, 32, 64})) {
    out.push_back({"grid", side * side,
                   [side](Rng&) { return make_grid(side, side); }});
  }
  for (std::size_t n : sizes({256, 1024, 4096})) {
    out.push_back({"random-tree", n,
                   [n](Rng& rng) { return make_random_tree(n, rng); }});
  }
  for (std::size_t n : sizes({128, 512})) {
    out.push_back({"lollipop", n, [n](Rng&) { return make_lollipop(n); }});
  }
  for (std::size_t side : sizes({16, 48})) {
    out.push_back({"torus", side * side,
                   [side](Rng&) { return make_torus(side, side); }});
  }
  out.push_back({"bipartite", 512,
                 [](Rng&) { return make_complete_bipartite(256, 256); }});
  for (std::size_t n : sizes({512, 2048})) {
    out.push_back({"random-regular(d=4)", n,
                   [n](Rng& rng) { return make_random_regular(n, 4, rng); }});
  }
  out.push_back({"caterpillar", 1024,
                 [](Rng&) { return make_caterpillar(128, 7); }});
  return out;
}

/// The build-time class a family's builder belongs to.
const char* build_class(const std::string& family) {
  if (family == "complete") return "complete";
  if (family == "random(p=8/n)") return "random";
  return "other";
}

/// Light-tree statistics gathered by the traced run's tree probes.
struct TreeProbe {
  std::mutex mu;
  std::uint64_t trees = 0;
  std::uint64_t phases = 0;
  std::uint64_t edges_erased = 0;
  std::vector<std::string> violations;
};

/// Forwards to a production oracle under the same name (so advice keys are
/// unchanged) and wraps advise() in a span. For the broadcast oracle the
/// traced run first builds the Claim 3.1 light tree on its own — the
/// oracle.light_tree span — to split advise time into tree and encoding, and
/// checks the tree's sum of #2(w) against 4n.
class TracedOracle final : public Oracle {
 public:
  TracedOracle(const Oracle& inner, std::string task, SpanRecorder* spans,
               const std::uint64_t* parent, TreeProbe* probe)
      : inner_(inner),
        task_(std::move(task)),
        spans_(spans),
        parent_(parent),
        probe_(probe) {}

  std::vector<BitString> advise(const PortGraph& g,
                                NodeId source) const override {
    if (probe_ != nullptr) {
      LightTreeResult tree;
      {
        Span span(spans_, "oracle.light_tree", task_, *parent_);
        tree = light_tree(g, source);
      }
      std::lock_guard<std::mutex> lock(probe_->mu);
      ++probe_->trees;
      probe_->phases += tree.phases.size();
      for (const LightTreePhase& p : tree.phases) {
        probe_->edges_erased += p.edges_erased;
      }
      if (tree.contribution > 4 * g.num_nodes()) {
        probe_->violations.push_back(
            "light_tree sum #2(w) = " + std::to_string(tree.contribution) +
            " > 4n on n = " + std::to_string(g.num_nodes()));
      }
    }
    Span span(spans_, "oracle.advise", task_, *parent_);
    return inner_.advise(g, source);
  }

  std::string name() const override { return inner_.name(); }

 private:
  const Oracle& inner_;
  std::string task_;
  SpanRecorder* spans_;
  const std::uint64_t* parent_;  ///< the enclosing core.batch_run span id
  TreeProbe* probe_;
};

struct Built {
  std::string family;
  PortGraph graph;
  std::uint64_t build_ns = 0;
};

std::vector<Built> build_all(const std::vector<Family>& families,
                             std::uint64_t seed, SpanRecorder* spans,
                             std::uint64_t parent) {
  Rng rng(seed);
  std::vector<Built> out;
  out.reserve(families.size());
  for (const Family& f : families) {
    Span span(spans, "graph.build", f.name, parent);
    const auto t0 = Clock::now();
    PortGraph g = f.make(rng);
    out.push_back({f.name, std::move(g), since_ns(t0)});
  }
  return out;
}

/// Accumulated over the passes of one half (untraced or traced) of a run.
struct PassTotals {
  std::size_t passes = 0;
  std::uint64_t trials = 0;
  std::uint64_t batch_ns = 0;
  std::uint64_t advise_ns = 0;  ///< TaskReport::advise_ns (probe included)
  std::uint64_t run_ns = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t edges = 0;
  std::uint64_t bcast_bits = 0;
  std::uint64_t bcast_nodes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t unique_advice = 0;
  std::uint64_t retries = 0;
  std::uint64_t seed_families = 0;
  std::uint64_t batched_lanes = 0;
  std::uint64_t lockstep_shared = 0;
  /// Per pass: build + both trials of each graph (one table row).
  Windows rows;
};

}  // namespace

Outcome run_sweep(const Options& opts, SpanRecorder& recorder) {
  Outcome out;
  const std::vector<Family> families = sweep_families(opts.smoke);
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast;
  const BatchRunner runner(opts.workers);

  // Set-up: build the inputs of one pass, kSetupRepeats times. The last
  // build feeds one untimed warm-up batch.
  std::vector<double> setup_s;
  std::vector<Built> warm;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    warm = build_all(families, opts.seed, nullptr, 0);
    setup_s.push_back(static_cast<double>(since_ns(t0)) / 1e9);
  }

  TreeProbe probe;
  std::uint64_t batch_span = 0;
  const TracedOracle traced_wakeup(wakeup_oracle, "wakeup", &recorder,
                                   &batch_span, nullptr);
  const TracedOracle traced_broadcast(broadcast_oracle, "broadcast",
                                      &recorder, &batch_span, &probe);

  const auto make_specs = [&](const std::vector<Built>& graphs, bool traced) {
    std::vector<TrialSpec> specs;
    specs.reserve(2 * graphs.size());
    for (const Built& b : graphs) {
      RunOptions wake_opts;
      wake_opts.enforce_wakeup = true;
      specs.emplace_back(&b.graph, 0,
                         traced ? static_cast<const Oracle*>(&traced_wakeup)
                                : &wakeup_oracle,
                         &wakeup, wake_opts);
      RunOptions bcast_opts;
      bcast_opts.scheduler = SchedulerKind::kAsyncRandom;
      bcast_opts.seed = opts.seed;
      specs.emplace_back(&b.graph, 0,
                         traced ? static_cast<const Oracle*>(&traced_broadcast)
                                : &broadcast_oracle,
                         &broadcast, bcast_opts);
    }
    return specs;
  };
  runner.run(make_specs(warm, false));
  warm.clear();

  const auto check = [&](const Built& b, const TaskReport& r,
                         bool is_wakeup) {
    const std::uint64_t n = b.graph.num_nodes();
    const std::string where = b.family + " n=" + std::to_string(n) +
                              (is_wakeup ? " wakeup" : " scheme-B");
    if (!r.ok()) {
      out.mismatch(where + ": trial not ok: " +
                   (r.failed() ? r.error : to_string(r.run.status)));
    } else if (is_wakeup && (r.run.metrics.messages_total != n - 1 ||
                             !r.run.violation.empty())) {
      out.mismatch(where + ": " + std::to_string(r.run.metrics.messages_total) +
                   " messages, want exactly n-1");
    } else if (!is_wakeup && r.run.metrics.messages_total > 3 * (n - 1)) {
      out.mismatch(where + ": " + std::to_string(r.run.metrics.messages_total) +
                   " messages > 3(n-1)");
    }
  };

  // One pass: build, batch, check. Traced passes record spans.
  const auto pass = [&](PassTotals& t, bool traced) {
    SpanRecorder* spans = traced ? &recorder : nullptr;
    reset_peak_rss();
    const auto t0 = Clock::now();
    Span pass_span(spans, "harness.pass");
    const std::vector<Built> graphs =
        build_all(families, opts.seed, spans, pass_span.id());
    const std::vector<TrialSpec> specs = make_specs(graphs, traced);
    BatchStats stats;
    std::vector<TaskReport> reports;
    const auto b0 = Clock::now();
    {
      Span span(spans, "core.batch_run", "", pass_span.id());
      batch_span = span.id();
      reports = runner.run(specs, &stats);
    }
    t.batch_ns += since_ns(b0);
    const std::uint64_t wall_ns = since_ns(t0);
    ++t.passes;
    Windows::Window& window = t.rows.open();
    window.ops = static_cast<double>(reports.size());
    window.wall_s = static_cast<double>(wall_ns) / 1e9;
    window.rss_mb = peak_rss_mb();
    t.trials += reports.size();
    out.attempted += reports.size();
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const TaskReport& w = reports[2 * g];
      const TaskReport& bc = reports[2 * g + 1];
      check(graphs[g], w, true);
      check(graphs[g], bc, false);
      window.latency_ms.push_back(
          static_cast<double>(graphs[g].build_ns + w.wall_ns + bc.wall_ns) /
          1e6);
      t.edges += graphs[g].graph.num_edges();
      t.bcast_bits += bc.oracle_bits;
      t.bcast_nodes += graphs[g].graph.num_nodes();
    }
    for (const TaskReport& r : reports) {
      t.advise_ns += r.advise_ns;
      t.run_ns += r.run_ns;
      t.deliveries += r.run.metrics.deliveries;
    }
    t.cache_hits += stats.cache_hits;
    t.unique_advice += stats.unique_advice;
    t.retries += stats.retries;
    t.seed_families += stats.seed_families;
    t.batched_lanes += stats.batched_lanes;
    t.lockstep_shared += stats.lockstep_shared;
  };

  // Untraced passes fill the window (the first half of it in a traced run,
  // whose second half is traced; comparing the two gives the overhead).
  PassTotals plain;
  PassTotals traced;
  const double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto w0 = Clock::now();
  while (plain.passes == 0 ||
         static_cast<double>(since_ns(w0)) / 1e9 < plain_s) {
    pass(plain, false);
  }
  if (opts.trace) {
    const auto w1 = Clock::now();
    while (traced.passes == 0 ||
           static_cast<double>(since_ns(w1)) / 1e9 < opts.seconds - plain_s) {
      pass(traced, true);
    }
  }
  for (const std::string& v : probe.violations) out.mismatch(v);

  // The Claim 3.1 port assignment: one tree edge per non-root node, so the
  // broadcast oracle hands out exactly n-1 ports in all (checked once per
  // family outside the window).
  if (opts.trace) {
    for (const Built& b : build_all(families, opts.seed, nullptr, 0)) {
      std::vector<std::vector<std::uint64_t>> ports;
      {
        Span span(&recorder, "oracle.assigned_ports", b.family);
        ports = LightBroadcastOracle::assigned_ports(b.graph, 0,
                                                     TreeKind::kLight);
      }
      std::size_t total = 0;
      for (const auto& p : ports) total += p.size();
      if (total != b.graph.num_nodes() - 1) {
        out.mismatch(b.family + ": assigned_ports hands out " +
                     std::to_string(total) + " ports, want n-1");
      }
    }
  }

  const double ops_per_s = plain.rows.ops_per_s();
  out.provenance["graphs_per_pass"] = std::to_string(families.size());
  out.provenance["passes"] = std::to_string(plain.passes + traced.passes);
  if (!opts.trace) {
    out.set("setup_s", median(setup_s), setup_s.size());
    out.set("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            out.attempted);
    out.set("peak_rss_mb", plain.rows.rss_mb(), plain.passes);
    out.set("ops_per_s", ops_per_s, plain.passes);
    out.set("p50_ms", plain.rows.latency_ms(0.50), plain.rows.samples());
    return out;
  }

  // Per-layer numbers from the traced half. Layer times are per pass.
  const double P = static_cast<double>(traced.passes);
  std::map<std::string, double> build_ms;
  for (const SpanRecord& s : recorder.spans()) {
    if (s.name == "graph.build") {
      build_ms[build_class(s.detail)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  const std::map<std::string, double> total = recorder.total_ms_by_name();
  const auto total_of = [&](const std::string& name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double graph_ms = build_ms["complete"] + build_ms["random"] +
                          build_ms["other"];
  const double advise_wakeup_ms =
      sum(recorder.durations_ms("oracle.advise", "wakeup"));
  const double advise_bcast_ms =
      sum(recorder.durations_ms("oracle.advise", "broadcast"));
  const double tree_ms = total_of("oracle.light_tree");
  const double jobs = static_cast<double>(runner.jobs());
  const double batch_ms = static_cast<double>(traced.batch_ns) / 1e6;
  const double run_ms = static_cast<double>(traced.run_ns) / 1e6;
  const double trial_ms = static_cast<double>(traced.advise_ns) / 1e6 + run_ms;
  // Busy time of every layer, with the trace-only tree probes taken out:
  // graph build on the calling thread plus jobs x batch wall, of which the
  // part not inside advise() or the engine is core's overhead (idle
  // workers included).
  const double core_ms = std::max(0.0, jobs * batch_ms - trial_ms);
  const double busy_ms = graph_ms + jobs * batch_ms - tree_ms;
  const double traced_ops = traced.rows.ops_per_s();

  out.set("graph.build_ms.complete", build_ms["complete"] / P, traced.passes);
  out.set("graph.build_ms.random", build_ms["random"] / P, traced.passes);
  out.set("graph.build_ms.other", build_ms["other"] / P, traced.passes);
  out.set("graph.build_share", graph_ms / busy_ms, traced.passes);
  out.set("graph.edges_per_s",
          static_cast<double>(traced.edges) / (graph_ms / 1e3),
          traced.passes);
  out.set("oracle.advise_ms.wakeup", advise_wakeup_ms / P, traced.passes);
  out.set("oracle.advise_ms.broadcast", advise_bcast_ms / P, traced.passes);
  out.set("oracle.advise_share", (advise_wakeup_ms + advise_bcast_ms) / busy_ms,
          traced.passes);
  out.set("oracle.tree_ms", tree_ms / P, probe.trees);
  out.set("oracle.encode_ms", (advise_bcast_ms - tree_ms) / P, probe.trees);
  out.set("oracle.tree_phases",
          static_cast<double>(probe.phases) /
              static_cast<double>(std::max<std::uint64_t>(1, probe.trees)),
          probe.trees);
  out.set("oracle.tree_edges_erased",
          static_cast<double>(probe.edges_erased) /
              static_cast<double>(std::max<std::uint64_t>(1, probe.trees)),
          probe.trees);
  out.set("oracle.bits_per_node",
          static_cast<double>(traced.bcast_bits) /
              static_cast<double>(traced.bcast_nodes),
          traced.passes * families.size());
  out.set("sim.run_ms", run_ms / P, traced.trials);
  out.set("sim.run_share", run_ms / busy_ms, traced.trials);
  out.set("sim.deliveries", static_cast<double>(traced.deliveries) / P,
          traced.trials);
  out.set("sim.deliveries_per_s",
          static_cast<double>(traced.deliveries) / (run_ms / 1e3),
          traced.trials);
  out.set("sim.lockstep_shared_frac",
          traced.batched_lanes == 0
              ? 0.0
              : static_cast<double>(traced.lockstep_shared) /
                    static_cast<double>(traced.batched_lanes),
          traced.batched_lanes);
  out.set("sim.replayed_lanes",
          static_cast<double>(traced.batched_lanes - traced.lockstep_shared) /
              P,
          traced.batched_lanes);
  out.set("core.batch_overhead_frac", core_ms / (jobs * batch_ms),
          traced.passes);
  out.set("core.advice_hit_rate",
          static_cast<double>(traced.cache_hits) /
              static_cast<double>(traced.trials),
          traced.trials);
  out.set("core.unique_advice", static_cast<double>(traced.unique_advice) / P,
          traced.passes);
  out.set("core.retries", static_cast<double>(traced.retries), traced.trials);
  out.set("tail_p99_ms", plain.rows.latency_ms(0.99), plain.rows.samples());
  out.set("trace_overhead_frac", ops_per_s / traced_ops - 1.0,
          plain.passes + traced.passes);
  return out;
}

}  // namespace perfbench
