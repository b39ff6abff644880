// Steady-state allocation audit for ExecutionContext::run and
// SeedBatchExecutionContext::run.
//
// Standalone binary (not gtest: the framework's own allocations would
// pollute the counters). Global operator new is replaced with a counting
// shim; after warming a context twice, a third run is counted, and the
// count must be INDEPENDENT of n for the paper's two schemes (wakeup via
// tree advice, broadcast via scheme B), and for seed families whose
// lockstep pass and scalar replays share one context's node plane. A
// per-node allocation in the hot path — behavior churn, per-event vectors,
// advice copies — shows up as an O(n) gap between the n=256 and n=1024
// counts and fails the audit.
// (Counts, not bytes: an n-element vector is one allocation either way;
// the RunResult's per-node output vectors are a fixed number of calls.)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/broadcast_b.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace oraclesize {
namespace {

/// Warm a context on the exact workload, then count one more run.
std::size_t count_steady_run(const PortGraph& g,
                             const std::vector<BitString>& advice,
                             const Algorithm& algorithm,
                             const RunOptions& opts) {
  ExecutionContext context;
  for (int warm = 0; warm < 2; ++warm) {
    (void)context.run(g, 0, advice, algorithm, opts);
  }
  g_news.store(0);
  g_counting.store(true);
  const RunResult r = context.run(g, 0, advice, algorithm, opts);
  g_counting.store(false);
  if (!r.all_informed || !r.violation.empty()) {
    std::fprintf(stderr, "FAIL: %s run did not complete cleanly (%s)\n",
                 algorithm.name().c_str(), r.violation.c_str());
    std::exit(1);
  }
  return g_news.load();
}

/// The same audit for a seed family: warm one SeedBatchExecutionContext on
/// the family, then count one more run() — the lockstep pass plus the
/// scalar replays of every lane it could not serve, all on one context.
std::size_t count_steady_family(
    const PortGraph& g, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& base,
    const std::vector<SeedBatchExecutionContext::Lane>& lanes,
    std::uint32_t& replayed) {
  SeedBatchExecutionContext context;
  for (int warm = 0; warm < 2; ++warm) {
    (void)context.run(g, 0, advice, algorithm, base, lanes);
  }
  g_news.store(0);
  g_counting.store(true);
  const std::vector<RunResult> results =
      context.run(g, 0, advice, algorithm, base, lanes);
  g_counting.store(false);
  if (results.size() != lanes.size()) {
    std::fprintf(stderr, "FAIL: %s family returned %zu results\n",
                 algorithm.name().c_str(), results.size());
    std::exit(1);
  }
  replayed = context.last_stats().replayed;
  return g_news.load();
}

int audit() {
  // Same sparse family at two sizes; identical construction seeds so the
  // only variable is n.
  Rng rng_small(0xfeedULL), rng_big(0xfeedULL);
  const PortGraph small = make_random_connected(256, 8.0 / 256.0, rng_small);
  const PortGraph big = make_random_connected(1024, 8.0 / 1024.0, rng_big);

  int failures = 0;
  const auto check = [&failures](const char* label, std::size_t at_small,
                                 std::size_t at_big) {
    // Allow a handful of calls of jitter (container regrowth rounding);
    // a per-node leak would show up as hundreds.
    const std::size_t hi = at_small > at_big ? at_small : at_big;
    const std::size_t lo = at_small > at_big ? at_big : at_small;
    const bool ok = hi - lo <= 8;
    std::printf("%-12s n=256: %zu allocs   n=1024: %zu allocs   %s\n",
                label, at_small, at_big, ok ? "ok" : "FAIL (n-dependent)");
    if (!ok) ++failures;
  };

  {
    const TreeWakeupOracle oracle;
    const WakeupTreeAlgorithm algorithm;
    RunOptions opts;
    opts.scheduler = SchedulerKind::kSynchronous;
    opts.enforce_wakeup = true;
    const auto advice_small = oracle.advise(small, 0);
    const auto advice_big = oracle.advise(big, 0);
    const std::size_t w_small =
        count_steady_run(small, advice_small, algorithm, opts);
    const std::size_t w_big =
        count_steady_run(big, advice_big, algorithm, opts);
    check("wakeup", w_small, w_big);

    // A seeded-but-empty adversary plan must be allocation-free too: the
    // disabled plan is never consulted, so the steady state is the SAME
    // workload, not merely a similarly-flat one.
    RunOptions zeroed = opts;
    zeroed.adversary.seed = 123456789;  // junk seed, zero rates: disabled
    const std::size_t z_small =
        count_steady_run(small, advice_small, algorithm, zeroed);
    const std::size_t z_big =
        count_steady_run(big, advice_big, algorithm, zeroed);
    check("wakeup+0byz", z_small, z_big);
    check("0byz==off", w_big, z_big);

    // Seed families on one context: a fault-free family served whole by
    // the lockstep pass, and a drop family whose diverged lanes replay on
    // the pass's node plane and behavior pool.
    std::vector<SeedBatchExecutionContext::Lane> lanes;
    for (std::uint64_t l = 0; l < 16; ++l) lanes.push_back({1, 100 + l});
    std::uint32_t replay_small = 0;
    std::uint32_t replay_big = 0;
    check("family",
          count_steady_family(small, advice_small, algorithm, opts, lanes,
                              replay_small),
          count_steady_family(big, advice_big, algorithm, opts, lanes,
                              replay_big));
    RunOptions dropping = opts;
    dropping.fault.drop = 0.0005;
    const std::size_t d_small = count_steady_family(
        small, advice_small, algorithm, dropping, lanes, replay_small);
    const std::size_t d_big = count_steady_family(
        big, advice_big, algorithm, dropping, lanes, replay_big);
    check("family+drop", d_small, d_big);
    // The audit covers replays only if both sizes mix shared and replayed
    // lanes.
    const auto mixed = [&lanes](std::uint32_t replayed) {
      return replayed > 0 && replayed < lanes.size();
    };
    if (!mixed(replay_small) || !mixed(replay_big)) {
      std::printf("FAIL: drop family replayed %u / %u of %zu lanes\n",
                  replay_small, replay_big, lanes.size());
      ++failures;
    }
  }
  {
    const LightBroadcastOracle oracle;
    const BroadcastBAlgorithm algorithm;
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = 9;
    const auto advice_small = oracle.advise(small, 0);
    const auto advice_big = oracle.advise(big, 0);
    check("broadcast-b",
          count_steady_run(small, advice_small, algorithm, opts),
          count_steady_run(big, advice_big, algorithm, opts));

    // The link-fifo clock table is sized once in reset(), never grown in
    // delivery_key — the per-link clamp in the hot path must be free.
    RunOptions fifo = opts;
    fifo.scheduler = SchedulerKind::kAsyncLinkFifo;
    check("link-fifo",
          count_steady_run(small, advice_small, algorithm, fifo),
          count_steady_run(big, advice_big, algorithm, fifo));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace oraclesize

int main() { return oraclesize::audit(); }
