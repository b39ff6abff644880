// Differential test for the engine's event queue: random push/pop sequences
// in every key pattern the schedulers and fault plans produce, checked
// against a std::set<(key, seq)> reference. The queue must hand back exactly
// the reference's minimum on every pop — delivery order is the engine's
// semantics, so any deviation is a behavior change, not a perf detail.
#include "sim/event_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "util/rng.h"

namespace oraclesize {
namespace {

/// Key of a message sent with sequence `seq` while the last delivered event
/// had key `now`.
using KeyFn =
    std::function<std::int64_t(std::int64_t now, std::uint64_t seq, Rng&)>;

/// Drives `heap` and the reference through `ops` random operations (pushes
/// with probability push_pct/100, otherwise pops), then drains both. Every
/// pop is compared against the reference; size() after every operation and
/// peak() at the end. Pushes carry increasing seqs from `seq`, the
/// engine's rule. Returns the number of operations performed.
std::size_t drive(EventHeap& heap, const KeyFn& key_of, std::uint64_t seed,
                  std::size_t ops, std::uint64_t push_pct,
                  std::uint64_t& seq) {
  Rng rng(seed);
  std::set<std::pair<std::int64_t, std::uint64_t>> ref;
  std::int64_t now = 0;
  std::size_t peak = 0;
  std::size_t done = 0;
  auto pop_one = [&]() {
    const EventHeap::Entry e = heap.pop();
    const auto want = *ref.begin();
    ref.erase(ref.begin());
    EXPECT_EQ(e.key, want.first) << "seed " << seed << " op " << done;
    EXPECT_EQ(e.seq, want.second) << "seed " << seed << " op " << done;
    EXPECT_EQ(e.slot, static_cast<std::size_t>(e.seq));
    now = e.key;
  };
  for (std::size_t i = 0; i < ops; ++i) {
    if (ref.empty() || rng.below(100) < push_pct) {
      const std::int64_t key = key_of(now, seq, rng);
      heap.push({key, seq, static_cast<std::size_t>(seq)});
      ref.insert({key, seq});
      ++seq;
      peak = std::max(peak, ref.size());
    } else {
      pop_one();
    }
    ++done;
    EXPECT_EQ(heap.size(), ref.size());
    if (::testing::Test::HasFailure()) return done;
  }
  while (!ref.empty()) {
    pop_one();
    ++done;
    if (::testing::Test::HasFailure()) return done;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.peak(), peak);
  return done;
}

/// Runs one key pattern over several seeds and push mixes on fresh heaps.
std::size_t check_pattern(const KeyFn& key_of) {
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::uint64_t push_pct : {50u, 60u, 75u}) {
      EventHeap heap;
      std::uint64_t seq = 0;
      total += drive(heap, key_of, seed * 100 + push_pct, 1200, push_pct,
                     seq);
      if (::testing::Test::HasFailure()) return total;
    }
  }
  return total;
}

TEST(EventQueue, SynchronousKeys) {
  const std::size_t ops = check_pattern(
      [](std::int64_t now, std::uint64_t, Rng&) { return now + 1; });
  EXPECT_GE(ops, 10000u);
}

TEST(EventQueue, AsyncRandomKeys) {
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    return now + 1 + static_cast<std::int64_t>(rng.below(16));
  });
}

TEST(EventQueue, AdversarialKeys) {
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    return now + 1 + 16 * static_cast<std::int64_t>(rng.below(3));
  });
}

TEST(EventQueue, FifoKeys) {
  check_pattern([](std::int64_t, std::uint64_t seq, Rng&) {
    return static_cast<std::int64_t>(seq);
  });
}

TEST(EventQueue, LifoKeys) {
  check_pattern([](std::int64_t, std::uint64_t seq, Rng&) {
    return -static_cast<std::int64_t>(seq);
  });
}

TEST(EventQueue, FarFutureKeysMixedWithNearOnes) {
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    if (rng.below(4) == 0) return now + 1000000;
    return now + 1 + static_cast<std::int64_t>(rng.below(16));
  });
}

TEST(EventQueue, NegativeKeysAndKeysBelowTheLastPop) {
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    return now - 8 + static_cast<std::int64_t>(rng.below(24));
  });
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    return now - 1000000 + static_cast<std::int64_t>(rng.below(70));
  });
}

TEST(EventQueue, KeysAtTheWindowEdgeWrapAcrossTheLastBucket) {
  // Offsets straddling a 64-wide window, with `now` drifting through
  // multiples of 64 so keys cross bucket 63 -> 0.
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    static constexpr std::int64_t kOffsets[] = {0, 1, 2, 62, 63, 64, 65, 127};
    return now + kOffsets[rng.below(8)];
  });
  check_pattern([](std::int64_t now, std::uint64_t, Rng& rng) {
    return now + 1 + static_cast<std::int64_t>(rng.below(70));
  });
}

TEST(EventQueue, MixedPatterns) {
  check_pattern([](std::int64_t now, std::uint64_t seq, Rng& rng) {
    switch (rng.below(6)) {
      case 0:
        return now + 1;
      case 1:
        return now + 1 + static_cast<std::int64_t>(rng.below(16));
      case 2:
        return static_cast<std::int64_t>(seq);
      case 3:
        return -static_cast<std::int64_t>(seq);
      case 4:
        return now + 1 + static_cast<std::int64_t>(rng.below(200));
      default:
        return now + 1000000;
    }
  });
}

TEST(EventQueue, ClearResetsSizeAndPeakAndTheQueueStaysReusable) {
  EventHeap heap;
  std::uint64_t seq = 0;
  const KeyFn random_keys = [](std::int64_t now, std::uint64_t, Rng& rng) {
    return now + 1 + static_cast<std::int64_t>(rng.below(16));
  };
  const KeyFn far_keys = [](std::int64_t now, std::uint64_t, Rng& rng) {
    return now + 100 + static_cast<std::int64_t>(rng.below(1000));
  };
  for (std::uint64_t round = 0; round < 6; ++round) {
    // Leave entries pending (ring and overflow alike), then clear.
    Rng rng(round + 1);
    for (int i = 0; i < 40; ++i) {
      heap.push({static_cast<std::int64_t>(rng.below(200)) - 50, seq,
                 static_cast<std::size_t>(seq)});
      ++seq;
    }
    (void)heap.pop();
    EXPECT_EQ(heap.size(), 39u);
    EXPECT_EQ(heap.peak(), 40u);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.size(), 0u);
    EXPECT_EQ(heap.peak(), 0u);
    // A cleared queue behaves like a fresh one; seqs restart too.
    seq = 0;
    drive(heap, round % 2 == 0 ? random_keys : far_keys, round + 7, 600, 60,
          seq);
    if (HasFailure()) return;
    heap.clear();
    seq = 0;
  }
}

TEST(EventQueue, PeakIsTheSizeHighWaterMark) {
  EventHeap heap;
  EXPECT_EQ(heap.peak(), 0u);
  for (std::uint64_t s = 0; s < 5; ++s) heap.push({1, s, 0});
  EXPECT_EQ(heap.peak(), 5u);
  for (int i = 0; i < 3; ++i) (void)heap.pop();
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.peak(), 5u);
  heap.push({200, 5, 0});  // beyond any 64-key window
  heap.push({-3, 6, 0});
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.peak(), 5u);
  heap.push({2, 7, 0});
  EXPECT_EQ(heap.peak(), 5u);
  heap.push({2, 8, 0});
  EXPECT_EQ(heap.peak(), 6u);
  const std::int64_t want[] = {-3, 1, 1, 2, 2, 200};
  for (const std::int64_t k : want) EXPECT_EQ(heap.pop().key, k);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.peak(), 6u);
}

}  // namespace
}  // namespace oraclesize
