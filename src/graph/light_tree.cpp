#include "graph/light_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "util/mathx.h"

namespace oraclesize {

namespace {

class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1), count_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --count_;
    return true;
  }
  std::size_t size_of(std::size_t x) { return size_[find(x)]; }
  std::size_t num_components() const noexcept { return count_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t count_;
};

}  // namespace

LightTreeResult light_tree(const PortGraph& g, NodeId root) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument("light_tree: empty graph");

  Dsu dsu(n);
  std::vector<Edge> forest;
  forest.reserve(n - 1);
  LightTreeResult result;

  // Edges in ascending-weight order, held as packed (u << 32) | port_u
  // handles with u the smaller endpoint (the packing is monotone in
  // (u, port_u), i.e. in g.edges() order) and resolved against the
  // graph's own adjacency: the O(m) Edge list is never built. A small
  // tree's pick is its lightest outgoing edge, ties broken by the smallest
  // handle — the lowest g.edges() index, exactly the historical tie-break.
  //
  // Weight buckets are materialized lazily, in weight order, only when a
  // scan runs out of handles: on dense graphs the early phases finish
  // inside the first few buckets (on K*_n the single phase reads only
  // bucket 0), so most of the m edges are never touched. Within a bucket
  // handles stay in materialization order; instead of sorting them, a
  // root keeps the smallest handle it meets in the bucket where it first
  // met one, and a phase only stops at a bucket boundary.
  const auto unpack_u = [](std::uint64_t key) {
    return static_cast<NodeId>(key >> 32);
  };
  const auto unpack_port = [](std::uint64_t key) {
    return static_cast<Port>(key);
  };
  const auto pack = [](NodeId u, Port pu) {
    return (static_cast<std::uint64_t>(u) << 32) | pu;
  };
  // The nodes that can still hold a handle of the next bucket (degree >
  // its weight), in id order. Each bucket drops the nodes it exhausts, so
  // building every bucket costs sum of degrees = O(m) in total.
  std::vector<NodeId> active;
  active.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!g.neighbors(v).empty()) active.push_back(v);
  }
  Port next_weight = 0;  // the next bucket to materialize
  std::vector<std::uint64_t> order;  // live handles are order[head, end)
  std::size_t head = 0;
  // Appends bucket next_weight: the edges whose smaller port is w, each
  // seen from an endpoint x holding it at port w (an edge with port w at
  // both ends is taken from the smaller id only).
  const auto materialize_next = [&]() {
    const Port w = next_weight++;
    std::size_t keep = 0;
    for (const NodeId x : active) {
      const std::span<const Endpoint> row = g.neighbors(x);
      if (row.size() > w + 1) active[keep++] = x;
      const Endpoint e = row[w];
      if (e.node == kNoNode || e.port < w || (e.port == w && e.node < x)) {
        continue;
      }
      order.push_back(x < e.node ? pack(x, w) : pack(e.node, e.port));
    }
    active.resize(keep);
  };
  constexpr std::uint64_t kUnset = std::numeric_limits<std::uint64_t>::max();
  // Flat best[] / best_weight[] arrays (reps are node ids) reset via the
  // touched list — no hashing on the inner loop.
  std::vector<std::uint64_t> best(n, kUnset);
  std::vector<Port> best_weight(n, 0);
  std::vector<std::size_t> touched;

  // Phases k = 1, 2, ...: every tree of size < 2^k selects a minimum-weight
  // outgoing edge; selected edges are merged in, cycle-closing ones erased.
  // Components only grow, so after at most ceil(log2 n) + 1 phases every
  // tree is "small or alone" and the forest is a single spanning tree.
  for (int k = 1; dsu.num_components() > 1; ++k) {
    if (k > 64) throw std::logic_error("light_tree: disconnected graph?");
    LightTreePhase phase;
    phase.phase = k;
    phase.trees_before = dsu.num_components();
    const std::size_t small_limit = (k < 63) ? (std::size_t{1} << k) : n + 1;

    // In a connected graph every component (while there are >= 2) has an
    // outgoing edge, so exactly this many assignments will happen.
    std::size_t needed = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (dsu.find(v) == v && dsu.size_of(v) < small_limit) ++needed;
    }

    // The scan also permanently drops internal edges: an edge whose
    // endpoints share a component can never leave one again. Kept handles
    // are compacted to the front of the scanned range and then moved up
    // against the unscanned tail, so a phase costs O(scanned), never
    // O(tail). Relative order is preserved, so buckets stay in weight
    // order. Once every small tree has a pick, the scan still finishes the
    // current bucket: a later handle of the same weight may be smaller.
    touched.clear();
    std::size_t out = head;
    std::size_t i = head;
    Port scan_weight = 0;
    for (;;) {
      if (i == order.size()) {
        // Buckets are appended whole, so the tail ends on a boundary.
        if (touched.size() == needed || active.empty()) break;
        materialize_next();
        continue;
      }
      const std::uint64_t key = order[i];
      const NodeId u = unpack_u(key);
      const Port pu = unpack_port(key);
      const Endpoint other = g.neighbors(u)[pu];
      const Port w = std::min(pu, other.port);
      if (touched.size() == needed && (i == head || w != scan_weight)) break;
      ++i;
      scan_weight = w;
      const std::size_t ru = dsu.find(u);
      const std::size_t rv = dsu.find(other.node);
      if (ru == rv) {
        ++phase.internal_dropped;
        continue;
      }
      order[out++] = key;
      for (const std::size_t r : {ru, rv}) {
        if (dsu.size_of(r) >= small_limit) continue;
        if (best[r] == kUnset) {
          best[r] = key;  // first bucket seen = lightest weight
          best_weight[r] = w;
          touched.push_back(r);
        } else if (best_weight[r] == w && key < best[r]) {
          best[r] = key;  // same weight, earlier in g.edges() order
        }
      }
    }
    phase.edges_scanned = i - head;
    const auto base = order.begin();
    std::move_backward(base + static_cast<std::ptrdiff_t>(head),
                       base + static_cast<std::ptrdiff_t>(out),
                       base + static_cast<std::ptrdiff_t>(i));
    head = i - (out - head);
    phase.small_trees = touched.size();

    // Two trees may select the same edge; add it once (no cycle arises).
    // Sorting the packed keys reproduces the historical pick-processing
    // order (g.edges() order).
    std::vector<std::uint64_t> picks;
    picks.reserve(touched.size());
    for (const std::size_t rep : touched) {
      picks.push_back(best[rep]);
      best[rep] = kUnset;  // reset for the next phase
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());

    for (const std::uint64_t key : picks) {
      const NodeId u = unpack_u(key);
      const Port pu = unpack_port(key);
      const Endpoint other = g.neighbors(u)[pu];
      const Edge e{u, pu, other.node, other.port};
      if (dsu.unite(e.u, e.v)) {
        forest.push_back(e);
        ++phase.edges_added;
        phase.contribution += static_cast<std::uint64_t>(num_bits(e.weight()));
      } else {
        ++phase.edges_erased;  // closed a cycle among this phase's picks
      }
    }
    if (phase.small_trees > 0) result.phases.push_back(phase);
    if (phase.trees_before > 1 && phase.edges_added == 0 &&
        phase.small_trees > 0) {
      throw std::logic_error("light_tree: stuck (graph disconnected)");
    }
  }

  result.edges_materialized = order.size();
  for (const LightTreePhase& p : result.phases) {
    result.contribution += p.contribution;
  }
  result.tree = SpanningTree::from_edges(g, root, forest);
  return result;
}

}  // namespace oraclesize
