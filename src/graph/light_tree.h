// The light spanning tree of Claim 3.1 — the heart of the O(n) broadcast
// oracle (Theorem 3.1).
//
// With edge weights w(e) = min{port_u(e), port_v(e)} and #2(w) the binary
// length of w, Claim 3.1 constructs a spanning tree T0 with
//
//     sum over e in T0 of #2(w(e))  <=  4n.
//
// The construction is a phased Boruvka/Kruskal hybrid: in phase k every
// "small" tree (fewer than 2^k nodes) selects a minimum-weight edge leaving
// it; all selected edges are added and one edge per created cycle is erased.
// Small trees at phase k have fewer than 2^k nodes, so the port used never
// exceeds 2^k - 2, bounding that edge's contribution by k; with at most
// n/2^{k-1} trees in phase k the total telescopes to <= 4n.
#pragma once

#include "graph/port_graph.h"
#include "graph/spanning_tree.h"

namespace oraclesize {

/// Per-phase accounting of the construction (exported for tests and the E3
/// benchmark, which reproduces the telescoping bound).
struct LightTreePhase {
  int phase = 0;                   ///< k
  std::size_t trees_before = 0;    ///< trees at the start of the phase
  std::size_t small_trees = 0;     ///< |T_small(k)|
  std::size_t edges_added = 0;     ///< selected edges that merged trees
  std::size_t edges_erased = 0;    ///< selected edges erased (cycle-closing)
  std::uint64_t contribution = 0;  ///< C_k = sum of #2(w) over added edges
  std::size_t edges_scanned = 0;     ///< edge handles the phase scan read
  std::size_t internal_dropped = 0;  ///< of those, internal: dropped for good
};

struct LightTreeResult {
  SpanningTree tree;
  std::vector<LightTreePhase> phases;
  std::uint64_t contribution = 0;  ///< sum of #2(w(e)) over tree edges
  /// Edge handles ever put in weight order. Weight buckets are built only
  /// when a phase scan runs out of handles, so this is usually far below m
  /// on dense graphs (K*_n reads only bucket 0: n handles).
  std::size_t edges_materialized = 0;
};

/// Runs the Claim 3.1 construction on a connected graph.
///
/// Cost: O(m) in total for the weight buckets that get built (bucket w
/// visits only nodes of degree > w, and no bucket is sorted), and per phase
/// O(n) to count small trees plus O(scanned) for the scan (never the
/// unscanned tail); at most ceil(log2 n) + 1 phases. Buckets are built
/// only when a scan runs out of handles, so a dense graph whose trees all
/// find an edge of weight 0 (K*_n) costs O(n) per phase, not O(m).
LightTreeResult light_tree(const PortGraph& g, NodeId root);

}  // namespace oraclesize
