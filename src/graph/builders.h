// Standard network topologies used as workloads in tests and benchmarks.
//
// Ports are assigned in construction order (dense, deterministic); callers
// that want adversarial or randomized port numberings apply shuffle_ports().
// All builders produce connected graphs with labels 1..n.
#pragma once

#include "graph/port_graph.h"
#include "util/rng.h"

namespace oraclesize {

/// Simple path v0 - v1 - ... - v{n-1}. Requires n >= 1.
PortGraph make_path(std::size_t n);

/// Cycle on n nodes. Requires n >= 3.
PortGraph make_cycle(std::size_t n);

/// Star with center node 0 and n-1 leaves. Requires n >= 2.
PortGraph make_star(std::size_t n);

/// rows x cols grid (4-neighbor). Requires rows, cols >= 1.
PortGraph make_grid(std::size_t rows, std::size_t cols);

/// d-dimensional hypercube (2^d nodes). Requires 0 <= d <= 20.
PortGraph make_hypercube(int d);

/// Complete binary tree with n nodes (heap-shaped). Requires n >= 1.
PortGraph make_binary_tree(std::size_t n);

/// Uniform random labeled tree on n nodes (random Prufer sequence).
/// Requires n >= 1.
PortGraph make_random_tree(std::size_t n, Rng& rng);

/// Connected Erdos-Renyi-style graph: a random spanning tree plus each
/// remaining pair joined independently with probability p.
///
/// The build is O(n^2): it makes exactly one rng.chance(p) draw per
/// non-tree pair, in (u, v > u) order. That draw order IS the seeded
/// graph, so keeping it keeps every seeded workload, golden and committed
/// BENCH table unchanged. Geometric skip sampling (Batagelj-Brandes) would
/// make it O(n + m) but draws differently; it is deferred until a change
/// is ready to re-pin those outputs.
PortGraph make_random_connected(std::size_t n, double p, Rng& rng);

/// The classic lollipop: a clique on ceil(n/2) nodes with a path of the
/// remaining nodes attached. A stress case for message-complexity baselines
/// (flooding pays for the clique, tree-based schemes do not).
PortGraph make_lollipop(std::size_t n);

/// rows x cols torus (4-neighbor with wraparound). Requires rows, cols >= 3
/// (smaller wraps would create parallel edges).
PortGraph make_torus(std::size_t rows, std::size_t cols);

/// Complete bipartite graph K_{a,b} (left ids 0..a-1, right a..a+b-1).
/// Requires a, b >= 1.
PortGraph make_complete_bipartite(std::size_t a, std::size_t b);

/// Wheel: a cycle on n-1 nodes plus a hub adjacent to all. Requires n >= 4.
PortGraph make_wheel(std::size_t n);

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` pendant
/// leaves. Requires spine >= 1. n = spine * (1 + legs).
PortGraph make_caterpillar(std::size_t spine, std::size_t legs);

/// Random d-regular graph via the configuration model with restarts
/// (rejecting self-loops/parallel edges) until the sample is simple and
/// connected. Requires n*d even, d < n, and d >= 2 for connectivity to be
/// reachable. May try many times for awkward (n, d); throws
/// std::runtime_error after `max_attempts` failures.
PortGraph make_random_regular(std::size_t n, std::size_t d, Rng& rng,
                              int max_attempts = 200);

/// Returns a copy of g whose port numbers at every node are independently
/// and uniformly permuted. Structure and labels are unchanged. Used to check
/// that algorithms do not accidentally rely on a builder's port order.
PortGraph shuffle_ports(const PortGraph& g, Rng& rng);

}  // namespace oraclesize
