#include "graph/complete_star.h"

#include <stdexcept>
#include <vector>

namespace oraclesize {

Port complete_star_port(std::size_t n, NodeId i, NodeId j) {
  if (i >= n || j >= n || i == j) {
    throw std::invalid_argument("complete_star_port: bad endpoints");
  }
  const std::size_t diff = (static_cast<std::size_t>(j) + n -
                            static_cast<std::size_t>(i)) % n;  // in 1..n-1
  return static_cast<Port>(diff - 1);
}

NodeId complete_star_neighbor(std::size_t n, NodeId i, Port p) {
  if (i >= n || p + 1 >= n) {
    throw std::invalid_argument("complete_star_neighbor: bad arguments");
  }
  return static_cast<NodeId>((static_cast<std::size_t>(i) + p + 1) % n);
}

PortGraph make_complete_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_complete_star: n >= 2");
  // Every degree is n-1, so the CSR rows are written directly; each edge
  // still goes through from_degrees' range/self-loop/occupied checks.
  const std::vector<std::size_t> degrees(n, n - 1);
  return PortGraph::from_degrees(degrees, [n](auto add) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        // complete_star_port in closed form for i < j: (j - i) - 1 at i,
        // (n - (j - i)) - 1 at j.
        const std::size_t d = j - i;
        add(i, static_cast<Port>(d - 1), j, static_cast<Port>(n - d - 1));
      }
    }
  });
}

}  // namespace oraclesize
