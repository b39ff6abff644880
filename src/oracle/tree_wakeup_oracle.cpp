#include "oracle/tree_wakeup_oracle.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitio/codecs.h"
#include "graph/light_tree.h"
#include "util/mathx.h"

namespace oraclesize {

const char* to_string(TreeKind kind) {
  switch (kind) {
    case TreeKind::kBfs:
      return "bfs";
    case TreeKind::kDfs:
      return "dfs";
    case TreeKind::kKruskal:
      return "kruskal";
    case TreeKind::kLight:
      return "light";
  }
  return "unknown";
}

TreeKind tree_kind_by_name(const std::string& name) {
  for (TreeKind kind :
       {TreeKind::kBfs, TreeKind::kDfs, TreeKind::kKruskal, TreeKind::kLight}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown tree '" + name + "'");
}

SpanningTree build_tree(const PortGraph& g, NodeId root, TreeKind kind) {
  switch (kind) {
    case TreeKind::kBfs:
      return bfs_tree(g, root);
    case TreeKind::kDfs:
      return dfs_tree(g, root);
    case TreeKind::kKruskal:
      return kruskal_mst(g, root);
    case TreeKind::kLight:
      return light_tree(g, root).tree;
  }
  return bfs_tree(g, root);
}

std::vector<BitString> TreeWakeupOracle::advise(const PortGraph& g,
                                                NodeId source) const {
  const std::size_t n = g.num_nodes();
  std::vector<BitString> advice(n);
  if (n <= 1) return advice;
  const SpanningTree tree = build_tree(g, source, tree_);
  // Port numbers are below n-1 < n, so ceil(log2 n) bits suffice.
  const int width = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<Port>& ports = tree.child_ports(v);
    if (ports.empty()) continue;  // leaves: empty string, as in the paper
    std::vector<std::uint64_t> wide(ports.begin(), ports.end());
    advice[v] = encode_port_list(wide, width);
  }
  return advice;
}

std::string TreeWakeupOracle::name() const {
  return std::string("tree-wakeup(") + to_string(tree_) + ")";
}

}  // namespace oraclesize
