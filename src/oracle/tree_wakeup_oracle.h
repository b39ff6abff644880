// The Theorem 2.1 oracle: O(n log n) bits enabling wakeup with exactly n-1
// messages.
//
// Fix a spanning tree T of G rooted at the source. Each internal node v of T
// receives the list of port numbers leading to its children, encoded as
// fixed-width fields of ceil(log2 n) bits preceded by a doubled-bit header
// carrying the width (codecs.h, encode_port_list); leaves receive the empty
// string. Total size n*ceil(log2 n) + O(n log log n). The matching wakeup
// algorithm lives in core/wakeup.h.
#pragma once

#include "graph/spanning_tree.h"
#include "oracle/oracle.h"

namespace oraclesize {

/// Which spanning tree the oracle encodes. kLight reuses the Claim 3.1
/// construction (an ablation; any tree meets the Theorem 2.1 bound).
enum class TreeKind { kBfs, kDfs, kKruskal, kLight };

const char* to_string(TreeKind kind);

/// Inverse of to_string(TreeKind); throws std::invalid_argument naming an
/// unknown tree.
TreeKind tree_kind_by_name(const std::string& name);

/// Builds the requested tree for a given graph/root (shared helper).
SpanningTree build_tree(const PortGraph& g, NodeId root, TreeKind kind);

class TreeWakeupOracle final : public Oracle {
 public:
  explicit TreeWakeupOracle(TreeKind tree = TreeKind::kBfs) : tree_(tree) {}

  std::vector<BitString> advise(const PortGraph& g,
                                NodeId source) const override;
  std::string name() const override;

 private:
  TreeKind tree_;
};

}  // namespace oraclesize
