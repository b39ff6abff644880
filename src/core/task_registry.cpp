#include "core/task_registry.h"

#include <iterator>
#include <stdexcept>

#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/gossip.h"
#include "core/hybrid_wakeup.h"
#include "core/wakeup.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/trivial_oracles.h"

namespace oraclesize {

namespace {

template <typename A>
const Algorithm& instance() {
  static const A algorithm;
  return algorithm;
}

struct TaskRow {
  const char* task;
  const Algorithm& (*algorithm)();
  OracleKind oracle;
  TreeKind default_tree;
};

// Row order is known_algorithms() order. Rows that read the same oracle
// kind agree on its default tree.
constexpr TaskRow kTasks[] = {
    {"wakeup", &instance<WakeupTreeAlgorithm>, OracleKind::kTree,
     TreeKind::kBfs},
    {"broadcast", &instance<BroadcastBAlgorithm>, OracleKind::kLight,
     TreeKind::kLight},
    {"flooding", &instance<FloodingAlgorithm>, OracleKind::kNull,
     TreeKind::kBfs},
    {"census", &instance<CensusAlgorithm>, OracleKind::kTree, TreeKind::kBfs},
    {"gossip", &instance<GossipTreeAlgorithm>, OracleKind::kTree,
     TreeKind::kBfs},
    {"hybrid", &instance<HybridWakeupAlgorithm>, OracleKind::kPartial,
     TreeKind::kBfs},
};

struct SchedulerName {
  const char* name;
  SchedulerKind kind;
};

constexpr SchedulerName kSchedulers[] = {
    {"sync", SchedulerKind::kSynchronous},
    {"random", SchedulerKind::kAsyncRandom},
    {"fifo", SchedulerKind::kAsyncFifo},
    {"lifo", SchedulerKind::kAsyncLifo},
    {"linkfifo", SchedulerKind::kAsyncLinkFifo},
    {"adversarial", SchedulerKind::kAsyncAdversarial},
};

constexpr OracleKind kOracleKinds[] = {OracleKind::kTree, OracleKind::kLight,
                                       OracleKind::kPartial, OracleKind::kNull};

TreeKind default_tree(OracleKind kind) {
  for (const TaskRow& row : kTasks) {
    if (row.oracle == kind) return row.default_tree;
  }
  return TreeKind::kBfs;
}

}  // namespace

const char* to_string(OracleKind kind) {
  switch (kind) {
    case OracleKind::kTree:
      return "tree";
    case OracleKind::kLight:
      return "light";
    case OracleKind::kPartial:
      return "partial";
    case OracleKind::kNull:
      return "null";
  }
  return "unknown";
}

OracleKind oracle_kind_by_name(const std::string& name) {
  for (OracleKind kind : kOracleKinds) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown oracle '" + name + "'");
}

std::unique_ptr<Oracle> make_oracle(OracleKind kind, const std::string& tree,
                                    double fraction,
                                    std::uint64_t oracle_seed) {
  const TreeKind t =
      tree.empty() ? default_tree(kind) : tree_kind_by_name(tree);
  switch (kind) {
    case OracleKind::kTree:
      return std::make_unique<TreeWakeupOracle>(t);
    case OracleKind::kLight:
      return std::make_unique<LightBroadcastOracle>(t);
    case OracleKind::kPartial:
      return std::make_unique<PartialTreeOracle>(fraction, oracle_seed, t);
    case OracleKind::kNull:
      break;
  }
  return std::make_unique<NullOracle>();
}

TaskBinding bind_task(const TaskParams& params) {
  for (const TaskRow& row : kTasks) {
    if (params.task != row.task) continue;
    return TaskBinding{make_oracle(row.oracle, params.tree, params.fraction,
                                   params.oracle_seed),
                       &row.algorithm()};
  }
  throw std::invalid_argument("unknown task '" + params.task + "'");
}

SchedulerKind scheduler_by_name(const std::string& name) {
  for (const SchedulerName& s : kSchedulers) {
    if (name == s.name) return s.kind;
  }
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

const Algorithm* algorithm_by_name(const std::string& name) {
  for (const TaskRow& row : kTasks) {
    if (row.algorithm().name() == name) return &row.algorithm();
  }
  return nullptr;
}

std::vector<std::string> known_algorithms() {
  std::vector<std::string> names;
  names.reserve(std::size(kTasks));
  for (const TaskRow& row : kTasks) names.push_back(row.algorithm().name());
  return names;
}

}  // namespace oraclesize
