// The task registry: the one table that says what each task name means.
//
// The paper defines a task by a pair — an oracle and the algorithm that
// reads its advice (wakeup: the Theorem 2.1 tree oracle; broadcast: scheme
// B over the Claim 3.1 light-tree oracle). Each row of the table in
// task_registry.cpp holds one such pair plus the spanning tree the oracle
// encodes by default.
// The CLI (`run`, `advise`), the oracled service (service/task_catalog.h)
// and trace replay all resolve names here, so a task, an oracle kind, a
// tree, a scheduler short name or an algorithm name means the same thing
// on every surface.
//
// Every lookup is a scan of a few static rows: no allocation, no map.
// Unknown names throw std::invalid_argument naming the token, except
// algorithm_by_name, which returns nullptr (replay reports its own error).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oracle/oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/scheduler.h"
#include "sim/scheme.h"

namespace oraclesize {

/// The four oracles a task can read, by their `advise` names
/// tree|light|partial|null.
enum class OracleKind { kTree, kLight, kPartial, kNull };

const char* to_string(OracleKind kind);

/// Inverse of to_string(OracleKind).
OracleKind oracle_kind_by_name(const std::string& name);

/// Builds an oracle with a parameter-complete name (equal arguments give
/// equal names, so they share advice-cache entries). `tree` names a
/// TreeKind; "" means the default tree of the tasks that read `kind`
/// (light for the light-tree oracle, bfs otherwise). `fraction` and
/// `oracle_seed` are read by the partial (hybrid) oracle only. Throws
/// std::invalid_argument on an unknown tree name.
std::unique_ptr<Oracle> make_oracle(OracleKind kind, const std::string& tree,
                                    double fraction,
                                    std::uint64_t oracle_seed);

/// The oracle-side parameters of a task request.
struct TaskParams {
  /// wakeup|broadcast|flooding|census|gossip|hybrid
  std::string task = "wakeup";
  std::string tree;               ///< bfs|dfs|kruskal|light; "" = task default
  double fraction = 0.5;          ///< hybrid: advised fraction
  std::uint64_t oracle_seed = 1;  ///< hybrid: advised-set seed
};

/// The (oracle, algorithm) pair a task denotes. The algorithm is a shared
/// immutable instance; the oracle is freshly built by make_oracle.
struct TaskBinding {
  std::unique_ptr<Oracle> oracle;
  const Algorithm* algorithm = nullptr;
};

/// Resolves the task's row and builds its oracle. Throws
/// std::invalid_argument on an unknown task or tree name.
TaskBinding bind_task(const TaskParams& params);

/// Scheduler by its short name sync|random|fifo|lifo|linkfifo|adversarial.
SchedulerKind scheduler_by_name(const std::string& name);

/// Looks up one of the built-in algorithms by Algorithm::name()
/// ("wakeup-tree", "broadcast-B", "flooding", "census-echo", "gossip-tree",
/// "hybrid-wakeup"). Returns a shared immutable instance, or nullptr for an
/// unknown name. Instances are stateless and safe to use concurrently.
const Algorithm* algorithm_by_name(const std::string& name);

/// Names of every algorithm algorithm_by_name resolves, in registry order.
std::vector<std::string> known_algorithms();

}  // namespace oraclesize
