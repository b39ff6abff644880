// The task registry (core/task_registry.h): every name the CLI, the service
// and replay resolve. The oracle and algorithm names pinned here are
// advice-cache keys and trace-header fields, so a registry edit that moves
// one is a behaviour change, not a refactor.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/task_registry.h"
#include "sim/adversary_plan.h"

namespace oraclesize {
namespace {

struct Pinned {
  const char* task;
  const char* tree;  ///< "" = task default
  const char* oracle;
  const char* algorithm;
};

const Pinned kPinned[] = {
    {"wakeup", "", "tree-wakeup(bfs)", "wakeup-tree"},
    {"wakeup", "bfs", "tree-wakeup(bfs)", "wakeup-tree"},
    {"wakeup", "dfs", "tree-wakeup(dfs)", "wakeup-tree"},
    {"wakeup", "kruskal", "tree-wakeup(kruskal)", "wakeup-tree"},
    {"wakeup", "light", "tree-wakeup(light)", "wakeup-tree"},
    {"broadcast", "", "light-broadcast(light)", "broadcast-B"},
    {"broadcast", "bfs", "light-broadcast(bfs)", "broadcast-B"},
    {"broadcast", "dfs", "light-broadcast(dfs)", "broadcast-B"},
    {"broadcast", "kruskal", "light-broadcast(kruskal)", "broadcast-B"},
    {"broadcast", "light", "light-broadcast(light)", "broadcast-B"},
    {"flooding", "", "null", "flooding"},
    {"flooding", "bfs", "null", "flooding"},
    {"flooding", "dfs", "null", "flooding"},
    {"flooding", "kruskal", "null", "flooding"},
    {"flooding", "light", "null", "flooding"},
    {"census", "", "tree-wakeup(bfs)", "census-echo"},
    {"census", "bfs", "tree-wakeup(bfs)", "census-echo"},
    {"census", "dfs", "tree-wakeup(dfs)", "census-echo"},
    {"census", "kruskal", "tree-wakeup(kruskal)", "census-echo"},
    {"census", "light", "tree-wakeup(light)", "census-echo"},
    {"gossip", "", "tree-wakeup(bfs)", "gossip-tree"},
    {"gossip", "bfs", "tree-wakeup(bfs)", "gossip-tree"},
    {"gossip", "dfs", "tree-wakeup(dfs)", "gossip-tree"},
    {"gossip", "kruskal", "tree-wakeup(kruskal)", "gossip-tree"},
    {"gossip", "light", "tree-wakeup(light)", "gossip-tree"},
    {"hybrid", "", "partial-tree(0.5,bfs,seed=1)", "hybrid-wakeup"},
    {"hybrid", "bfs", "partial-tree(0.5,bfs,seed=1)", "hybrid-wakeup"},
    {"hybrid", "dfs", "partial-tree(0.5,dfs,seed=1)", "hybrid-wakeup"},
    {"hybrid", "kruskal", "partial-tree(0.5,kruskal,seed=1)",
     "hybrid-wakeup"},
    {"hybrid", "light", "partial-tree(0.5,light,seed=1)", "hybrid-wakeup"},
};

/// Runs `fn` and returns the std::invalid_argument message it throws.
template <typename Fn>
std::string invalid_argument_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no std::invalid_argument thrown";
  return "";
}

TEST(TaskRegistry, EveryTaskAndTreeBindsThePinnedNames) {
  for (const Pinned& p : kPinned) {
    TaskParams params;
    params.task = p.task;
    params.tree = p.tree;
    const TaskBinding binding = bind_task(params);
    ASSERT_NE(binding.oracle, nullptr) << p.task << " " << p.tree;
    ASSERT_NE(binding.algorithm, nullptr) << p.task << " " << p.tree;
    EXPECT_EQ(binding.oracle->name(), p.oracle) << p.task << " " << p.tree;
    EXPECT_EQ(binding.algorithm->name(), p.algorithm) << p.task;
    // The bound algorithm is the shared instance replay resolves.
    EXPECT_EQ(binding.algorithm, algorithm_by_name(p.algorithm)) << p.task;
  }
}

TEST(TaskRegistry, HybridOracleReadsFractionAndSeed) {
  TaskParams params;
  params.task = "hybrid";
  params.fraction = 0.25;
  params.oracle_seed = 3;
  EXPECT_EQ(bind_task(params).oracle->name(), "partial-tree(0.25,bfs,seed=3)");
}

TEST(TaskRegistry, OracleKindsMatchTheTasksThatReadThem) {
  // `advise <kind>` builds the same oracle as the task that reads it.
  const std::vector<std::pair<const char*, const char*>> kinds = {
      {"tree", "wakeup"},
      {"light", "broadcast"},
      {"partial", "hybrid"},
      {"null", "flooding"}};
  for (const auto& [kind_name, task] : kinds) {
    const OracleKind kind = oracle_kind_by_name(kind_name);
    EXPECT_STREQ(to_string(kind), kind_name);
    for (const char* tree : {"", "bfs", "dfs", "kruskal", "light"}) {
      TaskParams params;
      params.task = task;
      params.tree = tree;
      EXPECT_EQ(make_oracle(kind, tree, 0.5, 1)->name(),
                bind_task(params).oracle->name())
          << kind_name << " " << tree;
    }
  }
}

TEST(TaskRegistry, SchedulerShortNames) {
  EXPECT_EQ(scheduler_by_name("sync"), SchedulerKind::kSynchronous);
  EXPECT_EQ(scheduler_by_name("random"), SchedulerKind::kAsyncRandom);
  EXPECT_EQ(scheduler_by_name("fifo"), SchedulerKind::kAsyncFifo);
  EXPECT_EQ(scheduler_by_name("lifo"), SchedulerKind::kAsyncLifo);
  EXPECT_EQ(scheduler_by_name("linkfifo"), SchedulerKind::kAsyncLinkFifo);
  EXPECT_EQ(scheduler_by_name("adversarial"),
            SchedulerKind::kAsyncAdversarial);
}

TEST(TaskRegistry, TreeAndStrategyNamesRoundTrip) {
  for (TreeKind kind :
       {TreeKind::kBfs, TreeKind::kDfs, TreeKind::kKruskal, TreeKind::kLight}) {
    EXPECT_EQ(tree_kind_by_name(to_string(kind)), kind) << to_string(kind);
  }
  for (ByzantineStrategy strategy :
       {ByzantineStrategy::kRandomBits, ByzantineStrategy::kReplay,
        ByzantineStrategy::kStructuredLie}) {
    EXPECT_EQ(byzantine_strategy_by_name(to_string(strategy)), strategy)
        << to_string(strategy);
  }
}

TEST(TaskRegistry, KnownAlgorithmsInRegistryOrder) {
  const std::vector<std::string> want = {"wakeup-tree", "broadcast-B",
                                         "flooding",    "census-echo",
                                         "gossip-tree", "hybrid-wakeup"};
  EXPECT_EQ(known_algorithms(), want);
  EXPECT_EQ(algorithm_by_name("definitely-not"), nullptr);
}

TEST(TaskRegistry, UnknownNamesThrowNamingTheToken) {
  TaskParams bad_task;
  bad_task.task = "teleport";
  EXPECT_NE(invalid_argument_of([&] { bind_task(bad_task); })
                .find("'teleport'"),
            std::string::npos);

  TaskParams bad_tree;
  bad_tree.tree = "prim";
  EXPECT_NE(invalid_argument_of([&] { bind_task(bad_tree); }).find("'prim'"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([] { tree_kind_by_name("prim"); })
                .find("'prim'"),
            std::string::npos);
  // A task that reads no tree still rejects a bad tree name.
  bad_tree.task = "flooding";
  EXPECT_NE(invalid_argument_of([&] { bind_task(bad_tree); }).find("'prim'"),
            std::string::npos);

  EXPECT_NE(invalid_argument_of([] { scheduler_by_name("async-random"); })
                .find("'async-random'"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([] { byzantine_strategy_by_name("lies"); })
                .find("'lies'"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([] { oracle_kind_by_name("oracle"); })
                .find("'oracle'"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([] { make_oracle(OracleKind::kTree, "prim",
                                                 0.5, 1); })
                .find("'prim'"),
            std::string::npos);
}

}  // namespace
}  // namespace oraclesize
