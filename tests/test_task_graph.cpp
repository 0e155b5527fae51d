/// Unit tests for the validated multi-rate task graph (lbmem/model).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "lbmem/model/task_graph.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {
namespace {

TaskGraph two_task_graph(Time tp, Time tc) {
  TaskGraph g;
  const TaskId p = g.add_task("p", tp, 1, 1);
  const TaskId c = g.add_task("c", tc, 1, 1);
  g.add_dependence(p, c);
  g.freeze();
  return g;
}

TEST(TaskGraph, AddTaskValidation) {
  TaskGraph g;
  EXPECT_THROW(g.add_task("", 4, 1, 1), ModelError);       // empty name
  EXPECT_THROW(g.add_task("t", 0, 1, 1), ModelError);      // period <= 0
  EXPECT_THROW(g.add_task("t", 4, 0, 1), ModelError);      // wcet <= 0
  EXPECT_THROW(g.add_task("t", 4, 5, 1), ModelError);      // wcet > period
  EXPECT_THROW(g.add_task("t", 4, 1, -1), ModelError);     // negative memory
  g.add_task("t", 4, 1, 0);
  EXPECT_THROW(g.add_task("t", 8, 1, 1), ModelError);      // duplicate name
}

TEST(TaskGraph, DependenceValidation) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 8, 1, 1);
  const TaskId c = g.add_task("c", 6, 1, 1);
  EXPECT_THROW(g.add_dependence(a, a), ModelError);        // self-loop
  EXPECT_THROW(g.add_dependence(a, 99), ModelError);       // unknown id
  EXPECT_THROW(g.add_dependence(a, b, 0), ModelError);     // data size <= 0
  EXPECT_THROW(g.add_dependence(a, c), ModelError);        // 4 vs 6 not harmonic
  g.add_dependence(a, b);
  EXPECT_THROW(g.add_dependence(a, b), ModelError);        // duplicate
}

TEST(TaskGraph, CycleDetection) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 4, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(b, c);
  g.add_dependence(c, a);
  EXPECT_THROW(g.freeze(), ModelError);
}

TEST(TaskGraph, EmptyGraphRejected) {
  TaskGraph g;
  EXPECT_THROW(g.freeze(), ModelError);
}

TEST(TaskGraph, FrozenGraphIsImmutable) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);
  g.freeze();
  EXPECT_THROW(g.add_task("b", 4, 1, 1), PreconditionError);
  EXPECT_THROW(g.add_dependence(0, 0), PreconditionError);
  EXPECT_THROW(g.freeze(), PreconditionError);
}

TEST(TaskGraph, QueriesRequireFreeze) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);
  EXPECT_THROW(g.hyperperiod(), PreconditionError);
  EXPECT_THROW(g.topological_order(), PreconditionError);
  EXPECT_THROW((void)g.instance_count(0), PreconditionError);
}

TEST(TaskGraph, HyperperiodAndInstances) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 3, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  g.freeze();
  EXPECT_EQ(g.hyperperiod(), 12);
  EXPECT_EQ(g.instance_count(a), 4);
  EXPECT_EQ(g.instance_count(b), 3);
  EXPECT_EQ(g.total_instances(), 7u);
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(b, c);
  g.freeze();
  const auto order = g.topological_order();
  std::vector<TaskId> pos(g.task_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<TaskId>(i);
  }
  for (const Dependence& d : g.dependences()) {
    EXPECT_LT(pos[static_cast<std::size_t>(d.producer)],
              pos[static_cast<std::size_t>(d.consumer)]);
  }
}

TEST(TaskGraph, FindByName) {
  TaskGraph g;
  g.add_task("alpha", 4, 1, 1);
  g.add_task("beta", 4, 1, 1);
  g.freeze();
  EXPECT_EQ(g.find("beta"), 1);
  EXPECT_THROW(g.find("gamma"), ModelError);
}

/// The ModelError message \p fn throws, or "" if it does not throw.
template <typename Fn>
std::string model_error(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(TaskGraph, DuplicateMessagesUnchanged) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 8, 1, 1);
  EXPECT_EQ(model_error([&] { g.add_task("a", 8, 1, 1); }),
            "duplicate task name: a");
  // The duplicate check still precedes the shape checks.
  EXPECT_EQ(model_error([&] { g.add_task("b", 0, 1, 1); }),
            "duplicate task name: b");
  g.add_dependence(a, b);
  EXPECT_EQ(model_error([&] { g.add_dependence(a, b); }),
            "duplicate dependence a -> b");
  // The reverse edge is a different key.
  EXPECT_NO_THROW(g.add_dependence(b, a));
  EXPECT_EQ(g.find("a"), a);
  EXPECT_EQ(g.find("b"), b);
}

TEST(TaskGraph, RejectedAddReservesNothing) {
  TaskGraph g;
  EXPECT_THROW(g.add_task("t", 0, 1, 1), ModelError);   // bad period
  EXPECT_THROW(g.add_task("t", 4, 5, 1), ModelError);   // wcet > period
  EXPECT_THROW(g.add_task("t", 4, 1, -1), ModelError);  // negative memory
  EXPECT_EQ(g.try_find("t"), std::nullopt);
  const TaskId t = g.add_task("t", 4, 1, 1);
  EXPECT_EQ(t, 0);
  EXPECT_EQ(g.find("t"), t);
  const TaskId u = g.add_task("u", 8, 1, 1);
  EXPECT_THROW(g.add_dependence(t, u, 0), ModelError);  // bad data size
  EXPECT_NO_THROW(g.add_dependence(t, u));
  EXPECT_EQ(g.dependence_count(), 1u);
}

TEST(TaskGraph, CopiedGraphResolvesEveryName) {
  // The online engine deep-copies graphs (Rebalancer::adopt); the copy's
  // indexes must not refer back to the original.
  std::unique_ptr<TaskGraph> copy;
  std::unique_ptr<TaskGraph> unfrozen_copy;
  {
    TaskGraph g;
    for (int i = 0; i < 50; ++i) {
      g.add_task("task" + std::to_string(i), 4 << (i % 3), 1, 1);
    }
    g.add_dependence(0, 1);
    unfrozen_copy = std::make_unique<TaskGraph>(g);
    g.freeze();
    copy = std::make_unique<TaskGraph>(g);
  }
  for (TaskId t = 0; t < static_cast<TaskId>(copy->task_count()); ++t) {
    EXPECT_EQ(copy->find("task" + std::to_string(t)), t);
    EXPECT_EQ(copy->try_find("task" + std::to_string(t)), t);
  }
  EXPECT_EQ(copy->try_find("task50"), std::nullopt);
  EXPECT_THROW(unfrozen_copy->add_task("task7", 4, 1, 1), ModelError);
  EXPECT_THROW(unfrozen_copy->add_dependence(0, 1), ModelError);
  EXPECT_NO_THROW(unfrozen_copy->add_dependence(1, 2));
}

TEST(TaskGraph, FindMissingThrows) {
  TaskGraph g;
  g.add_task("alpha", 4, 1, 1);
  EXPECT_EQ(model_error([&] { (void)g.find("beta"); }), "no task named beta");
  EXPECT_EQ(g.try_find("beta"), std::nullopt);
  EXPECT_EQ(g.try_find("alpha"), 0);
}

TEST(TaskGraph, SlowConsumerGathersN) {
  // T_c = 3*T_p: consumer instance k consumes producers 3k, 3k+1, 3k+2
  // (the Figure-1 semantics).
  const TaskGraph g = two_task_graph(2, 6);
  const auto consumed0 = g.consumed_instances(0, 0);
  EXPECT_EQ(consumed0, (std::vector<InstanceIdx>{0, 1, 2}));
  // Hyper-period 6: consumer has exactly one instance.
  EXPECT_EQ(g.instance_count(g.find("c")), 1);
}

TEST(TaskGraph, FastConsumerSamples) {
  // T_p = 4*T_c: consumer instances 0..3 all consume producer instance 0.
  const TaskGraph g = two_task_graph(8, 2);
  for (InstanceIdx k = 0; k < 4; ++k) {
    EXPECT_EQ(g.consumed_instances(0, k),
              (std::vector<InstanceIdx>{0})) << "k=" << k;
  }
}

TEST(TaskGraph, SamePeriodOneToOne) {
  const TaskGraph g = two_task_graph(6, 6);
  EXPECT_EQ(g.consumed_instances(0, 0), (std::vector<InstanceIdx>{0}));
}

TEST(TaskGraph, MultiRateConsumptionCoversAllProducers) {
  // Every producer instance is consumed by exactly one consumer instance
  // when T_c = n*T_p.
  const TaskGraph g = two_task_graph(3, 12);
  std::vector<int> consumed(4, 0);
  for (InstanceIdx k = 0; k < g.instance_count(g.find("c")); ++k) {
    for (const InstanceIdx pk : g.consumed_instances(0, k)) {
      ++consumed[static_cast<std::size_t>(pk)];
    }
  }
  for (const int c : consumed) EXPECT_EQ(c, 1);
}

TEST(TaskGraph, Utilization) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);   // 0.25
  g.add_task("b", 8, 2, 1);   // 0.25
  g.freeze();
  EXPECT_DOUBLE_EQ(g.utilization(), 0.5);
}

TEST(TaskGraph, AdjacencySpans) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(a, c);
  g.add_dependence(b, c);
  g.freeze();
  EXPECT_EQ(g.deps_out(a).size(), 2u);
  EXPECT_EQ(g.deps_in(c).size(), 2u);
  EXPECT_EQ(g.deps_in(a).size(), 0u);
}

}  // namespace
}  // namespace lbmem
