/// Equivalence tests for the graph and occupancy deltas the online engine
/// applies on task arrival and removal (DESIGN.md F10/F13).
///
/// The references are the straightforward rebuilds: add every surviving
/// task and dependence to an empty graph and freeze it, and fill a fresh
/// timeline with the surviving pieces under their new owners. The deltas
/// must agree with them exactly: accessor for accessor, error message for
/// error message, query for query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lbmem/model/task_graph.hpp"
#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

/// Periods drawn from two harmonic chains (4·2^i and 12·2^i), so some
/// task pairs are not harmonic and H depends on which chains are present.
Time random_period(Rng& rng) {
  const Time base = rng.chance(0.25) ? 12 : 4;
  return base << rng.uniform(0, 2);
}

bool harmonic(Time a, Time b) { return a % b == 0 || b % a == 0; }

/// Random DAG whose edges follow a shuffled rank, not the id order: a
/// producer's id is larger than its consumer's about half the time, so
/// the min-id Kahn order differs from the id order.
TaskGraph random_graph(std::uint64_t seed, int tasks) {
  Rng rng(seed);
  TaskGraph g;
  for (int t = 0; t < tasks; ++t) {
    const Time period = random_period(rng);
    g.add_task("t" + std::to_string(t), period, rng.uniform(1, 2),
               rng.uniform(0, 9));
  }
  std::vector<int> rank(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) rank[static_cast<std::size_t>(t)] = t;
  rng.shuffle(rank);
  for (TaskId p = 0; p < tasks; ++p) {
    for (TaskId c = 0; c < tasks; ++c) {
      if (rank[static_cast<std::size_t>(p)] >=
              rank[static_cast<std::size_t>(c)] ||
          !harmonic(g.tasks()[static_cast<std::size_t>(p)].period,
                    g.tasks()[static_cast<std::size_t>(c)].period) ||
          !rng.chance(0.12)) {
        continue;
      }
      g.add_dependence(p, c, rng.uniform(1, 5));
    }
  }
  g.freeze();
  return g;
}

/// The arrival rebuild the online engine used before the deltas.
TaskGraph rebuild_with(const TaskGraph& g, const Task& task,
                       const std::vector<NamedProducer>& producers) {
  TaskGraph r;
  for (const Task& t : g.tasks()) r.add_task(t);
  const TaskId nid = r.add_task(task);
  for (const Dependence& d : g.dependences()) {
    r.add_dependence(d.producer, d.consumer, d.data_size);
  }
  for (const NamedProducer& producer : producers) {
    const auto pid = r.try_find(producer.task);
    if (!pid) {
      throw ModelError("arrival references unknown producer " +
                       producer.task);
    }
    r.add_dependence(*pid, nid, producer.data_size);
  }
  r.freeze();
  return r;
}

/// The removal rebuild: survivors in id order, dependences in edge order.
TaskGraph rebuild_without(const TaskGraph& g,
                          const std::vector<TaskId>& victims) {
  std::vector<TaskId> remap(g.task_count(), -1);
  TaskGraph r;
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    if (std::find(victims.begin(), victims.end(), t) != victims.end()) {
      continue;
    }
    remap[static_cast<std::size_t>(t)] = r.add_task(g.task(t));
  }
  for (const Dependence& d : g.dependences()) {
    const TaskId p = remap[static_cast<std::size_t>(d.producer)];
    const TaskId c = remap[static_cast<std::size_t>(d.consumer)];
    if (p >= 0 && c >= 0) r.add_dependence(p, c, d.data_size);
  }
  r.freeze();
  return r;
}

std::vector<std::int32_t> as_vector(std::span<const std::int32_t> s) {
  return {s.begin(), s.end()};
}

/// Every accessor of \p delta equals that of \p ref.
void expect_same_graph(const TaskGraph& delta, const TaskGraph& ref) {
  ASSERT_TRUE(delta.frozen());
  ASSERT_EQ(delta.task_count(), ref.task_count());
  ASSERT_EQ(delta.dependence_count(), ref.dependence_count());
  EXPECT_EQ(delta.hyperperiod(), ref.hyperperiod());
  EXPECT_EQ(delta.total_instances(), ref.total_instances());
  const auto n = static_cast<TaskId>(ref.task_count());
  for (TaskId t = 0; t < n; ++t) {
    const Task& a = delta.task(t);
    const Task& b = ref.task(t);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.wcet, b.wcet);
    EXPECT_EQ(a.memory, b.memory);
    EXPECT_EQ(delta.instance_count(t), ref.instance_count(t));
    EXPECT_EQ(delta.instance_base(t), ref.instance_base(t));
    EXPECT_EQ(as_vector(delta.deps_in(t)), as_vector(ref.deps_in(t)));
    EXPECT_EQ(as_vector(delta.deps_out(t)), as_vector(ref.deps_out(t)));
    EXPECT_EQ(delta.try_find(b.name), std::optional<TaskId>(t));
  }
  EXPECT_EQ(delta.instance_base(n), ref.instance_base(n));
  for (std::size_t e = 0; e < ref.dependence_count(); ++e) {
    const Dependence& a = delta.dependences()[e];
    const Dependence& b = ref.dependences()[e];
    EXPECT_EQ(a.producer, b.producer);
    EXPECT_EQ(a.consumer, b.consumer);
    EXPECT_EQ(a.data_size, b.data_size);
  }
  const auto topo_a = delta.topological_order();
  const auto topo_b = ref.topological_order();
  EXPECT_EQ(std::vector<TaskId>(topo_a.begin(), topo_a.end()),
            std::vector<TaskId>(topo_b.begin(), topo_b.end()));
  EXPECT_EQ(delta.try_find("absent"), std::nullopt);
}

/// A valid arrival: up to three distinct harmonic producers.
std::vector<NamedProducer> random_producers(const TaskGraph& g, Time period,
                                            Rng& rng) {
  std::vector<NamedProducer> producers;
  const int want = static_cast<int>(rng.uniform(0, 3));
  for (int attempt = 0; attempt < 12 && static_cast<int>(producers.size()) <
                                            want;
       ++attempt) {
    const auto p = static_cast<TaskId>(
        rng.uniform(0, static_cast<std::int64_t>(g.task_count()) - 1));
    const Task& task = g.task(p);
    if (!harmonic(task.period, period)) continue;
    if (std::any_of(producers.begin(), producers.end(),
                    [&](const NamedProducer& q) { return q.task == task.name; })) {
      continue;
    }
    producers.push_back(NamedProducer{task.name, rng.uniform(1, 5)});
  }
  return producers;
}

bool kahn_differs_from_id_order(const TaskGraph& g) {
  const auto topo = g.topological_order();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    if (topo[i] != static_cast<TaskId>(i)) return true;
  }
  return false;
}

TEST(TaskGraphDelta, ArrivalEqualsRebuild) {
  int shuffled = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskGraph g = random_graph(seed, 6 + static_cast<int>(seed % 25));
    if (kahn_differs_from_id_order(g)) ++shuffled;
    Rng rng(seed * 7919);
    for (int a = 0; a < 4; ++a) {
      const Task task{"new" + std::to_string(a), random_period(rng),
                      rng.uniform(1, 3), rng.uniform(0, 9)};
      const auto producers = random_producers(g, task.period, rng);
      expect_same_graph(TaskGraph::with_task(g, task, producers),
                        rebuild_with(g, task, producers));
    }
  }
  EXPECT_GE(shuffled, 20);  // most inputs exercise a non-id Kahn order
}

TEST(TaskGraphDelta, RemovalEqualsRebuild) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const TaskGraph g = random_graph(seed + 100, 2 + static_cast<int>(seed % 20));
    for (TaskId v = 0; v < static_cast<TaskId>(g.task_count()); ++v) {
      expect_same_graph(TaskGraph::without_tasks(g, std::vector<TaskId>{v}),
                        rebuild_without(g, {v}));
    }
    // Several victims at once (the shed rung), in shed order, not id order.
    if (g.task_count() > 3) {
      const std::vector<TaskId> victims = {
          static_cast<TaskId>(g.task_count() - 1), 0,
          static_cast<TaskId>(g.task_count() / 2)};
      expect_same_graph(TaskGraph::without_tasks(g, victims),
                        rebuild_without(g, victims));
    }
  }
}

TEST(TaskGraphDelta, ChainedEditsStayEqual) {
  // Alternate arrivals and removals on both sides; the name index grows
  // past several capacities and is renumbered many times.
  Rng rng(4242);
  TaskGraph delta = random_graph(77, 12);
  TaskGraph ref = delta;
  for (int step = 0; step < 120; ++step) {
    if (step % 3 != 2 || delta.task_count() <= 2) {
      const Task task{"a" + std::to_string(step), random_period(rng), 1,
                      rng.uniform(0, 9)};
      const auto producers = random_producers(delta, task.period, rng);
      delta = TaskGraph::with_task(delta, task, producers);
      ref = rebuild_with(ref, task, producers);
    } else {
      const auto v = static_cast<TaskId>(
          rng.uniform(0, static_cast<std::int64_t>(delta.task_count()) - 1));
      delta = TaskGraph::without_tasks(delta, std::vector<TaskId>{v});
      ref = rebuild_without(ref, {v});
    }
    expect_same_graph(delta, ref);
  }
  EXPECT_EQ(delta.task_count(), 52u);  // 12 + 80 arrivals - 40 removals
}

TEST(TaskGraphDelta, LongRemovalSequenceKeepsEveryName) {
  // A larger name table with many probe collisions: each removal deletes
  // one entry in place and renumbers the rest.
  TaskGraph delta = random_graph(5, 300);
  TaskGraph ref = delta;
  Rng rng(99);
  for (int step = 0; step < 150; ++step) {
    const auto v = static_cast<TaskId>(
        rng.uniform(0, static_cast<std::int64_t>(delta.task_count()) - 1));
    delta = TaskGraph::without_tasks(delta, std::vector<TaskId>{v});
    ref = rebuild_without(ref, {v});
    expect_same_graph(delta, ref);
  }
}

TEST(TaskGraphDelta, ArrivalGrowsHyperperiod) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 8, 1, 1);
  g.add_dependence(b, a);  // producer id > consumer id
  g.freeze();
  const Task task{"c", 12, 2, 3};
  const std::vector<NamedProducer> producers = {{"a", 2}};
  const TaskGraph grown = TaskGraph::with_task(g, task, producers);
  EXPECT_EQ(grown.hyperperiod(), 24);
  EXPECT_EQ(grown.instance_count(b), 3);
  expect_same_graph(grown, rebuild_with(g, task, producers));
}

TEST(TaskGraphDelta, RemovalShrinksHyperperiod) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 12, 1, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(c, a);
  g.add_dependence(a, b);
  g.freeze();
  ASSERT_EQ(g.hyperperiod(), 24);
  const TaskGraph shrunk = TaskGraph::without_tasks(g, std::vector<TaskId>{b});
  EXPECT_EQ(shrunk.hyperperiod(), 8);
  EXPECT_EQ(shrunk.try_find("c"), std::optional<TaskId>(1));
  expect_same_graph(shrunk, rebuild_without(g, {b}));
}

TEST(TaskGraphDelta, RemovingEveryTaskThrows) {
  TaskGraph g;
  g.add_task("only", 4, 1, 1);
  g.freeze();
  EXPECT_THROW(TaskGraph::without_tasks(g, std::vector<TaskId>{0}),
               ModelError);
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(TaskGraphDelta, BadArrivalThrowsRebuildMessage) {
  TaskGraph g;
  g.add_task("p4", 4, 1, 1);
  g.add_task("p8", 8, 1, 1);
  g.add_task("p6", 6, 1, 1);
  g.freeze();
  struct Case {
    const char* what;
    Task task;
    std::vector<NamedProducer> producers;
  };
  const std::vector<Case> cases = {
      {"duplicate name", {"p8", 8, 1, 1}, {}},
      {"empty name", {"", 8, 1, 1}, {}},
      {"wcet > period", {"n", 8, 9, 1}, {}},
      {"negative memory", {"n", 8, 1, -1}, {}},
      {"unknown producer", {"n", 8, 1, 1}, {{"p4", 1}, {"ghost", 1}}},
      {"duplicate producer", {"n", 8, 1, 1}, {{"p4", 1}, {"p4", 2}}},
      {"non-harmonic producer", {"n", 8, 1, 1}, {{"p6", 1}}},
      {"data_size <= 0", {"n", 8, 1, 1}, {{"p4", 0}}},
      {"self producer", {"n", 8, 1, 1}, {{"n", 1}}},
      // Precedence: the task's own checks before any producer, and the
      // producers in order.
      {"task before producers", {"p4", 8, 1, 1}, {{"ghost", 1}}},
      {"first bad producer wins", {"n", 8, 1, 1}, {{"p6", 1}, {"ghost", 0}}},
      {"data size before duplicate", {"n", 8, 1, 1}, {{"p4", 1}, {"p4", 0}}},
  };
  for (const Case& c : cases) {
    const std::string expected =
        error_of([&] { rebuild_with(g, c.task, c.producers); });
    ASSERT_FALSE(expected.empty()) << c.what;
    EXPECT_EQ(error_of([&] { TaskGraph::with_task(g, c.task, c.producers); }),
              expected)
        << c.what;
  }
}

// ---- occupancy renumbering ------------------------------------------------

struct Interval {
  Time start;
  Time len;
  TaskInstance owner;
};

/// Random occupancy on a circle of \p h: tasks 0..5, each instance one
/// interval where it fits (some wrap around H).
std::vector<Interval> random_intervals(std::uint64_t seed, Time h) {
  Rng rng(seed);
  ProcTimeline probe(h);
  std::vector<Interval> added;
  std::vector<InstanceIdx> next_k(6, 0);
  for (int i = 0; i < 40; ++i) {
    const auto task = static_cast<TaskId>(rng.uniform(0, 5));
    const Time len = rng.uniform(1, 4);
    const Time start = rng.uniform(0, h - 1);
    if (!probe.fits(start, len)) continue;
    const TaskInstance owner{task, next_k[static_cast<std::size_t>(task)]++};
    probe.add(start, len, owner);
    added.push_back(Interval{start, len, owner});
  }
  return added;
}

TEST(ProcTimelineRenumber, DropTaskMatchesScratchTimeline) {
  const Time h = 48;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<Interval> intervals = random_intervals(seed, h);
    for (TaskId victim = 0; victim < 6; ++victim) {
      ProcTimeline dropped(h);
      ProcTimeline scratch(h);
      for (const Interval& iv : intervals) {
        dropped.add(iv.start, iv.len, iv.owner);
        if (iv.owner.task == victim) continue;
        TaskInstance renamed = iv.owner;
        if (renamed.task > victim) --renamed.task;
        scratch.add(iv.start, iv.len, renamed);
      }
      dropped.drop_task(victim);
      ASSERT_TRUE(dropped.check_index_integrity());
      ASSERT_TRUE(scratch.check_index_integrity());
      ASSERT_EQ(dropped.piece_count(), scratch.piece_count());
      EXPECT_EQ(dropped.busy_time(), scratch.busy_time());
      for (Time start = 0; start < h; ++start) {
        for (Time len = 1; len <= 6; ++len) {
          ASSERT_EQ(dropped.conflicting_owner(start, len),
                    scratch.conflicting_owner(start, len))
              << "seed " << seed << " victim " << victim;
        }
      }
      for (const Time period : {Time{6}, Time{8}, Time{12}, Time{16}}) {
        for (Time wcet = 1; wcet <= 3; ++wcet) {
          for (Time lb = 0; lb < h; lb += 5) {
            const auto n = static_cast<InstanceIdx>(h / period);
            ASSERT_EQ(dropped.earliest_fit(lb, period, wcet, n),
                      scratch.earliest_fit(lb, period, wcet, n));
            ASSERT_EQ(dropped.earliest_fit(lb, period, wcet, n, lb + 3),
                      scratch.earliest_fit(lb, period, wcet, n, lb + 3));
          }
        }
      }
      // The rebuilt owner index releases every renumbered owner.
      for (const Interval& iv : intervals) {
        if (iv.owner.task == victim) continue;
        TaskInstance renamed = iv.owner;
        if (renamed.task > victim) --renamed.task;
        dropped.remove(renamed);
        scratch.remove(renamed);
        ASSERT_EQ(dropped.piece_count(), scratch.piece_count());
      }
      EXPECT_EQ(dropped.piece_count(), 0u);
      EXPECT_TRUE(dropped.check_index_integrity());
    }
  }
}

TEST(ProcTimelineRenumber, DroppedTimelineAcceptsNewPieces) {
  ProcTimeline tl(24);
  tl.add(22, 4, TaskInstance{2, 0});  // wraps: two pieces
  tl.add(5, 3, TaskInstance{0, 0});
  tl.add(10, 2, TaskInstance{1, 0});
  tl.drop_task(1);
  ASSERT_TRUE(tl.check_index_integrity());
  EXPECT_EQ(tl.piece_count(), 3u);
  EXPECT_EQ(tl.conflicting_owner(23, 1), std::optional(TaskInstance{1, 0}));
  EXPECT_EQ(tl.conflicting_owner(10, 2), std::nullopt);
  tl.add(10, 2, TaskInstance{2, 0});
  tl.remove(TaskInstance{1, 0});
  EXPECT_TRUE(tl.fits(22, 4));
  EXPECT_TRUE(tl.check_index_integrity());
}

}  // namespace
}  // namespace lbmem
