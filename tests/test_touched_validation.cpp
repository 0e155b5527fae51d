/// Equivalence test for the balancer's touched-set retry gate
/// (is_valid_touched, DESIGN.md F35): on a valid schedule perturbed only
/// by moves whose footprints fit an occupancy that mirrors the schedule,
/// the touched-set verdict must equal the full is_valid verdict.
///
/// The perturbations mirror what a balancing attempt does: move one
/// instance to another processor (a block member changing processor) and
/// shift every instance of a task by the same delta (a category-1 gain,
/// or a negative one). Each perturbation keeps exclusivity, the gate's
/// precondition, but may break precedence or memory capacity — so both
/// verdicts occur, and the test asserts it saw both.

#include <gtest/gtest.h>

#include <vector>

#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/rng.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

struct Perturber {
  Schedule sched;
  std::vector<ProcTimeline> occ;
  std::vector<TaskInstance> touched;

  explicit Perturber(const Schedule& valid) : sched(valid) {
    occ.assign(
        static_cast<std::size_t>(sched.architecture().processor_count()),
        ProcTimeline(sched.graph().hyperperiod()));
    for (const TaskInstance inst : sched.all_instances()) {
      timeline(inst).add(sched.start(inst), wcet(inst), inst);
    }
  }

  ProcTimeline& timeline(TaskInstance inst) {
    return occ[static_cast<std::size_t>(sched.proc(inst))];
  }
  Time wcet(TaskInstance inst) const {
    return sched.graph().task(inst.task).wcet;
  }

  /// Move \p inst to \p dest if its footprint fits there.
  void move(TaskInstance inst, ProcId dest) {
    if (dest == sched.proc(inst)) return;
    if (!occ[static_cast<std::size_t>(dest)].fits(sched.start(inst),
                                                   wcet(inst))) {
      return;
    }
    timeline(inst).remove(inst);
    sched.assign(inst, dest);
    timeline(inst).add(sched.start(inst), wcet(inst), inst);
    touched.push_back(inst);
  }

  /// Shift every instance of \p t by \p delta if all footprints fit.
  void shift(TaskId t, Time delta) {
    const Time start = sched.first_start(t) + delta;
    if (delta == 0 || start < 0) return;
    const InstanceIdx n = sched.graph().instance_count(t);
    const Time period = sched.graph().task(t).period;
    for (InstanceIdx k = 0; k < n; ++k) {
      timeline(TaskInstance{t, k}).remove(TaskInstance{t, k});
    }
    bool fits = true;
    for (InstanceIdx k = 0; k < n && fits; ++k) {
      fits = timeline(TaskInstance{t, k})
                 .fits(start + period * static_cast<Time>(k),
                       wcet(TaskInstance{t, k}));
    }
    if (fits) sched.set_first_start(t, start);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      timeline(inst).add(sched.start(inst), wcet(inst), inst);
      if (fits) touched.push_back(inst);
    }
  }
};

TEST(TouchedValidation, MatchesIsValidOnPerturbedSchedules) {
  int valid = 0;
  int invalid = 0;
  const CommModel comms[] = {CommModel::flat(2), CommModel::affine(1, 2)};
  for (const CommModel& comm : comms) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const int procs = 2 + static_cast<int>(seed % 4);
      RandomGraphParams params;
      params.tasks = 40;
      params.edge_probability = 0.3;
      params.intended_processors = procs;
      const TaskGraph graph = random_task_graph(params, seed + 200);
      Schedule initial(graph, Architecture(procs), comm);
      try {
        initial = build_initial_schedule(graph, Architecture(procs), comm);
      } catch (const ScheduleError&) {
        continue;
      }
      // Half of the systems get a capacity just above the balanced peak,
      // so some moves overrun it.
      Schedule base = LoadBalancer().balance(initial).schedule;
      if (seed % 2 == 0) {
        Schedule capped(graph, Architecture(procs, base.max_memory() + 2),
                        comm);
        for (const TaskInstance inst : base.all_instances()) {
          capped.set_first_start(inst.task, base.first_start(inst.task));
          capped.assign(inst, base.proc(inst));
        }
        base = capped;
      }
      ASSERT_TRUE(is_valid(base));

      Rng rng(seed);
      for (int trial = 0; trial < 40; ++trial) {
        Perturber perturbed(base);
        const int steps = 1 + static_cast<int>(rng.uniform(0, 3));
        for (int step = 0; step < steps; ++step) {
          const auto t = static_cast<TaskId>(rng.uniform(
              0, static_cast<std::int64_t>(graph.task_count()) - 1));
          if (rng.uniform(0, 1) == 0) {
            const auto k = static_cast<InstanceIdx>(
                rng.uniform(0, graph.instance_count(t) - 1));
            perturbed.move(TaskInstance{t, k},
                           static_cast<ProcId>(rng.uniform(0, procs - 1)));
          } else {
            perturbed.shift(t, rng.uniform(-6, 6));
          }
        }
        const bool expected = is_valid(perturbed.sched);
        ASSERT_EQ(is_valid_touched(perturbed.sched, perturbed.touched),
                  expected)
            << "seed " << seed << " trial " << trial;
        (expected ? valid : invalid) += 1;
      }
    }
  }
  EXPECT_GE(valid, 50);
  EXPECT_GE(invalid, 50);
}

TEST(TouchedValidation, UntouchedScheduleIsValid) {
  RandomGraphParams params;
  params.tasks = 30;
  const TaskGraph graph = random_task_graph(params, 3);
  const Schedule sched =
      build_initial_schedule(graph, Architecture(4), CommModel::flat(2));
  EXPECT_TRUE(is_valid_touched(sched, {}));
}

TEST(TouchedValidation, IncompleteScheduleIsInvalid) {
  RandomGraphParams params;
  params.tasks = 10;
  const TaskGraph graph = random_task_graph(params, 3);
  const Schedule empty(graph, Architecture(2), CommModel::flat(2));
  EXPECT_FALSE(is_valid_touched(empty, {}));
}

}  // namespace
}  // namespace lbmem
