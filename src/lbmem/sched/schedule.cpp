#include "lbmem/sched/schedule.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"

namespace lbmem {

Schedule::Schedule(const TaskGraph& graph, Architecture arch, CommModel comm)
    : graph_(&graph), arch_(arch), comm_(comm) {
  LBMEM_REQUIRE(graph.frozen(), "Schedule requires a frozen TaskGraph");
  first_start_.assign(graph.task_count(), Time{-1});
  unset_starts_ = graph.task_count();
  instance_proc_.assign(graph.total_instances(), kNoProc);
  unassigned_instances_ = instance_proc_.size();
  mem_on_.assign(static_cast<std::size_t>(arch_.processor_count()), Mem{0});
  busy_time_on_.assign(static_cast<std::size_t>(arch_.processor_count()),
                       Time{0});
}

void Schedule::set_first_start(TaskId t, Time start) {
  LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(graph_->task_count()),
                "task id out of range");
  LBMEM_REQUIRE(start >= 0, "start times must be non-negative");
  Time& slot = first_start_[static_cast<std::size_t>(t)];
  if (slot < 0) --unset_starts_;
  slot = start;
}

void Schedule::assign(TaskInstance inst, ProcId p) {
  const std::size_t i = slot(inst);
  LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                "processor id out of range");
  const ProcId old = instance_proc_[i];
  if (old == p) return;
  const Task& task = graph_->task(inst.task);
  if (old == kNoProc) {
    --unassigned_instances_;
  } else {
    mem_on_[static_cast<std::size_t>(old)] -= task.memory;
    busy_time_on_[static_cast<std::size_t>(old)] -= task.wcet;
  }
  mem_on_[static_cast<std::size_t>(p)] += task.memory;
  busy_time_on_[static_cast<std::size_t>(p)] += task.wcet;
  instance_proc_[i] = p;
}

void Schedule::assign_all(TaskId t, ProcId p) {
  const InstanceIdx n = graph_->instance_count(t);
  for (InstanceIdx k = 0; k < n; ++k) {
    assign(TaskInstance{t, k}, p);
  }
}

void Schedule::refresh_aggregates() {
  std::fill(mem_on_.begin(), mem_on_.end(), Mem{0});
  std::fill(busy_time_on_.begin(), busy_time_on_.end(), Time{0});
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const Task& task = graph_->task(t);
    const std::size_t base = graph_->instance_base(t);
    const std::size_t limit = graph_->instance_base(t + 1);
    for (std::size_t i = base; i < limit; ++i) {
      const ProcId p = instance_proc_[i];
      if (p == kNoProc) continue;
      mem_on_[static_cast<std::size_t>(p)] += task.memory;
      busy_time_on_[static_cast<std::size_t>(p)] += task.wcet;
    }
  }
}

Time Schedule::makespan() const {
  Time m = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const InstanceIdx n = graph_->instance_count(t);
    // The latest instance of a task is its last one.
    m = std::max(m, end(TaskInstance{t, n - 1}));
  }
  return m;
}

Time Schedule::data_ready(TaskInstance inst, ProcId p) const {
  Time ready = 0;
  for (const std::int32_t e : graph_->deps_in(inst.task)) {
    const Dependence& dep =
        graph_->dependences()[static_cast<std::size_t>(e)];
    const ConsumedRange range = graph_->consumed_range(e, inst.k);
    for (InstanceIdx i = 0; i < range.count; ++i) {
      const TaskInstance producer{dep.producer, range.first + i};
      const ProcId pp = proc(producer);
      LBMEM_REQUIRE(pp != kNoProc, "producer instance not yet placed");
      const Time comm =
          (pp == p) ? Time{0} : comm_.transfer_time(dep.data_size);
      ready = std::max(ready, end(producer) + comm);
    }
  }
  return ready;
}

std::vector<TaskInstance> Schedule::instances_on(ProcId p) const {
  std::vector<TaskInstance> result;
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const std::size_t base = graph_->instance_base(t);
    const std::size_t limit = graph_->instance_base(t + 1);
    for (std::size_t i = base; i < limit; ++i) {
      if (instance_proc_[i] == p) {
        result.push_back(TaskInstance{t, static_cast<InstanceIdx>(i - base)});
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [this](const TaskInstance& a, const TaskInstance& b) {
              const Time sa = start(a);
              const Time sb = start(b);
              if (sa != sb) return sa < sb;
              return a < b;
            });
  return result;
}

std::vector<TaskInstance> Schedule::all_instances() const {
  std::vector<TaskInstance> result;
  result.reserve(graph_->total_instances());
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const InstanceIdx n = graph_->instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      result.push_back(TaskInstance{t, k});
    }
  }
  return result;
}

double Schedule::idle_fraction(ProcId p) const {
  return 1.0 - static_cast<double>(busy_on(p)) /
                   static_cast<double>(graph_->hyperperiod());
}

Mem Schedule::max_memory() const {
  Mem worst = 0;
  for (const Mem m : mem_on_) worst = std::max(worst, m);
  return worst;
}

}  // namespace lbmem
