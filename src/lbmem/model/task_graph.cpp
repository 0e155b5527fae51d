#include "lbmem/model/task_graph.hpp"

#include <algorithm>
#include <cstdint>

#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

namespace lbmem {

void TaskGraph::check_task(const Task& task) const {
  if (task.name.empty()) {
    throw ModelError("task name must not be empty");
  }
  if (try_find(task.name)) {
    throw ModelError("duplicate task name: " + task.name);
  }
  if (task.period <= 0) {
    throw ModelError("task " + task.name + ": period must be positive");
  }
  if (task.wcet <= 0) {
    throw ModelError("task " + task.name + ": wcet must be positive");
  }
  if (task.wcet > task.period) {
    throw ModelError("task " + task.name +
                     ": wcet exceeds period (non-preemptive strict "
                     "periodicity requires E <= T)");
  }
  if (task.memory < 0) {
    throw ModelError("task " + task.name + ": memory must be non-negative");
  }
}

TaskId TaskGraph::add_task(Task task) {
  require_mutable("add_task");
  check_task(task);
  // Indexed only now that every check has passed: a rejected add must not
  // reserve its name.
  const auto id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(task));
  names_.insert(tasks_.back().name, id);
  return id;
}

TaskId TaskGraph::add_task(std::string name, Time period, Time wcet,
                           Mem memory) {
  return add_task(Task{std::move(name), period, wcet, memory});
}

void TaskGraph::set_wcet(TaskId id, Time wcet) {
  LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                "task id out of range");
  Task& task = tasks_[static_cast<std::size_t>(id)];
  if (wcet <= 0) {
    throw ModelError("task " + task.name + ": wcet must be positive");
  }
  if (wcet > task.period) {
    throw ModelError("task " + task.name +
                     ": wcet must not exceed the period");
  }
  task.wcet = wcet;
}

void TaskGraph::check_dependence(const Task& producer, const Task& consumer,
                                 bool self, Mem data_size, bool duplicate) {
  if (self) {
    throw ModelError("self-dependence on task " + producer.name);
  }
  if (data_size <= 0) {
    throw ModelError("dependence data_size must be positive");
  }
  if (duplicate) {
    throw ModelError("duplicate dependence " + producer.name + " -> " +
                     consumer.name);
  }
  const Time tp = producer.period;
  const Time tc = consumer.period;
  if (tp % tc != 0 && tc % tp != 0) {
    throw ModelError("dependent tasks must have harmonic periods (paper "
                     "Sections 3.1/4): " +
                     producer.name + " (T=" + std::to_string(tp) + ") -> " +
                     consumer.name + " (T=" + std::to_string(tc) + ")");
  }
}

void TaskGraph::add_dependence(TaskId producer, TaskId consumer,
                               Mem data_size) {
  require_mutable("add_dependence");
  const auto n = static_cast<TaskId>(tasks_.size());
  if (producer < 0 || producer >= n || consumer < 0 || consumer >= n) {
    throw ModelError("dependence references unknown task id");
  }
  const std::uint64_t key = edge_key(producer, consumer);
  check_dependence(tasks_[static_cast<std::size_t>(producer)],
                   tasks_[static_cast<std::size_t>(consumer)],
                   producer == consumer, data_size, edge_keys_.contains(key));
  edge_keys_.insert(key);
  deps_.push_back(Dependence{producer, consumer, data_size});
}

void TaskGraph::freeze() {
  require_mutable("freeze");
  if (tasks_.empty()) {
    throw ModelError("task graph has no tasks");
  }

  // Hyper-period.
  std::vector<std::int64_t> periods;
  periods.reserve(tasks_.size());
  for (const auto& t : tasks_) periods.push_back(t.period);
  hyperperiod_ = lcm_all(periods);

  build_adjacency();
  build_topological_order();
  build_instance_tables();
  // Duplicate edges can no longer be added: release the key set.
  edge_keys_ = {};
  frozen_ = true;
}

TaskGraph TaskGraph::with_task(const TaskGraph& base, Task task,
                               std::span<const NamedProducer> producers) {
  base.require_frozen("with_task");
  const auto nid = static_cast<TaskId>(base.tasks_.size());
  // The rebuild's checks in the rebuild's order: the task first, then each
  // producer in turn. The rebuild indexes the new task before resolving
  // producers, so a producer naming it resolves to nid and fails as a
  // self-dependence.
  base.check_task(task);
  TaskGraph g;
  g.deps_.reserve(base.deps_.size() + producers.size());
  g.deps_.assign(base.deps_.begin(), base.deps_.end());
  for (std::size_t i = 0; i < producers.size(); ++i) {
    const NamedProducer& producer = producers[i];
    TaskId pid = nid;
    if (producer.task != task.name) {
      const auto id = base.try_find(producer.task);
      if (!id) {
        throw ModelError("arrival references unknown producer " +
                         producer.task);
      }
      pid = *id;
    }
    // Names and ids correspond one to one, so an edge repeats exactly when
    // an earlier producer carries the same name.
    bool duplicate = false;
    for (std::size_t j = 0; j < i && !duplicate; ++j) {
      duplicate = producers[j].task == producer.task;
    }
    check_dependence(
        pid == nid ? task : base.tasks_[static_cast<std::size_t>(pid)], task,
        pid == nid, producer.data_size, duplicate);
    g.deps_.push_back(Dependence{pid, nid, producer.data_size});
  }
  g.hyperperiod_ = lcm64(base.hyperperiod_, task.period);

  g.tasks_.reserve(base.tasks_.size() + 1);
  g.tasks_.assign(base.tasks_.begin(), base.tasks_.end());
  g.tasks_.push_back(std::move(task));
  g.names_ = NameIndex::resized(base.names_, g.tasks_.size());
  g.names_.insert(g.tasks_.back().name, nid);
  g.build_adjacency();
  g.topo_order_.reserve(g.tasks_.size());
  g.topo_order_.assign(base.topo_order_.begin(), base.topo_order_.end());
  g.topo_order_.push_back(nid);
  g.build_instance_tables();
  g.frozen_ = true;
  return g;
}

TaskGraph TaskGraph::without_tasks(const TaskGraph& base,
                                   std::span<const TaskId> victims) {
  base.require_frozen("without_tasks");
  const std::size_t n = base.tasks_.size();
  // new_id[t]: t's id after compaction, -1 for a victim.
  std::vector<TaskId> new_id(n, 0);
  for (const TaskId v : victims) {
    LBMEM_REQUIRE(v >= 0 && v < static_cast<TaskId>(n),
                  "task id out of range");
    new_id[static_cast<std::size_t>(v)] = -1;
  }
  TaskId kept = 0;
  for (TaskId& id : new_id) {
    if (id == 0) id = kept++;
  }
  if (kept == 0) {
    throw ModelError("task graph has no tasks");
  }

  TaskGraph g;
  g.tasks_.reserve(static_cast<std::size_t>(kept));
  g.hyperperiod_ = 1;
  for (std::size_t t = 0; t < n; ++t) {
    if (new_id[t] < 0) continue;
    g.tasks_.push_back(base.tasks_[t]);
    // lcm64 leaves H unchanged when the period divides it; skip its gcd.
    const Time period = base.tasks_[t].period;
    if (g.hyperperiod_ % period != 0) {
      g.hyperperiod_ = lcm64(g.hyperperiod_, period);
    }
  }
  g.deps_.reserve(base.deps_.size());
  for (const Dependence& d : base.deps_) {
    const TaskId p = new_id[static_cast<std::size_t>(d.producer)];
    const TaskId c = new_id[static_cast<std::size_t>(d.consumer)];
    if (p >= 0 && c >= 0) g.deps_.push_back(Dependence{p, c, d.data_size});
  }
  // The table keeps base's capacity: dropping entries only lowers its load.
  g.names_ = base.names_;
  for (std::size_t t = 0; t < n; ++t) {
    if (new_id[t] < 0) g.names_.erase(base.tasks_[t].name, static_cast<TaskId>(t));
  }
  g.names_.renumber(new_id);
  g.build_adjacency();
  g.build_topological_order();
  g.build_instance_tables();
  g.frozen_ = true;
  return g;
}

void TaskGraph::build_adjacency() {
  // Counting sort per direction: count into offsets[node], prefix-sum to
  // each row's end, then place edges in descending index order at
  // --offsets[node]. Each row ends up ascending and offsets[node] at the
  // row's start.
  const auto fill = [&](std::vector<std::int32_t>& offsets,
                        std::vector<std::int32_t>& edges, auto node_of) {
    offsets.assign(tasks_.size() + 1, 0);
    for (const Dependence& d : deps_) ++offsets[node_of(d)];
    for (std::size_t t = 1; t < tasks_.size(); ++t) offsets[t] += offsets[t - 1];
    offsets[tasks_.size()] = static_cast<std::int32_t>(deps_.size());
    edges.resize(deps_.size());
    for (std::size_t e = deps_.size(); e-- > 0;) {
      edges[static_cast<std::size_t>(--offsets[node_of(deps_[e])])] =
          static_cast<std::int32_t>(e);
    }
  };
  fill(in_offsets_, in_edges_, [](const Dependence& d) {
    return static_cast<std::size_t>(d.consumer);
  });
  fill(out_offsets_, out_edges_, [](const Dependence& d) {
    return static_cast<std::size_t>(d.producer);
  });
}

void TaskGraph::build_topological_order() {
  // Kahn's algorithm, always releasing the smallest ready id; detects
  // cycles. The ready set is a bitmap over ids with a summary bit per
  // non-empty word, so finding the next ready id costs O(1 + N/4096) word
  // reads. After popping t only a newly released consumer can be smaller
  // than the next ready id, so the search resumes at min(t + 1, smallest
  // release).
  const std::size_t n = tasks_.size();
  std::vector<std::int32_t> indegree(n, 0);
  for (const auto& d : deps_) {
    ++indegree[static_cast<std::size_t>(d.consumer)];
  }
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> ready(words, 0);
  std::vector<std::uint64_t> summary((words + 63) / 64, 0);
  const auto bit = [](std::size_t i) { return std::uint64_t{1} << (i & 63); };
  std::size_t low = n;  // no ready id is below low
  const auto release = [&](std::size_t t) {
    ready[t >> 6] |= bit(t);
    summary[t >> 12] |= bit(t >> 6);
    low = std::min(low, t);
  };
  for (std::size_t t = 0; t < n; ++t) {
    if (indegree[t] == 0) release(t);
  }
  topo_order_.clear();
  topo_order_.reserve(n);
  while (low < n) {
    std::size_t w = low >> 6;
    std::uint64_t word = ready[w] & (~std::uint64_t{0} << (low & 63));
    if (word == 0) {
      // The next non-empty word after w, from the summary.
      std::size_t sw = (w + 1) >> 6;
      std::uint64_t sbits =
          sw < summary.size()
              ? summary[sw] & (~std::uint64_t{0} << ((w + 1) & 63))
              : 0;
      while (sbits == 0 && ++sw < summary.size()) sbits = summary[sw];
      if (sbits == 0) break;  // nothing ready: a cycle holds the rest
      w = (sw << 6) + static_cast<std::size_t>(__builtin_ctzll(sbits));
      word = ready[w];
    }
    const std::size_t t =
        (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
    ready[t >> 6] &= ~bit(t);
    if (ready[t >> 6] == 0) summary[t >> 12] &= ~bit(t >> 6);
    topo_order_.push_back(static_cast<TaskId>(t));
    low = t + 1;
    for (const std::int32_t e :
         csr_row(out_offsets_, out_edges_, static_cast<TaskId>(t))) {
      const auto c =
          static_cast<std::size_t>(deps_[static_cast<std::size_t>(e)].consumer);
      if (--indegree[c] == 0) release(c);
    }
  }
  if (topo_order_.size() != n) {
    throw ModelError("task graph contains a dependence cycle");
  }
}

void TaskGraph::build_instance_tables() {
  // Instance counts (H / period) and CSR offsets, cached so hot paths
  // never divide or re-derive the dense instance enumeration.
  instance_count_.resize(tasks_.size());
  instance_base_.resize(tasks_.size() + 1);
  instance_base_[0] = 0;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    instance_count_[t] = static_cast<InstanceIdx>(hyperperiod_ / tasks_[t].period);
    instance_base_[t + 1] =
        instance_base_[t] + static_cast<std::size_t>(instance_count_[t]);
  }
  total_instances_ = instance_base_.back();
}

std::uint32_t TaskGraph::NameIndex::hash(std::string_view name) {
  const std::size_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t TaskGraph::NameIndex::capacity_for(std::size_t count) {
  std::size_t cap = 16;
  while (cap < 2 * count) cap <<= 1;
  return cap;
}

void TaskGraph::NameIndex::place(std::uint32_t h, TaskId id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  while (slots_[i].id >= 0) i = (i + 1) & mask;
  slots_[i] = Slot{h, id};
  ++size_;
}

void TaskGraph::NameIndex::insert(std::string_view name, TaskId id) {
  if (slots_.size() < capacity_for(size_ + 1)) {
    *this = resized(*this, size_ + 1);  // doubles the capacity
  }
  place(hash(name), id);
}

void TaskGraph::NameIndex::erase(std::string_view name, TaskId id) {
  LBMEM_REQUIRE(!slots_.empty(), "name index out of sync");
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hash(name) & mask;
  for (; slots_[hole].id != id; hole = (hole + 1) & mask) {
    LBMEM_REQUIRE(slots_[hole].id >= 0, "name index out of sync");
  }
  // Pull each later entry of the probe run into the hole when the hole
  // lies on its probe path (its displacement reaches back to the hole).
  for (std::size_t j = (hole + 1) & mask; slots_[j].id >= 0;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void TaskGraph::NameIndex::renumber(std::span<const TaskId> new_id) {
  for (Slot& s : slots_) {
    if (s.id >= 0) s.id = new_id[static_cast<std::size_t>(s.id)];
  }
}

TaskGraph::NameIndex TaskGraph::NameIndex::resized(const NameIndex& from,
                                                   std::size_t count) {
  const std::size_t cap = capacity_for(count);
  if (cap == from.slots_.size()) return from;
  NameIndex to;
  to.slots_.assign(cap, Slot{});
  for (const Slot& s : from.slots_) {
    if (s.id >= 0) to.place(s.hash, s.id);
  }
  return to;
}

TaskId TaskGraph::find(const std::string& name) const {
  if (const auto id = try_find(name)) return *id;
  throw ModelError("no task named " + name);
}

std::span<const TaskId> TaskGraph::topological_order() const {
  require_frozen("topological_order");
  return topo_order_;
}

std::vector<InstanceIdx> TaskGraph::consumed_instances(std::int32_t dep_index,
                                                       InstanceIdx k) const {
  const ConsumedRange range = consumed_range(dep_index, k);
  std::vector<InstanceIdx> result;
  result.reserve(static_cast<std::size_t>(range.count));
  for (InstanceIdx i = 0; i < range.count; ++i) {
    result.push_back(range.first + i);
  }
  return result;
}

double TaskGraph::utilization() const {
  double u = 0.0;
  for (const auto& t : tasks_) {
    u += static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  return u;
}

void TaskGraph::throw_not_frozen(const char* what) {
  throw PreconditionError(std::string(what) +
                          " requires a frozen TaskGraph (call freeze())");
}

void TaskGraph::require_mutable(const char* what) const {
  if (frozen_) {
    throw PreconditionError(std::string(what) +
                            " not allowed after freeze()");
  }
}

}  // namespace lbmem
