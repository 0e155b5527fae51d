#pragma once
/// \file task_graph.hpp
/// \brief The validated multi-rate task graph (paper Figure 2 and
/// Section 3.1).
///
/// A TaskGraph owns the tasks and dependences of one application. It is
/// immutable after freeze(): validation establishes the invariants every
/// other module relies on (acyclicity, harmonic dependent periods,
/// positive WCETs bounded by periods), computes the hyper-period and a
/// topological order, and builds adjacency indexes.
///
/// Storage is flat (DESIGN.md F10). Adjacency is CSR: one offset array and
/// one edge-index array per direction. The name index is one open-
/// addressing table of (hash, id) slots resolved against tasks_[id].name,
/// so it holds no string copies and survives a copy as a plain array. An
/// edge-key set makes duplicate-edge checks O(1) while a graph is being
/// built and is dropped by freeze(). The online engine edits a frozen
/// graph with two delta constructors instead of rebuilding it:
/// with_task() appends one task and its producer edges, without_tasks()
/// drops tasks and compacts the ids. Each costs a few flat array passes
/// (O(N + E), no name hashing beyond the edited tasks, and a number of
/// heap allocations that does not grow with N).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "lbmem/model/task.hpp"
#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

/// Contiguous run of producer instance indices consumed by one consumer
/// instance (see TaskGraph::consumed_range).
struct ConsumedRange {
  InstanceIdx first = 0;
  InstanceIdx count = 0;
};

/// Multi-rate application graph with strict-periodic tasks.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Add a task; returns its dense id. Throws ModelError on duplicate name
  /// or non-positive period/WCET, wcet > period, or negative memory.
  TaskId add_task(Task task);

  /// Convenience overload.
  TaskId add_task(std::string name, Time period, Time wcet, Mem memory);

  /// Add a dependence edge. Ids must exist; periods must be harmonic
  /// (one divides the other); self-loops and duplicate edges rejected.
  void add_dependence(TaskId producer, TaskId consumer, Mem data_size = 1);

  /// Validate global invariants (DAG) and build derived data. Must be
  /// called once after construction; mutating calls afterwards throw.
  void freeze();

  /// Delta constructor for a task arrival: the frozen graph \p base plus
  /// \p task (id base.task_count()) and one dependence per entry of
  /// \p producers, in order, appended after base's dependences. The result
  /// equals, accessor for accessor, the graph rebuilt by add_task over
  /// base's tasks and \p task, add_dependence over base's dependences and
  /// the new ones, and freeze(). It throws the same ModelError the rebuild
  /// would throw first: add_task's checks on \p task, then per producer
  /// "arrival references unknown producer <name>" or add_dependence's
  /// checks (a producer naming \p task itself is a self-dependence). H
  /// becomes lcm(H, T); the topological order is base's plus the new task,
  /// which is the min-id Kahn order since the new task has the largest id
  /// and no consumers.
  static TaskGraph with_task(const TaskGraph& base, Task task,
                             std::span<const NamedProducer> producers);

  /// Delta constructor for task removal: the frozen graph \p base without
  /// the tasks in \p victims and every dependence touching one. Surviving
  /// tasks and dependences keep their relative order, so ids above a
  /// victim shift down. H and the min-id Kahn order are recomputed over the
  /// compacted arrays; the result equals the graph rebuilt from the
  /// survivors. Throws ModelError("task graph has no tasks") when nothing
  /// survives.
  static TaskGraph without_tasks(const TaskGraph& base,
                                 std::span<const TaskId> victims);

  /// Update a task's WCET after freeze() — the one structural mutation the
  /// online engine needs (WcetChange events). Legal because nothing derived
  /// at freeze time depends on WCETs (hyper-period, instance counts,
  /// adjacency and topological order all come from periods and edges).
  /// Revalidates 0 < wcet <= period. Schedules referencing this graph keep
  /// incrementally-maintained busy aggregates; callers must invoke
  /// Schedule::refresh_aggregates() on them afterwards.
  void set_wcet(TaskId id, Time wcet);

  /// True once freeze() has completed successfully.
  bool frozen() const { return frozen_; }

  // ---- introspection (valid after freeze) --------------------------------

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t dependence_count() const { return deps_.size(); }

  /// Inline with a bounds check only: the balancer reads task shapes tens
  /// of millions of times per run.
  const Task& task(TaskId id) const {
    LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return tasks_[static_cast<std::size_t>(id)];
  }
  std::span<const Task> tasks() const { return tasks_; }
  std::span<const Dependence> dependences() const { return deps_; }

  /// Find a task id by name; throws ModelError if absent.
  TaskId find(const std::string& name) const;

  /// Task id by name, or std::nullopt if absent.
  std::optional<TaskId> try_find(std::string_view name) const {
    return names_.find(name, tasks_);
  }

  /// Hyper-period H = lcm of all task periods (paper Section 3.1, ref [13]).
  Time hyperperiod() const {
    require_frozen("hyperperiod");
    return hyperperiod_;
  }

  /// Number of instances of \p id within one hyper-period (H / period).
  /// Cached at freeze() — no division on the hot path.
  InstanceIdx instance_count(TaskId id) const {
    require_frozen("instance_count");
    LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return instance_count_[static_cast<std::size_t>(id)];
  }

  /// Total instances across all tasks within one hyper-period.
  std::size_t total_instances() const {
    require_frozen("total_instances");
    return total_instances_;
  }

  /// Offset of task \p id's instances in the dense (CSR) instance
  /// enumeration: instance (t, k) has dense index instance_base(t) + k, and
  /// task t's slice is [instance_base(t), instance_base(t+1)). Cached at
  /// freeze(); the single source of the mapping used by Schedule and the
  /// balancer's flat per-instance tables.
  std::size_t instance_base(TaskId id) const {
    require_frozen("instance_base");
    LBMEM_REQUIRE(id >= 0 && id <= static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return instance_base_[static_cast<std::size_t>(id)];
  }

  /// Dense index of instance (t, k), bounds-checked.
  std::size_t dense_index(TaskInstance inst) const {
    require_frozen("dense_index");
    LBMEM_REQUIRE(inst.task >= 0 &&
                      inst.task < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    LBMEM_REQUIRE(
        inst.k >= 0 &&
            inst.k < instance_count_[static_cast<std::size_t>(inst.task)],
        "instance index out of range");
    return instance_base_[static_cast<std::size_t>(inst.task)] +
           static_cast<std::size_t>(inst.k);
  }

  /// Dependences entering \p consumer (indices into dependences()).
  std::span<const std::int32_t> deps_in(TaskId consumer) const {
    require_frozen("deps_in");
    LBMEM_REQUIRE(consumer >= 0 &&
                      consumer < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return csr_row(in_offsets_, in_edges_, consumer);
  }

  /// Dependences leaving \p producer (indices into dependences()).
  std::span<const std::int32_t> deps_out(TaskId producer) const {
    require_frozen("deps_out");
    LBMEM_REQUIRE(producer >= 0 &&
                      producer < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return csr_row(out_offsets_, out_edges_, producer);
  }

  /// A topological order of task ids (producers before consumers).
  std::span<const TaskId> topological_order() const;

  /// Producer instances consumed by instance \p k of the consumer of
  /// dependence \p dep_index (paper Section 3.1):
  ///  * T_c = n*T_p: instance k consumes producer instances k*n .. k*n+n-1
  ///    (the slow consumer gathers n data, Figure 1);
  ///  * T_p = n*T_c: instance k consumes producer instance floor(k/n)
  ///    (the fast consumer re-reads the latest datum).
  std::vector<InstanceIdx> consumed_instances(std::int32_t dep_index,
                                              InstanceIdx k) const;

  /// The same producer instances as a contiguous range {first, count}
  /// (both harmonic cases consume consecutive indices). Allocation-free and
  /// inline; preferred on hot paths.
  ConsumedRange consumed_range(std::int32_t dep_index, InstanceIdx k) const {
    require_frozen("consumed_range");
    LBMEM_REQUIRE(dep_index >= 0 &&
                      dep_index < static_cast<std::int32_t>(deps_.size()),
                  "dependence index out of range");
    const Dependence& d = deps_[static_cast<std::size_t>(dep_index)];
    LBMEM_REQUIRE(k >= 0 && k < instance_count(d.consumer),
                  "consumer instance out of range");
    const Time tp = task(d.producer).period;
    const Time tc = task(d.consumer).period;
    if (tc >= tp) {
      // Slow consumer gathers n = tc/tp data (paper Figure 1).
      const auto n = static_cast<InstanceIdx>(tc / tp);
      return ConsumedRange{k * n, n};
    }
    // Fast consumer samples the latest completed producer instance.
    return ConsumedRange{k / static_cast<InstanceIdx>(tp / tc), 1};
  }

  /// Inverse of consumed_range: the consumer instances that consume
  /// producer instance \p j of dependence \p dep_index. Contiguous in both
  /// harmonic cases (slow consumer: j/n gathers j; fast consumer: the n
  /// instances j*n .. j*n+n-1 each re-read j). Allocation-free; used by the
  /// online engine's dirty-set cascade and the partial block builder.
  ConsumedRange consumer_range(std::int32_t dep_index, InstanceIdx j) const {
    require_frozen("consumer_range");
    LBMEM_REQUIRE(dep_index >= 0 &&
                      dep_index < static_cast<std::int32_t>(deps_.size()),
                  "dependence index out of range");
    const Dependence& d = deps_[static_cast<std::size_t>(dep_index)];
    LBMEM_REQUIRE(j >= 0 && j < instance_count(d.producer),
                  "producer instance out of range");
    const Time tp = task(d.producer).period;
    const Time tc = task(d.consumer).period;
    if (tc >= tp) {
      // Slow consumer: j belongs to the gather window of consumer j/n.
      const auto n = static_cast<InstanceIdx>(tc / tp);
      return ConsumedRange{j / n, 1};
    }
    // Fast consumer: the n consumers within j's production period re-read j.
    const auto n = static_cast<InstanceIdx>(tp / tc);
    return ConsumedRange{j * n, n};
  }

  /// Sum over tasks of wcet/period (fraction of one processor the whole
  /// application needs; schedulability requires utilization() <= M).
  double utilization() const;

 private:
  /// Name -> id table: linear probing over a power-of-two array of
  /// (hash, id) slots, at most half full. A slot stores no name; a lookup
  /// compares against tasks_[id].name, and the stored hash lets the table
  /// be resized, or have entries deleted, without hashing a name again.
  class NameIndex {
   public:
    std::optional<TaskId> find(std::string_view name,
                               const std::vector<Task>& tasks) const {
      if (slots_.empty()) return std::nullopt;
      const std::uint32_t h = hash(name);
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const Slot& s = slots_[i];
        if (s.id < 0) return std::nullopt;
        if (s.hash == h && tasks[static_cast<std::size_t>(s.id)].name == name) {
          return s.id;
        }
      }
    }
    /// Index \p id under \p name, which must be absent.
    void insert(std::string_view name, TaskId id);
    /// Delete the entry of \p id, indexed under \p name (backward-shift
    /// deletion: no tombstones).
    void erase(std::string_view name, TaskId id);
    /// Map every id through \p new_id (erase dropped ids first).
    void renumber(std::span<const TaskId> new_id);
    /// Copy of \p from sized to hold \p count entries: one allocation, a
    /// plain copy when the capacity is unchanged.
    static NameIndex resized(const NameIndex& from, std::size_t count);

   private:
    struct Slot {
      std::uint32_t hash = 0;
      TaskId id = -1;  // -1: empty
    };
    static std::uint32_t hash(std::string_view name);
    static std::size_t capacity_for(std::size_t count);
    void place(std::uint32_t h, TaskId id);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  void require_frozen(const char* what) const {
    if (!frozen_) throw_not_frozen(what);
  }
  [[noreturn]] static void throw_not_frozen(const char* what);
  void require_mutable(const char* what) const;
  static std::uint64_t edge_key(TaskId producer, TaskId consumer) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(producer))
            << 32) |
           static_cast<std::uint32_t>(consumer);
  }
  /// add_task's checks on \p task, in order, the duplicate name included.
  void check_task(const Task& task) const;
  /// add_dependence's checks after the id range, in order.
  static void check_dependence(const Task& producer, const Task& consumer,
                               bool self, Mem data_size, bool duplicate);
  static std::span<const std::int32_t> csr_row(
      const std::vector<std::int32_t>& offsets,
      const std::vector<std::int32_t>& edges, TaskId t) {
    const auto first = offsets[static_cast<std::size_t>(t)];
    const auto last = offsets[static_cast<std::size_t>(t) + 1];
    return {edges.data() + first, static_cast<std::size_t>(last - first)};
  }
  // Derived-data builders shared by freeze() and the delta constructors.
  void build_adjacency();
  void build_topological_order();  // min-id Kahn; throws on a cycle
  void build_instance_tables();    // from hyperperiod_

  std::vector<Task> tasks_;
  std::vector<Dependence> deps_;
  bool frozen_ = false;
  NameIndex names_;
  // Duplicate-edge check while building; emptied by freeze().
  std::unordered_set<std::uint64_t> edge_keys_;  // edge_key(producer, consumer)

  // Derived by freeze():
  Time hyperperiod_ = 0;
  std::size_t total_instances_ = 0;
  std::vector<TaskId> topo_order_;
  std::vector<InstanceIdx> instance_count_;  // per task: H / period
  std::vector<std::size_t> instance_base_;   // CSR offsets, size tasks+1
  // CSR adjacency: task t's edges are *_edges_[*_offsets_[t] ..
  // *_offsets_[t+1]), ascending by edge index.
  std::vector<std::int32_t> in_offsets_;
  std::vector<std::int32_t> in_edges_;
  std::vector<std::int32_t> out_offsets_;
  std::vector<std::int32_t> out_edges_;
};

}  // namespace lbmem
