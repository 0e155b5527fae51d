#include "lbmem/validate/validator.hpp"

#include <algorithm>

#include "lbmem/model/hyperperiod.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

std::string ValidationReport::to_string() const {
  std::string out;
  for (const auto& v : violations) {
    out += v.detail;
    out += '\n';
  }
  return out;
}

namespace {

std::string instance_name(const TaskGraph& graph, TaskInstance inst) {
  return graph.task(inst.task).name + "[" + std::to_string(inst.k) + "]";
}

/// One instance's window on the hyper-period circle.
struct ExclusivityEntry {
  ProcId proc;
  Time pos;  // start mod H
  Time start;
  Time len;
  TaskInstance inst;
};

/// The V3 sweep shared by validate() and is_valid(): calls
/// \p on_overlap(a, b) for every overlapping neighbour pair and stops as
/// soon as it returns false (the result is then false too).
///
/// Every instance is gathered in one O(I) pass and sorted once by (proc,
/// pos mod H, start, instance). Within one processor's run, each entry is
/// compared with its successor and the last with the first. That finds an
/// overlap whenever one exists: windows are no longer than H, so if
/// entries i and i+2 overlap, then i+1, which starts between them, overlaps
/// one of them too. With exactly two entries the wrap pair is the first
/// pair reversed, so it is not compared again.
template <typename OnOverlap>
bool sweep_exclusivity(const Schedule& sched, OnOverlap&& on_overlap) {
  const TaskGraph& graph = sched.graph();
  const Time h = graph.hyperperiod();
  std::vector<ExclusivityEntry> entries;
  entries.reserve(graph.total_instances());
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const Time wcet = graph.task(t).wcet;
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      const Time s = sched.start(inst);
      entries.push_back(ExclusivityEntry{sched.proc(inst), ((s % h) + h) % h,
                                         s, wcet, inst});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ExclusivityEntry& a, const ExclusivityEntry& b) {
              if (a.proc != b.proc) return a.proc < b.proc;
              if (a.pos != b.pos) return a.pos < b.pos;
              if (a.start != b.start) return a.start < b.start;
              return a.inst < b.inst;
            });
  for (std::size_t begin = 0; begin < entries.size();) {
    std::size_t end = begin + 1;
    while (end < entries.size() && entries[end].proc == entries[begin].proc) {
      ++end;
    }
    const std::size_t n = end - begin;
    const std::size_t pairs = (n > 2) ? n : n - 1;
    for (std::size_t i = 0; i < pairs; ++i) {
      const ExclusivityEntry& a = entries[begin + i];
      const ExclusivityEntry& b = entries[begin + (i + 1) % n];
      if (circular_overlap(a.pos, a.len, b.pos, b.len, h) &&
          !on_overlap(a, b)) {
        return false;
      }
    }
    begin = end;
  }
  return true;
}

void check_exclusivity(const Schedule& sched, ValidationReport& report) {
  const TaskGraph& graph = sched.graph();
  const std::string mod = " (mod " + std::to_string(graph.hyperperiod()) + ")";
  sweep_exclusivity(sched, [&](const ExclusivityEntry& a,
                               const ExclusivityEntry& b) {
    report.violations.push_back(Violation{
        Violation::Kind::Overlap,
        "overlap on " + sched.architecture().processor_name(a.proc) + ": " +
            instance_name(graph, a.inst) + " @" + std::to_string(a.start) +
            " len " + std::to_string(a.len) + " vs " +
            instance_name(graph, b.inst) + " @" + std::to_string(b.start) +
            " len " + std::to_string(b.len) + mod});
    return true;
  });
}

/// V4 for one instance: it starts no earlier than its data is ready.
bool precedence_holds(const Schedule& sched, TaskInstance inst) {
  return sched.start(inst) >= sched.data_ready(inst, sched.proc(inst));
}

/// V5: every processor's resident memory within the capacity, if any.
bool memory_fits(const Schedule& sched) {
  const Architecture& arch = sched.architecture();
  if (!arch.has_memory_limit()) return true;
  for (ProcId p = 0; p < arch.processor_count(); ++p) {
    if (sched.memory_on(p) > arch.memory_capacity()) return false;
  }
  return true;
}

void check_precedence(const Schedule& sched, ValidationReport& report) {
  const TaskGraph& graph = sched.graph();
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = sched.proc(inst);
      const Time ready = sched.data_ready(inst, p);
      if (sched.start(inst) < ready) {
        report.violations.push_back(Violation{
            Violation::Kind::Precedence,
            "precedence violation: " + instance_name(graph, inst) +
                " starts at " + std::to_string(sched.start(inst)) +
                " before its data is ready at " + std::to_string(ready)});
      }
    }
  }
}

void check_memory(const Schedule& sched, ValidationReport& report) {
  const Architecture& arch = sched.architecture();
  if (!arch.has_memory_limit()) return;
  for (ProcId p = 0; p < arch.processor_count(); ++p) {
    const Mem used = sched.memory_on(p);
    if (used > arch.memory_capacity()) {
      report.violations.push_back(Violation{
          Violation::Kind::MemoryCapacity,
          "memory capacity exceeded on " + arch.processor_name(p) + ": " +
              std::to_string(used) + " > " +
              std::to_string(arch.memory_capacity())});
    }
  }
}

}  // namespace

ValidationReport validate(const Schedule& sched) {
  ValidationReport report;
  const TaskGraph& graph = sched.graph();

  if (!sched.complete()) {
    report.violations.push_back(Violation{
        Violation::Kind::Incomplete,
        "schedule is incomplete (missing start times or assignments)"});
    return report;  // other checks require completeness
  }
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (sched.first_start(t) < 0) {
      report.violations.push_back(
          Violation{Violation::Kind::NegativeStart,
                    "negative start for task " + graph.task(t).name});
    }
  }
  check_exclusivity(sched, report);
  check_precedence(sched, report);
  check_memory(sched, report);
  return report;
}

bool is_valid(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  if (!sched.complete()) return false;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (sched.first_start(t) < 0) return false;
  }
  // V3 exclusivity: the sweep stops at the first overlap.
  if (!sweep_exclusivity(sched, [](const ExclusivityEntry&,
                                   const ExclusivityEntry&) {
        return false;
      })) {
    return false;
  }
  // V4 precedence, V5 memory.
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      if (!precedence_holds(sched, TaskInstance{t, k})) return false;
    }
  }
  return memory_fits(sched);
}

bool is_valid_touched(const Schedule& sched,
                      std::span<const TaskInstance> touched) {
  if (!sched.complete()) return false;
  // An instance's V4 verdict reads only its own start and processor and
  // those of its producers, so it can have changed only for a touched
  // instance or a consumer of one. A byte per instance marks the suspects
  // already checked (a memset of I bytes, cheaper than sorting them).
  const TaskGraph& graph = sched.graph();
  std::vector<std::uint8_t> checked(graph.total_instances(), 0);
  const auto holds = [&](TaskInstance inst) {
    std::uint8_t& mark = checked[graph.dense_index(inst)];
    if (mark != 0) return true;
    mark = 1;
    return precedence_holds(sched, inst);
  };
  for (const TaskInstance inst : touched) {
    if (!holds(inst)) return false;
    for (const std::int32_t e : graph.deps_out(inst.task)) {
      const TaskId consumer =
          graph.dependences()[static_cast<std::size_t>(e)].consumer;
      const ConsumedRange range = graph.consumer_range(e, inst.k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        if (!holds(TaskInstance{consumer, range.first + i})) return false;
      }
    }
  }
  return memory_fits(sched);
}

void validate_or_throw(const Schedule& sched) {
  const ValidationReport report = validate(sched);
  if (!report.ok()) {
    throw ScheduleError("invalid schedule:\n" + report.to_string());
  }
}

}  // namespace lbmem
