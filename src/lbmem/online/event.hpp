#pragma once
/// \file event.hpp
/// \brief Runtime events the online rebalancing engine reacts to.
///
/// The paper's heuristic is strictly offline: one balancing pass over a
/// fixed task set. Real deployments face runtime events — task admission,
/// mode changes (WCET updates), processor failure — and reacting
/// incrementally beats recomputing from scratch (see PAPERS.md on dynamic
/// load balancing). This file defines the event vocabulary; the engine
/// that applies events lives in rebalancer.hpp.
///
/// Tasks are identified by *name* across events (DESIGN.md F10): task
/// arrivals and removals replace the frozen TaskGraph and a removal shifts
/// the ids above the victim, so dense TaskIds are not stable identities at
/// the trace level.

#include <string>
#include <variant>
#include <vector>

#include "lbmem/model/task.hpp"
#include "lbmem/model/types.hpp"

namespace lbmem {

/// Specification of a task admitted at runtime.
struct NewTaskSpec {
  std::string name;  ///< must be unique among alive tasks
  Time period = 0;
  Time wcet = 0;
  Mem memory = 0;
  /// Dependences of the new task; producers are named and must be alive
  /// when the event fires (runtime admission cannot add consumers to the
  /// new task — nothing depends on it yet).
  using Producer = NamedProducer;
  std::vector<Producer> producers;
};

/// A new task enters the system and must be admitted (earliest-fit) and
/// folded into the balance.
struct TaskArrival {
  NewTaskSpec spec;
};

/// An alive task leaves; its instances and dependences disappear.
struct TaskRemoval {
  std::string task;
};

/// A mode change: an alive task's WCET is re-estimated.
struct WcetChange {
  std::string task;
  Time wcet = 0;
};

/// A processor fails permanently: everything it hosts must be evacuated
/// and it must never receive work again.
struct ProcessorFailure {
  ProcId proc = kNoProc;
};

/// Discriminator mirroring the payload alternatives, in variant order.
enum class EventKind {
  TaskArrival,
  TaskRemoval,
  WcetChange,
  ProcessorFailure,
};

/// One runtime event. `at` is an informational timestamp used by traces
/// and reports; the replay order of the trace is authoritative.
struct Event {
  Time at = 0;
  std::variant<TaskArrival, TaskRemoval, WcetChange, ProcessorFailure>
      payload;

  EventKind kind() const { return static_cast<EventKind>(payload.index()); }
};

/// A replayable sequence of events.
using EventTrace = std::vector<Event>;

/// Printable kind name ("arrival", "removal", "wcet", "failure").
std::string to_string(EventKind kind);

/// One-line description, e.g. "t=12 arrival dyn3 (T=32 E=3 m=5, 2 deps)".
std::string to_string(const Event& event);

}  // namespace lbmem
