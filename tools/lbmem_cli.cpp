/// \file lbmem_cli.cpp
/// \brief Command-line front end to the library, built on the solver
/// facade (lbmem/api/).
///
/// Subcommands, flags, and the per-subcommand flag vocabulary are defined
/// once in kCommands/kFlags below; the usage text is generated from those
/// tables, so `lbmem_cli --help` (or `<command> --help`) is always the
/// authoritative reference and this comment never drifts from it.
///
/// Exit code 0 on success (including --help), 1 on bad usage or an
/// unknown solver name, 2 when the workload is unschedulable (for
/// replay: when any post-event schedule is invalid; for compare: when no
/// schedulable instance could be generated; for simulate: when the
/// unperturbed execution reports violations — under --perturb violations
/// are the measurement, and exit 2 instead means at least one injected
/// processor failure could not be repaired; for serve: when the final
/// post-trace schedule is invalid).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/registry.hpp"
#include "lbmem/api/scenario.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/paper_example.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/online/runner.hpp"
#include "lbmem/report/export.hpp"
#include "lbmem/report/gantt.hpp"
#include "lbmem/report/online.hpp"
#include "lbmem/report/sim.hpp"
#include "lbmem/report/solve.hpp"
#include "lbmem/report/stats.hpp"
#include "lbmem/report/stream.hpp"
#include "lbmem/report/summary.hpp"
#include "lbmem/sim/bus.hpp"
#include "lbmem/sim/engine.hpp"
#include "lbmem/sim/robustness.hpp"
#include "lbmem/stream/service.hpp"
#include "lbmem/stream/trace_io.hpp"
#include "lbmem/util/build_info.hpp"
#include "lbmem/util/check.hpp"

namespace {

using namespace lbmem;

// ---- the one table usage() and the parser are generated from --------------

enum : unsigned {
  kExample = 1u << 0,
  kBalance = 1u << 1,
  kSimulate = 1u << 2,
  kBus = 1u << 3,
  kExport = 1u << 4,
  kReplay = 1u << 5,
  kCompare = 1u << 6,
  kServe = 1u << 7,
  kAllCommands = (1u << 8) - 1,
};

/// Flags shared by every workload-generating subcommand.
constexpr unsigned kWorkload =
    kBalance | kSimulate | kBus | kExport | kReplay | kCompare | kServe;
/// Subcommands whose balance stage is the configured heuristic.
constexpr unsigned kHeuristicDriven =
    kBalance | kSimulate | kBus | kExport | kReplay | kServe;
/// Subcommands carrying the observability flag family (--metrics-out,
/// --trace-spans, --timing; DESIGN.md F25/F26).
constexpr unsigned kObserved =
    kBalance | kSimulate | kReplay | kCompare | kServe;

struct CommandSpec {
  const char* name;
  unsigned bit;
  const char* help;
};

constexpr CommandSpec kCommands[] = {
    {"example", kExample, "run the paper's worked example"},
    {"balance", kBalance,
     "generate, schedule, solve, report (--algo picks any solver)"},
    {"compare", kCompare,
     "race registered solvers on a generated workload suite"},
    {"simulate", kSimulate, "balance + discrete-event execution"},
    {"bus", kBus, "balance + single-medium analysis"},
    {"export", kExport, "emit DOT/JSON artifacts"},
    {"replay", kReplay, "online: replay a random event trace"},
    {"serve", kServe,
     "online: stream a timestamped event trace through the batching "
     "repair-queue service"},
};

struct FlagSpec {
  const char* name;
  const char* value;   ///< value hint shown as --name=<value>
  const char* help;
  unsigned commands;   ///< subcommands that accept the flag
};

constexpr FlagSpec kFlags[] = {
    {"tasks", "N", "tasks in the generated workload", kWorkload},
    {"procs", "M", "processors", kWorkload},
    {"seed", "S", "workload seed (compare: base seed of the suite)",
     kWorkload},
    {"comm", "C", "flat communication time", kWorkload},
    {"period-levels", "L", "distinct periods (base * 2^0 .. 2^(L-1))",
     kWorkload},
    {"edge-prob", "P", "dependence probability", kWorkload},
    {"capacity", "MEM", "per-processor memory capacity (enforced when set)",
     kWorkload},
    {"placement", "cluster|minstart", "initial placement policy", kWorkload},
    {"policy", "lex|formula|literal|gain|memory", "heuristic cost policy",
     kHeuristicDriven},
    {"algo", "NAME|all",
     "registered solver(s): balance/simulate take one name, compare a "
     "comma list or 'all' (the default there)",
     kBalance | kSimulate | kCompare},
    {"trace", "on|off",
     "record the full decision trace; off runs the pruned hot path and the "
     "summary reports destinations evaluated/skipped by bound",
     kHeuristicDriven},
    {"threads", "N",
     "worker threads for the (instance x solver) sweep, 0 = hardware "
     "concurrency — results are identical for every N",
     kCompare},
    {"hyperperiods", "K", "hyper-periods to simulate", kSimulate},
    {"local-buffers", "on|off",
     "count same-processor producer->consumer data in buffer occupancy",
     kSimulate},
    {"perturb", "on|off",
     "seeded perturbed execution (bare --perturb = on): simulate runs the "
     "robustness harness, compare adds robustness columns",
     kSimulate | kCompare},
    {"replications", "K",
     "perturbed replications (per instance x solver cell for compare)",
     kSimulate | kCompare},
    {"jitter", "F", "max multiplicative wcet overrun (default 0.25)",
     kSimulate | kCompare},
    {"comm-jitter", "F",
     "max multiplicative message-delay inflation (default 0.5)",
     kSimulate | kCompare},
    {"stall-prob", "F", "per-instance transient-stall probability",
     kSimulate | kCompare},
    {"stall-ticks", "T", "transient stall length in ticks",
     kSimulate | kCompare},
    {"bus-fifo", "on|off",
     "serialize remote transfers through one FIFO bus (default on)",
     kSimulate | kCompare},
    {"perturb-seed", "S", "perturbation noise seed", kSimulate | kCompare},
    {"burst-p", "F",
     "Gilbert-Elliott storm entry probability per hyper-period (correlated "
     "fault bursts; applies to the wcet/comm/stall channels)",
     kSimulate | kCompare},
    {"burst-q", "F", "storm exit probability per hyper-period (default 0.5)",
     kSimulate | kCompare},
    {"burst-factor", "F",
     "noise-intensity multiplier while a channel is in its storm state "
     "(default 4)",
     kSimulate | kCompare},
    {"fail-proc", "P[,P...]",
     "inject permanent failures of these processors (1-based, comma list); "
     "the online engine repairs the schedule mid-run",
     kSimulate},
    {"fail-at", "T[,T...]",
     "failure ticks, one per --fail-proc entry (default: half a "
     "hyper-period in)",
     kSimulate},
    {"degraded", "on|off",
     "degraded-mode repair ladder (bare --degraded = on): widened retries, "
     "full re-place, solver resolve, load shedding instead of hard reject; "
     "serve arms it automatically past --overload even when off",
     kSimulate | kReplay | kServe},
    {"staleness", "K",
     "freeze the repair path's per-processor load view for K events "
     "(stale-information mode; 0 = live)",
     kReplay},
    {"adaptive", "on|off",
     "miss-rate-driven solver selection (bare --adaptive = on): adds the "
     "virtual 'adaptive' row that per instance mirrors the candidate with "
     "the best pooled perturbed miss rate so far; needs --perturb",
     kCompare},
    {"out", "PREFIX", "write JSON/DOT artifacts under this path prefix",
     kExport | kReplay | kCompare | kSimulate | kServe},
    {"count", "K", "workload instances in the comparison suite", kCompare},
    {"timing", "on|off",
     "include wall-clock columns/fields in the output (off: byte-stable "
     "across runs and thread counts)",
     kObserved},
    {"metrics-out", "FILE",
     "write the run's metrics-registry snapshot as JSON; wall-clock "
     "figures sit under a separate 'timing' subtree that --timing=off "
     "strips, leaving the file byte-identical across thread counts",
     kObserved},
    {"trace-spans", "FILE",
     "record scoped spans and write Chrome trace-event JSON (open in "
     "chrome://tracing or ui.perfetto.dev)",
     kObserved},
    {"events", "N", "events in the random trace", kReplay | kServe},
    {"event-seed", "S", "event-trace seed", kReplay | kServe},
    {"migration-penalty", "P", "price of moving a block off its processor",
     kReplay | kServe},
    {"mode", "incremental|full", "balance-stage strategy", kReplay},
    {"resolver", "NAME",
     "full-resolve each event through this registered solver (implies "
     "--mode=full)",
     kReplay},
    {"arrivals", "uniform|poisson|bursty",
     "inter-arrival model stamping the generated trace's event ticks",
     kServe},
    {"mean-gap", "F", "mean inter-arrival gap in ticks (--arrivals=poisson)",
     kServe},
    {"cycle-ticks", "T", "width of one admission window in virtual ticks",
     kServe},
    {"queue-cap", "N",
     "pending-queue bound; overflow sheds the incoming event (failures "
     "exempt), 0 = unbounded",
     kServe},
    {"batch-max", "N", "most events drained per cycle", kServe},
    {"budget-us", "U",
     "per-cycle repair budget in microseconds (0 = unbounded; min one "
     "event per cycle, queued failures always flush)",
     kServe},
    {"coalesce", "on|off",
     "collapse the pending queue (last-write-wins, annihilation, fold) "
     "before each drain (default on)",
     kServe},
    {"overload", "N",
     "backlog high-water mark arming the degraded repair ladder "
     "(disarmed at half the mark; 0 = never)",
     kServe},
    {"stats-every", "K", "print a stats line every K cycles (0 = off)",
     kServe},
    {"trace-in", "FILE",
     "serve this trace file instead of generating one ('-' = stdin)",
     kServe},
    {"emit-trace", "FILE",
     "write the generated trace ('-' = stdout) and exit without serving",
     kServe},
};

std::string command_list(unsigned mask) {
  std::string out;
  for (const CommandSpec& cmd : kCommands) {
    if (!(cmd.bit & mask)) continue;
    if (!out.empty()) out += " ";
    out += cmd.name;
  }
  return out;
}

/// Usage text for the subcommands in \p mask (kAllCommands = the full
/// reference). Generated from kCommands/kFlags — the single source of
/// truth for the flag vocabulary.
std::string usage_text(unsigned mask) {
  std::ostringstream out;
  out << "usage: lbmem_cli <" << [] {
    std::string names;
    for (const CommandSpec& cmd : kCommands) {
      if (!names.empty()) names += "|";
      names += cmd.name;
    }
    return names;
  }() << "> [--flag=value ...]\n";
  out << "\ncommands:\n";
  for (const CommandSpec& cmd : kCommands) {
    if (!(cmd.bit & mask)) continue;
    const std::size_t width = std::string(cmd.name).size();
    out << "  " << cmd.name << std::string(width < 10 ? 10 - width : 1, ' ')
        << cmd.help << "\n";
  }
  bool any_flag = false;
  for (const FlagSpec& flag : kFlags) any_flag |= (flag.commands & mask) != 0;
  if (!any_flag) {
    out << "\n(no flags beyond --help)\n";
    return out.str();
  }
  out << "\nflags (the commands each flag applies to in brackets):\n";
  for (const FlagSpec& flag : kFlags) {
    if (!(flag.commands & mask)) continue;
    std::string head = std::string("  --") + flag.name + "=" + flag.value;
    if (head.size() < 30) head += std::string(30 - head.size(), ' ');
    out << head << " " << flag.help << "  [" << command_list(flag.commands)
        << "]\n";
  }
  out << "\n--help/-h (anywhere) prints this text and exits 0.\n";
  return out.str();
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << usage_text(kAllCommands);
  std::exit(1);
}

[[noreturn]] void help(unsigned mask) {
  std::cout << usage_text(mask);
  std::exit(0);
}

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& cmd : kCommands) {
    if (name == cmd.name) return &cmd;
  }
  return nullptr;
}

const FlagSpec* find_flag(const std::string& name) {
  for (const FlagSpec& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

// ---- options --------------------------------------------------------------

struct CliOptions {
  int tasks = 40;
  int procs = 4;
  std::uint64_t seed = 1;
  Time comm = 2;
  int period_levels = 3;
  double edge_prob = 0.25;
  Mem capacity = kUnlimitedMemory;
  CostPolicy policy = CostPolicy::Lexicographic;
  PlacementPolicy placement = PlacementPolicy::PeriodCluster;
  int hyperperiods = 2;
  std::string out_prefix;
  // simulate / perturbed execution:
  bool local_buffers = true;
  bool perturb = false;
  int replications = 3;
  double jitter = 0.25;        ///< wcet overrun fraction when --perturb
  double comm_jitter = 0.5;    ///< message-delay inflation when --perturb
  double stall_prob = 0.0;
  Time stall_ticks = 0;
  bool bus_fifo = true;
  std::uint64_t perturb_seed = 1;
  double burst_p = 0.0;        ///< Gilbert-Elliott storm entry probability
  double burst_q = 0.5;        ///< storm exit probability
  double burst_factor = 4.0;   ///< storm noise multiplier
  std::vector<int> fail_procs;  ///< 1-based; empty = no injected failure
  std::vector<Time> fail_ats;   ///< one per fail_procs entry (or defaulted)
  // balance / compare:
  std::string algo;    ///< empty = the heuristic under --policy
  int count = 1;       ///< compare suite size
  bool timing = true;  ///< wall-clock columns/fields in reports
  // observability:
  std::string metrics_out;  ///< --metrics-out=FILE (empty = off)
  std::string trace_spans;  ///< --trace-spans=FILE (empty = off)
  // replay / serve:
  int events = 16;
  std::uint64_t event_seed = 1;
  Time migration_penalty = 0;
  bool incremental = true;
  std::string resolver;
  // serve (streaming service):
  ArrivalModel arrivals = ArrivalModel::UniformGap;
  double mean_gap = 16.0;
  Time cycle_ticks = 64;
  int queue_cap = 4096;
  int batch_max = 256;
  std::int64_t budget_us = 0;
  bool coalesce = true;
  int overload = 0;
  std::int64_t stats_every = 0;
  std::string trace_in;    ///< --trace-in=FILE|- (empty = generate)
  std::string emit_trace;  ///< --emit-trace=FILE|- (write trace, exit)
  /// --degraded: escalate rejected repairs through the ladder (F28).
  bool degraded = false;
  /// --staleness=K: frozen load view for the repair path (F29).
  int staleness = 0;
  /// --adaptive: miss-rate-driven compare row (F30).
  bool adaptive = false;
  /// --trace=on (default) records the full per-block decision trace, which
  /// evaluates every destination exhaustively; --trace=off runs the pruned
  /// production path (bound-and-prune selection) — decisions are identical.
  bool trace = true;
  /// --threads=N for the compare sweep; 0 resolves to the hardware
  /// concurrency.
  int threads = 1;
  // set-tracking for cross-flag validation:
  bool policy_set = false;
  bool trace_set = false;
  bool mode_set = false;
  bool penalty_set = false;
  bool perturb_knob_set = false;  ///< any perturbation knob besides --perturb
  bool fail_proc_set = false;
  bool fail_at_set = false;
  bool trace_gen_set = false;  ///< any trace-generation knob (serve)
  bool mean_gap_set = false;
};

CliOptions parse_flags(const CommandSpec& cmd, int argc, char** argv,
                       int first) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") help(cmd.bit);
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 ||
        (eq == std::string::npos && arg != "--perturb" &&
         arg != "--degraded" && arg != "--adaptive")) {
      usage("malformed flag: " + arg);
    }
    // `--perturb`, `--degraded` and `--adaptive` are usable bare
    // (== --flag=on): they are mode switches, and "run it perturbed /
    // degraded / adaptive" should not need a value.
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const std::string value =
        eq == std::string::npos ? "on" : arg.substr(eq + 1);
    const FlagSpec* spec = find_flag(key);
    if (spec == nullptr) usage("unknown flag: --" + key);
    if (!(spec->commands & cmd.bit)) {
      usage("flag --" + key + " does not apply to '" + cmd.name +
            "' (applies to: " + command_list(spec->commands) + ")");
    }
    try {
      if (key == "tasks") {
        options.tasks = std::stoi(value);
      } else if (key == "procs") {
        options.procs = std::stoi(value);
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "comm") {
        options.comm = std::stoll(value);
      } else if (key == "period-levels") {
        options.period_levels = std::stoi(value);
      } else if (key == "edge-prob") {
        options.edge_prob = std::stod(value);
      } else if (key == "capacity") {
        options.capacity = std::stoll(value);
      } else if (key == "hyperperiods") {
        options.hyperperiods = std::stoi(value);
      } else if (key == "local-buffers") {
        if (value == "on") options.local_buffers = true;
        else if (value == "off") options.local_buffers = false;
        else usage("unknown local-buffers mode: " + value);
      } else if (key == "perturb") {
        if (value == "on") options.perturb = true;
        else if (value == "off") options.perturb = false;
        else usage("unknown perturb mode: " + value);
      } else if (key == "replications") {
        options.perturb_knob_set = true;
        options.replications = std::stoi(value);
        if (options.replications < 1) {
          usage("--replications takes a count >= 1");
        }
      } else if (key == "jitter") {
        options.perturb_knob_set = true;
        options.jitter = std::stod(value);
        if (options.jitter < 0) usage("--jitter takes a fraction >= 0");
      } else if (key == "comm-jitter") {
        options.perturb_knob_set = true;
        options.comm_jitter = std::stod(value);
        if (options.comm_jitter < 0) {
          usage("--comm-jitter takes a fraction >= 0");
        }
      } else if (key == "stall-prob") {
        options.perturb_knob_set = true;
        options.stall_prob = std::stod(value);
        if (options.stall_prob < 0 || options.stall_prob > 1) {
          usage("--stall-prob takes a probability in [0, 1]");
        }
      } else if (key == "stall-ticks") {
        options.perturb_knob_set = true;
        options.stall_ticks = std::stoll(value);
        if (options.stall_ticks < 0) usage("--stall-ticks takes ticks >= 0");
      } else if (key == "bus-fifo") {
        options.perturb_knob_set = true;
        if (value == "on") options.bus_fifo = true;
        else if (value == "off") options.bus_fifo = false;
        else usage("unknown bus-fifo mode: " + value);
      } else if (key == "perturb-seed") {
        options.perturb_knob_set = true;
        options.perturb_seed = std::stoull(value);
      } else if (key == "burst-p") {
        options.perturb_knob_set = true;
        options.burst_p = std::stod(value);
        if (options.burst_p < 0 || options.burst_p > 1) {
          usage("--burst-p takes a probability in [0, 1]");
        }
      } else if (key == "burst-q") {
        options.perturb_knob_set = true;
        options.burst_q = std::stod(value);
        if (options.burst_q <= 0 || options.burst_q > 1) {
          usage("--burst-q takes a probability in (0, 1]");
        }
      } else if (key == "burst-factor") {
        options.perturb_knob_set = true;
        options.burst_factor = std::stod(value);
        if (options.burst_factor <= 0) {
          usage("--burst-factor takes a multiplier > 0");
        }
      } else if (key == "fail-proc") {
        options.fail_proc_set = true;
        std::string item;
        std::istringstream list(value);
        while (std::getline(list, item, ',')) {
          if (!item.empty()) options.fail_procs.push_back(std::stoi(item));
        }
        if (options.fail_procs.empty()) {
          usage("--fail-proc takes a comma list of processors");
        }
      } else if (key == "fail-at") {
        options.fail_at_set = true;
        std::string item;
        std::istringstream list(value);
        while (std::getline(list, item, ',')) {
          if (item.empty()) continue;
          const Time at = std::stoll(item);
          if (at < 0) usage("--fail-at takes ticks >= 0");
          options.fail_ats.push_back(at);
        }
      } else if (key == "degraded") {
        if (value == "on") options.degraded = true;
        else if (value == "off") options.degraded = false;
        else usage("unknown degraded mode: " + value);
      } else if (key == "staleness") {
        options.staleness = std::stoi(value);
        if (options.staleness < 0) usage("--staleness takes events >= 0");
      } else if (key == "adaptive") {
        if (value == "on") options.adaptive = true;
        else if (value == "off") options.adaptive = false;
        else usage("unknown adaptive mode: " + value);
      } else if (key == "events") {
        options.trace_gen_set = true;
        options.events = std::stoi(value);
      } else if (key == "event-seed") {
        options.trace_gen_set = true;
        options.event_seed = std::stoull(value);
      } else if (key == "arrivals") {
        options.trace_gen_set = true;
        if (value == "uniform") options.arrivals = ArrivalModel::UniformGap;
        else if (value == "poisson") options.arrivals = ArrivalModel::Poisson;
        else if (value == "bursty") options.arrivals = ArrivalModel::Bursty;
        else usage("unknown arrivals model: " + value);
      } else if (key == "mean-gap") {
        options.trace_gen_set = true;
        options.mean_gap_set = true;
        options.mean_gap = std::stod(value);
        if (options.mean_gap <= 0) usage("--mean-gap takes ticks > 0");
      } else if (key == "cycle-ticks") {
        options.cycle_ticks = std::stoll(value);
        if (options.cycle_ticks < 1) usage("--cycle-ticks takes ticks >= 1");
      } else if (key == "queue-cap") {
        options.queue_cap = std::stoi(value);
        if (options.queue_cap < 0) {
          usage("--queue-cap takes a bound >= 1, or 0 for unbounded");
        }
      } else if (key == "batch-max") {
        options.batch_max = std::stoi(value);
        if (options.batch_max < 1) usage("--batch-max takes a count >= 1");
      } else if (key == "budget-us") {
        options.budget_us = std::stoll(value);
        if (options.budget_us < 0) {
          usage("--budget-us takes microseconds >= 0");
        }
      } else if (key == "coalesce") {
        if (value == "on") options.coalesce = true;
        else if (value == "off") options.coalesce = false;
        else usage("unknown coalesce mode: " + value);
      } else if (key == "overload") {
        options.overload = std::stoi(value);
        if (options.overload < 0) usage("--overload takes a backlog >= 0");
      } else if (key == "stats-every") {
        options.stats_every = std::stoll(value);
        if (options.stats_every < 0) {
          usage("--stats-every takes cycles >= 0");
        }
      } else if (key == "trace-in") {
        if (value.empty()) usage("--trace-in takes a file path or '-'");
        options.trace_in = value;
      } else if (key == "emit-trace") {
        if (value.empty()) usage("--emit-trace takes a file path or '-'");
        options.emit_trace = value;
      } else if (key == "migration-penalty") {
        options.penalty_set = true;
        options.migration_penalty = std::stoll(value);
      } else if (key == "count") {
        options.count = std::stoi(value);
      } else if (key == "threads") {
        options.threads = std::stoi(value);
        if (options.threads < 0) {
          usage("--threads takes a count >= 1, or 0 for the hardware "
                "concurrency");
        }
      } else if (key == "algo") {
        options.algo = value;
      } else if (key == "resolver") {
        options.resolver = value;
      } else if (key == "mode") {
        options.mode_set = true;
        if (value == "incremental") options.incremental = true;
        else if (value == "full") options.incremental = false;
        else usage("unknown mode: " + value);
      } else if (key == "trace") {
        options.trace_set = true;
        if (value == "on") options.trace = true;
        else if (value == "off") options.trace = false;
        else usage("unknown trace mode: " + value);
      } else if (key == "timing") {
        if (value == "on") options.timing = true;
        else if (value == "off") options.timing = false;
        else usage("unknown timing mode: " + value);
      } else if (key == "metrics-out") {
        if (value.empty()) usage("--metrics-out takes a file path");
        options.metrics_out = value;
      } else if (key == "trace-spans") {
        if (value.empty()) usage("--trace-spans takes a file path");
        options.trace_spans = value;
      } else if (key == "out") {
        options.out_prefix = value;
      } else if (key == "policy") {
        options.policy_set = true;
        if (value == "lex") options.policy = CostPolicy::Lexicographic;
        else if (value == "formula") options.policy = CostPolicy::PaperFormula;
        else if (value == "literal") options.policy = CostPolicy::PaperLiteral;
        else if (value == "gain") options.policy = CostPolicy::GainOnly;
        else if (value == "memory") options.policy = CostPolicy::MemoryOnly;
        else usage("unknown policy: " + value);
      } else if (key == "placement") {
        if (value == "cluster") {
          options.placement = PlacementPolicy::PeriodCluster;
        } else if (value == "minstart") {
          options.placement = PlacementPolicy::MinStartTime;
        } else {
          usage("unknown placement: " + value);
        }
      } else {
        usage("unknown flag: --" + key);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for --" + key + ": " + value);
    } catch (const std::out_of_range&) {
      usage("bad value for --" + key + ": " + value);
    }
  }

  // Cross-flag validation (per subcommand).
  if ((cmd.bit == kBalance || cmd.bit == kSimulate) && !options.algo.empty()) {
    if (options.algo == "all") {
      usage(std::string("--algo=all is only valid for 'compare'; ") +
            cmd.name + " takes one name");
    }
    if (options.policy_set) {
      usage("--policy configures the default heuristic run; with --algo, "
            "name a heuristic-<policy> solver instead");
    }
    if (options.trace_set) {
      usage("--trace applies to the heuristic path only, not to --algo runs");
    }
  }
  // Perturbation knobs only mean something under --perturb: a silent
  // no-op --jitter would read as "I measured robustness" when nothing
  // was perturbed.
  if ((options.perturb_knob_set || options.fail_proc_set) &&
      !options.perturb) {
    usage("perturbation knobs (--replications/--jitter/--comm-jitter/"
          "--stall-prob/--stall-ticks/--bus-fifo/--perturb-seed/"
          "--fail-proc) configure the perturbed executor; add --perturb");
  }
  if (options.fail_at_set && !options.fail_proc_set) {
    usage("--fail-at sets when the failures strike; name the victims with "
          "--fail-proc");
  }
  if (options.fail_at_set &&
      options.fail_ats.size() != options.fail_procs.size()) {
    usage("--fail-at needs one tick per --fail-proc entry (" +
          std::to_string(options.fail_procs.size()) + " given)");
  }
  for (const int proc : options.fail_procs) {
    if (proc < 1 || proc > options.procs) {
      usage("--fail-proc is 1-based and must name one of the " +
            std::to_string(options.procs) + " processors");
    }
  }
  if (options.adaptive && !options.perturb) {
    usage("--adaptive ranks candidates by perturbed miss rate; add "
          "--perturb");
  }
  if (cmd.bit == kReplay && !options.resolver.empty()) {
    if (options.mode_set && options.incremental) {
      usage("--resolver implies --mode=full");
    }
    // The resolver runs with its own registered configuration; the
    // built-in balance stage (and its penalty) is bypassed entirely.
    if (options.penalty_set) {
      usage("--migration-penalty configures the built-in balance stage, "
            "which --resolver bypasses");
    }
  }
  if (cmd.bit == kServe) {
    if (!options.trace_in.empty() && options.trace_gen_set) {
      usage("--trace-in serves a recorded trace; the generation knobs "
            "(--events/--event-seed/--arrivals/--mean-gap) do not apply");
    }
    if (!options.trace_in.empty() && !options.emit_trace.empty()) {
      usage("--emit-trace writes the generated trace; it cannot be "
            "combined with --trace-in");
    }
    if (options.mean_gap_set && options.arrivals != ArrivalModel::Poisson) {
      usage("--mean-gap parameterizes --arrivals=poisson");
    }
  }
  return options;
}

// ---- shared helpers -------------------------------------------------------

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << content;
  std::cout << "wrote " << path << "\n";
}

/// Per-run observability session (DESIGN.md F25/F26): owns the metrics
/// registry and — under --trace-spans — the installed tracer. Construct
/// before the work, call finish() at each exit: it renders the stats
/// block, writes --metrics-out, uninstalls the tracer and writes the span
/// file. registry() is null when --metrics-out was not asked for, so the
/// commands wire it through unconditionally and the library layers skip
/// the fold.
class ObsSession {
 public:
  explicit ObsSession(const CliOptions& options)
      : metrics_path_(options.metrics_out),
        spans_path_(options.trace_spans),
        include_timing_(options.timing) {
    if (!spans_path_.empty()) {
      tracer_.emplace();
      scope_.emplace(&*tracer_);
    }
  }

  obs::Registry* registry() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }

  void finish() {
    if (!metrics_path_.empty()) {
      const obs::Snapshot snap = registry_.snapshot();
      std::cout << summarize_stats(snap, include_timing_);
      write_file(metrics_path_, metrics_to_json(snap, include_timing_));
      metrics_path_.clear();
    }
    if (!spans_path_.empty()) {
      scope_.reset();  // quiesce recording before serializing
      std::ofstream out(spans_path_);
      if (!out) {
        std::cerr << "cannot write " << spans_path_ << "\n";
        std::exit(1);
      }
      tracer_->write_json(out);
      std::cout << "wrote " << spans_path_ << " (" << tracer_->span_count()
                << " spans";
      if (tracer_->dropped() > 0) {
        std::cout << ", " << tracer_->dropped() << " dropped";
      }
      std::cout << ")\n";
      spans_path_.clear();
    }
  }

 private:
  obs::Registry registry_;
  std::optional<obs::Tracer> tracer_;
  std::optional<obs::TracerScope> scope_;
  std::string metrics_path_;
  std::string spans_path_;
  bool include_timing_ = true;
};

WorkloadSpec make_workload_spec(const CliOptions& options) {
  WorkloadSpec spec;
  spec.graph.tasks = options.tasks;
  spec.graph.period_levels = options.period_levels;
  spec.graph.edge_probability = options.edge_prob;
  spec.graph.intended_processors = options.procs;
  spec.seed = options.seed;
  spec.processors = options.procs;
  spec.comm_cost = options.comm;
  spec.memory_capacity = options.capacity;
  spec.scheduler.policy = options.placement;
  return spec;
}

/// The compare suite is the same workload vocabulary swept over
/// base_seed .. base_seed+count-1: one conversion, so a flag wired into
/// make_workload_spec can never silently not apply to `compare`.
SuiteSpec make_suite_spec(const CliOptions& options) {
  const WorkloadSpec workload = make_workload_spec(options);
  SuiteSpec suite;
  suite.params = workload.graph;
  suite.processors = workload.processors;
  suite.comm_cost = workload.comm_cost;
  suite.memory_capacity = workload.memory_capacity;
  suite.policy = workload.scheduler.policy;
  suite.base_seed = workload.seed;
  suite.count = options.count;
  return suite;
}

/// Perturbation spec from the flag family. \p hyperperiod sizes the
/// default failure tick (half a hyper-period in); pass 0 when no failure
/// can be injected (compare).
PerturbSpec make_perturb(const CliOptions& options, Time hyperperiod) {
  PerturbSpec perturb;
  perturb.seed = options.perturb_seed;
  perturb.wcet_jitter = options.jitter;
  perturb.comm_jitter = options.comm_jitter;
  perturb.stall_prob = options.stall_prob;
  perturb.stall_ticks = options.stall_ticks;
  perturb.bus_fifo = options.bus_fifo;
  if (options.burst_p > 0.0) {
    GilbertElliott chain;
    chain.p = options.burst_p;
    chain.q = options.burst_q;
    chain.factor = options.burst_factor;
    perturb.wcet_burst = chain;
    perturb.comm_burst = chain;
    perturb.stall_burst = chain;
  }
  for (std::size_t i = 0; i < options.fail_procs.size(); ++i) {
    ProcessorFault fault;
    fault.proc = static_cast<ProcId>(options.fail_procs[i] - 1);
    fault.at =
        i < options.fail_ats.size() ? options.fail_ats[i] : hyperperiod / 2;
    perturb.failures.push_back(fault);
  }
  return perturb;
}

BalanceOptions make_balance_options(const CliOptions& options,
                                    obs::Registry* metrics = nullptr) {
  BalanceOptions balance;
  balance.policy = options.policy;
  balance.enforce_memory_capacity = options.capacity != kUnlimitedMemory;
  balance.record_trace = options.trace;
  balance.metrics = metrics;
  return balance;
}

/// Generated workload + the heuristic solved through the facade (the
/// balance stage every heuristic-driven subcommand shares).
struct Prepared {
  Problem problem;
  Outcome outcome;
};

Prepared prepare(const CliOptions& options,
                 obs::Registry* metrics = nullptr) {
  Problem problem = Problem::generate(make_workload_spec(options));
  const HeuristicSolver solver(make_balance_options(options, metrics));
  Outcome outcome = solver.solve(problem);
  return Prepared{std::move(problem), std::move(outcome)};
}

/// The facade reports an invalid result (e.g. the balancer fell back on a
/// workload that busts a finite capacity) as an infeasible Outcome; the
/// CLI contract for that is "unschedulable", exit 2.
const Schedule& solved_or_throw(const Outcome& outcome) {
  if (!outcome.feasible()) throw ScheduleError(outcome.detail);
  return *outcome.schedule;
}

// ---- subcommands ----------------------------------------------------------

int cmd_example() {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  BalanceOptions options;
  options.record_trace = true;
  const BalanceResult result = LoadBalancer(options).balance(before);
  std::cout << "--- before (paper Fig. 3) ---\n" << render_gantt(before)
            << "\n--- after (paper Fig. 4) ---\n"
            << render_gantt(result.schedule) << "\n"
            << summarize(result.stats);
  return 0;
}

int cmd_balance(const CliOptions& options) {
  ObsSession obs(options);
  if (!options.algo.empty()) {
    const auto solver = SolverRegistry::builtin().require(options.algo);
    // A machine-count mismatch is a usage error (exit 1), not an
    // unschedulable workload: fail before generating anything.
    const int machines_exact = solver->capabilities().machines_exact;
    if (machines_exact != 0 && machines_exact != options.procs) {
      usage("solver '" + solver->name() + "' handles exactly " +
            std::to_string(machines_exact) + " processors (--procs=" +
            std::to_string(options.procs) + ")");
    }
    const Problem problem = Problem::generate(make_workload_spec(options));
    const Outcome outcome = solver->solve(problem);
    // Feasibility first: the transcript must not print a solved header
    // for a run that then reports "unschedulable".
    const Schedule& solved = solved_or_throw(outcome);
    std::cout << "--- initial ---\n" << render_gantt(problem.initial_schedule())
              << "\n--- solved (" << solver->name() << ") ---\n"
              << render_gantt(solved) << "\n"
              << summarize_solve(outcome.stats);
    if (!outcome.detail.empty()) {
      std::cout << "detail: " << outcome.detail << "\n";
    }
    obs.finish();
    return 0;
  }
  const Prepared p = prepare(options, obs.registry());
  const Schedule& solved = solved_or_throw(p.outcome);
  std::cout << "--- initial ---\n" << render_gantt(p.problem.initial_schedule())
            << "\n--- balanced (" << to_string(options.policy) << ") ---\n"
            << render_gantt(solved) << "\n" << summarize_solve(p.outcome.stats);
  obs.finish();
  return 0;
}

int cmd_compare(const CliOptions& options) {
  ObsSession obs(options);
  ScenarioSpec spec;
  spec.suite = make_suite_spec(options);
  spec.threads = options.threads;
  spec.metrics = obs.registry();
  if (options.perturb) {
    // No failure injection in compare (fail-proc is simulate-only), so
    // the hyper-period sizing the default failure tick is irrelevant.
    spec.suite.perturb = make_perturb(options, 0);
    spec.replications = options.replications;
    spec.adaptive = options.adaptive;
  }
  if (!options.algo.empty() && options.algo != "all") {
    std::string name;
    std::istringstream list(options.algo);
    while (std::getline(list, name, ',')) {
      if (!name.empty()) spec.solvers.push_back(name);
    }
  }

  const ScenarioRunner runner(SolverRegistry::builtin());
  const ScenarioReport report = runner.run(spec);
  std::cout << "=== compare: " << options.count << " x (N=" << options.tasks
            << ", M=" << options.procs << ", base seed " << options.seed
            << ") ===\n"
            << summarize_scenario(report, options.timing);
  if (!options.out_prefix.empty()) {
    write_file(options.out_prefix + "_compare.json",
               scenario_report_to_json(report, options.timing));
  }
  obs.finish();
  if (report.instances == 0) {
    std::cerr << "unschedulable: no workload instance could be generated ("
              << report.skipped_seeds << " seeds skipped)\n";
    return 2;
  }
  return 0;
}

int cmd_simulate(const CliOptions& options) {
  ObsSession obs(options);
  std::shared_ptr<const Solver> named;
  if (!options.algo.empty()) {
    named = SolverRegistry::builtin().require(options.algo);
    // Same contract as `balance`: a machine-count mismatch is a usage
    // error, caught before any workload is generated.
    const int machines_exact = named->capabilities().machines_exact;
    if (machines_exact != 0 && machines_exact != options.procs) {
      usage("solver '" + named->name() + "' handles exactly " +
            std::to_string(machines_exact) + " processors (--procs=" +
            std::to_string(options.procs) + ")");
    }
  }
  const Problem problem = Problem::generate(make_workload_spec(options));
  const Outcome outcome =
      named ? named->solve(problem)
            : HeuristicSolver(make_balance_options(options, obs.registry()))
                  .solve(problem);
  const Schedule& solved = solved_or_throw(outcome);
  if (named) std::cout << "solver: " << named->name() << "\n";
  std::cout << summarize_solve(outcome.stats) << "\n";

  SimOptions sim{options.hyperperiods, options.local_buffers};
  sim.metrics = obs.registry();
  if (!options.perturb) {
    const SimMetrics metrics = simulate(solved, sim);
    std::cout << summarize_sim(metrics, options.hyperperiods);
    if (!options.out_prefix.empty()) {
      write_file(options.out_prefix + "_sim.json",
                 sim_report_to_json(metrics, options.hyperperiods));
    }
    obs.finish();
    return metrics.violations == 0 ? 0 : 2;
  }

  RobustnessOptions rob;
  rob.sim = sim;
  rob.replications = options.replications;
  rob.perturb = make_perturb(options, solved.graph().hyperperiod());
  // The repair stage (taken when a failure is injected) runs the same
  // heuristic configuration the schedule was built with.
  rob.repair.balance.policy = options.policy;
  rob.repair.balance.enforce_memory_capacity =
      options.capacity != kUnlimitedMemory;
  rob.repair.degraded.enabled = options.degraded;
  rob.repair.metrics = obs.registry();
  const RobustnessReport report = run_robustness(solved, rob);
  std::cout << summarize_robustness(report, rob);
  if (!options.out_prefix.empty()) {
    write_file(options.out_prefix + "_sim.json",
               robustness_report_to_json(report, rob));
  }
  obs.finish();
  // Perturbed violations/misses are the measurement, not a failure of the
  // tool; the run only "fails" when an injected processor failure could
  // not be repaired.
  return report.failure_injected && !report.recovered ? 2 : 0;
}

int cmd_bus(const CliOptions& options) {
  const Prepared p = prepare(options);
  const Schedule& solved = solved_or_throw(p.outcome);
  const BusReport before = analyze_single_bus(p.problem.initial_schedule());
  const BusReport after = analyze_single_bus(solved);
  auto show = [](const char* label, const BusReport& report) {
    std::cout << label << ": " << report.jobs.size() << " transfers, busy "
              << report.bus_busy << ", utilization "
              << report.utilization << " — " << report.detail << "\n";
  };
  show("before", before);
  show("after ", after);
  return 0;
}

int cmd_replay(const CliOptions& options) {
  ObsSession obs(options);
  Prepared p = prepare(options, obs.registry());
  // Same contract as `balance`: an invalid starting point (e.g. the
  // balancer fell back on a workload that busts a finite capacity) is
  // "unschedulable", not a baseline to replay events against.
  solved_or_throw(p.outcome);
  std::cout << "--- balanced starting point ---\n"
            << summarize_solve(p.outcome.stats) << "\n";

  EventTraceParams trace_params;
  trace_params.events = options.events;
  const EventTrace trace =
      random_event_trace(p.problem.graph(), p.outcome.schedule->architecture(),
                         trace_params, options.event_seed);

  RebalancerOptions online_options;
  online_options.balance.policy = options.policy;
  online_options.balance.enforce_memory_capacity =
      options.capacity != kUnlimitedMemory;
  online_options.balance.migration_penalty = options.migration_penalty;
  online_options.incremental = options.incremental;
  online_options.metrics = obs.registry();
  online_options.degraded.enabled = options.degraded;
  online_options.staleness_events = options.staleness;
  std::string mode = options.incremental ? "incremental" : "full";
  if (!options.resolver.empty()) {
    online_options.incremental = false;
    online_options.full_resolver =
        SolverRegistry::builtin().require(options.resolver);
    mode = "full (resolver " + options.resolver + ")";
  }
  if (options.degraded) mode += ", degraded ladder";
  Rebalancer system = Rebalancer::adopt(
      p.problem.graph(), *p.outcome.schedule, online_options);

  const OnlineRunner runner;
  const OnlineReport report = runner.replay(system, trace);
  std::cout << "--- replay (" << options.events << " events, seed "
            << options.event_seed << ", " << mode << " mode) ---\n"
            << summarize_online(report, options.timing);

  if (!options.out_prefix.empty()) {
    write_file(options.out_prefix + "_online.json",
               online_report_to_json(report, options.timing));
  }
  obs.finish();
  return report.total_violations == 0 ? 0 : 2;
}

int cmd_serve(const CliOptions& options) {
  ObsSession obs(options);
  Prepared p = prepare(options, obs.registry());
  // Same contract as `replay`: an invalid starting point is
  // "unschedulable", not a baseline to stream events against.
  solved_or_throw(p.outcome);

  EventTrace trace;
  std::string source;
  if (!options.trace_in.empty()) {
    if (options.trace_in == "-") {
      trace = parse_trace(std::cin);
      source = "stdin";
    } else {
      std::ifstream in(options.trace_in);
      if (!in) {
        std::cerr << "cannot read " << options.trace_in << "\n";
        return 1;
      }
      trace = parse_trace(in);
      source = options.trace_in;
    }
  } else {
    EventTraceParams trace_params;
    trace_params.events = options.events;
    trace_params.arrival = options.arrivals;
    trace_params.mean_gap = options.mean_gap;
    trace = random_event_trace(p.problem.graph(),
                               p.outcome.schedule->architecture(),
                               trace_params, options.event_seed);
    source = "generated, seed " + std::to_string(options.event_seed);
  }

  if (!options.emit_trace.empty()) {
    // Emit mode: the trace is the deliverable. For '-' the trace is the
    // *only* stdout content, so `serve --emit-trace=- | serve --trace-in=-`
    // round-trips without a scraper.
    if (options.emit_trace == "-") {
      write_trace(std::cout, trace);
    } else {
      write_file(options.emit_trace, trace_to_string(trace));
    }
    obs.finish();
    return 0;
  }

  std::cout << "--- balanced starting point ---\n"
            << summarize_solve(p.outcome.stats) << "\n";

  RebalancerOptions online_options;
  online_options.balance.policy = options.policy;
  online_options.balance.enforce_memory_capacity =
      options.capacity != kUnlimitedMemory;
  online_options.balance.migration_penalty = options.migration_penalty;
  online_options.metrics = obs.registry();
  online_options.degraded.enabled = options.degraded;
  Rebalancer system = Rebalancer::adopt(
      p.problem.graph(), *p.outcome.schedule, online_options);

  StreamOptions stream;
  stream.cycle_ticks = options.cycle_ticks;
  stream.queue_capacity = options.queue_cap;
  stream.batch_max = options.batch_max;
  stream.budget_us = options.budget_us;
  stream.coalesce = options.coalesce;
  stream.overload_backlog = options.overload;
  stream.metrics = obs.registry();

  const bool timing = options.timing;
  StreamService::ProgressFn progress;
  if (options.stats_every > 0) {
    progress = [timing](const StreamProgress& snap) {
      std::cout << progress_line(snap, timing) << "\n";
    };
  }

  const StreamService service(stream);
  const StreamReport report =
      service.serve(system, trace, progress, options.stats_every);
  std::cout << "--- serve (" << trace.size() << " events, " << source
            << ", cycle " << options.cycle_ticks << " ticks) ---\n"
            << summarize_stream(report, options.timing);

  if (!options.out_prefix.empty()) {
    write_file(options.out_prefix + "_serve.json",
               stream_report_to_json(report, options.timing));
  }
  obs.finish();
  return report.final_violations > 0 ? 2 : 0;
}

int cmd_export(const CliOptions& options) {
  const Prepared p = prepare(options);
  const Schedule& solved = solved_or_throw(p.outcome);
  const std::string prefix =
      options.out_prefix.empty() ? "lbmem" : options.out_prefix;
  write_file(prefix + "_graph.dot", graph_to_dot(p.problem.graph()));
  write_file(prefix + "_before.dot",
             schedule_to_dot(p.problem.initial_schedule()));
  write_file(prefix + "_after.dot", schedule_to_dot(solved));
  write_file(prefix + "_before.json",
             schedule_to_json(p.problem.initial_schedule()));
  write_file(prefix + "_after.json", schedule_to_json(solved));
  write_file(prefix + "_stats.json", solve_stats_to_json(p.outcome.stats));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") help(kAllCommands);
  if (command == "--version") {
    std::cout << build_info_line() << "\n";
    return 0;
  }
  const CommandSpec* cmd = find_command(command);
  if (cmd == nullptr) usage("unknown command: " + command);
  try {
    const CliOptions options = parse_flags(*cmd, argc, argv, 2);
    switch (cmd->bit) {
      case kExample: return cmd_example();
      case kBalance: return cmd_balance(options);
      case kCompare: return cmd_compare(options);
      case kSimulate: return cmd_simulate(options);
      case kBus: return cmd_bus(options);
      case kExport: return cmd_export(options);
      case kReplay: return cmd_replay(options);
      case kServe: return cmd_serve(options);
    }
    usage("unknown command: " + command);
  } catch (const ScheduleError& e) {
    std::cerr << "unschedulable: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
