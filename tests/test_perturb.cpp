/// Unit tests for the seeded perturbation layer (lbmem/sim/perturb.hpp)
/// driving the discrete-event executor: zero-noise equivalence, the
/// determinism contract, noise-channel effects, FIFO bus contention, and
/// the window-stitching / failure accounting of simulate_perturbed.

#include <gtest/gtest.h>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/sim/engine.hpp"
#include "lbmem/sim/perturb.hpp"

namespace lbmem {
namespace {

/// The Figure-1 system: fast producer a (period T) feeding slow consumer
/// b (period 4T) across the medium; b starts exactly when a3's datum
/// lands, so any communication delay breaks it.
TaskGraph figure1_graph() {
  TaskGraph g;
  const TaskId a = g.add_task("a", 3, 1, 1);
  const TaskId b = g.add_task("b", 12, 1, 1);
  g.add_dependence(a, b, /*data_size=*/5);
  g.freeze();
  return g;
}

Schedule figure1_system(const TaskGraph& g) {
  Schedule s(g, Architecture(2), CommModel::flat(1));
  s.set_first_start(g.find("a"), 0);
  s.assign_all(g.find("a"), 0);
  s.set_first_start(g.find("b"), 11);  // a3 ends 10, +1 comm -> 11
  s.assign_all(g.find("b"), 1);
  return s;
}

Time total_busy(const SimMetrics& m) {
  Time sum = 0;
  for (const ProcMetrics& pm : m.procs) sum += pm.busy;
  return sum;
}

TEST(PerturbSim, ZeroNoiseMatchesUnperturbed) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  const SimOptions options{3, true};
  const SimMetrics plain = simulate(s, options);
  const SimMetrics perturbed =
      simulate_perturbed(s, options, PerturbSpec{}, 0);
  EXPECT_EQ(perturbed.span, plain.span);
  EXPECT_EQ(perturbed.predicted_span, plain.predicted_span);
  EXPECT_EQ(perturbed.violations, plain.violations);
  EXPECT_EQ(perturbed.deadline_misses, 0);
  EXPECT_EQ(perturbed.total_instances, plain.total_instances);
  ASSERT_EQ(perturbed.procs.size(), plain.procs.size());
  for (std::size_t p = 0; p < plain.procs.size(); ++p) {
    EXPECT_EQ(perturbed.procs[p].busy, plain.procs[p].busy);
    EXPECT_EQ(perturbed.procs[p].peak_buffer, plain.procs[p].peak_buffer);
  }
}

TEST(PerturbSim, FixedSeedIsReproducible) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  PerturbSpec spec;
  spec.seed = 42;
  spec.wcet_jitter = 1.0;
  spec.comm_jitter = 1.0;
  spec.stall_prob = 0.5;
  spec.stall_ticks = 3;
  spec.bus_fifo = true;
  const SimMetrics a = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  const SimMetrics b = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.violation_records.size(), b.violation_records.size());
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    EXPECT_EQ(a.procs[p].busy, b.procs[p].busy);
  }
}

TEST(PerturbSim, DifferentSeedsChangeTheDraws) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  PerturbSpec spec;
  spec.wcet_jitter = 1.0;
  spec.seed = 1;
  const SimMetrics a = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  spec.seed = 2;
  const SimMetrics b = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  EXPECT_NE(total_busy(a), total_busy(b));
}

TEST(PerturbSim, JitterOnlyInflates) {
  // Overruns only: the perturbed execution can never finish earlier than
  // the static schedule predicts (WCETs are worst-case *bounds*).
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  const SimMetrics plain = simulate(s, SimOptions{2, true});
  PerturbSpec spec;
  spec.wcet_jitter = 0.75;
  const SimMetrics m = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  EXPECT_GE(m.span, m.predicted_span);
  EXPECT_EQ(m.predicted_span, plain.span);
  for (std::size_t p = 0; p < m.procs.size(); ++p) {
    EXPECT_GE(m.procs[p].busy, plain.procs[p].busy);
  }
}

TEST(PerturbSim, OverrunBeyondPeriodIsADeadlineMiss) {
  // A task whose wcet fills its whole period misses on any overrun.
  TaskGraph g;
  g.add_task("t", 10, 10, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.assign_all(0, 0);
  PerturbSpec spec;
  spec.wcet_jitter = 1.0;
  spec.seed = 7;
  const SimMetrics m = simulate_perturbed(s, SimOptions{4, true}, spec, 0);
  EXPECT_GT(m.deadline_misses, 0);
  EXPECT_GT(m.miss_rate(), 0.0);
  EXPECT_GT(m.span, m.predicted_span);
}

TEST(PerturbSim, StallsAddExactly) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  const SimMetrics plain = simulate(s, SimOptions{2, true});
  PerturbSpec spec;
  spec.stall_prob = 1.0;  // every instance stalls
  spec.stall_ticks = 7;
  const SimMetrics m = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  EXPECT_EQ(total_busy(m), total_busy(plain) + 7 * m.total_instances);
}

TEST(PerturbSim, CommJitterBreaksTightDataArrival) {
  const TaskGraph g = figure1_graph();
  const Schedule s = figure1_system(g);
  EXPECT_EQ(simulate(s, SimOptions{1, true}).violations, 0);
  PerturbSpec spec;
  spec.comm_jitter = 8.0;
  spec.seed = 3;
  const SimMetrics m = simulate_perturbed(s, SimOptions{1, true}, spec, 0);
  EXPECT_GT(m.data_violations, 0);
  EXPECT_EQ(m.overlap_violations, 0);  // starts are time-triggered
}

TEST(PerturbSim, FifoBusSerializesSimultaneousTransfers) {
  // Two transfers released at t=1, each 1 tick long, both consumers
  // dispatched at t=2: the fixed-delay model lands both at 2, the FIFO
  // bus can only land one — the second arrives at 3 and misses.
  TaskGraph g;
  const TaskId u = g.add_task("u", 8, 1, 1);
  const TaskId v = g.add_task("v", 8, 1, 1);
  const TaskId cu = g.add_task("cu", 8, 1, 1);
  const TaskId cv = g.add_task("cv", 8, 1, 1);
  g.add_dependence(u, cu, /*data_size=*/4);
  g.add_dependence(v, cv, /*data_size=*/4);
  g.freeze();
  Schedule s(g, Architecture(4), CommModel::flat(1));
  s.set_first_start(u, 0);
  s.assign_all(u, 0);
  s.set_first_start(v, 0);
  s.assign_all(v, 1);
  s.set_first_start(cu, 2);
  s.assign_all(cu, 2);
  s.set_first_start(cv, 2);
  s.assign_all(cv, 3);

  PerturbSpec spec;  // no noise: contention alone causes the miss
  EXPECT_EQ(simulate_perturbed(s, SimOptions{1, true}, spec, 0).violations,
            0);
  spec.bus_fifo = true;
  const SimMetrics m = simulate_perturbed(s, SimOptions{1, true}, spec, 0);
  ASSERT_EQ(m.data_violations, 1);
  ASSERT_EQ(m.violation_records.size(), 1u);
  // Transfers are served in (release, emission) order, so u->cu wins the
  // bus and v->cv is the late one.
  EXPECT_EQ(m.violation_records.front().victim.task, cv);
  EXPECT_EQ(m.violation_records.front().ready_at, 3);
}

TEST(PerturbSim, WindowStitchingUsesAbsoluteRepIndex) {
  // simulate_perturbed(…, first_hyperperiod=w) keys noise by the absolute
  // window index, so a 2-window run equals the sum of its windows run
  // separately — the property the failure harness stitches on.
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  PerturbSpec spec;
  spec.wcet_jitter = 1.0;
  spec.seed = 11;
  const SimMetrics full = simulate_perturbed(s, SimOptions{2, true}, spec, 0);
  const SimMetrics w0 = simulate_perturbed(s, SimOptions{1, true}, spec, 0);
  const SimMetrics w1 = simulate_perturbed(s, SimOptions{1, true}, spec, 1);
  EXPECT_EQ(full.deadline_misses, w0.deadline_misses + w1.deadline_misses);
  for (std::size_t p = 0; p < full.procs.size(); ++p) {
    EXPECT_EQ(full.procs[p].busy, w0.procs[p].busy + w1.procs[p].busy);
  }
  EXPECT_NE(total_busy(w0), 0);
  // The two windows draw different noise (different absolute index).
  EXPECT_NE(w0.span, w1.span - g.hyperperiod());
}

TEST(PerturbSim, ReplicationSeedsAreDerivedByValue) {
  PerturbSpec spec;
  spec.seed = 99;
  spec.wcet_jitter = 0.5;
  const PerturbSpec r0 = spec.replication(0);
  const PerturbSpec r1 = spec.replication(1);
  EXPECT_NE(r0.seed, r1.seed);
  EXPECT_EQ(r0.seed, perturb_hash(99, kPerturbReplication, 0));
  EXPECT_EQ(r1.seed, perturb_hash(99, kPerturbReplication, 1));
  EXPECT_EQ(r1.wcet_jitter, spec.wcet_jitter);  // knobs ride along
}

TEST(PerturbSim, FailedProcessorLosesItsDispatches) {
  const TaskGraph g = figure1_graph();
  const Schedule s = figure1_system(g);
  PerturbSpec spec;
  spec.failures = {{0, 0}};  // a's processor dies before anything runs
  const SimMetrics m = simulate_perturbed(s, SimOptions{1, true}, spec, 0);
  EXPECT_EQ(m.lost_instances, 4);  // a0..a3
  EXPECT_EQ(m.data_violations, 4);  // b[0] waits for four data forever
  for (const SimViolation& v : m.violation_records) {
    EXPECT_EQ(v.kind, SimViolation::Kind::DataNotReady);
    EXPECT_EQ(v.victim.task, g.find("b"));
    EXPECT_EQ(v.ready_at, -1);  // the datum is never produced
  }
  // 4 of 5 instances lost: the miss rate charges every one of them.
  EXPECT_DOUBLE_EQ(m.miss_rate(), 4.0 / 5.0);
}

}  // namespace
}  // namespace lbmem
