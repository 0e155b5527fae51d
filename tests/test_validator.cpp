/// Unit tests for the schedule validator (lbmem/validate/validator.hpp):
/// each rule violated in isolation must be reported.

#include <gtest/gtest.h>

#include "lbmem/util/check.hpp"
#include "lbmem/gen/paper_example.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

TEST(Validator, AcceptsPaperSchedules) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  EXPECT_TRUE(validate(s).ok());
  EXPECT_NO_THROW(validate_or_throw(s));
}

TEST(Validator, ReportsIncomplete) {
  const TaskGraph g = paper_example_graph();
  const Schedule s(g, paper_example_architecture(), paper_example_comm());
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Incomplete);
  EXPECT_THROW(validate_or_throw(s), ScheduleError);
}

TEST(Validator, DetectsPlainOverlap) {
  TaskGraph g;
  g.add_task("x", 8, 2, 1);
  g.add_task("y", 8, 2, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 1);  // overlaps [0,2)
  s.assign_all(0, 0);
  s.assign_all(1, 0);
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Overlap);
}

TEST(Validator, TwoOverlappingInstancesReportOnce) {
  // Alone on the processor, the pair's wrap-around comparison is the same
  // pair reversed: it must not be reported a second time.
  TaskGraph g;
  g.add_task("x", 8, 2, 1);
  g.add_task("y", 8, 2, 1);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 1);
  s.assign_all(0, 1);
  s.assign_all(1, 1);
  const ValidationReport report = validate(s);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Overlap);
  EXPECT_EQ(report.violations[0].detail,
            "overlap on P2: x[0] @0 len 2 vs y[0] @1 len 2 (mod 8)");
  EXPECT_FALSE(is_valid(s));
}

TEST(Validator, DetectsSteadyStateWrapOverlap) {
  // x@7 with wcet 2 on an 8-circle wraps into [0,1): collides with y@0 in
  // the *next* hyper-period even though [7,9) vs [0,2) looks disjoint.
  TaskGraph g;
  g.add_task("x", 8, 2, 1);
  g.add_task("y", 8, 2, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 7);
  s.set_first_start(1, 0);
  s.assign_all(0, 0);
  s.assign_all(1, 0);
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Overlap);
}

TEST(Validator, NoFalseOverlapAcrossProcessors) {
  TaskGraph g;
  g.add_task("x", 8, 4, 1);
  g.add_task("y", 8, 4, 1);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 0);
  s.assign_all(0, 0);
  s.assign_all(1, 1);
  EXPECT_TRUE(validate(s).ok());
}

TEST(Validator, DetectsPrecedenceViolation) {
  TaskGraph g;
  const TaskId u = g.add_task("u", 8, 2, 1);
  const TaskId v = g.add_task("v", 8, 1, 1);
  g.add_dependence(u, v);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(3));
  s.set_first_start(u, 0);
  s.set_first_start(v, 3);  // remote data arrives at 2+3=5
  s.assign_all(u, 0);
  s.assign_all(v, 1);
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Precedence);

  // Same start is fine when co-located (data ready at 2 <= 3).
  Schedule local(g, Architecture(2), CommModel::flat(3));
  local.set_first_start(u, 0);
  local.set_first_start(v, 3);
  local.assign_all(u, 0);
  local.assign_all(v, 0);
  EXPECT_TRUE(validate(local).ok());
}

TEST(Validator, MultiRatePrecedenceChecksEveryConsumedInstance) {
  TaskGraph g;
  const TaskId p = g.add_task("p", 3, 1, 1);
  const TaskId c = g.add_task("c", 12, 1, 1);
  g.add_dependence(p, c);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(p, 0);   // instances end 1,4,7,10
  s.set_first_start(c, 8);   // before p[3] completes at 10
  s.assign_all(p, 0);
  s.assign_all(c, 0);
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::Precedence);
}

TEST(Validator, DetectsMemoryOverflow) {
  TaskGraph g;
  g.add_task("big", 8, 1, 10);
  g.add_task("huge", 8, 1, 20);
  g.freeze();
  Schedule s(g, Architecture(2, /*memory_capacity=*/15), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 2);
  s.assign_all(0, 1);
  s.assign_all(1, 1);  // 30 > 15 on P2
  const ValidationReport report = validate(s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::MemoryCapacity);
}

TEST(Validator, UnlimitedMemoryNeverFlags) {
  TaskGraph g;
  g.add_task("big", 8, 1, 1000000);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.assign_all(0, 0);
  EXPECT_TRUE(validate(s).ok());
}

TEST(Validator, ReportListsAllViolations) {
  TaskGraph g;
  g.add_task("x", 8, 2, 1);
  g.add_task("y", 8, 2, 1);
  g.add_task("z", 8, 2, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 0);
  s.set_first_start(2, 0);
  s.assign_all(0, 0);
  s.assign_all(1, 0);
  s.assign_all(2, 0);
  const ValidationReport report = validate(s);
  EXPECT_GE(report.violations.size(), 2u);
  EXPECT_FALSE(report.to_string().empty());
}

}  // namespace
}  // namespace lbmem
