// The benchmark's own tests: order statistics, the campaign's stratified
// allocation, open-loop due-time and lateness accounting on a fake clock,
// span self time, name validation, and that every output check rejects a
// corrupted expected value.
//
// Run from the repository root: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.hpp"
#include "core/evaluate.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = sbst::core;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, MedianAndQuantileInterpolate) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(quantile(ramp(11), 0.9), 10);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  TailPercentile t = tail_percentile(ramp(100));
  ASSERT_TRUE(t.found);
  EXPECT_DOUBLE_EQ(t.percent, 90);
  EXPECT_DOUBLE_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  t = tail_percentile(ramp(1000));
  ASSERT_TRUE(t.found);
  EXPECT_DOUBLE_EQ(t.percent, 99);
  EXPECT_EQ(t.beyond, 10u);

  t = tail_percentile(ramp(40));  // p75 leaves 10 beyond, p90 only 4
  ASSERT_TRUE(t.found);
  EXPECT_DOUBLE_EQ(t.percent, 75);
  EXPECT_DOUBLE_EQ(t.value, 30);

  t = tail_percentile(ramp(15));  // even the median has only 7 beyond
  EXPECT_FALSE(t.found);
  EXPECT_EQ(t.samples, 15u);
}

TEST(Strata, TakesFollowMeasuredSharesWithOnePerPresentClass) {
  // ALU stuck-at as measured: ok, mismatch, hang, trap, wild store, infra.
  const std::vector<std::size_t> alu = {12, 309, 378, 8, 31, 0};
  EXPECT_EQ(stratified_takes(alu, 12),
            (std::vector<std::size_t>{1, 4, 5, 1, 1, 0}));
  // Exact shares need no rounding; an empty stratum is never drawn.
  EXPECT_EQ(stratified_takes({0, 30, 10, 0}, 6),
            (std::vector<std::size_t>{0, 4, 2, 0}));
  // Equal remainders go to the lower index.
  EXPECT_EQ(stratified_takes({1, 1, 1}, 4),
            (std::vector<std::size_t>{2, 1, 1}));
  EXPECT_THROW(stratified_takes({5, 5, 5}, 2), std::invalid_argument);
}

TEST(OpenLoop, LatencyCountsFromDueTimeThroughAStall) {
  double clock = 0;
  const std::vector<double> due = {1.0, 2.0, 2.5, 10.0};
  const std::vector<RequestTimes> sent = pace_open_loop(
      due, [&] { return clock; }, [&](double t) { clock = t; },
      [&](std::size_t i) {
        if (i == 1) clock += 3.0;  // the generator stalls sending request 1
      });
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_DOUBLE_EQ(sent[0].sent, 1.0);
  EXPECT_DOUBLE_EQ(sent[1].sent, 2.0);
  EXPECT_DOUBLE_EQ(sent[2].sent, 5.0);  // 2.5 s late, due time unchanged
  EXPECT_DOUBLE_EQ(sent[2].due, 2.5);
  EXPECT_DOUBLE_EQ(sent[3].sent, 10.0);

  std::vector<RequestTimes> r = sent;
  r[0].done = 1.5;   // served at once
  r[1].done = 4.0;   // 2 s of service
  r[2].done = 5.5;   // sent at 5, served 0.5 s
  r[3].done = 12.0;  // waits for nothing, 2 s
  const OpenLoopStats st = account_open_loop(r);
  EXPECT_DOUBLE_EQ(st.gen_late_max, 2.5);
  EXPECT_DOUBLE_EQ(st.latency[2], 3.0);  // from due 2.5, not sent 5.0
  EXPECT_DOUBLE_EQ(st.wait[2], 2.5);
  EXPECT_DOUBLE_EQ(st.service[2], 0.5);
  EXPECT_DOUBLE_EQ(st.busy, 0.5 + 2.0 + 0.5 + 2.0);
}

TEST(OpenLoop, HeadOfLineWaitCountsAsWaitNotService) {
  std::vector<RequestTimes> r(2);
  r[0] = {0.0, 0.0, 2.0};  // a 2 s request
  r[1] = {0.5, 0.5, 2.1};  // arrives behind it, 0.1 s of its own work
  const OpenLoopStats st = account_open_loop(r);
  EXPECT_DOUBLE_EQ(st.wait[1], 1.5);
  EXPECT_NEAR(st.service[1], 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(st.latency[1], 1.6);
}

TEST(OpenLoop, PoissonArrivalsRepeatPerSeed) {
  const std::vector<double> a = poisson_arrivals(7, 5.0, 1000);
  EXPECT_EQ(a, poisson_arrivals(7, 5.0, 1000));
  EXPECT_NE(a, poisson_arrivals(8, 5.0, 1000));
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_GT(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_NEAR(a.back() / 1000.0, 1 / 5.0, 0.02);  // mean gap 1 / rate
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> s(5);
  s[0] = {"root", 0, 10, -1, 1};
  s[1] = {"a", 1, 3, 0, 1};
  s[2] = {"b", 2, 5, 0, 1};   // overlaps a: [1, 5] counts once
  s[3] = {"c", 8, 12, 0, 1};  // runs past the parent: clipped to [8, 10]
  s[4] = {"d", 2.5, 3, 2, 1};  // grandchild: only b loses it
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 2.5);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(Spans, TracerNestsScopesAndSharesTheOpId) {
  double clock = 0;
  Tracer t(true, [&] { return clock; });
  t.next_op();
  {
    Tracer::Scope outer(t, "outer");
    clock = 1;
    {
      Tracer::Scope inner(t, "inner");
      clock = 4;
    }
    clock = 5;
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[0].op, t.spans()[1].op);
  EXPECT_DOUBLE_EQ(t.spans()[0].end - t.spans()[0].start, 5);
  EXPECT_DOUBLE_EQ(self_times(t.spans())[0], 2);

  Tracer off(false, [&] { return clock; });
  { Tracer::Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Names, OnlyLettersDigitsUnderscoreDotDash) {
  for (const char* ok : {"setup_s", "op_j1_s", "fault.grade_s.stuck-at",
                         "core.inject.run_s.shifter.transient", "9lives"}) {
    EXPECT_TRUE(valid_name(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/name", "quote\"", "uni\xc3\xa9"}) {
    EXPECT_FALSE(valid_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  for (const std::string& w : workload_names()) EXPECT_TRUE(valid_name(w));
}

// ---- output checks ----------------------------------------------------------

core::ProcessorModel& model() {
  static core::ProcessorModel m;
  return m;
}

core::ProgramEvaluation synthetic_evaluation() {
  core::ProgramEvaluation ev;
  for (const core::CutId id : {core::CutId::kAlu, core::CutId::kShifter}) {
    core::CutCoverage c;
    c.id = id;
    c.collapsed_faults = 4;
    c.stimulus_size = 9;
    c.coverage.total = 4;
    c.coverage.detected_flags = {1, 1, 0, 1};
    c.coverage.detected = 3;
    ev.cuts.push_back(c);
  }
  ev.total.instructions = 100;
  ev.total.cpu_cycles = 120;
  ev.total.loads = 5;
  ev.signatures = {0xdeadbeef, 0x12345678};
  return ev;
}

std::string golden_for(const core::ProgramEvaluation& ev) {
  std::string g = "Component | FC (%) | Miss. FC (%)\n-----\n";
  for (const core::CutCoverage& c : ev.cuts) {
    char row[128];
    std::snprintf(row, sizeof row, "%s | %.1f | %.2f\n",
                  model().component(c.id).name.c_str(), c.coverage.percent(),
                  ev.missing_fc(c.id));
    g += row;
  }
  return g + overall_line(ev) + "\n";
}

TEST(Checks, GoldenRowsRejectACorruptedValue) {
  const core::ProgramEvaluation ev = synthetic_evaluation();
  const std::string golden = golden_for(ev);
  EXPECT_EQ(check_golden_evaluate(golden, model(), ev), "");

  std::string bad = golden;
  bad.replace(bad.find("75.0"), 4, "75.1");
  EXPECT_NE(check_golden_evaluate(bad, model(), ev), "");

  bad = golden;
  bad.replace(bad.find("120 cycles"), 10, "121 cycles");
  EXPECT_NE(check_golden_evaluate(bad, model(), ev), "");

  bad = golden;
  bad.erase(bad.find("ALU"), bad.find('\n', bad.find("ALU")) -
                                 bad.find("ALU") + 1);
  EXPECT_NE(check_golden_evaluate(bad, model(), ev), "");
}

TEST(Checks, EvaluationEqualityRejectsAFlippedFlag) {
  const core::ProgramEvaluation want = synthetic_evaluation();
  EXPECT_EQ(check_same_evaluation(want, want), "");
  core::ProgramEvaluation got = want;
  got.cuts[1].coverage.detected_flags[2] = 1;  // count unchanged: only flags
  EXPECT_NE(check_same_evaluation(want, got), "");
  got = want;
  got.cuts[0].stimulus_size = 10;
  EXPECT_NE(check_same_evaluation(want, got), "");
  got = want;
  got.signatures[1] ^= 1;
  EXPECT_NE(check_same_evaluation(want, got), "");
  got = want;
  got.total.cpu_cycles += 1;
  EXPECT_NE(check_same_evaluation(want, got), "");
}

TEST(Checks, OutcomeEqualityRejectsAChangedOutcome) {
  std::vector<core::InjectionOutcome> want(2);
  want[0].outcome = core::RunOutcome::kDetectedHang;
  want[1].outcome = core::RunOutcome::kDetectedMismatch;
  want[1].faulty_signatures = {1, 2};
  want[1].faulty_stats.instructions = 77;
  EXPECT_EQ(check_same_outcomes(want, want), "");
  std::vector<core::InjectionOutcome> got = want;
  got[0].outcome = core::RunOutcome::kDetectedTrap;
  EXPECT_NE(check_same_outcomes(want, got), "");
  got = want;
  got[1].faulty_signatures[0] = 3;
  EXPECT_NE(check_same_outcomes(want, got), "");
  got = want;
  got[1].faulty_stats.instructions = 78;
  EXPECT_NE(check_same_outcomes(want, got), "");
  got.pop_back();
  EXPECT_NE(check_same_outcomes(want, got), "");
}

TEST(Checks, BytesRejectOneChangedByte) {
  EXPECT_EQ(check_same_bytes("ok ping\n", "ok ping\n"), "");
  EXPECT_NE(check_same_bytes("ok ping\n", "ok pinh\n"), "");
  EXPECT_NE(check_same_bytes("ok ping\n", "ok ping"), "");
}

// The real golden file against a real Table-1 evaluation (run from the
// repository root).
TEST(Checks, GoldenFileMatchesTheDefaultProgramAndRejectsCorruption) {
  core::TestProgramBuilder builder;
  builder.add_default_routines(model());
  const core::TestProgram program = builder.build();
  const core::ProgramEvaluation ev =
      core::evaluate_program(model(), builder, program);
  std::FILE* f = std::fopen("ci/golden/sbst_evaluate.stdout", "r");
  ASSERT_NE(f, nullptr) << "run from the repository root";
  std::string golden;
  for (int c; (c = std::fgetc(f)) != EOF;) golden += static_cast<char>(c);
  std::fclose(f);
  EXPECT_EQ(check_golden_evaluate(golden, model(), ev), "");
  std::string bad = golden;
  bad.replace(bad.find("96.48"), 5, "96.49");
  EXPECT_NE(check_golden_evaluate(bad, model(), ev), "");
}

}  // namespace
}  // namespace perfbench
