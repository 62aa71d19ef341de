// Hardened campaign runtime: RunOutcome taxonomy, watchdog budgets derived
// from the good run, the software-MPU store guard, and fault-tolerant
// campaign execution (tests for core/inject.{hpp,cpp} hardening).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

namespace sbst::core {
namespace {

struct CampaignFixture {
  ProcessorModel model;
  TestProgramBuilder builder;
  TestProgram program;
  CampaignFixture() {
    builder.add_default_routines(model);
    program = builder.build();
  }
};

CampaignFixture& fixture() {
  static CampaignFixture f;
  return f;
}

std::vector<fault::Fault> first_faults(const ProcessorModel& model, CutId cut,
                                       std::size_t n) {
  fault::FaultUniverse u(model.component(cut).netlist);
  std::vector<fault::Fault> faults = u.collapsed();
  if (n != 0 && faults.size() > n) faults.resize(n);
  return faults;
}

// ---- budget derivation -----------------------------------------------------

TEST(RunBudget, ScalesGoodRunResources) {
  sim::ExecStats good;
  good.instructions = 100000;
  good.cpu_cycles = 150000;
  good.pipeline_stall_cycles = 20000;
  good.memory_stall_cycles = 10000;
  good.stores = 5000;
  const sim::RunBudget b = run_budget_for(good, 8.0);
  EXPECT_EQ(b.max_instructions, 800000u);
  EXPECT_EQ(b.max_cycles, 8 * good.total_cycles());
  EXPECT_EQ(b.max_stores, 40000u);
}

TEST(RunBudget, FloorsProtectShortPrograms) {
  sim::ExecStats tiny;
  tiny.instructions = 10;
  tiny.cpu_cycles = 12;
  tiny.stores = 1;
  InjectOptions options;
  const sim::RunBudget b = run_budget_for(tiny, 2.0, options);
  EXPECT_EQ(b.max_instructions, options.min_instructions);
  EXPECT_EQ(b.max_cycles, options.min_cycles);
  EXPECT_EQ(b.max_stores, options.min_stores);
}

TEST(RunBudget, NonPositiveFactorFallsBackToLegacyCap) {
  sim::ExecStats good;
  good.instructions = 123456;
  good.stores = 789;
  for (double factor : {0.0, -1.0}) {
    const sim::RunBudget b = run_budget_for(good, factor);
    EXPECT_EQ(b.max_instructions, std::uint64_t{1} << 24);
    EXPECT_EQ(b.max_cycles, 0u);  // 0 = uncapped
    EXPECT_EQ(b.max_stores, 0u);
  }
}

// ---- outcome taxonomy ------------------------------------------------------

TEST(OutcomeHistogram, CountsAndDetectionSplit) {
  OutcomeHistogram h;
  h.add(RunOutcome::kOkMatch);
  h.add(RunOutcome::kDetectedMismatch);
  h.add(RunOutcome::kDetectedMismatch);
  h.add(RunOutcome::kDetectedHang);
  h.add(RunOutcome::kDetectedTrap);
  h.add(RunOutcome::kDetectedWildStore);
  h.add(RunOutcome::kInfraError);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.count(RunOutcome::kDetectedMismatch), 2u);
  EXPECT_EQ(h.detected_by_signature(), 2u);
  EXPECT_EQ(h.detected_by_symptom(), 3u);
  EXPECT_EQ(h.detected(), 5u);

  OutcomeHistogram same = h;
  EXPECT_EQ(same, h);
  same.add(RunOutcome::kOkMatch);
  EXPECT_NE(same, h);
}

TEST(RunOutcomeNames, DistinctAndDetectionPredicateMatchesTaxonomy) {
  const RunOutcome all[] = {
      RunOutcome::kOkMatch,       RunOutcome::kDetectedMismatch,
      RunOutcome::kDetectedHang,  RunOutcome::kDetectedTrap,
      RunOutcome::kDetectedWildStore, RunOutcome::kInfraError};
  for (RunOutcome a : all) {
    ASSERT_NE(run_outcome_name(a), nullptr);
    for (RunOutcome b : all) {
      if (a != b) {
        EXPECT_STRNE(run_outcome_name(a), run_outcome_name(b));
      }
    }
  }
  EXPECT_FALSE(outcome_detected(RunOutcome::kOkMatch));
  EXPECT_FALSE(outcome_detected(RunOutcome::kInfraError));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedMismatch));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedHang));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedTrap));
  EXPECT_TRUE(outcome_detected(RunOutcome::kDetectedWildStore));
}

// ---- store guard -----------------------------------------------------------

TEST(StoreGuard, CoversExactlyTheImageSpan) {
  const TestProgram& p = fixture().program;
  const sim::StoreGuard guard = store_guard_for(p);
  ASSERT_EQ(guard.regions.size(), 1u);
  EXPECT_TRUE(guard.allows(p.image.base));
  EXPECT_TRUE(guard.allows(p.image.end_address() - 4));
  EXPECT_TRUE(guard.allows(p.signature_address(0)));
  EXPECT_TRUE(guard.allows(p.signature_address(7)));
  EXPECT_FALSE(guard.allows(p.image.end_address()));
  EXPECT_FALSE(guard.allows(p.image.end_address() + 0x1000));
}

TEST(StoreGuard, GoodMachineRunsToCompletionUnderBudgetAndGuard) {
  const TestProgram& p = fixture().program;
  sim::Cpu reference;
  reference.reset();
  reference.load(p.image);
  const sim::ExecStats good = reference.run(p.entry);
  ASSERT_TRUE(good.halted);

  // The fault-free machine must never trip the watchdog or the MPU it
  // defines for faulty runs — otherwise every campaign would misclassify.
  const sim::RunBudget budget = run_budget_for(good, kDefaultBudgetFactor);
  const sim::StoreGuard guard = store_guard_for(p);
  sim::Cpu guarded;
  guarded.reset();
  guarded.load(p.image);
  sim::NoSink sink;
  const sim::GuardedResult r = guarded.run_guarded(p.entry, sink, budget,
                                                   &guard);
  EXPECT_EQ(r.reason, sim::StopReason::kHalted);
  EXPECT_TRUE(r.stats.halted);
  EXPECT_EQ(r.stats.instructions, good.instructions);
}

// ---- classification of real faulty runs ------------------------------------

TEST(CampaignOutcomes, ShifterFaultsHangAndStayUnderLegacyCap) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2, .store = nullptr});
  const std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kShifter, 6);
  const std::vector<InjectionOutcome> out =
      run_injection_campaign(session, f.program, CutId::kShifter, faults);
  ASSERT_EQ(out.size(), faults.size());

  std::size_t hangs = 0;
  for (const InjectionOutcome& o : out) {
    // The watchdog budget (8 x good run) must fire far below the legacy
    // global cap — that is the whole point of deriving it per run.
    EXPECT_LT(o.faulty_stats.instructions, std::uint64_t{1} << 24);
    if (o.outcome == RunOutcome::kDetectedHang) {
      ++hangs;
      EXPECT_TRUE(o.detected);
      EXPECT_TRUE(o.stop == sim::StopReason::kInstructionBudget ||
                  o.stop == sim::StopReason::kCycleBudget ||
                  o.stop == sim::StopReason::kStoreBudget)
          << stop_reason_name(o.stop);
    }
  }
  EXPECT_GE(hangs, 1u) << "no shifter fault classified as a hang";
  const OutcomeHistogram h = histogram_of(out);
  EXPECT_EQ(h.total(), out.size());
  EXPECT_EQ(h.count(RunOutcome::kDetectedHang), hangs);
}

// A crafted routine whose first faulty-visible value is a memory address:
// a stuck-at-1 on ALU result bit 31 corrupts the `la` constant, so the very
// next memory access goes to 0x8xxxxxxx instead of the signature area.
Routine crafted_address_routine(const char* name, const char* body) {
  Routine r;
  r.name = name;
  r.target = CutId::kAlu;
  r.strategy = TpgStrategy::kNone;
  r.style = "crafted";
  r.assembly = body;
  r.sig_slot = 0;
  return r;
}

fault::Fault alu_result_bit31_sa1(const ProcessorModel& model) {
  const netlist::Bus& result =
      model.component(CutId::kAlu).netlist.output_port("result");
  return fault::Fault{netlist::Site{result[31]}, true};
}

// Runs the crafted fault through session campaigns across the full
// determinism matrix and checks it classifies the same way every time.
void expect_outcome_across_matrix(const ProcessorModel& model,
                                  const TestProgram& p,
                                  const fault::Fault& fa,
                                  RunOutcome expected) {
  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool cache : {true, false}) {
      GradingSession session(
          model, {.num_threads = threads, .cache = cache, .store = nullptr});
      const std::vector<InjectionOutcome> out =
          run_injection_campaign(session, p, CutId::kAlu, {fa});
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].outcome, expected)
          << "threads " << threads << " cache " << cache;
    }
  }
}

TEST(CampaignOutcomes, CraftedWildStoreIsCaughtByStoreGuard) {
  CampaignFixture& f = fixture();
  const TestProgram p = f.builder.build_standalone(crafted_address_routine(
      "wild", "la   $s6, signatures\n"
              "sw   $s2, 0($s6)\n"));
  const InjectionOutcome o = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model));
  EXPECT_EQ(o.outcome, RunOutcome::kDetectedWildStore);
  EXPECT_EQ(o.stop, sim::StopReason::kWildStore);
  EXPECT_TRUE(o.detected);

  // With the software MPU disabled, the same wild address leaves the
  // simulated memory entirely and surfaces as a trap instead — the legacy
  // pre-guard behaviour.
  InjectOptions no_guard;
  no_guard.store_guard = false;
  const InjectionOutcome legacy = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model), {}, no_guard);
  EXPECT_EQ(legacy.outcome, RunOutcome::kDetectedTrap);

  expect_outcome_across_matrix(f.model, p, alu_result_bit31_sa1(f.model),
                               RunOutcome::kDetectedWildStore);
}

TEST(CampaignOutcomes, CraftedWildLoadClassifiesAsTrap) {
  CampaignFixture& f = fixture();
  // Loads are not store-guarded; a corrupted load address beyond simulated
  // memory raises a bus error, which classifies as a trap.
  const TestProgram p = f.builder.build_standalone(crafted_address_routine(
      "trap", "la   $s6, signatures\n"
              "lw   $t0, 0($s6)\n"
              "sw   $t0, 0($s6)\n"));
  const InjectionOutcome o = run_with_injection(
      f.model, p, CutId::kAlu, alu_result_bit31_sa1(f.model));
  EXPECT_EQ(o.outcome, RunOutcome::kDetectedTrap);
  EXPECT_EQ(o.stop, sim::StopReason::kTrap);
  EXPECT_TRUE(o.detected);

  expect_outcome_across_matrix(f.model, p, alu_result_bit31_sa1(f.model),
                               RunOutcome::kDetectedTrap);
}

TEST(CampaignOutcomes, DeterministicAcrossThreadsAndCache) {
  CampaignFixture& f = fixture();
  const std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kAlu, 4);
  // Session-less serial campaign is the reference: same budgets, same
  // classification, bitwise-identical signatures.
  const std::vector<InjectionOutcome> reference =
      run_injection_campaign(f.model, f.program, CutId::kAlu, faults);
  ASSERT_EQ(reference.size(), faults.size());

  for (unsigned threads : {1u, 2u, 8u}) {
    for (bool cache : {true, false}) {
      GradingSession session(
          f.model,
          {.num_threads = threads, .cache = cache, .store = nullptr});
      const std::vector<InjectionOutcome> out =
          run_injection_campaign(session, f.program, CutId::kAlu, faults);
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(out[k].outcome, reference[k].outcome)
            << "threads " << threads << " cache " << cache << " fault " << k;
        EXPECT_EQ(out[k].detected, reference[k].detected);
        EXPECT_EQ(out[k].stop, reference[k].stop);
        EXPECT_EQ(out[k].faulty_stats.instructions,
                  reference[k].faulty_stats.instructions);
        EXPECT_EQ(out[k].good_signatures, reference[k].good_signatures);
        EXPECT_EQ(out[k].faulty_signatures, reference[k].faulty_signatures);
      }
      EXPECT_EQ(histogram_of(out), histogram_of(reference));
    }
  }
}

// ---- infra-error containment ------------------------------------------------

TEST(CampaignOutcomes, InvalidSiteIsInfraErrorOnlyForThatFault) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2, .store = nullptr});
  std::vector<fault::Fault> faults =
      first_faults(f.model, CutId::kMultiplier, 4);
  fault::Fault bogus;
  bogus.site.gate = 0x40000000u;  // far outside the netlist
  bogus.stuck_value = true;
  faults.insert(faults.begin() + 2, bogus);

  const std::vector<InjectionOutcome> out =
      run_injection_campaign(session, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(out.size(), faults.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k == 2) {
      EXPECT_EQ(out[k].outcome, RunOutcome::kInfraError);
      EXPECT_FALSE(out[k].detected);
      EXPECT_TRUE(out[k].faulty_signatures.empty());
    } else {
      EXPECT_NE(out[k].outcome, RunOutcome::kInfraError)
          << "fault " << k << " caught the bogus fault's infra error";
    }
  }
  const OutcomeHistogram h = histogram_of(out);
  EXPECT_EQ(h.count(RunOutcome::kInfraError), 1u);
  EXPECT_EQ(h.total(), faults.size());

  // The pool survives the throwing task: the same session runs the same
  // campaign again with identical classification.
  const std::vector<InjectionOutcome> again =
      run_injection_campaign(session, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(again.size(), out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(again[k].outcome, out[k].outcome);
    EXPECT_EQ(again[k].faulty_signatures, out[k].faulty_signatures);
  }

  // The session-less serial form degrades the same fault the same way.
  const std::vector<InjectionOutcome> serial =
      run_injection_campaign(f.model, f.program, CutId::kMultiplier, faults);
  ASSERT_EQ(serial.size(), out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(serial[k].outcome, out[k].outcome);
  }
}

TEST(CampaignOutcomes, InvalidSiteThrowsFromSingleInjection) {
  // The single-run form has no campaign wrapper to degrade into
  // kInfraError, so the validation seam surfaces as an exception.
  CampaignFixture& f = fixture();
  fault::Fault bogus;
  bogus.site.gate = 0x40000000u;
  EXPECT_THROW(run_with_injection(f.model, f.program, CutId::kAlu, bogus),
               std::out_of_range);
}

// ---- evaluation surface ----------------------------------------------------

TEST(CampaignOutcomes, EvaluateClassifiesSampledFaultsPerCut) {
  CampaignFixture& f = fixture();
  GradingSession session(f.model, {.num_threads = 2, .store = nullptr});
  EvalOptions options;
  options.regfile_cycle_cap = 32;
  options.pipeline_cycle_cap = 256;
  options.classify_outcomes = true;
  options.outcome_sample = 3;
  const ProgramEvaluation ev =
      evaluate_program(session, f.builder, f.program, options);

  OutcomeHistogram sum;
  for (CutId cut : {CutId::kAlu, CutId::kShifter, CutId::kMultiplier}) {
    const OutcomeHistogram& h = ev.cut(cut).outcomes;
    EXPECT_EQ(h.total(), options.outcome_sample);
    EXPECT_GE(h.detected(), 1u);
    for (std::size_t i = 0; i < kRunOutcomeCount; ++i) {
      sum.counts[i] += h.counts[i];
    }
  }
  EXPECT_EQ(ev.outcome_totals(), sum);
  // Non-injectable components carry no sampled campaign.
  EXPECT_EQ(ev.cut(CutId::kDivider).outcomes.total(), 0u);

  // Off by default: the histograms stay all-zero.
  EvalOptions off = options;
  off.classify_outcomes = false;
  const ProgramEvaluation plain =
      evaluate_program(session, f.builder, f.program, off);
  EXPECT_EQ(plain.outcome_totals().total(), 0u);
}

}  // namespace
}  // namespace sbst::core
