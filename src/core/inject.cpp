#include "core/inject.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/program.hpp"
#include "core/session.hpp"
#include "fault/sim_parallel.hpp"
#include "rtlgen/multiplier.hpp"
#include "sim/exec.hpp"

namespace sbst::core {

const char* run_outcome_name(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kOkMatch: return "ok_match";
    case RunOutcome::kDetectedMismatch: return "detected_mismatch";
    case RunOutcome::kDetectedHang: return "detected_hang";
    case RunOutcome::kDetectedTrap: return "detected_trap";
    case RunOutcome::kDetectedWildStore: return "detected_wild_store";
    case RunOutcome::kInfraError: return "infra_error";
  }
  return "unknown";
}

RunOutcome classify_stop(sim::StopReason stop, bool signatures_match) {
  switch (stop) {
    case sim::StopReason::kHalted:
      return signatures_match ? RunOutcome::kOkMatch
                              : RunOutcome::kDetectedMismatch;
    case sim::StopReason::kInstructionBudget:
    case sim::StopReason::kCycleBudget:
    case sim::StopReason::kStoreBudget:
      return RunOutcome::kDetectedHang;
    case sim::StopReason::kWildStore:
      return RunOutcome::kDetectedWildStore;
    case sim::StopReason::kTrap:
      return RunOutcome::kDetectedTrap;
  }
  return RunOutcome::kInfraError;
}

OutcomeHistogram histogram_of(const std::vector<InjectionOutcome>& outcomes) {
  OutcomeHistogram h;
  for (const InjectionOutcome& o : outcomes) h.add(o.outcome);
  return h;
}

sim::RunBudget run_budget_for(const sim::ExecStats& good_stats, double factor,
                              const InjectOptions& options) {
  sim::RunBudget budget;  // defaults = legacy global cap, no cycle/store cap
  if (factor <= 0.0) return budget;
  const auto scaled = [factor](std::uint64_t v, std::uint64_t floor_v) {
    const double s = std::ceil(static_cast<double>(v) * factor);
    return std::max(static_cast<std::uint64_t>(s), floor_v);
  };
  budget.max_instructions =
      scaled(good_stats.instructions, options.min_instructions);
  budget.max_cycles = scaled(good_stats.total_cycles(), options.min_cycles);
  budget.max_stores = scaled(good_stats.stores, options.min_stores);
  return budget;
}

sim::StoreGuard store_guard_for(const TestProgram& program) {
  sim::StoreGuard guard;
  guard.regions.push_back(
      {program.image.base, program.image.end_address()});
  return guard;
}

void GateLevelFaultInjector::check_target(CutId target) const {
  if (target != CutId::kAlu && target != CutId::kShifter &&
      target != CutId::kMultiplier) {
    throw std::invalid_argument(
        "GateLevelFaultInjector: unsupported component");
  }
}

namespace {

/// Rejects fault sites that do not exist in the netlist BEFORE they reach
/// Evaluator::inject (whose force arrays are indexed without bounds
/// checks). This is the campaign layer's infra-error seam: a malformed
/// fault descriptor throws here and is degraded to kInfraError instead of
/// silently corrupting the simulation.
void validate_fault_site(const netlist::Netlist& nl,
                         const fault::Fault& fault) {
  if (fault.site.gate >= nl.gates().size()) {
    throw std::out_of_range(
        "GateLevelFaultInjector: fault site gate " +
        std::to_string(fault.site.gate) + " outside netlist (" +
        std::to_string(nl.gates().size()) + " gates)");
  }
  if (!fault.site.is_output() && fault.site.pin >= 3) {
    throw std::out_of_range("GateLevelFaultInjector: fault site pin " +
                            std::to_string(fault.site.pin) +
                            " outside gate input range");
  }
}

}  // namespace

void GateLevelFaultInjector::init_fault(const fault::Fault& fault) {
  fault_ = fault;
  stream_key_ = fault::fault_stream_key(fault);
  switch (fault.model) {
    case fault::FaultModel::kStuckAt:
      // Always-on: arm once, never toggle (the legacy code path).
      if (comp_eval_) {
        comp_eval_->inject_broadcast(fault.site, fault.stuck_value);
      } else {
        ref_eval_->inject_broadcast(fault.site, fault.stuck_value);
      }
      active_ = true;
      break;
    case fault::FaultModel::kTransition:
      line_ = fault.site.is_output()
                  ? fault.site.gate
                  : nl_->gate(fault.site.gate).in[fault.site.pin];
      line_eval_ = std::make_unique<netlist::Evaluator>(*nl_);
      break;
    case fault::FaultModel::kTransientSEU:
    case fault::FaultModel::kIntermittent:
      break;  // armed per operation by the activation stream
  }
}

GateLevelFaultInjector::GateLevelFaultInjector(const ProcessorModel& model,
                                               CutId target,
                                               const fault::Fault& fault)
    : target_(target), nl_(&model.component(target).netlist) {
  check_target(target);
  validate_fault_site(*nl_, fault);
  ref_eval_ = std::make_unique<netlist::Evaluator>(*nl_);
  init_fault(fault);
}

GateLevelFaultInjector::GateLevelFaultInjector(GradingSession& session,
                                               CutId target,
                                               const fault::Fault& fault)
    : target_(target), nl_(&session.model().component(target).netlist) {
  check_target(target);
  validate_fault_site(*nl_, fault);
  comp_eval_ =
      std::make_unique<netlist::CompiledEvaluator>(session.compiled(target));
  init_fault(fault);
}

GateLevelFaultInjector::GateLevelFaultInjector(
    const netlist::Netlist& nl, const netlist::CompiledNetlist& compiled,
    CutId target, const fault::Fault& fault)
    : target_(target), nl_(&nl) {
  check_target(target);
  validate_fault_site(nl, fault);
  comp_eval_ = std::make_unique<netlist::CompiledEvaluator>(compiled);
  init_fault(fault);
}

void GateLevelFaultInjector::drive(const char* port, std::uint64_t value) {
  if (comp_eval_) {
    comp_eval_->set_bus(nl_->input_port(port), value);
  } else {
    ref_eval_->set_bus(nl_->input_port(port), value);
  }
  if (line_eval_) line_eval_->set_bus(nl_->input_port(port), value);
}

void GateLevelFaultInjector::update_activation() {
  bool on = active_;
  switch (fault_.model) {
    case fault::FaultModel::kStuckAt:
      return;  // armed at construction, nothing to do per op
    case fault::FaultModel::kTransition: {
      // Launch/capture at operation granularity: the slow transition only
      // corrupts this operation if the fault-free line sat at the slow value
      // sv on the previous operation and should be !sv now. The first
      // operation has no launch partner and is never corrupted.
      line_eval_->eval();
      const bool lv = line_eval_->value(line_) & 1u;
      on = prev_line_sv_ && lv != fault_.stuck_value;
      prev_line_sv_ = lv == fault_.stuck_value;
      break;
    }
    case fault::FaultModel::kTransientSEU:
    case fault::FaultModel::kIntermittent:
      on = fault::fault_active(stream_key_, fault_.model, op_index_);
      break;
  }
  ++op_index_;
  if (on == active_) return;
  if (comp_eval_) {
    if (on) {
      comp_eval_->inject_broadcast(fault_.site, fault_.stuck_value);
    } else {
      comp_eval_->release_broadcast(fault_.site);
    }
  } else {
    if (on) {
      ref_eval_->inject_broadcast(fault_.site, fault_.stuck_value);
    } else {
      ref_eval_->release_broadcast(fault_.site);
    }
  }
  active_ = on;
}

std::uint64_t GateLevelFaultInjector::read(const char* port) {
  update_activation();
  if (comp_eval_) {
    comp_eval_->eval();
    return comp_eval_->bus_value(nl_->output_port(port));
  }
  ref_eval_->eval();
  return ref_eval_->bus_value(nl_->output_port(port));
}

std::optional<std::uint32_t> GateLevelFaultInjector::alu_result(
    rtlgen::AluOp op, std::uint32_t a, std::uint32_t b) {
  if (target_ != CutId::kAlu) return std::nullopt;
  drive("a", a);
  drive("b", b);
  drive("op", static_cast<std::uint64_t>(op));
  const auto r = static_cast<std::uint32_t>(read("result"));
  if (r != rtlgen::alu_ref(op, a, b)) ++corrupted_;
  return r;
}

std::optional<std::uint32_t> GateLevelFaultInjector::shift_result(
    rtlgen::ShiftOp op, std::uint32_t value, std::uint32_t shamt) {
  if (target_ != CutId::kShifter) return std::nullopt;
  drive("a", value);
  drive("shamt", shamt);
  drive("op", static_cast<std::uint64_t>(op));
  const auto r = static_cast<std::uint32_t>(read("result"));
  if (r != rtlgen::shifter_ref(op, value, shamt)) ++corrupted_;
  return r;
}

std::optional<std::uint64_t> GateLevelFaultInjector::mult_result(
    std::uint32_t a, std::uint32_t b) {
  if (target_ != CutId::kMultiplier) return std::nullopt;
  drive("a", a);
  drive("b", b);
  const std::uint64_t r = read("product");
  if (r != rtlgen::multiplier_ref(a, b)) ++corrupted_;
  return r;
}

namespace {

/// One guarded faulty run against precomputed good signatures. The good
/// machine is NOT re-executed here — callers hoist it once per
/// (program, config) and derive the watchdog budget from its stats.
InjectionOutcome faulty_outcome(
    const TestProgram& program,
    const std::vector<std::uint32_t>& good_signatures,
    GateLevelFaultInjector& injector, const sim::CpuConfig& config,
    std::shared_ptr<const isa::DecodedProgram> decoded,
    const sim::RunBudget& budget, const sim::StoreGuard* guard) {
  InjectionOutcome out;
  out.good_signatures = good_signatures;

  sim::Cpu bad(config);
  bad.reset();
  bad.load(program.image, std::move(decoded));
  sim::InjectSink<GateLevelFaultInjector> sink{&injector};
  // A fault can corrupt an address computation (trap, wild store) or keep
  // the program from ever reaching `break` (hang). The guarded run
  // classifies each ending; the signature slots keep the legacy inverted
  // convention for non-clean endings so `detected` and the signature
  // vectors stay comparable with pre-taxonomy results.
  const sim::GuardedResult run =
      bad.run_guarded(program.entry, sink, budget, guard);
  out.faulty_stats = run.stats;
  out.stop = run.reason;
  const bool clean = run.reason == sim::StopReason::kHalted;
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    out.faulty_signatures.push_back(
        clean ? bad.read_word(program.signature_address(slot))
              : ~good_signatures[slot]);
  }
  out.corrupted_results = injector.corrupted_results();
  out.outcome = classify_stop(run.reason,
                              out.good_signatures == out.faulty_signatures);
  out.detected = outcome_detected(out.outcome);
  return out;
}

/// Session-less good run: executes the fault-free machine and unloads its
/// signature words and stats (the stats seed the watchdog budget, exactly
/// like the session's cached GoodRun).
GoodRun good_run_of(const TestProgram& program, const sim::CpuConfig& config,
                    const std::shared_ptr<const isa::DecodedProgram>& decoded) {
  sim::Cpu good(config);
  good.reset();
  good.load(program.image, decoded);
  GoodRun run;
  run.stats = good.run(program.entry);
  if (!run.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  run.signatures.reserve(kSignatureSlots);
  for (unsigned slot = 0; slot < kSignatureSlots; ++slot) {
    run.signatures.push_back(good.read_word(program.signature_address(slot)));
  }
  return run;
}

double resolved_factor(const InjectOptions& inject,
                       const GradingSession* session) {
  if (inject.budget_factor) return *inject.budget_factor;
  return session ? session->options().budget_factor : kDefaultBudgetFactor;
}

/// The campaign-side infra_error placeholder for fault whose task threw.
InjectionOutcome infra_outcome(const std::vector<std::uint32_t>& good_sigs) {
  InjectionOutcome out;
  out.outcome = RunOutcome::kInfraError;
  out.detected = false;
  out.good_signatures = good_sigs;
  return out;
}

}  // namespace

InjectionOutcome run_with_injection(const ProcessorModel& model,
                                    const TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config,
                                    const InjectOptions& inject) {
  const auto decoded =
      std::make_shared<const isa::DecodedProgram>(program.image);
  const GoodRun good = good_run_of(program, config, decoded);
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, nullptr), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  GateLevelFaultInjector injector(model, target, fault);
  return faulty_outcome(program, good.signatures, injector, config, decoded,
                        budget, inject.store_guard ? &guard : nullptr);
}

InjectionOutcome run_with_injection(GradingSession& session,
                                    const TestProgram& program,
                                    CutId target, const fault::Fault& fault,
                                    const sim::CpuConfig& config,
                                    const InjectOptions& inject) {
  // Copy before further session calls: with the cache off a later good_run
  // request for the same program replaces the slot.
  const GoodRun good = session.good_run(program, config);
  if (!good.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, &session), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  auto decoded = session.decoded(program.image);
  GateLevelFaultInjector injector(session, target, fault);
  return faulty_outcome(program, good.signatures, injector, config,
                        std::move(decoded), budget,
                        inject.store_guard ? &guard : nullptr);
}

std::vector<InjectionOutcome> run_injection_campaign(
    GradingSession& session, const TestProgram& program, CutId target,
    const std::vector<fault::Fault>& faults, const sim::CpuConfig& config,
    const InjectOptions& inject) {
  // Serial prefetch: one good run, one predecoded image, one compiled
  // netlist — shared read-only by every per-fault task (workers never touch
  // the session caches, so cache-off mode stays safe under parallelism).
  const GoodRun good = session.good_run(program, config);
  if (!good.stats.halted) {
    throw std::runtime_error("run_with_injection: good run did not halt");
  }
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, &session), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  const sim::StoreGuard* guard_p = inject.store_guard ? &guard : nullptr;
  const auto decoded = session.decoded(program.image);
  const netlist::Netlist& nl = session.model().component(target).netlist;
  const netlist::CompiledNetlist& compiled = session.compiled(target);

  std::vector<InjectionOutcome> out(faults.size());
  const auto run_one = [&](std::size_t i) {
    GateLevelFaultInjector injector(nl, compiled, target, faults[i]);
    out[i] = faulty_outcome(program, good.signatures, injector, config,
                            decoded, budget, guard_p);
  };
  fault::GradingPlan plan;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    plan.add_task([&run_one, i] { run_one(i); });
  }
  // Fault-tolerant execution: a throwing task is contained by the pool,
  // retried serially here (the failure might be resource-transient), and
  // only then pinned to kInfraError — the campaign always returns a verdict
  // for every fault.
  const std::vector<fault::ThreadPool::TaskFailure> failures =
      plan.run_capture(session.pool());
  for (const fault::ThreadPool::TaskFailure& f : failures) {
    out[f.task] = infra_outcome(good.signatures);
    for (unsigned attempt = 0; attempt < inject.infra_retries; ++attempt) {
      try {
        run_one(f.task);
        break;
      } catch (...) {
        out[f.task] = infra_outcome(good.signatures);
      }
    }
  }
  return out;
}

std::vector<InjectionOutcome> run_injection_campaign(
    const ProcessorModel& model, const TestProgram& program, CutId target,
    const std::vector<fault::Fault>& faults, const sim::CpuConfig& config,
    const InjectOptions& inject) {
  const auto decoded =
      std::make_shared<const isa::DecodedProgram>(program.image);
  const GoodRun good = good_run_of(program, config, decoded);
  const sim::RunBudget budget =
      run_budget_for(good.stats, resolved_factor(inject, nullptr), inject);
  const sim::StoreGuard guard = store_guard_for(program);
  const sim::StoreGuard* guard_p = inject.store_guard ? &guard : nullptr;
  std::vector<InjectionOutcome> out;
  out.reserve(faults.size());
  for (const fault::Fault& fault : faults) {
    const auto run_one = [&]() {
      GateLevelFaultInjector injector(model, target, fault);
      return faulty_outcome(program, good.signatures, injector, config,
                            decoded, budget, guard_p);
    };
    InjectionOutcome one = infra_outcome(good.signatures);
    for (unsigned attempt = 0; attempt <= inject.infra_retries; ++attempt) {
      try {
        one = run_one();
        break;
      } catch (...) {
        one = infra_outcome(good.signatures);
      }
    }
    out.push_back(std::move(one));
  }
  return out;
}

}  // namespace sbst::core
