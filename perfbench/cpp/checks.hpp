// Output checks. Each returns an empty string when the answer is right and
// a one-line description of the first difference otherwise; the workloads
// count an operation as failed when any of its checks reports one.
#pragma once

#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/inject.hpp"

namespace perfbench {

/// The `sbst evaluate` rows (component, FC %, Miss. FC %) and the closing
/// `overall FC ...` line, compared against the text of a golden stdout such
/// as ci/golden/sbst_evaluate.stdout.
std::string check_golden_evaluate(const std::string& golden,
                                  const sbst::core::ProcessorModel& model,
                                  const sbst::core::ProgramEvaluation& ev);

/// Bitwise equality of two evaluations: every (component, model) row's
/// detection flags, fault and stimulus counts, the traced run's stats and
/// the fault-free signatures.
std::string check_same_evaluation(const sbst::core::ProgramEvaluation& want,
                                  const sbst::core::ProgramEvaluation& got);

/// Equality of two campaigns' per-fault outcomes (class, stop reason,
/// corrupted results, faulty-run instructions and signatures).
std::string check_same_outcomes(
    const std::vector<sbst::core::InjectionOutcome>& want,
    const std::vector<sbst::core::InjectionOutcome>& got);

/// Byte equality of two responses.
std::string check_same_bytes(const std::string& want, const std::string& got);

/// The `overall FC ...` line render_evaluate prints for `ev`.
std::string overall_line(const sbst::core::ProgramEvaluation& ev);

}  // namespace perfbench
