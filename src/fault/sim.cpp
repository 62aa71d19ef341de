#include "fault/sim.hpp"

#include <stdexcept>

#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"

namespace sbst::fault {

using netlist::Netlist;

namespace detail {

ObserveSet resolve_observe(const Netlist& nl, const ObserveSet& observe) {
  if (!observe.empty()) return observe;
  ObserveSet all = nl.output_nets();
  if (all.empty()) {
    throw std::invalid_argument("fault sim: netlist has no outputs");
  }
  return all;
}

void require_combinational(const Netlist& nl, const char* who) {
  if (!nl.is_combinational()) {
    throw std::invalid_argument(std::string(who) +
                                ": netlist has flip-flops; use simulate_seq");
  }
}

FaultModel list_model(const std::vector<Fault>& faults) {
  if (faults.empty()) return FaultModel::kStuckAt;
  const FaultModel model = faults.front().model;
  for (const Fault& f : faults) {
    if (f.model != model) {
      throw std::invalid_argument(
          "fault sim: mixed fault models in one grading call; "
          "grade each model separately");
    }
  }
  return model;
}

}  // namespace detail

CoverageResult simulate_comb(const Netlist& nl,
                             const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe) {
  return simulate_comb_parallel(nl, faults, patterns, observe,
                                {.num_threads = 1});
}

CoverageResult simulate_seq(const Netlist& nl,
                            const std::vector<Fault>& faults,
                            const SeqStimulus& stimulus,
                            const ObserveSet& observe) {
  return simulate_seq_parallel(nl, faults, stimulus, observe,
                               {.num_threads = 1});
}

void simulate_comb_into(const EngineContext& ctx,
                        const std::vector<Fault>& faults,
                        const PatternSet& patterns, std::uint8_t* flags) {
  detail::require_combinational(ctx.netlist(), "simulate_comb_into");
  detail::list_model(faults);  // throws on a mixed-model list
  ctx.grade_with_evaluator([&](auto& ev) {
    const detail::GoodResponses good =
        detail::comb_good_responses(ev, patterns, ctx.observe());
    detail::grade_comb_blocks(ev, faults, 0, faults.size(), patterns,
                              ctx.observe(), good, ctx.reach(), flags);
  });
}

std::vector<std::vector<bool>> good_responses(const Netlist& nl,
                                              const PatternSet& patterns,
                                              const ObserveSet& observe_in) {
  detail::require_combinational(nl, "good_responses");
  const ObserveSet observe = detail::resolve_observe(nl, observe_in);
  GradeEvaluator ev(nl);
  const detail::GoodResponses good =
      detail::comb_good_responses(ev, patterns, observe);

  std::vector<std::vector<bool>> out(patterns.size(),
                                     std::vector<bool>(observe.size()));
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (std::size_t o = 0; o < observe.size(); ++o) {
      out[p][o] = (good[p / 64][o] >> (p % 64)) & 1u;
    }
  }
  return out;
}

}  // namespace sbst::fault
