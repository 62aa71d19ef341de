#include "fault/sim.hpp"

#include <stdexcept>

#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"

namespace sbst::fault {

using netlist::Evaluator;
using netlist::Netlist;
using netlist::NetId;

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

TransitionBaseline make_transition_baseline(const Netlist& nl,
                                            const PatternSet& patterns,
                                            const ObserveSet& observe) {
  TransitionBaseline base;
  const std::size_t n_blocks = patterns.block_count();
  base.vals.resize(n_blocks);
  base.out.resize(n_blocks);
  Evaluator good(nl);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    apply_block(good, patterns, b);
    good.eval();
    base.vals[b].resize(nl.size());
    for (NetId id = 0; id < nl.size(); ++id) {
      base.vals[b][id] = good.value(id);
    }
    base.out[b].resize(observe.size());
    for (std::size_t o = 0; o < observe.size(); ++o) {
      base.out[b][o] = good.value(observe[o]);
    }
  }
  return base;
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
  if (detail::list_model(faults) == FaultModel::kTransition) {
    const auto baseline = detail::make_transition_baseline(
        ctx.netlist(), patterns, ctx.observe());
    ctx.grade_with_evaluator([&](auto& ev) {
      detail::grade_transition_blocks(ev, faults, 0, faults.size(), patterns,
                                      ctx.observe(), baseline, ctx.reach(),
                                      flags);
    });
    return;
  }
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

  std::vector<std::vector<bool>> out;
  out.reserve(patterns.size());
  Evaluator ev(nl);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    detail::apply_block(ev, patterns, b);
    ev.eval();
    const std::size_t lanes =
        std::min<std::size_t>(64, patterns.size() - b * 64);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::vector<bool> row(observe.size());
      for (std::size_t o = 0; o < observe.size(); ++o) {
        row[o] = (ev.value(observe[o]) >> lane) & 1u;
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace sbst::fault
