// Independent sequential fault-grading oracle (test-only).
//
// The production kernel (detail::grade_seq_batches) packs faults into lanes,
// batches them, exits early and moves surviving lanes between batches. This
// oracle shares none of that: it runs the fault-free machine once on its own
// reference Evaluator, then each fault alone on a fresh one through every
// cycle of the stimulus. A windowed fault is forced exactly in the cycles
// its activation stream is on. Slow on purpose; meant for small CUTs.
#pragma once

#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {

inline CoverageResult grade_seq_oracle(
    const netlist::Netlist& nl, const std::vector<Fault>& faults,
    const SeqStimulus& stimulus,
    std::vector<netlist::NetId> observe = {}) {
  if (observe.empty()) observe = nl.output_nets();
  const auto& inputs = nl.inputs();
  auto apply_cycle = [&](netlist::Evaluator& ev, std::size_t c) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ev.set_input(inputs[k], stimulus.input_bit(c, k));
    }
  };

  // Fault-free responses, lane 0 of every observed output per cycle.
  std::vector<std::vector<bool>> good(stimulus.size());
  {
    netlist::Evaluator ev(nl);
    ev.reset_state(false);
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      apply_cycle(ev, c);
      ev.step();
      for (netlist::NetId out : observe) good[c].push_back(ev.value(out) & 1u);
    }
  }

  CoverageResult res;
  res.total = faults.size();
  res.detected_flags.assign(faults.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const Fault& fault = faults[f];
    if (fault.model == FaultModel::kTransition) {
      throw std::invalid_argument("grade_seq_oracle: transition fault");
    }
    const std::uint64_t key = fault_stream_key(fault);
    netlist::Evaluator ev(nl);
    ev.reset_state(false);
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      ev.clear_faults();
      if (fault_active(key, fault.model, c)) {
        ev.inject_broadcast(fault.site, fault.stuck_value);
      }
      apply_cycle(ev, c);
      ev.step();
      if (!stimulus.observed(c)) continue;
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if (static_cast<bool>(ev.value(observe[o]) & 1u) != good[c][o]) {
          res.detected_flags[f] = 1;
        }
      }
    }
  }
  res.recount();
  return res;
}

}  // namespace sbst::fault
