// Independent combinational fault-grading oracle (test-only).
//
// The production kernel (detail::grade_comb_blocks) grades 256 packed
// patterns per eval on the compiled event-driven evaluator, against good
// responses precomputed once, with every fault forced only in its
// activation lanes. This oracle shares none of that: it broadcasts ONE
// pattern at a time into every lane of the reference Evaluator, evaluates
// the good machine, then injects each fault alone and compares lane 0. A
// windowed (transient-SEU / intermittent) fault is injected only for the
// patterns its activation stream is on. Slow on purpose; meant for small
// CUTs.
#pragma once

#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {

/// Loads the single pattern `p` broadcast into all 64 lanes.
inline void apply_pattern_broadcast(netlist::Evaluator& ev,
                                    const PatternSet& patterns,
                                    std::size_t p) {
  const auto& words = patterns.block(p / 64);
  const unsigned lane = p % 64;
  const auto& inputs = patterns.netlist().inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input(inputs[k], (words[k] >> lane) & 1u);
  }
}

/// One fault at a time, one broadcast pattern at a time; a fault is graded
/// on pattern p only when its activation stream is on at p (always, for
/// stuck-at).
inline void grade_serial(netlist::Evaluator& ev,
                         const std::vector<Fault>& faults,
                         const PatternSet& patterns,
                         const std::vector<netlist::NetId>& observe,
                         std::uint8_t* flags) {
  std::vector<std::uint64_t> good_out(observe.size());
  std::vector<std::uint64_t> keys(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    keys[f] = fault_stream_key(faults[f]);
  }
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    apply_pattern_broadcast(ev, patterns, p);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      good_out[o] = ev.value(observe[o]);
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;
      if (!fault_active(keys[f], faults[f].model, p)) continue;
      ev.inject(faults[f].site, faults[f].stuck_value, ~std::uint64_t{0});
      ev.eval();
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if ((good_out[o] ^ ev.value(observe[o])) & 1u) {
          flags[f] = 1;
          break;
        }
      }
      ev.clear_faults();
    }
  }
}

/// Serial grading of stuck-at / transient-SEU / intermittent faults on a
/// combinational netlist (transition faults grade against the legacy
/// simulate_transition oracle instead). Empty `observe` = all outputs.
inline CoverageResult simulate_serial(
    const netlist::Netlist& nl, const std::vector<Fault>& faults,
    const PatternSet& patterns, std::vector<netlist::NetId> observe = {}) {
  if (!nl.is_combinational()) {
    throw std::invalid_argument("simulate_serial: netlist has flip-flops");
  }
  if (observe.empty()) observe = nl.output_nets();
  for (const Fault& f : faults) {
    if (f.model == FaultModel::kTransition) {
      throw std::invalid_argument("simulate_serial: transition fault");
    }
  }
  CoverageResult res;
  res.total = faults.size();
  res.detected_flags.assign(faults.size(), 0);
  netlist::Evaluator ev(nl);
  grade_serial(ev, faults, patterns, observe, res.detected_flags.data());
  res.recount();
  return res;
}

}  // namespace sbst::fault
