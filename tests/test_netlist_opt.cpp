// The compiled netlist on real components.
//
// CompiledNetlist is a one-to-one image of the reference Netlist (there are
// no structure-changing compile passes), so grading an rtlgen component
// through the production path must flag exactly the faults the independent
// oracles flag on the reference Evaluator: comb_oracle.hpp for the
// combinational CUTs, seq_oracle.hpp for the sequential ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comb_oracle.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/netlist.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/comparator.hpp"
#include "rtlgen/control.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/pipeline.hpp"
#include "rtlgen/regfile.hpp"
#include "rtlgen/shifter.hpp"
#include "seq_oracle.hpp"

namespace sbst::netlist {
namespace {

using fault::CoverageResult;
using fault::FaultUniverse;
using fault::PatternSet;
using fault::PortValue;
using fault::SeqStimulus;

void grade_component_against_oracle(const Netlist& nl, std::uint64_t seed) {
  SCOPED_TRACE(nl.name());
  const FaultUniverse u(nl);
  Rng rng(seed);
  if (nl.is_combinational()) {
    PatternSet ps(nl);
    for (int i = 0; i < 96; ++i) ps.add_random(rng);
    const CoverageResult oracle = fault::simulate_serial(nl, u.collapsed(), ps);
    EXPECT_GT(oracle.detected, 0u);
    EXPECT_EQ(oracle.detected_flags,
              fault::simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                            {.num_threads = 1})
                  .detected_flags);
  } else {
    SeqStimulus st(nl);
    for (int c = 0; c < 40; ++c) {
      std::vector<PortValue> values;
      for (const Port& p : nl.input_ports()) {
        values.emplace_back(p.name, rng.next64());
      }
      st.add_cycle(values, rng.chance(0.7));
    }
    const CoverageResult oracle =
        fault::grade_seq_oracle(nl, u.collapsed(), st);
    EXPECT_GT(oracle.detected, 0u);
    EXPECT_EQ(oracle.detected_flags,
              fault::simulate_seq_parallel(nl, u.collapsed(), st, {},
                                           {.num_threads = 1})
                  .detected_flags);
  }
}

TEST(NetlistOpt, RtlgenCombComponentsGradeIdentically) {
  grade_component_against_oracle(rtlgen::build_alu({.width = 8}), 700);
  grade_component_against_oracle(rtlgen::build_shifter({.width = 8}), 701);
  grade_component_against_oracle(rtlgen::build_multiplier({.width = 8}), 702);
  grade_component_against_oracle(rtlgen::build_comparator({.width = 8}), 703);
  grade_component_against_oracle(rtlgen::build_control(), 704);
  grade_component_against_oracle(rtlgen::build_forwarding_unit(), 705);
}

TEST(NetlistOpt, RtlgenSeqComponentsGradeIdentically) {
  grade_component_against_oracle(rtlgen::build_pipe_reg({.width = 8}), 710);
  grade_component_against_oracle(rtlgen::build_divider({.width = 8}), 711);
  grade_component_against_oracle(
      rtlgen::build_regfile({.num_regs = 8, .width = 8}), 712);
  grade_component_against_oracle(rtlgen::build_memctrl(), 713);
}

}  // namespace
}  // namespace sbst::netlist
