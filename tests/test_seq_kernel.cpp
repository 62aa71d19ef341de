// The sequential grading kernel (detail::grade_seq_batches) against an
// independent oracle, plus deterministic work counts that pin its two cuts:
// the early exit of a fully detected batch and lane compaction between
// batches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_detail.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/pipeline.hpp"
#include "rtlgen/regfile.hpp"
#include "seq_oracle.hpp"

namespace sbst::fault {
namespace {

using netlist::NetId;
using netlist::Netlist;

SeqStimulus random_stimulus(Rng& rng, const Netlist& nl, std::size_t cycles) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.6));
  }
  return st;
}

void expect_same_flags(const CoverageResult& oracle, const CoverageResult& got,
                       const Netlist& nl, const std::vector<Fault>& faults,
                       const std::string& label) {
  ASSERT_EQ(oracle.detected_flags.size(), got.detected_flags.size()) << label;
  for (std::size_t i = 0; i < oracle.detected_flags.size(); ++i) {
    ASSERT_EQ(oracle.detected_flags[i], got.detected_flags[i])
        << label << ": fault " << i << " (" << fault_name(nl, faults[i])
        << ")";
  }
}

Fault stuck_at_0(NetId gate) {
  return Fault{netlist::Site{gate, netlist::Site::kOutputPin}, false,
               FaultModel::kStuckAt};
}

// ---- differential against the independent oracle --------------------------

struct Cut {
  const char* name;
  Netlist nl;
};

std::vector<Cut> sequential_cuts() {
  std::vector<Cut> cuts;
  cuts.push_back({"regfile", rtlgen::build_regfile({.num_regs = 8,
                                                     .width = 4})});
  cuts.push_back({"divider", rtlgen::build_divider({.width = 4})});
  cuts.push_back({"memctrl", rtlgen::build_memctrl()});
  cuts.push_back({"pipe_reg", rtlgen::build_pipe_reg({.width = 8})});
  return cuts;
}

TEST(SeqKernel, MatchesIndependentOracleOnRtlgenCuts) {
  std::uint64_t seed = 0x5e90;
  for (const Cut& cut : sequential_cuts()) {
    for (const FaultModel model :
         {FaultModel::kStuckAt, FaultModel::kTransientSEU,
          FaultModel::kIntermittent}) {
      Rng rng(++seed);
      // Several segments long, so batches swap and compact mid-stimulus.
      const SeqStimulus st = random_stimulus(rng, cut.nl, 70);
      const FaultUniverse u(cut.nl, model);
      const auto& faults = u.collapsed();
      // All outputs, then only the first: the narrow set leaves batches
      // holding reach-excluded faults.
      const std::vector<NetId> first{cut.nl.output_nets().front()};
      for (const std::vector<NetId>& observe : {std::vector<NetId>{}, first}) {
        const std::string label = std::string(cut.name) + "/" +
                                  fault_model_name(model) +
                                  (observe.empty() ? "/all" : "/narrow");
        const CoverageResult oracle =
            grade_seq_oracle(cut.nl, faults, st, observe);
        EXPECT_GT(oracle.detected, 0u) << label;
        expect_same_flags(
            oracle,
            simulate_seq(cut.nl, faults, st, observe, Engine::kReference),
            cut.nl, faults, label + "/reference");
        for (const unsigned lanes : {1u, 4u}) {
          expect_same_flags(
              oracle,
              simulate_seq(cut.nl, faults, st, observe, Engine::kEvent, lanes),
              cut.nl, faults, label + "/event/l" + std::to_string(lanes));
        }
        expect_same_flags(oracle,
                          simulate_seq_parallel(cut.nl, faults, st, observe,
                                                {.num_threads = 2}),
                          cut.nl, faults, label + "/parallel");
      }
    }
  }
}

// ---- work counts: early exit and lane compaction ---------------------------

/// Input `a` feeds a `length`-stage DFF chain observed at "late", `early`
/// one-stage DFFs each observed at its own output, and one DFF ("hidden")
/// that no observed output reads.
struct DelayNet {
  Netlist nl{"delays"};
  std::vector<NetId> chain;
  std::vector<NetId> early;
  NetId hidden = netlist::kNoNet;
  std::vector<NetId> observe;

  DelayNet(unsigned length, unsigned n_early) {
    const NetId a = nl.input("a");
    NetId prev = a;
    for (unsigned i = 0; i < length; ++i) {
      const NetId q = nl.dff();
      nl.connect_dff(q, prev);
      chain.push_back(q);
      prev = q;
    }
    nl.output("late", prev);
    for (unsigned i = 0; i < n_early; ++i) {
      const NetId q = nl.dff();
      nl.connect_dff(q, a);
      nl.output("e" + std::to_string(i), q);
      early.push_back(q);
    }
    hidden = nl.dff();
    nl.connect_dff(hidden, a);
    nl.output("hidden", hidden);
    observe = nl.output_nets();
    observe.pop_back();  // "hidden" stays unobserved
  }

  /// `a` = 1 in every cycle; only the cycles in `observed` compare outputs
  /// (all cycles when empty).
  SeqStimulus stimulus(std::size_t cycles,
                       const std::vector<std::size_t>& observed = {}) const {
    SeqStimulus st(nl);
    for (std::size_t c = 0; c < cycles; ++c) {
      bool obs = observed.empty();
      for (std::size_t o : observed) obs |= o == c;
      st.add_cycle({{"a", 1}}, obs);
    }
    return st;
  }
};

/// Runs the kernel over faults [begin, end) on a fresh W=4 event evaluator
/// and returns its gate evaluations.
std::uint64_t kernel_gate_evals(const netlist::CompiledNetlist& cn,
                                const std::vector<Fault>& faults,
                                std::size_t begin, std::size_t end,
                                const SeqStimulus& st,
                                const std::vector<NetId>& observe,
                                std::vector<std::uint8_t>& flags) {
  const std::vector<std::uint8_t> reach = cn.fanin_cone(observe);
  netlist::CompiledEvaluatorT<4> ev(cn);
  detail::grade_seq_batches(ev, faults, begin, end, st, observe, reach.data(),
                            flags.data());
  return ev.gate_evals();
}

std::vector<std::uint8_t> oracle_flags(const DelayNet& d,
                                       const std::vector<Fault>& faults,
                                       const SeqStimulus& st) {
  return grade_seq_oracle(d.nl, faults, st, d.observe).detected_flags;
}

TEST(SeqKernelWork, FullyDetectedBatchStopsAtItsDetectionCycle) {
  // Every stuck-at-0 on the chain flips "late" in the first cycle the good
  // machine drives it to 1: cycle kLength. The hidden DFF's fault is
  // reach-excluded and must not keep the batch running.
  constexpr unsigned kLength = 5;
  const DelayNet d(kLength, 0);
  const netlist::CompiledNetlist cn(d.nl, netlist::CompileOptions::all());
  std::vector<Fault> faults;
  for (NetId q : d.chain) faults.push_back(stuck_at_0(q));
  faults.push_back(stuck_at_0(d.hidden));
  const std::size_t cycles = 60;

  // Observed in every cycle: the batch exits at cycle kLength.
  {
    const SeqStimulus st = d.stimulus(cycles);
    std::vector<std::uint8_t> flags(faults.size(), 0);
    EXPECT_EQ(kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe,
                                flags),
              (kLength + 1) * cn.live_gates());
    EXPECT_EQ(flags, oracle_flags(d, faults, st));
    EXPECT_EQ(flags.back(), 0);  // the hidden fault
  }
  // Observed first at cycle 40: the batch finishes at its first observed
  // cycle.
  {
    const SeqStimulus st = d.stimulus(cycles, {40, 50});
    std::vector<std::uint8_t> flags(faults.size(), 0);
    EXPECT_EQ(kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe,
                                flags),
              41 * cn.live_gates());
    EXPECT_EQ(flags, oracle_flags(d, faults, st));
  }
  // A batch holding only reach-excluded faults runs no cycle at all.
  {
    const SeqStimulus st = d.stimulus(cycles);
    const std::vector<Fault> hidden_only{stuck_at_0(d.hidden)};
    std::vector<std::uint8_t> flags(1, 0);
    EXPECT_EQ(kernel_gate_evals(cn, hidden_only, 0, 1, st, d.observe, flags),
              0u);
    EXPECT_EQ(flags[0], 0);
  }
}

TEST(SeqKernelWork, SecondBatchDissolvesIntoTheFirst) {
  // Two full batches of 255 faults. Each holds 250 faults detected at
  // cycle 1 and 5 chain faults detected at cycle kLength. After the first
  // segment the 10 survivors fit in one batch, so the emptier batch
  // dissolves into the other, which alone runs on to cycle kLength.
  constexpr std::size_t kBatch = 255;
  constexpr unsigned kLength = 40;
  static_assert(kLength >= detail::kSeqSegment);
  const DelayNet d(kLength, 500);
  const netlist::CompiledNetlist cn(d.nl, netlist::CompileOptions::all());
  std::vector<Fault> faults;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < 250; ++i) {
      faults.push_back(stuck_at_0(d.early[b * 250 + i]));
    }
    for (std::size_t i = 0; i < 5; ++i) {
      faults.push_back(stuck_at_0(d.chain[b * 5 + i]));
    }
  }
  ASSERT_EQ(faults.size(), 2 * kBatch);
  const SeqStimulus st = d.stimulus(60);
  const std::vector<std::uint8_t> expect = oracle_flags(d, faults, st);

  // Each batch on its own: early exit only, kLength + 1 cycles apiece.
  std::vector<std::uint8_t> alone(faults.size(), 0);
  const std::uint64_t separate =
      kernel_gate_evals(cn, faults, 0, kBatch, st, d.observe, alone) +
      kernel_gate_evals(cn, faults, kBatch, 2 * kBatch, st, d.observe, alone);
  EXPECT_EQ(separate, 2 * (kLength + 1) * cn.live_gates());
  EXPECT_EQ(alone, expect);

  // Together: one segment each, then the merged batch runs the rest.
  std::vector<std::uint8_t> together(faults.size(), 0);
  const std::uint64_t merged = kernel_gate_evals(cn, faults, 0, 2 * kBatch,
                                                 st, d.observe, together);
  EXPECT_EQ(merged, (2 * detail::kSeqSegment +
                     (kLength + 1 - detail::kSeqSegment)) *
                        cn.live_gates());
  EXPECT_LT(merged, separate);
  EXPECT_EQ(together, expect);
}

}  // namespace
}  // namespace sbst::fault
