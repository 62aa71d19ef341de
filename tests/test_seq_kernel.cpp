// The activity-gated sequential grading kernel (detail::grade_seq_gated)
// against an independent oracle, plus deterministic work counts that pin
// its cuts: the early exit of a fully detected batch, lane compaction
// between batches, and gating — a fault holds a lane only while its machine
// can differ from the good one.
#include <gtest/gtest.h>

#include <algorithm>
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
        expect_same_flags(oracle, simulate_seq(cut.nl, faults, st, observe),
                          cut.nl, faults, label + "/serial");
        expect_same_flags(oracle,
                          simulate_seq_parallel(cut.nl, faults, st, observe,
                                                {.num_threads = 2}),
                          cut.nl, faults, label + "/parallel");
      }
    }
  }
}

// ---- work counts: early exit, lane compaction and gating -------------------

/// Input `a` feeds a `length`-stage DFF chain observed at "late", `early`
/// one-stage DFFs each fed through its own buffer and observed at its own
/// output, and one DFF ("hidden") that no observed output reads.
struct DelayNet {
  Netlist nl{"delays"};
  NetId a = netlist::kNoNet;
  std::vector<NetId> chain;
  std::vector<NetId> early_in;  // the buffers in front of `early`
  std::vector<NetId> early;
  NetId hidden = netlist::kNoNet;
  std::vector<NetId> observe;

  DelayNet(unsigned length, unsigned n_early) {
    a = nl.input("a");
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
      early_in.push_back(nl.buf(a));
      nl.connect_dff(q, early_in.back());
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

/// Runs the kernel over faults [begin, end) on a fresh W=4 evaluator and
/// returns its gate evaluations (the good-machine record is not counted).
std::uint64_t kernel_gate_evals(const netlist::CompiledNetlist& cn,
                                const std::vector<Fault>& faults,
                                std::size_t begin, std::size_t end,
                                const SeqStimulus& st,
                                const std::vector<NetId>& observe,
                                std::vector<std::uint8_t>& flags) {
  const std::vector<std::uint8_t> reach = cn.fanin_cone(observe);
  netlist::CompiledEvaluatorT<4> ev(cn);
  const detail::SeqGoodRecord good = detail::seq_good_record(ev, st);
  ev.reset_stats();
  detail::grade_seq_gated(ev, faults, begin, end, st, good, observe,
                          reach.data(), flags.data());
  return ev.gate_evals();
}

std::vector<std::uint8_t> oracle_flags(const DelayNet& d,
                                       const std::vector<Fault>& faults,
                                       const SeqStimulus& st) {
  return grade_seq_oracle(d.nl, faults, st, d.observe).detected_flags;
}

Fault fault_at(NetId gate, std::uint8_t pin, bool stuck_value,
               FaultModel model = FaultModel::kStuckAt) {
  return Fault{netlist::Site{gate, pin}, stuck_value, model};
}

TEST(SeqKernelWork, FullyDetectedBatchStopsAtItsDetectionCycle) {
  // Every stuck-at-0 on the chain flips "late" in the first cycle the good
  // machine drives it to 1: cycle kLength. Stage i is first excited in
  // cycle i + 1 and takes its lane in that cycle's segment; the batch runs
  // cycles 0..kLength and no more. The hidden DFF's fault is reach-excluded
  // and must not keep the batch running.
  constexpr unsigned kLength = 5;
  const DelayNet d(kLength, 0);
  const netlist::CompiledNetlist cn(d.nl);
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
              (kLength + 1) * cn.size());
    EXPECT_EQ(flags, oracle_flags(d, faults, st));
    EXPECT_EQ(flags.back(), 0);  // the hidden fault
  }
  // Observed first at cycle 40: every chain fault keeps its lane (a
  // diverged state downstream, or an excited last stage) and the batch
  // finishes at its first observed cycle.
  {
    const SeqStimulus st = d.stimulus(cycles, {40, 50});
    std::vector<std::uint8_t> flags(faults.size(), 0);
    EXPECT_EQ(kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe,
                                flags),
              41 * cn.size());
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
  // Two full batches of 255 faults, all excited in the first segment. Each
  // holds 254 early faults detected at cycle 1 and one chain fault (stage 0
  // or 1) detected at cycle kLength. After the first segment the 2
  // survivors fit in one batch, so the first batch dissolves into the
  // second, which alone runs on to cycle kLength.
  constexpr std::size_t kBatch = 255;
  constexpr unsigned kLength = 40;
  static_assert(kLength >= detail::kSeqSegment);
  static_assert(detail::kSeqSegment >= 3);  // stage 1 excited at cycle 2
  const DelayNet d(kLength, 2 * (kBatch - 1));
  const netlist::CompiledNetlist cn(d.nl);
  std::vector<Fault> faults;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < kBatch - 1; ++i) {
      faults.push_back(stuck_at_0(d.early[b * (kBatch - 1) + i]));
    }
    faults.push_back(stuck_at_0(d.chain[b]));
  }
  ASSERT_EQ(faults.size(), 2 * kBatch);
  const SeqStimulus st = d.stimulus(60);
  const std::vector<std::uint8_t> expect = oracle_flags(d, faults, st);

  // Each batch on its own: early exit only, kLength + 1 cycles apiece.
  std::vector<std::uint8_t> alone(faults.size(), 0);
  const std::uint64_t separate =
      kernel_gate_evals(cn, faults, 0, kBatch, st, d.observe, alone) +
      kernel_gate_evals(cn, faults, kBatch, 2 * kBatch, st, d.observe, alone);
  EXPECT_EQ(separate, 2 * (kLength + 1) * cn.size());
  EXPECT_EQ(alone, expect);

  // Together: one segment each, then the merged batch runs the rest.
  std::vector<std::uint8_t> together(faults.size(), 0);
  const std::uint64_t merged = kernel_gate_evals(cn, faults, 0, 2 * kBatch,
                                                 st, d.observe, together);
  EXPECT_EQ(merged, (2 * detail::kSeqSegment +
                     (kLength + 1 - detail::kSeqSegment)) *
                        cn.size());
  EXPECT_LT(merged, separate);
  EXPECT_EQ(together, expect);
}

TEST(SeqKernelWork, NeverExcitedFaultsTakeNoCycles) {
  // `a` is 1 in every cycle, so its stuck-at-1 never changes a value. A
  // fault on a DFF's D pin is never excited either: the evaluators latch D
  // without its pin forces. Both sit in the observe cone.
  const DelayNet d(3, 2);
  const netlist::CompiledNetlist cn(d.nl);
  const std::vector<Fault> faults{
      fault_at(d.a, netlist::Site::kOutputPin, true),
      fault_at(d.chain[0], 0, false),
      fault_at(d.early[0], 0, false),
  };
  const SeqStimulus st = d.stimulus(30);
  std::vector<std::uint8_t> flags(faults.size(), 0);
  EXPECT_EQ(
      kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe, flags),
      0u);
  EXPECT_EQ(flags, oracle_flags(d, faults, st));
  EXPECT_EQ(flags, std::vector<std::uint8_t>(faults.size(), 0));
}

TEST(SeqKernelWork, TransientFaultIsEvictedAndReadmitted) {
  // A transient stuck-at-0 on buffer i flips early DFF i for one cycle per
  // firing: its state differs from the good machine's only in the cycle
  // after it fires. Observed only at cycle kCycles - 1, it is detected iff
  // it fires at kCycles - 2. Its lane is needed in a segment that holds a
  // firing, or that starts right after one; in between, it is evicted.
  constexpr std::size_t kCycles = 41;
  constexpr std::size_t kS = detail::kSeqSegment;
  const DelayNet d(1, 64);
  const netlist::CompiledNetlist cn(d.nl);
  std::vector<Fault> faults;
  for (NetId b : d.early_in) {
    faults.push_back(fault_at(b, netlist::Site::kOutputPin, false,
                              FaultModel::kTransientSEU));
  }
  const SeqStimulus st = d.stimulus(kCycles, {kCycles - 1});
  const std::vector<std::uint8_t> expect = oracle_flags(d, faults, st);

  std::vector<std::uint8_t> all(faults.size(), 0);
  kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe, all);
  EXPECT_EQ(all, expect);

  // The first detected fault, graded alone.
  std::size_t f = 0;
  while (f < faults.size() && !expect[f]) ++f;
  ASSERT_LT(f, faults.size());
  const std::uint64_t key = fault_stream_key(faults[f]);
  auto fires = [&](std::size_t c) {
    return fault_active(key, FaultModel::kTransientSEU, c);
  };
  ASSERT_TRUE(fires(kCycles - 2));
  std::vector<bool> needed;
  std::uint64_t cycles_run = 0;
  for (std::size_t s = 0; s < kCycles; s += kS) {
    const std::size_t e = std::min(kCycles, s + kS);
    bool need = s > 0 && fires(s - 1);
    for (std::size_t c = s; c < e; ++c) need = need || fires(c);
    needed.push_back(need);
    if (need) cycles_run += e - s;
  }
  // Needed, then not, then needed again: evicted and later re-admitted.
  const auto first = std::find(needed.begin(), needed.end(), true);
  const auto gap = std::find(first, needed.end(), false);
  ASSERT_NE(std::find(gap, needed.end(), true), needed.end());

  std::vector<std::uint8_t> alone(faults.size(), 0);
  EXPECT_EQ(kernel_gate_evals(cn, faults, f, f + 1, st, d.observe, alone),
            cycles_run * cn.size());
  EXPECT_EQ(alone[f], 1);
}

TEST(SeqKernelWork, FreedLaneIsReusedByLaterExcitedFault) {
  // One full batch: chain stage 0 (diverged from cycle 2 on, never
  // detected within the stimulus) and 254 buffer faults detected at cycle
  // 1, whose freed lanes keep a flipped DFF and a force in the evaluator.
  // Chain stage kSeqSegment is first excited in the second segment and
  // must reuse a freed lane — starting from the good state, unforced by
  // the lane's previous fault — instead of opening a second batch.
  constexpr std::size_t kS = detail::kSeqSegment;
  static_assert(kS >= 2);  // stage kS is excited at cycle kS + 1 < 2 * kS
  constexpr std::size_t kCycles = 3 * kS;  // "late" never rises
  const DelayNet d(kCycles, 254);
  const netlist::CompiledNetlist cn(d.nl);
  std::vector<Fault> faults{stuck_at_0(d.chain[0])};
  for (NetId b : d.early_in) faults.push_back(stuck_at_0(b));
  faults.push_back(stuck_at_0(d.chain[kS]));
  ASSERT_EQ(faults.size(), 256u);
  const SeqStimulus st = d.stimulus(kCycles);
  const std::vector<std::uint8_t> expect = oracle_flags(d, faults, st);
  ASSERT_EQ(expect.front(), 0);
  ASSERT_EQ(expect.back(), 0);

  std::vector<std::uint8_t> flags(faults.size(), 0);
  EXPECT_EQ(
      kernel_gate_evals(cn, faults, 0, faults.size(), st, d.observe, flags),
      kCycles * cn.size());
  EXPECT_EQ(flags, expect);
}

}  // namespace
}  // namespace sbst::fault
