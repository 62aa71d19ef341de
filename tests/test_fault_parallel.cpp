// Differential tests for the parallel fault-simulation engines
// (sim_parallel.hpp) against the serial and sequential oracles, plus
// edge-case coverage of the pattern/lane machinery and the CoverageResult
// invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "fault/thread_pool.hpp"
#include "seq_oracle.hpp"

namespace sbst::fault {
namespace {

using netlist::GateKind;
using netlist::NetId;
using netlist::Netlist;

// ---- seeded random circuit / stimulus generators ---------------------------

/// Random combinational netlist: every gate's fan-in comes from earlier nets,
/// so the result is acyclic by construction. Outputs are the last few nets
/// plus a random sample (every run has at least one output).
Netlist random_comb_netlist(Rng& rng, unsigned n_inputs, unsigned n_gates) {
  Netlist nl("random_comb");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(9)) {
      case 0: n = nl.buf(pick()); break;
      case 1: n = nl.not_(pick()); break;
      case 2: n = nl.and_(pick(), pick()); break;
      case 3: n = nl.or_(pick(), pick()); break;
      case 4: n = nl.nand_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      case 6: n = nl.xor_(pick(), pick()); break;
      case 7: n = nl.xnor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs; i < nets.size(); ++i) {
    const bool tail = i + 3 >= nets.size();
    if (tail || rng.chance(0.1)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

/// Random sequential netlist: DFFs created up front so combinational logic
/// can read them, D inputs bound to random nets afterwards (feedback loops
/// through state are legal and common).
Netlist random_seq_netlist(Rng& rng, unsigned n_inputs, unsigned n_dffs,
                           unsigned n_gates) {
  Netlist nl("random_seq");
  std::vector<NetId> nets;
  for (unsigned i = 0; i < n_inputs; ++i) {
    nets.push_back(nl.input("i" + std::to_string(i)));
  }
  std::vector<NetId> qs;
  for (unsigned i = 0; i < n_dffs; ++i) {
    const NetId q = nl.dff("q" + std::to_string(i));
    qs.push_back(q);
    nets.push_back(q);
  }
  auto pick = [&] { return nets[rng.below(nets.size())]; };
  for (unsigned g = 0; g < n_gates; ++g) {
    NetId n;
    switch (rng.below(7)) {
      case 0: n = nl.not_(pick()); break;
      case 1: n = nl.and_(pick(), pick()); break;
      case 2: n = nl.or_(pick(), pick()); break;
      case 3: n = nl.nand_(pick(), pick()); break;
      case 4: n = nl.xor_(pick(), pick()); break;
      case 5: n = nl.nor_(pick(), pick()); break;
      default: n = nl.mux2(pick(), pick(), pick()); break;
    }
    nets.push_back(n);
  }
  for (NetId q : qs) nl.connect_dff(q, pick());
  unsigned n_outputs = 0;
  for (std::size_t i = n_inputs + n_dffs; i < nets.size(); ++i) {
    const bool tail = i + 3 >= nets.size();
    if (tail || rng.chance(0.15)) {
      nl.output("o" + std::to_string(n_outputs++), nets[i]);
    }
  }
  return nl;
}

PatternSet random_patterns(Rng& rng, const Netlist& nl, std::size_t count) {
  PatternSet ps(nl);
  for (std::size_t i = 0; i < count; ++i) ps.add_random(rng);
  return ps;
}

SeqStimulus random_stimulus(Rng& rng, const Netlist& nl, std::size_t cycles) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.7));
  }
  return st;
}

void expect_same_flags(const CoverageResult& oracle, const CoverageResult& got,
                       const Netlist& nl, const std::vector<Fault>& faults,
                       const char* label) {
  ASSERT_EQ(oracle.detected_flags.size(), got.detected_flags.size()) << label;
  for (std::size_t i = 0; i < oracle.detected_flags.size(); ++i) {
    EXPECT_EQ(oracle.detected_flags[i], got.detected_flags[i])
        << label << ": " << fault_name(nl, faults[i]);
  }
  EXPECT_EQ(oracle.detected, got.detected) << label;
  EXPECT_EQ(oracle.total, got.total) << label;
}

void expect_invariant(const CoverageResult& res) {
  std::size_t count = 0;
  for (auto flag : res.detected_flags) count += flag ? 1 : 0;
  EXPECT_EQ(res.detected, count);
  EXPECT_EQ(res.total, res.detected_flags.size());
}

// ---- differential suite ----------------------------------------------------

TEST(FaultParallel, CombDifferentialRandomNetlists) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Netlist nl = random_comb_netlist(rng, 6 + rng.below(6),
                                           40 + rng.below(80));
    FaultUniverse u(nl);
    const auto& faults = u.collapsed();
    // 100 patterns: deliberately not a multiple of 64.
    const PatternSet ps = random_patterns(rng, nl, 100);

    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    expect_invariant(oracle);
    expect_same_flags(oracle, simulate_comb(nl, faults, ps), nl, faults,
                      "simulate_comb");
    for (unsigned threads : {1u, 2u, 8u}) {
      const CoverageResult got = simulate_comb_parallel(
          nl, faults, ps, {}, {.num_threads = threads});
      expect_invariant(got);
      expect_same_flags(oracle, got, nl, faults, "parallel/block");
    }
  }
}

TEST(FaultParallel, SeqDifferentialRandomNetlists) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const Netlist nl = random_seq_netlist(rng, 4 + rng.below(4),
                                          3 + rng.below(5), 30 + rng.below(50));
    FaultUniverse u(nl);
    const auto& faults = u.collapsed();
    const SeqStimulus st = random_stimulus(rng, nl, 40);

    const CoverageResult oracle = grade_seq_oracle(nl, faults, st);
    expect_invariant(oracle);
    expect_same_flags(oracle, simulate_seq(nl, faults, st), nl, faults,
                      "simulate_seq");
    for (unsigned threads : {1u, 2u, 8u}) {
      const CoverageResult got = simulate_seq_parallel(
          nl, faults, st, {}, {.num_threads = threads});
      expect_invariant(got);
      expect_same_flags(oracle, got, nl, faults, "seq_parallel");
    }
  }
}

TEST(FaultParallel, ThreadCountInvariance) {
  Rng rng(99);
  const Netlist nl = random_comb_netlist(rng, 8, 120);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 130);
  const CoverageResult one = simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                                    {.num_threads = 1});
  for (unsigned threads : {2u, 3u, 5u, 8u, 16u}) {
    const CoverageResult got = simulate_comb_parallel(
        nl, u.collapsed(), ps, {}, {.num_threads = threads});
    EXPECT_EQ(one.detected_flags, got.detected_flags) << threads << " threads";
  }
  // And repeated runs with the same thread count are stable.
  const CoverageResult again = simulate_comb_parallel(nl, u.collapsed(), ps,
                                                      {}, {.num_threads = 4});
  EXPECT_EQ(one.detected_flags, again.detected_flags);
}

// ---- edge cases of the pattern/lane machinery ------------------------------

TEST(FaultParallel, PatternCountsAroundLaneBoundary) {
  Rng rng(7);
  const Netlist nl = random_comb_netlist(rng, 5, 60);
  FaultUniverse u(nl);
  const auto& faults = u.collapsed();
  for (std::size_t n_patterns : {1u, 63u, 64u, 65u, 130u}) {
    Rng prng(1000 + n_patterns);
    const PatternSet ps = random_patterns(prng, nl, n_patterns);
    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    expect_same_flags(oracle, simulate_comb(nl, faults, ps), nl, faults,
                      "simulate_comb");
    const CoverageResult got =
        simulate_comb_parallel(nl, faults, ps, {}, {.num_threads = 2});
    expect_same_flags(oracle, got, nl, faults, "comb_parallel");
  }
}

TEST(FaultParallel, EmptyFaultList) {
  Rng rng(21);
  const Netlist nl = random_comb_netlist(rng, 4, 20);
  const PatternSet ps = random_patterns(rng, nl, 10);
  const std::vector<Fault> none;
  {
    const CoverageResult res =
        simulate_comb_parallel(nl, none, ps, {}, {.num_threads = 4});
    EXPECT_EQ(res.total, 0u);
    EXPECT_EQ(res.detected, 0u);
    EXPECT_TRUE(res.detected_flags.empty());
    EXPECT_DOUBLE_EQ(res.percent(), 100.0);
  }
  const Netlist snl = random_seq_netlist(rng, 3, 2, 15);
  const SeqStimulus st = random_stimulus(rng, snl, 8);
  const CoverageResult res = simulate_seq_parallel(snl, none, st);
  EXPECT_EQ(res.total, 0u);
  EXPECT_TRUE(res.detected_flags.empty());
}

TEST(FaultParallel, SingleInputNetlist) {
  Netlist nl("inv_chain");
  const NetId a = nl.input("a");
  const NetId x = nl.not_(nl.not_(nl.not_(a)));
  nl.output("y", x);
  FaultUniverse u(nl);
  PatternSet ps(nl);
  ps.add({{"a", 0}});
  ps.add({{"a", 1}});
  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps);
  EXPECT_EQ(oracle.detected, oracle.total);  // both polarities covered
  const CoverageResult got =
      simulate_comb_parallel(nl, u.collapsed(), ps, {}, {.num_threads = 2});
  expect_same_flags(oracle, got, nl, u.collapsed(), "single-input");
}

TEST(FaultParallel, FaultCountsAroundBatchBoundary) {
  Rng rng(33);
  const Netlist nl = random_comb_netlist(rng, 8, 200);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 64);
  // Slice the universe to sizes around the 63-fault lane batch: 1, 62, 63,
  // 64, 126, 127 — none need be a multiple of 63.
  for (std::size_t n : {1u, 62u, 63u, 64u, 126u, 127u}) {
    ASSERT_LE(n, u.size());
    const std::vector<Fault> faults(u.collapsed().begin(),
                                    u.collapsed().begin() + n);
    const CoverageResult oracle = simulate_serial(nl, faults, ps);
    const CoverageResult got =
        simulate_comb_parallel(nl, faults, ps, {}, {.num_threads = 3});
    expect_same_flags(oracle, got, nl, faults, "sliced universe");
  }
}

TEST(FaultParallel, ObserveSetRestrictedToOneOutput) {
  Rng rng(55);
  const Netlist nl = random_comb_netlist(rng, 6, 80);
  FaultUniverse u(nl);
  const PatternSet ps = random_patterns(rng, nl, 70);
  const std::vector<NetId> outs = nl.output_nets();
  ASSERT_GE(outs.size(), 2u);
  const ObserveSet narrow{outs.front()};

  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps, narrow);
  const CoverageResult full = simulate_serial(nl, u.collapsed(), ps);
  EXPECT_LT(oracle.detected, full.detected);  // restriction must bite
  expect_same_flags(oracle, simulate_comb(nl, u.collapsed(), ps, narrow), nl,
                    u.collapsed(), "simulate_comb/narrow");
  const CoverageResult got = simulate_comb_parallel(
      nl, u.collapsed(), ps, narrow, {.num_threads = 2});
  expect_same_flags(oracle, got, nl, u.collapsed(), "parallel/narrow");
}

TEST(FaultParallel, SeqParallelOnCombNetlistMatchesSerial) {
  // simulate_seq_parallel must also grade pure combinational netlists (it is
  // the engine evaluate_program would use if a CUT lost its flip-flops).
  Rng rng(77);
  const Netlist nl = random_comb_netlist(rng, 5, 40);
  FaultUniverse u(nl);
  SeqStimulus st(nl);
  PatternSet ps(nl);
  Rng srng(78);
  for (int i = 0; i < 20; ++i) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, srng.next64());
    }
    st.add_cycle(values, true);
    ps.add(values);
  }
  const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps);
  const CoverageResult got =
      simulate_seq_parallel(nl, u.collapsed(), st, {}, {.num_threads = 2});
  expect_same_flags(oracle, got, nl, u.collapsed(), "seq on comb");
}

// ---- CoverageResult invariant ----------------------------------------------

TEST(CoverageResult, RecountDerivesDetectedFromFlags) {
  CoverageResult res;
  res.total = 5;
  res.detected_flags = {1, 0, 1, 1, 0};
  res.detected = 12345;  // stale on purpose
  res.recount();
  EXPECT_EQ(res.detected, 3u);
  res.detected_flags.assign(4, 0);
  res.recount();
  EXPECT_EQ(res.detected, 0u);
}

TEST(CoverageResult, MergeKeepsInvariant) {
  CoverageResult a, b;
  a.total = b.total = 4;
  a.detected_flags = {1, 0, 0, 1};
  b.detected_flags = {0, 1, 0, 1};
  a.recount();
  b.recount();
  a.merge(b);
  expect_invariant(a);
  EXPECT_EQ(a.detected, 3u);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (unsigned threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<int> hits(1000, 0);
    pool.run_static(hits.size(), [&](std::size_t t) { ++hits[t]; });
    for (int h : hits) EXPECT_EQ(h, 1);
    // The pool is reusable.
    pool.run_static(hits.size(), [&](std::size_t t) { ++hits[t]; });
    for (int h : hits) EXPECT_EQ(h, 2);
  }
}

TEST(ThreadPool, ResolveThreadCountPrefersExplicit) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, ThrowingTaskIsCapturedAndBatchCompletes) {
  for (unsigned threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(64, 0);
    const std::vector<ThreadPool::TaskFailure> failures =
        pool.run_static_capture(hits.size(), [&](std::size_t t) {
          if (t == 5 || t == 40) throw std::runtime_error("task failed");
          ++hits[t];
        });
    // Exactly the throwing tasks are reported, in index order, and every
    // other task still ran exactly once.
    ASSERT_EQ(failures.size(), 2u) << "threads " << threads;
    EXPECT_EQ(failures[0].task, 5u);
    EXPECT_EQ(failures[1].task, 40u);
    for (const ThreadPool::TaskFailure& fail : failures) {
      ASSERT_TRUE(fail.error);
      EXPECT_THROW(std::rethrow_exception(fail.error), std::runtime_error);
    }
    for (std::size_t t = 0; t < hits.size(); ++t) {
      EXPECT_EQ(hits[t], (t == 5 || t == 40) ? 0 : 1) << "task " << t;
    }
    // The pool stays usable after a failed batch.
    const auto clean =
        pool.run_static_capture(hits.size(), [&](std::size_t t) { ++hits[t]; });
    EXPECT_TRUE(clean.empty());
    for (std::size_t t = 0; t < hits.size(); ++t) {
      EXPECT_EQ(hits[t], (t == 5 || t == 40) ? 1 : 2);
    }
  }
}

TEST(ThreadPool, RunStaticRethrowsLowestIndexAfterFinishingBatch) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.run_static(32, [&](std::size_t t) {
      if (t == 7) throw std::logic_error("seven");
      if (t == 3) throw std::runtime_error("three");
      ++ran;
    });
    FAIL() << "run_static swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");  // lowest failing index wins
  }
  // Every non-throwing task completed before the rethrow.
  EXPECT_EQ(ran.load(), 30);
  // And the pool still works.
  pool.run_static(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 38);
}

}  // namespace
}  // namespace sbst::fault
