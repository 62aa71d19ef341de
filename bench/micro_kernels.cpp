// Experiment M1 — infrastructure micro-benchmarks (google-benchmark):
// packed fault simulation, PODEM throughput, CPU simulation rate, netlist
// evaluation, assembler speed.
#include <benchmark/benchmark.h>

#include "atpg/podem.hpp"
#include "common/rng.hpp"
#include "core/codegen.hpp"
#include "core/program.hpp"
#include "fault/sim.hpp"
#include "isa/assembler.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/multiplier.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

using namespace sbst;

namespace {

// Minimal trace sink for run_sink<TraceSink>: counts every hook event so
// nothing is optimised away, does no per-event allocation.
struct CountingTrace {
  std::uint64_t events = 0;
  void on_instruction_start(std::uint32_t) { ++events; }
  void on_alu(rtlgen::AluOp, std::uint32_t, std::uint32_t) { ++events; }
  void on_shift(rtlgen::ShiftOp, std::uint32_t, std::uint32_t) { ++events; }
  void on_mult(std::uint32_t, std::uint32_t) { ++events; }
  void on_div(std::uint32_t, std::uint32_t) { ++events; }
  void on_regfile(std::uint8_t, std::uint32_t, bool, std::uint8_t,
                  std::uint8_t) {
    ++events;
  }
  void on_mem(std::uint32_t, std::uint32_t, rtlgen::MemSize, bool, bool,
              std::uint32_t) {
    ++events;
  }
  void on_control(std::uint8_t, std::uint8_t) { ++events; }
  void on_forward(std::uint8_t, std::uint8_t, std::uint8_t, bool,
                  std::uint8_t, bool) {
    ++events;
  }
  void on_branch_flush() { ++events; }
  void on_branch_target(std::uint32_t, std::uint32_t) { ++events; }
};

const netlist::Netlist& alu16() {
  static const netlist::Netlist nl = rtlgen::build_alu({.width = 16});
  return nl;
}

fault::PatternSet random_patterns(const netlist::Netlist& nl, std::size_t n) {
  Rng rng(5);
  fault::PatternSet ps(nl);
  for (std::size_t i = 0; i < n; ++i) ps.add_random(rng);
  return ps;
}

void BM_NetlistEval(benchmark::State& state) {
  const netlist::Netlist nl =
      rtlgen::build_multiplier({.width = static_cast<unsigned>(state.range(0))});
  netlist::Evaluator ev(nl);
  Rng rng(1);
  for (auto _ : state) {
    ev.set_bus(nl.input_port("a"), rng.next32());
    ev.set_bus(nl.input_port("b"), rng.next32());
    ev.eval();
    benchmark::DoNotOptimize(ev.bus_value(nl.output_port("product")));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.size()));
}
BENCHMARK(BM_NetlistEval)->Arg(8)->Arg(16)->Arg(32);

void BM_FaultSimPpsfp(benchmark::State& state) {
  const netlist::Netlist& nl = alu16();
  const fault::FaultUniverse u(nl);
  const fault::PatternSet ps =
      random_patterns(nl, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::simulate_comb(nl, u.collapsed(), ps).detected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.size() * ps.size()));
}
BENCHMARK(BM_FaultSimPpsfp)->Arg(64)->Arg(256);

void BM_PodemPerFault(benchmark::State& state) {
  const netlist::Netlist& nl = alu16();
  const fault::FaultUniverse u(nl);
  atpg::Podem podem(nl);
  Rng rng(9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        podem.generate(u.collapsed()[i % u.size()], rng).status);
    ++i;
  }
}
BENCHMARK(BM_PodemPerFault);

core::TestProgram alu_program() {
  core::TestProgramBuilder builder;
  return builder.build_standalone(core::make_alu_routine({}));
}

void BM_CpuSimulation(benchmark::State& state) {
  // Instruction throughput of the decoded micro-op core (the default run()
  // path) on the real SBST ALU routine.
  const core::TestProgram p = alu_program();
  sim::Cpu cpu;
  cpu.load(p.image);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    cpu.reset();
    const sim::ExecStats s = cpu.run(p.entry);
    instructions += s.instructions;
    benchmark::DoNotOptimize(s.cpu_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CpuSimulation);

void BM_CpuSimulationInterpreter(benchmark::State& state) {
  // The pre-decode switch-on-fields interpreter, kept as the golden
  // reference; the decoded core is measured against this baseline.
  const core::TestProgram p = alu_program();
  sim::Cpu cpu;
  cpu.load(p.image);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    cpu.reset();
    const sim::ExecStats s = cpu.run_interpreter(p.entry);
    instructions += s.instructions;
    benchmark::DoNotOptimize(s.cpu_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CpuSimulationInterpreter);

void BM_CpuSimulationTraced(benchmark::State& state) {
  // Decoded core with a full trace sink attached (the evaluator's
  // configuration): every on_* hook fires through the sink policy.
  const core::TestProgram p = alu_program();
  sim::Cpu cpu;
  cpu.load(p.image);
  CountingTrace trace;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    cpu.reset();
    sim::TraceSink<CountingTrace> sink{&trace};
    const sim::ExecStats s = cpu.run_sink(p.entry, sink);
    instructions += s.instructions;
    benchmark::DoNotOptimize(trace.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CpuSimulationTraced);

void BM_Assembler(benchmark::State& state) {
  const std::string source =
      core::make_alu_routine({}).assembly + core::misr_subroutines() +
      "signatures:\n  .word 0,0,0,0,0,0,0,0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::assemble(source).words.size());
  }
}
BENCHMARK(BM_Assembler);

}  // namespace

BENCHMARK_MAIN();
