// Fault-simulation throughput: evaluation-engine x scheduling x lane sweep.
//
// Grades the collapsed fault universe of a parallel multiplier (the largest
// combinational CUT family in the model) against random patterns with every
// combination of evaluation engine (reference / compiled / event, see
// fault/engine.hpp) and scheduling (single-thread PPSFP, threaded PPSFP
// blocks), reporting faults x patterns / second. The serial
// oracle is timed on a reduced pattern count (its throughput is per-pattern,
// so the normalized number is comparable). Every configuration must produce
// identical detection flags; any mismatch is a hard failure.
//
// The engine x scheduling rows are pinned at lane width 1 with the
// netlist-compile optimization passes off — the historical configuration —
// so their keys stay comparable across revisions. A dedicated baseline row
// re-measures the retired fault-lane-packed grading loop (worklist
// scheduling, W=1, no compile passes), and a single-thread sweep varies
// lane-block width {1,4} x optimization {off,on} for the event engine's
// pattern-parallel blocks, reporting their speedup over that live baseline.
//
// Also reports the average active-cone size per fault for the event engine —
// the number of gates actually re-evaluated per fault injection, the quantity
// the event-driven scheduler exists to minimize.
//
// Usage: faultsim_throughput [width] [patterns] [threads]
// Emits a table to stdout and machine-readable BENCH_faultsim.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/tablefmt.hpp"
#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "rtlgen/multiplier.hpp"

using namespace sbst;
using fault::CoverageResult;
using fault::Engine;
using fault::PatternSet;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BenchRow {
  std::string key;     // JSON key, e.g. "comb_event"
  std::string label;   // table label
  std::string engine;  // engine name
  unsigned lanes = 1;  // lane-block width in words
  bool netlist_opt = false;
  std::size_t gates_after_opt = 0;  // live gates after compile passes
  std::size_t patterns = 0;
  double seconds = 0;
  double throughput = 0;        // faults x patterns / second
  double faults_per_sec = 0;    // faults graded / second
  std::size_t detected = 0;
  std::vector<std::uint8_t> flags;
};

/// Times `fn` `reps` times (the configs are deterministic) and keeps the
/// fastest run — the rows that feed speedup ratios use reps > 1 so a CPU
/// spike during one row cannot fabricate or destroy a speedup.
template <typename Fn>
BenchRow time_config(std::string key, std::string label, Engine engine,
                     std::size_t n_faults, std::size_t n_patterns,
                     const Fn& fn, unsigned reps = 1) {
  BenchRow row;
  row.seconds = 0;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    CoverageResult res = fn();
    const double s = seconds_since(t0);
    if (r == 0) {
      row.seconds = s;
      row.detected = res.detected;
      row.flags = std::move(res.detected_flags);
    } else {
      row.seconds = std::min(row.seconds, s);
    }
  }
  row.key = std::move(key);
  row.label = std::move(label);
  row.engine = fault::engine_name(engine);
  row.patterns = n_patterns;
  row.throughput = static_cast<double>(n_faults) *
                   static_cast<double>(n_patterns) / row.seconds;
  row.faults_per_sec = static_cast<double>(n_faults) / row.seconds;
  return row;
}

/// The lane-packed grading loop exactly as it shipped before the multi-word
/// blocks landed: W=1, no compile passes, and an event-driven worklist pass
/// per broadcast pattern (no full-sweep hint). This is the event-engine
/// baseline the W x opt sweep is judged against; keeping it as a live row
/// (instead of a number quoted from an old run) means the speedup is always
/// measured under the same machine conditions as the numerator.
CoverageResult grade_lanes_worklist(const netlist::Netlist& nl,
                                    const std::vector<fault::Fault>& faults,
                                    const PatternSet& patterns) {
  const netlist::CompiledNetlist cn(nl);
  netlist::CompiledEvaluator ev(cn, /*event_driven=*/true);
  const auto& inputs = nl.inputs();
  const std::vector<netlist::NetId> outputs = nl.output_nets();
  CoverageResult res;
  res.total = faults.size();
  res.detected_flags.assign(faults.size(), 0);
  for (std::size_t base = 0; base < faults.size(); base += 63) {
    const std::size_t batch = std::min<std::size_t>(63, faults.size() - base);
    ev.clear_faults();
    std::uint64_t batch_lanes = 0;
    for (std::size_t j = 0; j < batch; ++j) {
      ev.inject_lane(faults[base + j].site, faults[base + j].stuck_value,
                     static_cast<unsigned>(j + 1));
      batch_lanes |= std::uint64_t{1} << (j + 1);
    }
    std::uint64_t detected = 0;
    for (std::size_t p = 0;
         p < patterns.size() && (detected & batch_lanes) != batch_lanes; ++p) {
      const auto& words = patterns.block(p / 64);
      const unsigned lane = p % 64;
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        ev.set_input(inputs[k], (words[k] >> lane) & 1u);
      }
      ev.eval();
      for (netlist::NetId out : outputs) detected |= ev.diff_mask(out, 0);
    }
    for (std::size_t j = 0; j < batch; ++j) {
      if ((detected >> (j + 1)) & 1u) res.detected_flags[base + j] = 1;
    }
  }
  res.recount();
  return res;
}

/// Average number of gates the event engine re-evaluates per fault injection
/// (one pattern block applied, every fault injected/evaluated/reverted once).
double avg_active_cone(const netlist::Netlist& nl,
                       const std::vector<fault::Fault>& faults,
                       const PatternSet& patterns) {
  const netlist::CompiledNetlist cn(nl);
  netlist::CompiledEvaluator ev(cn, /*event_driven=*/true);
  const auto& inputs = nl.inputs();
  const auto& words = patterns.block(0);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input_word(inputs[k], words[k]);
  }
  ev.eval();
  ev.reset_stats();
  for (const fault::Fault& f : faults) {
    ev.inject(f.site, f.stuck_value, ~std::uint64_t{0});
    ev.eval();
    ev.clear_faults();
  }
  return faults.empty() ? 0.0
                        : static_cast<double>(ev.gate_evals()) /
                              static_cast<double>(faults.size());
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned width = argc > 1 ? std::atoi(argv[1]) : 24;
  const std::size_t n_patterns =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 256;
  const unsigned threads =
      fault::resolve_thread_count(argc > 3 ? std::atoi(argv[3]) : 0);

  const netlist::Netlist nl = rtlgen::build_multiplier({.width = width});
  const fault::FaultUniverse universe(nl);
  const auto& faults = universe.collapsed();

  Rng rng(0xbe7c);
  PatternSet patterns(nl);
  for (std::size_t i = 0; i < n_patterns; ++i) patterns.add_random(rng);
  // The serial oracle runs one full-netlist eval per fault per pattern; cap
  // its patterns so the reference row finishes in seconds.
  const std::size_t serial_patterns = std::min<std::size_t>(n_patterns, 64);
  PatternSet serial_ps(nl);
  {
    Rng srng(0xbe7c);
    for (std::size_t i = 0; i < serial_patterns; ++i) serial_ps.add_random(srng);
  }

  const double cone = avg_active_cone(nl, faults, patterns);
  const std::size_t gates_plain = netlist::CompiledNetlist(nl).live_gates();
  const std::size_t gates_opt =
      netlist::CompiledNetlist(nl, netlist::CompileOptions::all())
          .live_gates();

  std::printf("multiplier %ux%u: %zu gates, %zu collapsed faults, "
              "%zu patterns, %u threads, avg event cone %.1f gates, "
              "%zu live gates after compile opt\n",
              width, width, nl.logic_gate_count(), faults.size(), n_patterns,
              threads, cone, gates_opt);

  // Grades with an explicit engine/scheduling/lane/opt configuration.
  // num_threads == 1 runs the plan on the calling thread, so single-thread
  // rows measure pure engine throughput.
  auto run = [&](Engine e, unsigned nthreads, unsigned lanes, bool opt) {
    fault::SimOptions so;
    so.num_threads = nthreads;
    so.engine = e;
    so.lanes = lanes;
    so.netlist_opt = opt ? 1 : 0;
    return fault::simulate_comb_parallel(nl, faults, patterns, {}, so);
  };

  const Engine engines[] = {Engine::kReference, Engine::kCompiled,
                            Engine::kEvent};
  std::vector<BenchRow> rows;

  // Serial oracle, reference engine only (anchor row; reduced patterns).
  rows.push_back(time_config(
      "serial_reference", "serial", Engine::kReference, faults.size(),
      serial_patterns, [&] {
        return fault::simulate_serial(nl, faults, serial_ps, {},
                                      Engine::kReference);
      }));

  // Engine x scheduling sweep, pinned at the historical lanes=1 / opt-off
  // configuration so these keys stay comparable across revisions.
  for (Engine e : engines) {
    const std::string en = fault::engine_name(e);
    rows.push_back(time_config(
        "comb_" + en, "comb x1", e, faults.size(), n_patterns,
        [&] { return run(e, 1, 1, false); }));
    rows.push_back(time_config(
        "block_" + en, "threaded block", e, faults.size(), n_patterns,
        [&] { return run(e, threads, 1, false); }));
  }
  for (BenchRow& r : rows) r.gates_after_opt = gates_plain;

  // The retired event-engine baseline: fault-lane-packed grading driven by
  // the worklist scheduler, W=1, no compile passes (best of 3 runs — this
  // row is a speedup denominator).
  {
    BenchRow row = time_config(
        "lane_event_worklist", "lane worklist", Engine::kEvent, faults.size(),
        n_patterns, [&] { return grade_lanes_worklist(nl, faults, patterns); },
        /*reps=*/3);
    row.gates_after_opt = gates_plain;
    rows.push_back(std::move(row));
  }

  // Lane-block width x compile-opt sweep: single-thread pattern-parallel
  // PPSFP on the event engine — one pass carries 64*W patterns, so W=4
  // re-simulates each fault's cone against 256 patterns at once (best of 3
  // runs each).
  for (unsigned lanes : {1u, 4u}) {
    for (bool opt : {false, true}) {
      std::string key = "sweep_event_l" + std::to_string(lanes) +
                        (opt ? "_opt" : "");
      std::string label = "sweep W=" + std::to_string(lanes) +
                          (opt ? " +opt" : "");
      BenchRow row = time_config(
          std::move(key), std::move(label), Engine::kEvent, faults.size(),
          n_patterns, [&] { return run(Engine::kEvent, 1, lanes, opt); },
          /*reps=*/3);
      row.lanes = lanes;
      row.netlist_opt = opt;
      row.gates_after_opt = opt ? gates_opt : gates_plain;
      rows.push_back(std::move(row));
    }
  }

  // Fault-model sweep: the full collapsed universe of each taxonomy model
  // graded through the same engine front door (event engine, single-thread
  // PPSFP blocks, W=4, compile passes on — the fast configuration). Every
  // model rides the identical scheduling/lane machinery; only the
  // per-model activation semantics differ, so these rows price the
  // taxonomy itself.
  struct ModelRow {
    fault::FaultModel model;
    std::size_t faults = 0;
    double seconds = 0;
    double faults_per_sec = 0;
    std::size_t detected = 0;
  };
  std::vector<ModelRow> model_rows;
  for (const fault::FaultModel fm :
       {fault::FaultModel::kStuckAt, fault::FaultModel::kTransition,
        fault::FaultModel::kTransientSEU, fault::FaultModel::kIntermittent}) {
    const fault::FaultUniverse mu(nl, fm);
    ModelRow mr;
    mr.model = fm;
    mr.faults = mu.size();
    const auto t0 = std::chrono::steady_clock::now();
    fault::SimOptions so;
    so.num_threads = 1;
    so.engine = Engine::kEvent;
    so.lanes = 4;
    so.netlist_opt = 1;
    const CoverageResult res =
        fault::simulate_comb_parallel(nl, mu.collapsed(), patterns, {}, so);
    mr.seconds = seconds_since(t0);
    mr.faults_per_sec = static_cast<double>(mr.faults) / mr.seconds;
    mr.detected = res.detected;
    model_rows.push_back(mr);
  }

  Table t({"Config", "Engine", "W", "Opt", "Gates", "Patterns", "Seconds",
           "Faults x pat / s", "Faults / s", "Detected"});
  for (const BenchRow& r : rows) {
    t.add_row({r.label, r.engine, Table::num(std::uint64_t{r.lanes}),
               std::string(r.netlist_opt ? "on" : "off"),
               Table::num(static_cast<std::uint64_t>(r.gates_after_opt)),
               Table::num(static_cast<std::uint64_t>(r.patterns)),
               Table::num(r.seconds, 3), Table::num(r.throughput, 0),
               Table::num(r.faults_per_sec, 0),
               Table::num(static_cast<std::uint64_t>(r.detected))});
  }
  t.print();

  Table mt({"Model", "Faults", "Seconds", "Faults / s", "Detected"});
  for (const ModelRow& r : model_rows) {
    mt.add_row({fault::fault_model_name(r.model),
                Table::num(static_cast<std::uint64_t>(r.faults)),
                Table::num(r.seconds, 3), Table::num(r.faults_per_sec, 0),
                Table::num(static_cast<std::uint64_t>(r.detected))});
  }
  mt.print();

  // Every full-pattern configuration must agree flag-for-flag (the serial
  // row uses fewer patterns and is excluded).
  for (std::size_t i = 2; i < rows.size(); ++i) {
    if (rows[i].flags != rows[1].flags) {
      std::fprintf(stderr, "FAIL: %s flags differ from %s\n",
                   rows[i].key.c_str(), rows[1].key.c_str());
      return 1;
    }
  }

  auto row_by_key = [&](const char* key) -> const BenchRow& {
    for (const BenchRow& r : rows) {
      if (r.key == key) return r;
    }
    std::fprintf(stderr, "missing row %s\n", key);
    std::exit(1);
  };
  const double speedup_event =
      row_by_key("comb_reference").seconds / row_by_key("comb_event").seconds;
  const double speedup_simd = row_by_key("lane_event_worklist").seconds /
                              row_by_key("sweep_event_l4_opt").seconds;
  std::printf("single-thread event vs reference: %.2fx\n", speedup_event);
  std::printf(
      "single-thread W=4+opt vs the worklist event-engine baseline: %.2fx\n",
      speedup_simd);

  std::FILE* json = std::fopen("BENCH_faultsim.json", "w");
  if (!json) {
    std::perror("BENCH_faultsim.json");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"netlist\": \"multiplier\",\n"
               "  \"width\": %u,\n"
               "  \"gates\": %zu,\n"
               "  \"gates_after_opt\": %zu,\n"
               "  \"faults\": %zu,\n"
               "  \"patterns\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"avg_active_cone\": %.2f,\n"
               "  \"engines\": {\n",
               width, nl.logic_gate_count(), gates_opt, faults.size(),
               n_patterns, threads, cone);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(json,
                 "    \"%s\": {\"engine\": \"%s\", \"lanes\": %u, "
                 "\"netlist_opt\": %s, \"gates_after_opt\": %zu, "
                 "\"patterns\": %zu, \"seconds\": %.6f, "
                 "\"throughput\": %.0f, \"faults_graded_per_sec\": %.0f, "
                 "\"detected\": %zu}%s\n",
                 rows[i].key.c_str(), rows[i].engine.c_str(), rows[i].lanes,
                 rows[i].netlist_opt ? "true" : "false",
                 rows[i].gates_after_opt, rows[i].patterns, rows[i].seconds,
                 rows[i].throughput, rows[i].faults_per_sec,
                 rows[i].detected, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  },\n  \"fault_models\": {\n");
  for (std::size_t i = 0; i < model_rows.size(); ++i) {
    const ModelRow& r = model_rows[i];
    std::fprintf(json,
                 "    \"%s\": {\"model\": \"%s\", \"faults\": %zu, "
                 "\"seconds\": %.6f, \"faults_graded_per_sec\": %.0f, "
                 "\"detected\": %zu}%s\n",
                 fault::fault_model_name(r.model),
                 fault::fault_model_name(r.model), r.faults, r.seconds,
                 r.faults_per_sec, r.detected,
                 i + 1 < model_rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  },\n"
               "  \"speedup_event_vs_reference\": %.3f,\n"
               "  \"speedup_l4opt_vs_event_baseline\": %.3f\n"
               "}\n",
               speedup_event, speedup_simd);
  std::fclose(json);
  std::puts("wrote BENCH_faultsim.json");
  return 0;
}
