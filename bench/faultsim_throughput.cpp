// Fault-simulation throughput of the production grader.
//
// Grades the collapsed fault universe of a parallel multiplier (the largest
// combinational CUT family in the model) against random patterns,
// single-threaded and on the thread pool, reporting faults x patterns /
// second. Both runs must produce identical detection flags; any mismatch is
// a hard failure. A fault-model sweep prices the stuck-at / transition /
// transient / intermittent taxonomy on the same front door.
//
// Also reports the average active-cone size per fault — the number of gates
// the event-driven evaluator actually re-evaluates per fault injection, the
// quantity event-driven scheduling exists to minimize.
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
#include "fault/fault.hpp"
#include "fault/sim_parallel.hpp"
#include "netlist/compiled.hpp"
#include "rtlgen/multiplier.hpp"

using namespace sbst;
using fault::CoverageResult;
using fault::PatternSet;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BenchRow {
  std::string key;     // JSON key, e.g. "comb_x1"
  std::string label;   // table label
  unsigned threads = 1;
  double seconds = 0;
  double throughput = 0;      // faults x patterns / second
  double faults_per_sec = 0;  // faults graded / second
  std::size_t detected = 0;
  std::vector<std::uint8_t> flags;
};

/// Grades `faults` `reps` times at `threads` (the grading is deterministic)
/// and keeps the fastest run, so a CPU spike during one run cannot
/// fabricate or destroy a speedup.
BenchRow time_grading(std::string key, std::string label,
                      const netlist::Netlist& nl,
                      const std::vector<fault::Fault>& faults,
                      const PatternSet& patterns, unsigned threads,
                      unsigned reps) {
  BenchRow row;
  row.key = std::move(key);
  row.label = std::move(label);
  row.threads = threads;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    CoverageResult res = fault::simulate_comb_parallel(
        nl, faults, patterns, {}, {.num_threads = threads});
    const double s = seconds_since(t0);
    if (r == 0 || s < row.seconds) row.seconds = s;
    if (r == 0) {
      row.detected = res.detected;
      row.flags = std::move(res.detected_flags);
    }
  }
  row.throughput = static_cast<double>(faults.size()) *
                   static_cast<double>(patterns.size()) / row.seconds;
  row.faults_per_sec = static_cast<double>(faults.size()) / row.seconds;
  return row;
}

/// Average number of gates the event-driven evaluator re-evaluates per
/// fault injection (one pattern block applied, every fault
/// injected/evaluated/reverted once).
double avg_active_cone(const netlist::Netlist& nl,
                       const std::vector<fault::Fault>& faults,
                       const PatternSet& patterns) {
  netlist::CompiledEvaluator ev(nl);
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
  const double cone = avg_active_cone(nl, faults, patterns);
  std::printf("multiplier %ux%u: %zu gates, %zu collapsed faults, "
              "%zu patterns, %u threads, avg event cone %.1f gates\n",
              width, width, nl.logic_gate_count(), faults.size(), n_patterns,
              threads, cone);

  // num_threads == 1 runs the plan on the calling thread, so the
  // single-thread row measures pure kernel throughput.
  const std::vector<BenchRow> rows = {
      time_grading("comb_x1", "single-thread", nl, faults, patterns, 1, 3),
      time_grading("comb_threaded", "threaded", nl, faults, patterns, threads,
                   3),
  };

  // Fault-model sweep: the full collapsed universe of each taxonomy model
  // graded single-threaded through the same front door. Every model rides
  // the identical scheduling/lane machinery; only the per-model activation
  // semantics differ, so these rows price the taxonomy itself.
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
    const CoverageResult res = fault::simulate_comb_parallel(
        nl, mu.collapsed(), patterns, {}, {.num_threads = 1});
    mr.seconds = seconds_since(t0);
    mr.faults_per_sec = static_cast<double>(mr.faults) / mr.seconds;
    mr.detected = res.detected;
    model_rows.push_back(mr);
  }

  Table t({"Config", "Threads", "Patterns", "Seconds", "Faults x pat / s",
           "Faults / s", "Detected"});
  for (const BenchRow& r : rows) {
    t.add_row({r.label, Table::num(std::uint64_t{r.threads}),
               Table::num(static_cast<std::uint64_t>(n_patterns)),
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

  if (rows[0].flags != rows[1].flags) {
    std::fprintf(stderr, "FAIL: threaded flags differ from single-thread\n");
    return 1;
  }
  const double speedup = rows[0].seconds / rows[1].seconds;
  std::printf("threaded vs single-thread: %.2fx\n", speedup);

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
               "  \"faults\": %zu,\n"
               "  \"patterns\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"avg_active_cone\": %.2f,\n"
               "  \"grading\": {\n",
               width, nl.logic_gate_count(), faults.size(), n_patterns,
               threads, cone);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(json,
                 "    \"%s\": {\"threads\": %u, \"seconds\": %.6f, "
                 "\"throughput\": %.0f, \"faults_graded_per_sec\": %.0f, "
                 "\"detected\": %zu}%s\n",
                 rows[i].key.c_str(), rows[i].threads, rows[i].seconds,
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
               "  \"speedup_threaded_vs_single\": %.3f\n"
               "}\n",
               speedup);
  std::fclose(json);
  std::puts("wrote BENCH_faultsim.json");
  return 0;
}
