#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "core/session.hpp"
#include "fault/sim_parallel.hpp"
#include "serve/serve.hpp"
#include "util.hpp"

namespace perfbench {

namespace core = sbst::core;
namespace fault = sbst::fault;
namespace serve = sbst::serve;
namespace sim = sbst::sim;

using core::CutId;
using fault::FaultModel;

namespace {

// ---- fixed workload parameters ----------------------------------------------
// Changing any of these changes the benchmark; a later change that claims a
// gain must not touch them.

// Cold set-ups come in bursts: one before the first operation and one after
// each closed-loop iteration (serve: after each phase), so their median
// samples the host over the whole run, as the operations' medians do.
constexpr int kSetupBurst = 8;
constexpr int kMinIterations = 2;  // untraced closed loops run at least this
constexpr const char* kCorpusDir = "tests/corpus/v1";
constexpr const char* kGoldenEvaluate = "ci/golden/sbst_evaluate.stdout";
constexpr const char* kTempRoot = ".bench_build/tmp";

// Serve traffic: a seeded Poisson stream at a fixed rate into the all-core
// daemon. The verbs come in shuffled blocks of 50 requests, each holding
// exactly 9 ping, 6 stats, 33 conform, 1 evaluate and 1 campaign (its cut
// rotating mul, alu, shifter from block to block), and a phase sends whole
// blocks, so every seed sends the same requests and only order and arrival
// times vary. The rate keeps the daemon 17-39% busy on the host the
// benchmark was defined on, so the median request does not wait even on a
// slow stretch, and the tail does; it never changes.
constexpr double kServeRateAll = 5.0;  // requests/s, pool at all cores
constexpr std::size_t kServeMaxFaults = 8;  // the daemon's --max-faults
struct ServeRequest {
  const char* line;  // request line
  const char* verb;  // per-layer metric key
};
constexpr ServeRequest kServeRequests[] = {
    {"ping", "ping"},
    {"stats", "stats"},
    {"conform run tests/corpus/v1", "conform"},
    {"evaluate", "evaluate"},
    {"campaign mul", "campaign"},
    {"campaign alu", "campaign"},
    {"campaign shifter", "campaign"},
};
// ping, stats, conform, evaluate per block
constexpr std::size_t kBlockCounts[] = {9, 6, 33, 1};
constexpr std::size_t kServeBlock = 50;  // kBlockCounts + one campaign
// Blocks in the one-thread closed loop: three, so each campaign cut is sent
// once and the metric rests on three one-thread evaluates, not one.
constexpr std::size_t kServeClosedBlocks = 3;
constexpr std::size_t kFirstCampaign = 4;  // index of "campaign mul"
constexpr std::size_t kServeWarmup[] = {3, 2};  // evaluate, conform run
constexpr const char* kServeVerbs[] = {"ping", "stats", "conform", "campaign",
                                       "evaluate"};

constexpr CutId kInjectable[] = {CutId::kAlu, CutId::kShifter,
                                 CutId::kMultiplier};
constexpr FaultModel kCampaignModels[] = {FaultModel::kStuckAt,
                                          FaultModel::kTransientSEU};
constexpr FaultModel kAllModels[] = {
    FaultModel::kStuckAt, FaultModel::kTransition, FaultModel::kTransientSEU,
    FaultModel::kIntermittent};

const char* cut_name(CutId id) {
  switch (id) {
    case CutId::kMultiplier: return "mul";
    case CutId::kDivider: return "div";
    case CutId::kRegisterFile: return "rf";
    case CutId::kMemCtrl: return "mem";
    case CutId::kShifter: return "shifter";
    case CutId::kAlu: return "alu";
    case CutId::kControl: return "ctrl";
    case CutId::kForwarding: return "fwd";
    case CutId::kPipeline: return "pipe";
    case CutId::kBranchAdder: return "badd";
  }
  return "unknown";
}

constexpr CutId kAllCuts[] = {
    CutId::kMultiplier, CutId::kDivider,  CutId::kRegisterFile,
    CutId::kMemCtrl,    CutId::kShifter,  CutId::kAlu,
    CutId::kControl,    CutId::kForwarding, CutId::kBranchAdder,
    CutId::kPipeline};

// ---- metric sets ------------------------------------------------------------

class Metrics {
 public:
  void declare(const std::string& name, const char* unit) {
    if (!valid_name(name)) {
      throw std::logic_error("invalid metric name " + name);
    }
    values_[name] = Metric{0, unit};
  }
  void set(const std::string& name, double value) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("undeclared metric " + name);
    }
    it->second.value = std::isfinite(value) ? value : 0;
  }
  void add(const std::string& name, double value) {
    set(name, values_.at(name).value + value);
  }
  std::map<std::string, Metric> take() { return std::move(values_); }

 private:
  std::map<std::string, Metric> values_;
};

void declare_end_to_end(Metrics& m) {
  m.declare("setup_s", "s");
  m.declare("op_s", "s");
  m.declare("op_j1_s", "s");
  m.declare("peak_rss_mb", "MB");
}

void declare_per_layer(Metrics& m) {
  for (const char* n : {"rtlgen.model_s", "atpg.routines_s", "isa.assemble_s",
                        "isa.decode_s", "core.session_s", "sim.trace_s",
                        "sim.standalone_s", "netlist.compile_s",
                        "fault.collapse_s"}) {
    m.declare(n, "s");
  }
  m.declare("sim.instructions", "count");
  m.declare("sim.cycles", "count");
  for (const CutId id : kAllCuts) {
    const std::string c = cut_name(id);
    m.declare("fault.faults." + c, "count");
    m.declare("fault.stimulus." + c, "count");
    m.declare("fault.grade_s." + c, "s");
  }
  for (const FaultModel fm : kAllModels) {
    m.declare(std::string("fault.grade_s.") + fault::fault_model_name(fm), "s");
  }
  m.declare("fault.pool_eff", "ratio");
  for (const CutId id : kInjectable) {
    for (const FaultModel fm : kCampaignModels) {
      m.declare(std::string("core.inject.run_s.") + cut_name(id) + "." +
                    fault::fault_model_name(fm),
                "s");
    }
  }
  for (std::size_t k = 0; k < core::kRunOutcomeCount; ++k) {
    m.declare(std::string("core.inject.outcome.") +
                  core::run_outcome_name(static_cast<core::RunOutcome>(k)),
              "count");
  }
  m.declare("core.inject.faulty_instructions", "count");
  m.declare("core.inject.mips", "Minstr/s");
  m.declare("core.inject.faults_per_s", "1/s");
  for (const char* v : kServeVerbs) {
    m.declare(std::string("serve.service_s.") + v, "s");
  }
  m.declare("serve.wait_p90_s", "s");
  m.declare("serve.latency_p90_s", "s");
  m.declare("serve.busy_frac", "ratio");
  m.declare("serve.repeat_frac", "ratio");
  m.declare("serve.gen_late_max_s", "s");
  m.declare("store.hits", "count");
  m.declare("store.misses", "count");
  m.declare("store.writes", "count");
  m.declare("bench.trace_overhead_s", "s");
  m.declare("bench.span_coverage", "ratio");
}

// ---- helpers ----------------------------------------------------------------

/// `nproc` (CPUs this process may run on), capped at 4.
unsigned all_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned n = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    n = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::clamp(n, 1u, 4u);
}

core::SessionOptions session_options(unsigned threads) {
  core::SessionOptions o;
  o.num_threads = threads;
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The seed's program: the default seed is the CLI's default program (the
/// golden Table-1 run); any other seed re-seeds the shifter ATPG and the
/// MISR, which changes every signature-carried value but not the amount of
/// work.
core::CodegenOptions codegen_for(std::uint64_t seed) {
  core::CodegenOptions o;
  if (seed == kDefaultSeed) return o;
  o.seed = seed;
  o.misr_seed = static_cast<std::uint32_t>(mix64(seed)) | 1u;
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// A FILE* over a growable memory buffer.
class MemOut {
 public:
  MemOut() : f_(open_memstream(&buf_, &len_)) {
    if (!f_) throw std::runtime_error("open_memstream failed");
  }
  ~MemOut() {
    if (f_) std::fclose(f_);
    std::free(buf_);
  }
  MemOut(const MemOut&) = delete;
  MemOut& operator=(const MemOut&) = delete;
  std::FILE* file() { return f_; }
  std::string str() {
    std::fflush(f_);
    return std::string(buf_, len_);
  }

 private:
  char* buf_ = nullptr;
  std::size_t len_ = 0;
  std::FILE* f_;
};

/// "name: n samples, median, min..max: v1 v2 ..." for the report.
std::string samples_note(const char* name, const std::vector<double>& v) {
  std::string s = std::string(name) + ": " + std::to_string(v.size()) +
                  " samples, median " + std::to_string(median(v)) + " s:";
  for (const double x : v) {
    s += ' ';
    s += std::to_string(x);
  }
  return s;
}

struct Check {
  Result& result;
  void operator()(const std::string& error, const std::string& what) {
    ++result.attempted;
    if (!error.empty()) {
      ++result.failed;
      result.notes.push_back("FAIL " + what + ": " + error);
    }
  }
};

// ---- set-up -----------------------------------------------------------------

struct Prepared {
  std::unique_ptr<core::ProcessorModel> model;
  std::unique_ptr<core::TestProgramBuilder> builder;
  core::TestProgram program;
  std::unique_ptr<core::GradingSession> session;  // all cores, warm decode
};

struct SetupTimes {
  std::vector<double> total, model, routines, assemble, session, decode;
};

/// One burst of kSetupBurst cold starts, each timed into `times`: the
/// processor model (rtlgen), the seven routines (the shifter's is PODEM
/// ATPG), assembly, and a GradingSession with its pool and the decoded
/// image. Returns the last.
Prepared prepare(const core::CodegenOptions& codegen, unsigned threads,
                 Tracer& tracer, SetupTimes& times) {
  Prepared p;
  for (int k = 0; k < kSetupBurst; ++k) {
    // Tear the previous set-up down untimed, the session before the model
    // it points to.
    p.session.reset();
    p = Prepared{};
    tracer.next_op();
    const double t0 = now_s();
    Tracer::Scope root(tracer, "setup");
    {
      Tracer::Scope s(tracer, "rtlgen.model");
      p.model = std::make_unique<core::ProcessorModel>();
    }
    const double t1 = now_s();
    {
      Tracer::Scope s(tracer, "atpg.routines");
      p.builder = std::make_unique<core::TestProgramBuilder>(codegen);
      p.builder->add_default_routines(*p.model);
    }
    const double t2 = now_s();
    {
      Tracer::Scope s(tracer, "isa.assemble");
      p.program = p.builder->build();
    }
    const double t3 = now_s();
    {
      Tracer::Scope s(tracer, "core.session");
      p.session = std::make_unique<core::GradingSession>(
          *p.model, session_options(threads));
    }
    const double t4 = now_s();
    {
      Tracer::Scope s(tracer, "isa.decode");
      p.session->decoded(p.program.image);
    }
    const double t5 = now_s();
    times.model.push_back(t1 - t0);
    times.routines.push_back(t2 - t1);
    times.assemble.push_back(t3 - t2);
    times.session.push_back(t4 - t3);
    times.decode.push_back(t5 - t4);
    times.total.push_back(t5 - t0);
  }
  return p;
}

/// Whether a closed loop starts another whole iteration: while the last
/// one's length still fits in the run's seconds, and at least
/// kMinIterations times.
bool another_iteration(int done, double start, double last, double seconds) {
  return done < kMinIterations || now_s() - start + last <= seconds;
}

void report_setup(const SetupTimes& t, Metrics& m, bool trace) {
  if (!trace) {
    m.set("setup_s", median(t.total));
    return;
  }
  m.set("rtlgen.model_s", median(t.model));
  m.set("atpg.routines_s", median(t.routines));
  m.set("isa.assemble_s", median(t.assemble));
  m.set("core.session_s", median(t.session));
  m.set("isa.decode_s", median(t.decode));
}

/// Table-1 statistics of the modelled design, computed from the assembled
/// binaries and simulated runs, beside the paper's figures.
void report_model_stats(const Prepared& p, const core::ProgramEvaluation* ev,
                        Result& r) {
  std::size_t words = 0;
  std::uint64_t cycles = 0, refs = 0;
  for (std::size_t i = 0; i < p.program.routines.size(); ++i) {
    const core::TestProgram solo =
        p.builder->build_standalone(p.program.routines[i]);
    sim::Cpu cpu;
    cpu.reset();
    cpu.load(solo.image);
    const sim::ExecStats s = cpu.run(solo.entry);
    words += p.program.sections[i].size_words();
    cycles += s.cpu_cycles;
    refs += s.data_references();
  }
  char fc[48] = "";
  if (ev) std::snprintf(fc, sizeof fc, ", overall FC %.2f%%", ev->overall_fc());
  char line[256];
  std::snprintf(line, sizeof line,
                "modelled design (simulated): %zu routine words, %llu "
                "cycles, %llu data refs%s | paper Table 1: 808 words, 9,905 "
                "cycles, 87 refs, 95.6%% FC",
                words, static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(refs), fc);
  r.notes.push_back(line);
}

// ---- table1 / fault_models --------------------------------------------------

core::EvalOptions eval_options(const std::vector<FaultModel>& models) {
  core::EvalOptions o;
  o.fault_models = models;
  return o;
}

core::ProgramEvaluation evaluate_fresh(const Prepared& p,
                                       const core::EvalOptions& options,
                                       unsigned threads, double& wall) {
  const double t0 = now_s();
  core::GradingSession session(*p.model, session_options(threads));
  core::ProgramEvaluation ev =
      core::evaluate_program(session, *p.builder, p.program, options);
  wall = now_s() - t0;
  return ev;
}

/// One Table-1 evaluation rebuilt from the layers' public calls at
/// `threads`, every step in its own span: session, decode, traced CPU run,
/// compile, collapse, per-CUT grading through simulate_*_parallel with
/// default SimOptions that borrow the session's pool, compiled netlist and
/// cone, and the standalone routine runs.
struct Breakdown {
  struct Row {
    CutId id;
    FaultModel model;
    fault::CoverageResult coverage;
    std::size_t stimulus = 0;
    double grade_s = 0;
  };
  std::vector<Row> rows;
  sim::ExecStats total;
  double wall = 0, trace_s = 0, compile_s = 0, collapse_s = 0,
         standalone_s = 0, session_s = 0, decode_s = 0;
};

Breakdown decompose_evaluate(const Prepared& p,
                             const core::EvalOptions& options,
                             unsigned threads, Tracer& tracer) {
  Breakdown b;
  const core::ProcessorModel& model = *p.model;
  const core::TestProgram& program = p.program;
  const double t0 = now_s();
  Tracer::Scope root(tracer, "core.evaluate");
  std::unique_ptr<core::GradingSession> session;
  {
    Tracer::Scope s(tracer, "core.session");
    session = std::make_unique<core::GradingSession>(
        model, session_options(threads));
  }
  const double t1 = now_s();
  std::shared_ptr<const sbst::isa::DecodedProgram> decoded;
  {
    Tracer::Scope s(tracer, "isa.decode");
    decoded = session->decoded(program.image);
  }
  const double t2 = now_s();

  core::TraceCollector trace(model);
  {
    Tracer::Scope s(tracer, "sim.trace");
    trace.set_regfile_cycle_cap(options.regfile_cycle_cap);
    trace.set_pipeline_cycle_cap(options.pipeline_cycle_cap);
    for (std::size_t i = 0; i < program.routines.size(); ++i) {
      if (program.routines[i].target == CutId::kRegisterFile) {
        trace.restrict_regfile(program.sections[i].begin_addr,
                               program.sections[i].end_addr);
      }
    }
    sim::Cpu cpu(options.cpu);
    cpu.reset();
    cpu.load(program.image, decoded);
    cpu.set_hooks(&trace);
    b.total = cpu.run(program.entry, options.max_instructions);
    if (!b.total.halted) throw std::runtime_error("traced run did not halt");
  }
  const double t3 = now_s();

  const core::ObserveMode mode = core::observe_mode(options);
  struct Ctx {
    const std::uint8_t* reach;
    const sbst::netlist::CompiledNetlist* compiled;
    const fault::ObserveSet* observe;
  };
  std::vector<Ctx> ctxs;
  {
    Tracer::Scope s(tracer, "netlist.compile");
    for (const core::ComponentInfo& info : model.components()) {
      Ctx c;
      c.reach = session->cone(info.id, mode).data();
      c.compiled = &session->compiled(info.id);
      c.observe = &session->observe(info.id, mode);
      ctxs.push_back(c);
    }
  }
  const double t4 = now_s();

  struct Job {
    std::size_t component;
    FaultModel model;
    const fault::FaultUniverse* universe;
    const fault::PatternSet* patterns;
    const fault::SeqStimulus* stimulus;
  };
  std::vector<Job> jobs;
  {
    Tracer::Scope s(tracer, "fault.collapse");
    for (std::size_t i = 0; i < model.components().size(); ++i) {
      const CutId id = model.components()[i].id;
      const fault::PatternSet* patterns = nullptr;
      const fault::SeqStimulus* stimulus = nullptr;
      switch (id) {
        case CutId::kAlu: patterns = &trace.alu_patterns(); break;
        case CutId::kShifter: patterns = &trace.shifter_patterns(); break;
        case CutId::kMultiplier:
          patterns = &trace.multiplier_patterns();
          break;
        case CutId::kControl: patterns = &trace.control_patterns(); break;
        case CutId::kForwarding:
          patterns = &trace.forwarding_patterns();
          break;
        case CutId::kBranchAdder:
          patterns = &trace.branch_adder_patterns();
          break;
        case CutId::kDivider: stimulus = &trace.divider_stimulus(); break;
        case CutId::kRegisterFile:
          stimulus = &trace.regfile_stimulus();
          break;
        case CutId::kMemCtrl: stimulus = &trace.memctrl_stimulus(); break;
        case CutId::kPipeline: stimulus = &trace.pipeline_stimulus(); break;
      }
      for (const FaultModel fm : options.fault_models) {
        // Transition grading needs launch/capture pattern pairs, which the
        // clocked stimuli lack (the same rule evaluate_program applies).
        if (fm == FaultModel::kTransition && !patterns) continue;
        jobs.push_back({i, fm, &session->universe(id, fm), patterns, stimulus});
      }
    }
  }
  const double t5 = now_s();

  for (const Job& j : jobs) {
    const core::ComponentInfo& info = model.components()[j.component];
    const Ctx& c = ctxs[j.component];
    fault::SimOptions so;
    so.pool = &session->pool();
    so.compiled = c.compiled;
    so.reach = c.reach;
    Breakdown::Row row{info.id, j.model, {}, 0, 0};
    const double g0 = now_s();
    {
      Tracer::Scope s(tracer, std::string("fault.grade.") + cut_name(info.id) +
                                  "." + fault::fault_model_name(j.model));
      if (j.patterns) {
        row.coverage = fault::simulate_comb_parallel(
            info.netlist, j.universe->collapsed(), *j.patterns, *c.observe,
            so);
        row.stimulus = j.patterns->size();
      } else {
        row.coverage = fault::simulate_seq_parallel(
            info.netlist, j.universe->collapsed(), *j.stimulus, *c.observe,
            so);
        row.stimulus = j.stimulus->size();
      }
    }
    row.grade_s = now_s() - g0;
    b.rows.push_back(std::move(row));
  }
  const double t6 = now_s();

  {
    Tracer::Scope s(tracer, "sim.standalone");
    for (const core::Routine& r : program.routines) {
      const core::TestProgram solo = p.builder->build_standalone(r);
      sim::Cpu cpu(options.cpu);
      cpu.reset();
      cpu.load(solo.image, session->decoded(solo.image));
      cpu.run(solo.entry, options.max_instructions);
    }
  }
  const double t7 = now_s();
  b.session_s = t1 - t0;
  b.decode_s = t2 - t1;
  b.trace_s = t3 - t2;
  b.compile_s = t4 - t3;
  b.collapse_s = t5 - t4;
  b.standalone_s = t7 - t6;
  b.wall = t7 - t0;
  return b;
}

/// Per-CUT grading of the breakdown against the matching evaluate_program
/// rows: detected counts and flags must be equal.
std::string check_breakdown(const Breakdown& b,
                            const core::ProgramEvaluation& ev) {
  if (b.rows.size() != ev.cuts.size()) return "row count differs";
  for (const Breakdown::Row& row : b.rows) {
    const core::CutCoverage& want = ev.cut(row.id, row.model);
    if (row.coverage.detected != want.coverage.detected ||
        row.coverage.detected_flags != want.coverage.detected_flags) {
      return std::string("grading of ") + cut_name(row.id) + "/" +
             fault::fault_model_name(row.model) + " differs from evaluate";
    }
    if (row.stimulus != want.stimulus_size) {
      return std::string("stimulus of ") + cut_name(row.id) + " differs";
    }
  }
  if (b.total.cpu_cycles != ev.total.cpu_cycles ||
      b.total.instructions != ev.total.instructions) {
    return "traced run stats differ";
  }
  return "";
}

void run_evaluate_workload(const RunConfig& cfg,
                           const std::vector<FaultModel>& models,
                           Result& result, Metrics& m) {
  const unsigned threads = all_cores();
  Tracer tracer(cfg.trace);
  SetupTimes setup;
  const core::CodegenOptions codegen = codegen_for(cfg.seed);
  Prepared p = prepare(codegen, threads, tracer, setup);
  p.session.reset();  // every evaluate builds its own, as `sbst evaluate`
  Check check{result};
  const core::EvalOptions options = eval_options(models);

  // The first evaluation is the reference: at the default seed the stuck-at
  // run must reproduce the golden `sbst evaluate` stdout, and every later
  // run, at either thread count, must equal it bit for bit.
  std::optional<core::ProgramEvaluation> reference;
  auto verify = [&](const core::ProgramEvaluation& ev, const char* what) {
    if (reference) {
      check(check_same_evaluation(*reference, ev), what);
      return;
    }
    reference = ev;
    if (cfg.seed == kDefaultSeed && models.size() == 1) {
      check(check_golden_evaluate(read_file(kGoldenEvaluate), *p.model, ev),
            "golden Table-1 rows");
    }
    report_model_stats(p, &ev, result);
  };

  double wall = 0;
  const double start = now_s();
  if (!cfg.trace) {
    std::vector<double> all, j1;
    double last = 0;
    for (int i = 0; another_iteration(i, start, last, cfg.seconds); ++i) {
      const double it0 = now_s();
      verify(evaluate_fresh(p, options, threads, wall), "evaluate, all cores");
      all.push_back(wall);
      verify(evaluate_fresh(p, options, 1, wall), "evaluate, 1 thread");
      j1.push_back(wall);
      prepare(codegen, threads, tracer, setup);
      last = now_s() - it0;
    }
    report_setup(setup, m, cfg.trace);
    m.set("op_s", median(all));
    m.set("op_j1_s", median(j1));
    result.notes.push_back(samples_note("op_s", all));
    result.notes.push_back(samples_note("op_j1_s", j1));
    return;
  }

  // Traced: the layer breakdown at one thread, the untraced evaluate at one
  // thread it must account for, and the same breakdown at all cores for the
  // pool efficiency.
  // Overhead and coverage pair each breakdown with the untraced evaluate run
  // right after it, so both see the same host state.
  std::vector<double> traced, untraced, overhead, coverage;
  std::map<std::string, std::vector<double>> layer;
  double last = 0;
  do {
    const double it0 = now_s();
    tracer.next_op();
    const Breakdown b = decompose_evaluate(p, options, 1, tracer);
    traced.push_back(b.wall);
    const core::ProgramEvaluation ev = evaluate_fresh(p, options, 1, wall);
    untraced.push_back(wall);
    verify(ev, "evaluate, 1 thread");
    check(check_breakdown(b, ev), "per-CUT grading, 1 thread");
    tracer.next_op();
    const Breakdown all = decompose_evaluate(p, options, threads, tracer);
    check(check_breakdown(all, ev), "per-CUT grading, all cores");

    layer["sim.trace_s"].push_back(b.trace_s);
    layer["sim.standalone_s"].push_back(b.standalone_s);
    layer["netlist.compile_s"].push_back(b.compile_s);
    layer["fault.collapse_s"].push_back(b.collapse_s);
    std::map<std::string, double> grade;  // per CUT and per model
    double grade_j1 = 0, grade_all = 0;
    for (const Breakdown::Row& row : b.rows) {
      grade[cut_name(row.id)] += row.grade_s;
      grade[fault::fault_model_name(row.model)] += row.grade_s;
      grade_j1 += row.grade_s;
    }
    for (const Breakdown::Row& row : all.rows) grade_all += row.grade_s;
    for (const auto& [k, v] : grade) layer["fault.grade_s." + k].push_back(v);
    layer["fault.pool_eff"].push_back(grade_j1 / (threads * grade_all));
    prepare(codegen, threads, tracer, setup);
    overhead.push_back(b.wall - wall);
    coverage.push_back((b.session_s + b.decode_s + b.trace_s + b.compile_s +
                        b.collapse_s + grade_j1 + b.standalone_s) /
                       wall);
    if (traced.size() == 1) {  // counts repeat exactly; record them once
      m.set("sim.instructions", static_cast<double>(b.total.instructions));
      m.set("sim.cycles", static_cast<double>(b.total.cpu_cycles));
      for (const Breakdown::Row& row : b.rows) {
        m.add(std::string("fault.faults.") + cut_name(row.id),
              static_cast<double>(row.coverage.total));
        m.set(std::string("fault.stimulus.") + cut_name(row.id),
              static_cast<double>(row.stimulus));
      }
    }
    last = now_s() - it0;
  } while (now_s() - start + last < cfg.seconds);

  report_setup(setup, m, cfg.trace);
  for (const auto& [name, v] : layer) m.set(name, median(v));
  m.set("bench.trace_overhead_s", median(overhead));
  m.set("bench.span_coverage", median(coverage));
  result.notes.push_back(samples_note("traced breakdown, 1 thread", traced));
  result.notes.push_back(samples_note("untraced evaluate, 1 thread", untraced));
  tracer.write(".bench_build/trace_" + cfg.workload + ".jsonl");
}

// ---- campaign ---------------------------------------------------------------

struct CampaignSlice {
  CutId cut;
  FaultModel model;
  std::vector<fault::Fault> faults;
  std::vector<core::RunOutcome> expected;  // each fault's stratum class
};

/// Faults drawn per pass from each slice (kInjectable x kCampaignModels),
/// as `sbst campaign --max-faults N` grades N per CUT and model. Within a
/// slice they are split over the outcome classes in proportion to the
/// classes measured by --write-strata (the `count` lines of the strata
/// file), with one draw for every class present (stratified_takes).
constexpr std::size_t kSliceFaults = 12;
constexpr const char* kStrataFile = "perfbench/campaign_strata.txt";
constexpr std::size_t kStrataCandidates = 24;  // per stratum in the file

std::size_t slice_index(CutId cut, FaultModel fm) {
  std::size_t i = 0;
  for (const CutId c : kInjectable) {
    for (const FaultModel m : kCampaignModels) {
      if (c == cut && m == fm) return i;
      ++i;
    }
  }
  throw std::logic_error("not a campaign slice");
}

/// The seeded campaign sample: from each stratum of perfbench/
/// campaign_strata.txt (faults grouped by the outcome class they had when
/// the benchmark was defined) the slice's stratified_takes share, a seeded
/// choice for every class but hangs.
std::vector<CampaignSlice> campaign_sample(const core::ProcessorModel& model,
                                           std::uint64_t seed,
                                           std::string& note) {
  const std::size_t slice_count =
      std::size(kInjectable) * std::size(kCampaignModels);
  std::vector<std::vector<std::vector<fault::Fault>>> strata(
      slice_count,
      std::vector<std::vector<fault::Fault>>(core::kRunOutcomeCount));
  std::vector<std::vector<std::size_t>> measured(
      slice_count, std::vector<std::size_t>(core::kRunOutcomeCount));
  std::istringstream in(read_file(kStrataFile));
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head, cut_s, model_s, class_s, last;
    fields >> head;
    const bool count_line = head == "count";
    if (count_line) {
      fields >> cut_s;
    } else {
      cut_s = head;
    }
    fields >> model_s >> class_s >> last;
    CutId cut;
    FaultModel fm;
    std::size_t cls = core::kRunOutcomeCount;
    for (std::size_t k = 0; k < core::kRunOutcomeCount; ++k) {
      if (class_s == core::run_outcome_name(static_cast<core::RunOutcome>(k))) {
        cls = k;
      }
    }
    fault::Fault f;
    unsigned long long count = 0;
    const bool ok =
        serve::parse_cut_name(cut_s, cut) &&
        fault::parse_fault_model(model_s, fm) &&
        cls != core::kRunOutcomeCount &&
        (count_line ? std::sscanf(last.c_str(), "%llu", &count) == 1
                    : fault::parse_fault_name(model.component(cut).netlist,
                                              last, f) &&
                          f.model == fm);
    if (!ok) {
      throw std::runtime_error(std::string(kStrataFile) + ": bad line '" +
                               line + "'");
    }
    if (count_line) {
      measured[slice_index(cut, fm)][cls] = count;
    } else {
      strata[slice_index(cut, fm)][cls].push_back(f);
    }
  }
  std::vector<CampaignSlice> slices;
  std::mt19937_64 rng(mix64(seed));
  note = "campaign pass (faults per class ok/mismatch/hang/trap/wild/infra):";
  for (const CutId cut : kInjectable) {
    for (const FaultModel fm : kCampaignModels) {
      const std::size_t i = slice_index(cut, fm);
      const std::vector<std::size_t> take =
          stratified_takes(measured[i], kSliceFaults);
      note += std::string(" ") + cut_name(cut) + "/" +
              fault::fault_model_name(fm);
      CampaignSlice s{cut, fm, {}, {}};
      for (std::size_t k = 0; k < core::kRunOutcomeCount; ++k) {
        note += k ? '/' : ' ';
        note += std::to_string(take[k]);
        std::vector<fault::Fault>& pool = strata[i][k];
        if (pool.size() < take[k]) {
          throw std::runtime_error(std::string(kStrataFile) +
                                   ": too few faults in a stratum");
        }
        // A hang runs the whole watchdog budget, and its wall time depends
        // on the loop it is caught in (0.05 to 0.5 s here), so hangs would
        // make the pass's critical path differ by seed: every seed takes the
        // same, first-listed hangs.
        if (k != static_cast<std::size_t>(core::RunOutcome::kDetectedHang)) {
          std::shuffle(pool.begin(), pool.end(), rng);
        }
        s.faults.insert(s.faults.end(), pool.begin(), pool.begin() + take[k]);
        s.expected.insert(s.expected.end(), take[k],
                          static_cast<core::RunOutcome>(k));
      }
      slices.push_back(std::move(s));
    }
  }
  return slices;
}

using CampaignOutcomes = std::vector<std::vector<core::InjectionOutcome>>;

CampaignOutcomes campaign_pass(core::GradingSession& session,
                               const core::TestProgram& program,
                               const std::vector<CampaignSlice>& slices,
                               Tracer& tracer, std::vector<double>* slice_s) {
  CampaignOutcomes out;
  Tracer::Scope root(tracer, "core.campaign");
  for (const CampaignSlice& s : slices) {
    const double t0 = now_s();
    Tracer::Scope span(tracer, std::string("core.inject.") + cut_name(s.cut) +
                                   "." + fault::fault_model_name(s.model));
    out.push_back(
        core::run_injection_campaign(session, program, s.cut, s.faults));
    if (slice_s) slice_s->push_back(now_s() - t0);
  }
  return out;
}

std::string check_campaign(const CampaignOutcomes& want,
                           const CampaignOutcomes& got) {
  if (want.size() != got.size()) return "slice count differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::string e = check_same_outcomes(want[i], got[i]);
    if (!e.empty()) return "slice " + std::to_string(i) + ": " + e;
  }
  return "";
}

void run_campaign_workload(const RunConfig& cfg, Result& result, Metrics& m) {
  const unsigned threads = all_cores();
  Tracer tracer(cfg.trace);
  SetupTimes setup;
  Prepared p = prepare({}, threads, tracer, setup);
  report_model_stats(p, nullptr, result);
  Check check{result};

  core::GradingSession& all = *p.session;
  core::GradingSession one(*p.model, session_options(1));
  std::string sample_note;
  const std::vector<CampaignSlice> slices =
      campaign_sample(*p.model, cfg.seed, sample_note);
  result.notes.push_back(sample_note);
  std::size_t sample = 0;
  for (const CampaignSlice& s : slices) sample += s.faults.size();

  // Warm both sessions' artifacts (compiled netlists, universes, the decoded
  // image and the fault-free run) outside the timed loop.
  for (core::GradingSession* s : {&all, &one}) {
    for (const CampaignSlice& slice : slices) {
      s->compiled(slice.cut);
      s->universe(slice.cut, slice.model);
    }
    s->good_run(p.program);
  }
  Tracer quiet(false);
  const CampaignOutcomes reference =
      campaign_pass(all, p.program, slices, quiet, nullptr);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    std::string error;
    for (std::size_t j = 0; j < slices[i].faults.size(); ++j) {
      if (reference[i][j].outcome != slices[i].expected[j]) {
        error = std::string(cut_name(slices[i].cut)) + " fault " +
                std::to_string(j) + " classified " +
                core::run_outcome_name(reference[i][j].outcome) +
                ", stratum " + core::run_outcome_name(slices[i].expected[j]);
      }
    }
    check(error, "campaign outcome classes");
  }

  const double start = now_s();
  if (!cfg.trace) {
    std::vector<double> t_all, t_one;
    double last = 0;
    for (int i = 0; another_iteration(i, start, last, cfg.seconds); ++i) {
      const double it0 = now_s();
      double t0 = now_s();
      const CampaignOutcomes a =
          campaign_pass(all, p.program, slices, quiet, nullptr);
      t_all.push_back(now_s() - t0);
      check(check_campaign(reference, a), "campaign at all cores");
      t0 = now_s();
      const CampaignOutcomes b =
          campaign_pass(one, p.program, slices, quiet, nullptr);
      t_one.push_back(now_s() - t0);
      check(check_campaign(reference, b), "campaign at 1 thread");
      prepare({}, threads, tracer, setup);
      last = now_s() - it0;
    }
    m.set("op_s", median(t_all));
    m.set("op_j1_s", median(t_one));
    result.notes.push_back(samples_note("op_s", t_all));
    result.notes.push_back(samples_note("op_j1_s", t_one));
    result.notes.push_back(std::to_string(sample) + " faults per pass");
  } else {
    std::vector<double> overhead, coverage, faults_per_s, mips;
    std::map<std::string, std::vector<double>> run_s;
    double last = 0;
    do {
      const double it0 = now_s();
      tracer.next_op();
      std::vector<double> slice_s;
      double t0 = now_s();
      const CampaignOutcomes got =
          campaign_pass(one, p.program, slices, tracer, &slice_s);
      const double wall = now_s() - t0;
      check(check_campaign(reference, got), "campaign at 1 thread (traced)");
      t0 = now_s();
      campaign_pass(one, p.program, slices, quiet, nullptr);
      const double untraced = now_s() - t0;
      overhead.push_back(wall - untraced);
      coverage.push_back(wall / untraced);
      double instructions = 0;
      for (std::size_t i = 0; i < slices.size(); ++i) {
        run_s[std::string("core.inject.run_s.") + cut_name(slices[i].cut) +
              "." + fault::fault_model_name(slices[i].model)]
            .push_back(slice_s[i]);
        for (const core::InjectionOutcome& o : got[i]) {
          instructions += static_cast<double>(o.faulty_stats.instructions);
        }
      }
      faults_per_s.push_back(static_cast<double>(sample) / wall);
      mips.push_back(instructions / wall / 1e6);
      prepare({}, threads, tracer, setup);
      last = now_s() - it0;
    } while (now_s() - start + last < cfg.seconds);
    for (const auto& [name, v] : run_s) m.set(name, median(v));
    core::OutcomeHistogram h;
    double instructions = 0;
    for (const auto& slice : reference) {
      for (const core::InjectionOutcome& o : slice) {
        h.add(o.outcome);
        instructions += static_cast<double>(o.faulty_stats.instructions);
      }
    }
    for (std::size_t k = 0; k < core::kRunOutcomeCount; ++k) {
      m.set(std::string("core.inject.outcome.") +
                core::run_outcome_name(static_cast<core::RunOutcome>(k)),
            static_cast<double>(h.counts[k]));
    }
    m.set("core.inject.faulty_instructions", instructions);
    m.set("core.inject.mips", median(mips));
    m.set("core.inject.faults_per_s", median(faults_per_s));
    m.set("bench.trace_overhead_s", median(overhead));
    m.set("bench.span_coverage", median(coverage));
    tracer.write(".bench_build/trace_" + cfg.workload + ".jsonl");
  }

  report_setup(setup, m, cfg.trace);

  // The session-less form on one seeded fault per slice must agree.
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const std::size_t j = mix64(cfg.seed + i) % slices[i].faults.size();
    const std::vector<core::InjectionOutcome> solo =
        core::run_injection_campaign(*p.model, p.program, slices[i].cut,
                                     {slices[i].faults[j]});
    check(check_same_outcomes({reference[i][j]}, solo),
          "session-less campaign subsample");
  }
}

// ---- serve ------------------------------------------------------------------

struct ServePhase {
  std::vector<RequestTimes> times;     // the timed stream
  std::vector<std::size_t> kinds;      // warm-up + stream, kServeRequests
  std::vector<std::string> responses;  // one per kind, terminator included
  std::string final_stats;
  double wall = 0;
};

/// The first `n` request kinds of the seeded stream of shuffled blocks.
std::vector<std::size_t> serve_kinds(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(mix64(seed));
  std::vector<std::size_t> kinds;
  for (std::size_t block = 0; kinds.size() < n; ++block) {
    std::vector<std::size_t> b;
    for (std::size_t k = 0; k < std::size(kBlockCounts); ++k) {
      b.insert(b.end(), kBlockCounts[k], k);
    }
    b.push_back(kFirstCampaign + block % 3);
    std::shuffle(b.begin(), b.end(), rng);
    kinds.insert(kinds.end(), b.begin(), b.end());
  }
  kinds.resize(n);
  return kinds;
}

/// One in-process daemon (session pool at `threads`, store in a fresh
/// directory) sent `requests` requests through a pipe: a seeded Poisson
/// stream at `rate` per second, or a closed loop (each request sent when the
/// previous one is answered) for `rate` 0. Responses are read and
/// timestamped on another thread. A closing `stats` (untimed) reports the
/// store counters.
ServePhase serve_phase(const Prepared& p, unsigned threads, double rate,
                       std::size_t requests, std::uint64_t seed) {
  ServePhase ph;
  ph.kinds = serve_kinds(seed, requests);

  std::filesystem::create_directories(kTempRoot);
  std::string store_dir = std::string(kTempRoot) + "/serve-XXXXXX";
  if (!mkdtemp(store_dir.data())) {
    throw std::runtime_error("mkdtemp failed: " + std::string(strerror(errno)));
  }
  auto store = std::make_shared<sbst::store::ArtifactStore>(store_dir);

  int req[2], resp[2];
  if (pipe(req) != 0 || pipe(resp) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::FILE* in = fdopen(req[0], "r");
  std::FILE* out = fdopen(resp[1], "w");
  MemOut err;
  serve::ServeOptions options;
  options.sim.num_threads = threads;
  options.max_faults = kServeMaxFaults;

  int status = -1;
  std::string daemon_error;
  bool daemon_running = true;  // guarded by mu
  std::mutex mu;
  std::condition_variable answered;
  std::thread daemon([&] {
    try {
      status = serve::run_serve(*p.model, options, store, in, out, err.file());
    } catch (const std::exception& e) {
      daemon_error = e.what();
    }
    std::fclose(out);  // EOF for the reader
    std::lock_guard<std::mutex> lock(mu);
    daemon_running = false;
    answered.notify_all();
  });
  std::vector<double> done;
  std::vector<std::string> bodies;
  std::thread reader([&] {
    std::FILE* r = fdopen(resp[0], "r");
    char* line = nullptr;
    std::size_t cap = 0;
    std::string body;
    while (getline(&line, &cap, r) > 0) {
      body += line;
      if (std::strncmp(line, "ok ", 3) == 0 ||
          std::strncmp(line, "err ", 4) == 0) {
        const double t = now_s();
        std::lock_guard<std::mutex> lock(mu);
        done.push_back(t);
        bodies.push_back(std::move(body));
        body.clear();
        answered.notify_all();
      }
    }
    std::free(line);
    std::fclose(r);
    std::lock_guard<std::mutex> lock(mu);
    answered.notify_all();
  });

  auto send = [&](const std::string& text) {
    const std::string line = text + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = write(req[1], line.data() + off, line.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  };
  auto wait_answers = [&](std::size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    answered.wait(lock,
                  [&] { return bodies.size() >= count || !daemon_running; });
  };
  // Untimed warm-up: the first evaluate and conform run build the session's
  // artifacts (and fill the store); the timed stream then sees a warm daemon.
  const std::size_t warm = std::size(kServeWarmup);
  for (const std::size_t k : kServeWarmup) send(kServeRequests[k].line);
  wait_answers(warm);
  const double t0 = now_s();
  if (rate > 0) {
    std::vector<double> due;
    for (const double o : poisson_arrivals(seed, rate, requests)) {
      due.push_back(t0 + o);
    }
    ph.times = pace_open_loop(
        due, now_s,
        [](double until) {
          const double d = until - now_s();
          if (d > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(d));
          }
        },
        [&](std::size_t i) { send(kServeRequests[ph.kinds[i]].line); });
  } else {
    for (std::size_t i = 0; i < requests; ++i) {
      RequestTimes t;
      t.due = t.sent = now_s();
      send(kServeRequests[ph.kinds[i]].line);
      wait_answers(warm + i + 1);
      ph.times.push_back(t);
    }
  }
  send("stats");
  send("quit");
  close(req[1]);
  daemon.join();
  reader.join();
  std::fclose(in);
  std::filesystem::remove_all(store_dir);

  if (!daemon_error.empty()) throw std::runtime_error(daemon_error);
  const std::size_t n = ph.times.size();
  if (status != 0 || bodies.size() != warm + n + 2) {
    throw std::runtime_error("serve daemon ended with status " +
                             std::to_string(status) + " after " +
                             std::to_string(bodies.size()) + " responses");
  }
  for (std::size_t i = 0; i < n; ++i) ph.times[i].done = done[warm + i];
  ph.wall = ph.times.back().done - t0;
  ph.kinds.insert(ph.kinds.begin(), std::begin(kServeWarmup),
                  std::end(kServeWarmup));
  ph.responses.assign(bodies.begin(), bodies.begin() + warm + n);
  ph.final_stats = bodies[warm + n];
  return ph;
}

/// The response a one-shot run of the request's renderer prints, on a
/// fresh session (stats depend on daemon state and are checked by shape).
std::string one_shot(const Prepared& p, const std::string& line,
                     unsigned threads) {
  if (line == "ping") return "ok ping\n";
  core::GradingSession session(*p.model, session_options(threads));
  fault::SimOptions sim;
  sim.num_threads = threads;
  MemOut out, err;
  if (line == "evaluate") {
    serve::render_evaluate(session, sim, false, out.file(), err.file());
    return out.str() + "ok evaluate\n";
  }
  if (line.rfind("campaign ", 0) == 0) {
    CutId cut;
    if (!serve::parse_cut_name(line.substr(9), cut)) {
      throw std::logic_error("bad campaign request " + line);
    }
    serve::render_campaign(session, sim, kServeMaxFaults, {cut}, out.file(),
                           err.file());
    return out.str() + "ok campaign\n";
  }
  if (line == "conform run tests/corpus/v1") {
    const int status =
        serve::render_conform_run(session, kCorpusDir, out.file(), err.file());
    return out.str() + (status == 0 ? "ok conform\n" : "err conform\n");
  }
  throw std::logic_error("no one-shot renderer for " + line);
}

bool parse_store(const std::string& stats, double& hits, double& misses,
                 double& writes) {
  const std::size_t at = stats.find("store: loads ");
  if (at == std::string::npos) return false;
  unsigned long long loads = 0, h = 0, mi = 0, inv = 0, w = 0;
  if (std::sscanf(stats.c_str() + at,
                  "store: loads %llu hits %llu misses %llu invalid %llu "
                  "writes %llu",
                  &loads, &h, &mi, &inv, &w) != 5) {
    return false;
  }
  hits = static_cast<double>(h);
  misses = static_cast<double>(mi);
  writes = static_cast<double>(w);
  return true;
}

void run_serve_workload(const RunConfig& cfg, Result& result, Metrics& m) {
  const unsigned threads = all_cores();
  Tracer tracer(cfg.trace);
  SetupTimes setup;
  Prepared p = prepare({}, threads, tracer, setup);
  p.session.reset();  // the daemon owns its session
  report_model_stats(p, nullptr, result);
  Check check{result};

  // Whole blocks only, as many as fit in --seconds of arrivals (at least
  // one), so every seed sends exactly the same requests.
  const std::size_t blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(kServeRateAll * cfg.seconds / kServeBlock));
  const ServePhase a = serve_phase(p, threads, kServeRateAll,
                                   kServeBlock * blocks, cfg.seed);
  prepare({}, threads, tracer, setup);
  // A one-thread pool cannot take the all-core arrival rate, so the
  // one-thread daemon gets its blocks in a closed loop, where each request's
  // latency is its service time at -j 1.
  const ServePhase b = serve_phase(p, 1, 0, kServeClosedBlocks * kServeBlock,
                                   mix64(cfg.seed) ^ 0x51);
  prepare({}, threads, tracer, setup);
  report_setup(setup, m, cfg.trace);

  // Every response must equal the one-shot renderer's bytes.
  std::map<std::string, std::string> expected;
  for (const ServePhase* ph : {&a, &b}) {
    for (std::size_t i = 0; i < ph->responses.size(); ++i) {
      const std::string line = kServeRequests[ph->kinds[i]].line;
      if (line == "stats") {
        const std::string& r = ph->responses[i];
        check(r.size() >= 9 && r.compare(r.size() - 9, 9, "ok stats\n") == 0
                  ? ""
                  : "stats response does not end in 'ok stats'",
              "serve stats");
        continue;
      }
      if (!expected.count(line)) expected[line] = one_shot(p, line, threads);
      check(check_same_bytes(expected[line], ph->responses[i]),
            "serve " + line);
    }
  }
  double hits = 0, misses = 0, writes = 0;
  check(parse_store(a.final_stats, hits, misses, writes)
            ? ""
            : "no store counters in stats",
        "serve stats store line");

  const OpenLoopStats sa = account_open_loop(a.times);
  const OpenLoopStats sb = account_open_loop(b.times);
  const TailPercentile tail = tail_percentile(sa.latency);
  result.notes.push_back(
      "serve requests: " + std::to_string(a.times.size()) + " at " +
      std::to_string(threads) + " threads (busy " +
      std::to_string(sa.busy / a.wall) + "), " +
      std::to_string(b.times.size()) + " at 1 thread (busy " +
      std::to_string(sb.busy / b.wall) + "); latency p" +
      std::to_string(tail.percent) + " " + std::to_string(tail.value) +
      " s with " + std::to_string(tail.beyond) + " samples beyond");
  if (!cfg.trace) {
    m.set("op_s", median(sa.latency));
    // The mean -j 1 service time of the work requests (evaluate, campaign,
    // conform): evaluate and campaign carry most of it.
    double work_s = 0;
    std::size_t work_n = 0;
    for (std::size_t i = 0; i < b.times.size(); ++i) {
      const char* verb =
          kServeRequests[b.kinds[std::size(kServeWarmup) + i]].verb;
      if (std::strcmp(verb, "ping") != 0 && std::strcmp(verb, "stats") != 0) {
        work_s += sb.service[i];
        ++work_n;
      }
    }
    m.set("op_j1_s", work_s / static_cast<double>(work_n));
    return;
  }
  const double r0 = now_s();
  std::map<std::string, std::vector<double>> service;
  std::set<std::string> seen;
  std::size_t work = 0, repeats = 0;
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    const ServeRequest& v =
        kServeRequests[a.kinds[std::size(kServeWarmup) + i]];
    service[v.verb].push_back(sa.service[i]);
    if (std::strcmp(v.verb, "ping") != 0 &&
        std::strcmp(v.verb, "stats") != 0) {
      ++work;
      if (!seen.insert(v.line).second) ++repeats;
    }
    tracer.next_op();
    const RequestTimes& t = a.times[i];
    const int span = tracer.record(std::string("serve.request.") + v.verb,
                                   t.due, t.done, -1);
    tracer.record("serve.wait", t.due, t.due + sa.wait[i], span);
    tracer.record("serve.service", t.done - sa.service[i], t.done, span);
  }
  for (const auto& [verb, v] : service) {
    m.set("serve.service_s." + verb, median(v));
  }
  m.set("serve.wait_p90_s", quantile(sa.wait, 0.9));
  m.set("serve.latency_p90_s", quantile(sa.latency, 0.9));
  m.set("serve.busy_frac", sa.busy / a.wall);
  m.set("serve.repeat_frac",
        work == 0 ? 0
                  : static_cast<double>(repeats) / static_cast<double>(work));
  m.set("serve.gen_late_max_s", sa.gen_late_max);
  m.set("store.hits", hits);
  m.set("store.misses", misses);
  m.set("store.writes", writes);
  // Request spans are recorded after the phase from the timestamps the
  // untraced run takes anyway; their cost is the whole tracing overhead.
  m.set("bench.trace_overhead_s", (now_s() - r0) / static_cast<double>(
                                                       a.times.size() + 1));
  // Share of the phase with a request in the daemon (due to done).
  double covered = 0, reach = -1e300;
  for (const RequestTimes& t : a.times) {
    const double from = std::max(t.due, reach);
    if (t.done > from) covered += t.done - from;
    reach = std::max(reach, t.done);
  }
  m.set("bench.span_coverage", covered / a.wall);
  tracer.write(".bench_build/trace_" + cfg.workload + ".jsonl");
}

}  // namespace

void write_campaign_strata(const std::string& path) {
  const core::ProcessorModel model;
  core::TestProgramBuilder builder;
  builder.add_default_routines(model);
  const core::TestProgram program = builder.build();
  core::GradingSession session(model, session_options(all_cores()));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "# Campaign strata: collapsed faults of the default program "
               "grouped by the\n# outcome class they had when the benchmark "
               "was defined (every 3rd ALU and\n# shifter fault, every 25th "
               "multiplier fault, at most %zu per class).\n"
               "# The `count` lines hold every class's uncapped count among "
               "those faults;\n# a pass draws from each class in proportion "
               "to them.\n"
               "# Regenerate: .bench_build/perfbench/perfbench "
               "--write-strata %s\n# cut model class fault\n"
               "# count cut model class faults\n",
               kStrataCandidates, kStrataFile);
  for (const CutId cut : kInjectable) {
    for (const FaultModel fm : kCampaignModels) {
      const std::vector<fault::Fault>& all =
          session.universe(cut, fm).collapsed();
      const std::size_t stride = cut == CutId::kMultiplier ? 25 : 3;
      std::vector<fault::Fault> candidates;
      for (std::size_t i = 0; i < all.size(); i += stride) {
        candidates.push_back(all[i]);
      }
      const std::vector<core::InjectionOutcome> out =
          core::run_injection_campaign(session, program, cut, candidates);
      std::vector<std::size_t> seen(core::kRunOutcomeCount);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const auto k = static_cast<std::size_t>(out[i].outcome);
        if (seen[k]++ >= kStrataCandidates) continue;
        std::fprintf(f, "%s %s %s %s\n", cut_name(cut),
                     fault::fault_model_name(fm),
                     core::run_outcome_name(out[i].outcome),
                     fault::fault_name(model.component(cut).netlist,
                                       candidates[i])
                         .c_str());
      }
      for (std::size_t k = 0; k < core::kRunOutcomeCount; ++k) {
        std::fprintf(f, "count %s %s %s %zu\n", cut_name(cut),
                     fault::fault_model_name(fm),
                     core::run_outcome_name(static_cast<core::RunOutcome>(k)),
                     seen[k]);
      }
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1", "fault_models",
                                                 "campaign", "serve"};
  return names;
}

Result run_workload(const RunConfig& cfg) {
  Result result;
  Metrics m;
  if (cfg.trace) {
    declare_per_layer(m);
  } else {
    declare_end_to_end(m);
  }
  if (cfg.workload == "table1") {
    run_evaluate_workload(cfg, {FaultModel::kStuckAt}, result, m);
  } else if (cfg.workload == "fault_models") {
    run_evaluate_workload(
        cfg,
        std::vector<FaultModel>(std::begin(kAllModels), std::end(kAllModels)),
        result, m);
  } else if (cfg.workload == "campaign") {
    run_campaign_workload(cfg, result, m);
  } else if (cfg.workload == "serve") {
    run_serve_workload(cfg, result, m);
  } else {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  if (!cfg.trace) m.set("peak_rss_mb", peak_rss_mb());
  result.metrics = m.take();
  return result;
}

}  // namespace perfbench
