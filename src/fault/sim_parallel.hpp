// Parallel fault-simulation engines: pattern-parallel PPSFP blocks, lane-
// packed sequential batches, and a fault-partitioned thread pool.
//
// Both engines grade the same contract as sim.hpp and are cross-checked
// against those oracles by the differential tests in
// tests/test_fault_parallel.cpp:
//
//  * simulate_comb_parallel: combinational grading. Each worker runs the
//    block-at-a-time PPSFP of simulate_comb over its fault slice (64 * lanes
//    patterns per eval()) against fault-free responses precomputed once.
//  * simulate_seq_parallel: sequential grading; workers run simulate_seq's
//    parallel-fault batches (the good machine in lane 0, 64 * lanes - 1
//    faulty machines beside it) over disjoint fault slices.
//
// Both compose with the evaluation engines in engine.hpp: with a compiled
// engine the netlist is compiled once and every worker runs its own
// CompiledEvaluator over the shared immutable program. SimOptions can lend
// in externally owned artifacts — a persistent ThreadPool, a pre-compiled
// netlist, a reach prefilter — so a long-lived caller (core::GradingSession)
// pays for pool startup, compilation, and cone marking once instead of per
// call.
//
// GradingPlan decomposes gradings into chunk tasks without running them, so
// a scheduler can interleave chunks from MANY gradings (different CUTs) plus
// arbitrary extra tasks on one pool — cross-CUT parallelism with the
// intra-CUT fault partitioning flattened into the same work queue, which is
// what keeps the pool busy without ever oversubscribing.
//
// Determinism: a fault's detection flag depends only on that fault, the
// netlist, and the stimulus — never on which lane, batch, thread, or engine
// graded it — and workers write disjoint slices of one shared flag vector.
// Results are therefore bitwise-identical for every thread count, including
// 1, and for every engine.
#pragma once

#include <deque>
#include <functional>

#include "fault/engine.hpp"
#include "fault/sim.hpp"
#include "fault/sim_detail.hpp"
#include "fault/thread_pool.hpp"

namespace sbst::fault {

struct SimOptions {
  /// Worker threads (including the calling thread). 0 = auto: SBST_THREADS
  /// env var if set, else std::thread::hardware_concurrency(). Ignored when
  /// `pool` is set.
  unsigned num_threads = 0;
  /// Evaluation engine (detection flags are identical for every choice).
  /// Defaults to the event-driven compiled engine, overridable via the
  /// SBST_ENGINE environment variable.
  Engine engine = default_engine();
  /// Lane-block width in 64-bit words for the compiled engines: 4 packs 255
  /// faults + the good machine per sequential eval() and 256 patterns per
  /// combinational one. 0 = default_lanes() (SBST_LANES env var, else 4).
  /// Detection flags are identical for every width; the reference engine
  /// ignores it.
  unsigned lanes = 0;
  /// Netlist-compile optimization passes (const prop, inverter fusion, dead
  /// sweep) when no pre-compiled netlist is lent in: 1 = on, 0 = off, -1 =
  /// default_netlist_opt() (SBST_NETLIST_OPT env var, else on). Ignored when
  /// `compiled` is set.
  int netlist_opt = -1;
  /// Externally owned worker pool; when set, grading runs on it instead of
  /// constructing a per-call pool. Must not currently be executing a
  /// run_static batch (the pool is not reentrant).
  ThreadPool* pool = nullptr;
  /// Pre-compiled netlist for the compiled engines; must be compiled from
  /// the netlist being graded. nullptr = compile per call.
  const netlist::CompiledNetlist* compiled = nullptr;
  /// Precomputed fanin-cone prefilter matching the observe set, indexed per
  /// gate. nullptr = compute per call (compiled engines only).
  const std::uint8_t* reach = nullptr;
  /// Persistent artifact store probed (and written back) when no
  /// pre-compiled netlist is lent in; detection flags are identical with it
  /// set or not. nullptr = compile from scratch per call.
  store::ArtifactStore* store = nullptr;
};

/// Deferred fault-grading work: each add_*() call initializes its
/// CoverageResult (total + zeroed flags) and appends chunk tasks that grade
/// disjoint fault slices into it. Tasks from different gradings are
/// independent (disjoint flag slices, private evaluators over shared
/// immutable contexts) and may execute in any order or concurrently.
///
/// Lifetime: every EngineContext, fault list, stimulus, and CoverageResult
/// passed in must outlive run(). Callers recount() each CoverageResult after
/// run() — the flags are the single source of truth.
class GradingPlan {
 public:
  /// Combinational grading of `faults` against `patterns` (block PPSFP).
  /// Precomputes the fault-free responses eagerly (one pass, on the calling
  /// thread).
  void add_comb(const EngineContext& ctx, const std::vector<Fault>& faults,
                const PatternSet& patterns, CoverageResult& out);

  /// Sequential grading of `faults` against the clocked `stimulus`.
  void add_seq(const EngineContext& ctx, const std::vector<Fault>& faults,
               const SeqStimulus& stimulus, CoverageResult& out);

  /// Arbitrary extra task scheduled alongside the grading chunks (e.g. a
  /// standalone routine execution). Must only touch state disjoint from
  /// every other task's.
  void add_task(std::function<void()> task) {
    tasks_.push_back(std::move(task));
  }

  std::size_t size() const { return tasks_.size(); }

  /// Executes every queued task on `pool` (inline for a pool of size 1) and
  /// clears the plan. Blocks until all tasks are done. A throwing task does
  /// not stop the batch; the lowest-index captured exception is rethrown
  /// after every task has run.
  void run(ThreadPool& pool);

  /// Like run() but returns captured task failures (indexed in add order)
  /// instead of rethrowing, so campaign layers can degrade individual
  /// faults to infra_error while the rest of the batch stands.
  std::vector<ThreadPool::TaskFailure> run_capture(ThreadPool& pool);

 private:
  std::vector<std::function<void()>> tasks_;
  // Fault-free responses for combinational gradings; deque keeps the
  // references captured by queued tasks stable.
  std::deque<std::vector<std::vector<std::uint64_t>>> good_storage_;
  // Reference-evaluator baselines for transition gradings (same stable-
  // reference contract as good_storage_).
  std::deque<detail::TransitionBaseline> transition_storage_;
};

CoverageResult simulate_comb_parallel(const netlist::Netlist& nl,
                                      const std::vector<Fault>& faults,
                                      const PatternSet& patterns,
                                      const ObserveSet& observe = {},
                                      const SimOptions& options = {});

CoverageResult simulate_seq_parallel(const netlist::Netlist& nl,
                                     const std::vector<Fault>& faults,
                                     const SeqStimulus& stimulus,
                                     const ObserveSet& observe = {},
                                     const SimOptions& options = {});

}  // namespace sbst::fault
