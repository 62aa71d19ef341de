// Parallel fault-simulation engines: pattern-parallel PPSFP blocks, lane-
// packed sequential batches, and a fault-partitioned thread pool.
//
// Both grade the same contract as sim.hpp and are cross-checked against the
// test-only oracles by the differential tests in
// tests/test_fault_parallel.cpp:
//
//  * simulate_comb_parallel: combinational grading. Each worker runs the
//    block-at-a-time PPSFP kernel over its fault slice (256 patterns per
//    eval()) against fault-free responses precomputed once.
//  * simulate_seq_parallel: sequential grading; workers run the
//    parallel-fault batches (the good machine in lane 0, 255 faulty
//    machines beside it) over disjoint fault slices.
//
// The netlist is compiled once (engine.hpp) and every worker runs its own
// evaluator over the shared immutable program. SimOptions can lend
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
// netlist, and the stimulus — never on which lane, batch, or thread graded
// it — and workers write disjoint slices of one shared flag vector.
// Results are therefore bitwise-identical for every thread count,
// including 1.
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
  /// Externally owned worker pool; when set, grading runs on it instead of
  /// constructing a per-call pool. Must not currently be executing a
  /// run_static batch (the pool is not reentrant).
  ThreadPool* pool = nullptr;
  /// Pre-compiled netlist; must be compiled from the netlist being graded.
  /// nullptr = compile per call.
  const netlist::CompiledNetlist* compiled = nullptr;
  /// Precomputed fanin-cone prefilter matching the observe set, indexed per
  /// gate. nullptr = compute per call.
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
  std::deque<detail::GoodResponses> good_storage_;
  // Fault-free records for sequential gradings, one per (compiled netlist,
  // stimulus) pair.
  struct SeqGood {
    const netlist::CompiledNetlist* compiled;
    const SeqStimulus* stimulus;
    detail::SeqGoodRecord record;
  };
  std::deque<SeqGood> seq_good_storage_;
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
