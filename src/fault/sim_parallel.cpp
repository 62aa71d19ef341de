#include "fault/sim_parallel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bits.hpp"
#include "fault/sim_detail.hpp"
#include "netlist/compiled.hpp"

namespace sbst::fault {

namespace {

// Faults per fault-partitioned task: a multiple of the lane-packed batch
// size (255 faults beside the good machine); small enough that static
// striding load-balances fault dropping, large enough to amortize per-task
// evaluator construction. A sequential chunk is larger: its batches share
// one pool of lanes, so the more batches it holds, the fewer batch-cycles
// its faults take once gating frees their lanes. Neither depends on the
// thread count, so chunk boundaries — and therefore flags — stay
// deterministic.
constexpr std::size_t kChunkFaults = (GradeEvaluator::kLanes - 1) * 3;
constexpr std::size_t kSeqChunkFaults = (GradeEvaluator::kLanes - 1) * 12;

/// Runs a plan on the external pool if one was lent in, else on a per-call
/// pool sized by the usual num_threads resolution.
void run_plan(GradingPlan& plan, const SimOptions& options) {
  if (options.pool) {
    plan.run(*options.pool);
  } else {
    ThreadPool pool(resolve_thread_count(options.num_threads));
    plan.run(pool);
  }
}

}  // namespace

void GradingPlan::add_comb(const EngineContext& ctx,
                           const std::vector<Fault>& faults,
                           const PatternSet& patterns, CoverageResult& out) {
  detail::require_combinational(ctx.netlist(), "GradingPlan::add_comb");
  out.total = faults.size();
  out.detected_flags.assign(faults.size(), 0);
  if (faults.empty()) return;
  std::uint8_t* flags = out.detected_flags.data();

  detail::list_model(faults);  // throws on a mixed-model list

  // Fault-free responses, computed once here and shared read-only by every
  // chunk task of this grading.
  auto& good = good_storage_.emplace_back();
  ctx.grade_with_evaluator([&](auto& ev) {
    good = detail::comb_good_responses(ev, patterns, ctx.observe());
  });
  for (std::size_t begin = 0; begin < faults.size(); begin += kChunkFaults) {
    const std::size_t end = std::min(begin + kChunkFaults, faults.size());
    tasks_.push_back([&ctx, &faults, &patterns, &good, flags, begin, end] {
      ctx.grade_with_evaluator([&](auto& ev) {
        detail::grade_comb_blocks(ev, faults, begin, end, patterns,
                                  ctx.observe(), good, ctx.reach(), flags);
      });
    });
  }
}

void GradingPlan::add_seq(const EngineContext& ctx,
                          const std::vector<Fault>& faults,
                          const SeqStimulus& stimulus, CoverageResult& out) {
  out.total = faults.size();
  out.detected_flags.assign(faults.size(), 0);
  if (faults.empty()) return;
  std::uint8_t* flags = out.detected_flags.data();

  if (detail::list_model(faults) == FaultModel::kTransition) {
    throw std::invalid_argument(
        "GradingPlan::add_seq: transition faults are combinational-only "
        "(launch/capture pattern pairs); use add_comb");
  }
  // The fault-free record depends only on the netlist and the stimulus, so
  // every fault model graded on them in this plan shares one.
  const detail::SeqGoodRecord* good = nullptr;
  for (const SeqGood& g : seq_good_storage_) {
    if (g.compiled == ctx.compiled() && g.stimulus == &stimulus) {
      good = &g.record;
    }
  }
  if (!good) {
    netlist::CompiledEvaluator ev(*ctx.compiled());
    good = &seq_good_storage_
                .emplace_back(ctx.compiled(), &stimulus,
                              detail::seq_good_record(ev, stimulus))
                .record;
  }
  for (std::size_t begin = 0; begin < faults.size();
       begin += kSeqChunkFaults) {
    const std::size_t end = std::min(begin + kSeqChunkFaults, faults.size());
    tasks_.push_back([&ctx, &faults, &stimulus, good, flags, begin, end] {
      ctx.grade_with_evaluator([&](auto& ev) {
        detail::grade_seq_gated(ev, faults, begin, end, stimulus, *good,
                                ctx.observe(), ctx.reach(), flags);
      });
    });
  }
}

void GradingPlan::run(ThreadPool& pool) {
  std::vector<ThreadPool::TaskFailure> failures = run_capture(pool);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<ThreadPool::TaskFailure> GradingPlan::run_capture(
    ThreadPool& pool) {
  std::vector<ThreadPool::TaskFailure> failures;
  if (!tasks_.empty()) {
    const std::function<void(std::size_t)> task = [this](std::size_t t) {
      tasks_[t]();
    };
    failures = pool.run_static_capture(tasks_.size(), task);
  }
  tasks_.clear();
  good_storage_.clear();
  seq_good_storage_.clear();
  return failures;
}

CoverageResult simulate_comb_parallel(const netlist::Netlist& nl,
                                      const std::vector<Fault>& faults,
                                      const PatternSet& patterns,
                                      const ObserveSet& observe,
                                      const SimOptions& options) {
  detail::require_combinational(nl, "simulate_comb_parallel");
  const EngineContext ctx(nl, observe, options.compiled, options.reach,
                          options.store);
  CoverageResult res;
  GradingPlan plan;
  plan.add_comb(ctx, faults, patterns, res);
  run_plan(plan, options);
  res.recount();
  return res;
}

CoverageResult simulate_seq_parallel(const netlist::Netlist& nl,
                                     const std::vector<Fault>& faults,
                                     const SeqStimulus& stimulus,
                                     const ObserveSet& observe,
                                     const SimOptions& options) {
  const EngineContext ctx(nl, observe, options.compiled, options.reach,
                          options.store);
  CoverageResult res;
  GradingPlan plan;
  plan.add_seq(ctx, faults, stimulus, res);
  run_plan(plan, options);
  res.recount();
  return res;
}

}  // namespace sbst::fault
