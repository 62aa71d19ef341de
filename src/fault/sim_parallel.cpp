#include "fault/sim_parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "common/bits.hpp"
#include "fault/sim_detail.hpp"
#include "netlist/compiled.hpp"

namespace sbst::fault {

namespace {

// Faults per fault-partitioned task: a multiple of the context's lane-packed
// batch size (64 * lanes - 1), so batches stay full; small enough that
// static striding load-balances fault dropping, large enough to amortize
// per-task evaluator construction. Depends only on the context (never the
// thread count), so chunk boundaries — and therefore flags — stay
// deterministic.
std::size_t chunk_faults(const EngineContext& ctx) {
  const std::size_t batch = 64 * ctx.lanes() - 1;
  return batch * std::max<std::size_t>(1, 1008 / batch);
}

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

  const FaultModel model = detail::list_model(faults);
  const std::size_t chunk = chunk_faults(ctx);

  if (model == FaultModel::kTransition) {
    // The launch/capture pairing needs good LINE values, which only the
    // reference evaluator can provide post-fusion — precomputed once here,
    // shared read-only by every chunk task.
    auto& baseline = transition_storage_.emplace_back(
        detail::make_transition_baseline(ctx.netlist(), patterns,
                                         ctx.observe()));
    for (std::size_t begin = 0; begin < faults.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, faults.size());
      tasks_.push_back([&ctx, &faults, &patterns, &baseline, flags, begin,
                        end] {
        ctx.grade_with_evaluator([&](auto& ev) {
          detail::grade_transition_blocks(ev, faults, begin, end, patterns,
                                          ctx.observe(), baseline,
                                          ctx.reach(), flags);
        });
      });
    }
    return;
  }

  // Fault-free responses, computed once here and shared read-only by every
  // chunk task of this grading.
  auto& good_out = good_storage_.emplace_back(patterns.block_count());
  ctx.grade_with_evaluator([&](auto& good) {
    constexpr unsigned W = std::decay_t<decltype(good)>::kWords;
    const std::size_t n_blocks = patterns.block_count();
    for (std::size_t b = 0; b < n_blocks; b += W) {
      detail::apply_block_group(good, patterns, b);
      good.eval();
      for (unsigned w = 0; w < W && b + w < n_blocks; ++w) {
        good_out[b + w].resize(ctx.observe().size());
        for (std::size_t o = 0; o < ctx.observe().size(); ++o) {
          good_out[b + w][o] = good.value_word(ctx.observe()[o], w);
        }
      }
    }
  });
  const bool windowed = model != FaultModel::kStuckAt;
  for (std::size_t begin = 0; begin < faults.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, faults.size());
    tasks_.push_back([&ctx, &faults, &patterns, &good_out, flags, begin, end,
                      windowed] {
      ctx.grade_with_evaluator([&](auto& ev) {
        if (windowed) {
          detail::grade_windowed_blocks(ev, faults, begin, end, patterns,
                                        ctx.observe(), good_out, ctx.reach(),
                                        flags);
        } else {
          detail::grade_comb_blocks(ev, faults, begin, end, patterns,
                                    ctx.observe(), good_out, ctx.reach(),
                                    flags);
        }
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

  const FaultModel model = detail::list_model(faults);
  if (model == FaultModel::kTransition) {
    throw std::invalid_argument(
        "GradingPlan::add_seq: transition faults are combinational-only "
        "(launch/capture pattern pairs); use add_comb");
  }
  const std::size_t chunk = chunk_faults(ctx);
  for (std::size_t begin = 0; begin < faults.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, faults.size());
    tasks_.push_back([&ctx, &faults, &stimulus, flags, begin, end] {
      ctx.grade_with_evaluator([&](auto& ev) {
        detail::grade_seq_batches(ev, faults, begin, end, stimulus,
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
  transition_storage_.clear();
  return failures;
}

CoverageResult simulate_comb_parallel(const netlist::Netlist& nl,
                                      const std::vector<Fault>& faults,
                                      const PatternSet& patterns,
                                      const ObserveSet& observe,
                                      const SimOptions& options) {
  detail::require_combinational(nl, "simulate_comb_parallel");
  const EngineContext ctx(options.engine, nl, observe, options.compiled,
                          options.reach, options.lanes, options.netlist_opt,
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
  const EngineContext ctx(options.engine, nl, observe, options.compiled,
                          options.reach, options.lanes, options.netlist_opt,
                          options.store);
  CoverageResult res;
  GradingPlan plan;
  plan.add_seq(ctx, faults, stimulus, res);
  run_plan(plan, options);
  res.recount();
  return res;
}

}  // namespace sbst::fault
