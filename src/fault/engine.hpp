// Shared per-run grading artifacts.
//
// Every simulator in sim.hpp / sim_parallel.hpp grades on the compiled,
// event-driven CompiledEvaluatorT<4>: after the good-machine pass each
// injected fault re-simulates only its fanout cone, and faults whose cone
// cannot reach the observe set are skipped up front.
//
// EngineContext bundles the immutable per-run artifacts — the compiled
// program and the observe-cone reach prefilter — built once and shared
// read-only by every worker. A caller that already holds them (e.g. a
// core::GradingSession cache) lends them in instead, so repeated gradings
// of the same netlist pay for compilation and cone marking exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/compiled.hpp"
#include "store/artifact_store.hpp"

namespace sbst::fault {

/// The evaluator every grading runs on: 256 lanes per net, so one
/// combinational pass carries 256 patterns and one sequential pass packs
/// 255 faulty machines beside the good machine in lane 0.
using GradeEvaluator = netlist::CompiledEvaluatorT<4>;

/// Canonical persistent-store key for a compiled netlist: content hash of
/// the netlist plus the image format version. Shared by EngineContext and
/// core::GradingSession so a store warmed through either layer serves the
/// other.
store::ArtifactKey compiled_store_key(const netlist::Netlist& nl);

/// Immutable per-run grading artifacts for one (netlist, observe set) pair:
/// the resolved observe set, the compiled program, and the observe-cone
/// reach prefilter. Construction also warms the netlist's cached
/// topological order so worker threads only ever read it. Thread-safe to
/// share by const reference; each worker builds its own evaluator via
/// grade_with_evaluator().
class EngineContext {
 public:
  /// Builds the artifacts for grading `nl` observed at `observe` (empty =
  /// all declared outputs). When the caller already owns a matching
  /// `compiled` netlist and/or `reach` prefilter (they must correspond to
  /// `nl` and `observe`), they are borrowed instead of rebuilt and must
  /// outlive this context. When `store` is set and this context compiles
  /// its own netlist, the persistent artifact store is probed first (keyed
  /// by netlist content hash) and written back after a from-scratch compile
  /// — results are identical either way.
  EngineContext(const netlist::Netlist& nl,
                std::vector<netlist::NetId> observe,
                const netlist::CompiledNetlist* compiled = nullptr,
                const std::uint8_t* reach = nullptr,
                store::ArtifactStore* store = nullptr);

  const netlist::Netlist& netlist() const { return *nl_; }
  const std::vector<netlist::NetId>& observe() const { return observe_; }
  /// Per-gate observe-cone membership.
  const std::uint8_t* reach() const { return reach_; }
  const netlist::CompiledNetlist* compiled() const { return compiled_; }

  /// Calls grade(ev) on a freshly built evaluator over the compiled
  /// program. The grading templates in sim_detail.hpp are generic in the
  /// evaluator type (Ev::kWords).
  template <typename GradeFn>
  void grade_with_evaluator(const GradeFn& grade) const {
    GradeEvaluator ev(*compiled_);
    grade(ev);
  }

 private:
  const netlist::Netlist* nl_;
  std::vector<netlist::NetId> observe_;
  std::unique_ptr<netlist::CompiledNetlist> owned_compiled_;
  std::vector<std::uint8_t> reach_store_;
  const netlist::CompiledNetlist* compiled_ = nullptr;
  const std::uint8_t* reach_ = nullptr;
};

}  // namespace sbst::fault
