#include "netlist/compiled.hpp"

#include <algorithm>
#include <stdexcept>

namespace sbst::netlist {

CompiledNetlist::CompiledNetlist(const Netlist& nl) : nl_(&nl) {
  const std::size_t n = nl.size();
  op_.resize(n);
  in_.assign(n * 3, kNoNet);
  level_.assign(n, 0);

  for (NetId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    op_[id] = static_cast<std::uint8_t>(g.kind);
    for (unsigned p = 0; p < 3; ++p) in_[id * 3 + p] = g.in[p];
    if (g.kind == GateKind::kDff) dffs_.push_back(id);
  }

  build_order_and_fanout();
}

void CompiledNetlist::build_order_and_fanout() {
  const std::size_t n = op_.size();
  // Calls fn(source) for every combinational input of g; DFF D edges are
  // sequential and excluded.
  auto for_each_input = [&](NetId g, auto&& fn) {
    const GateKind kind = static_cast<GateKind>(op_[g]);
    if (kind == GateKind::kDff) return;
    for (unsigned p = 0; p < fanin_count(kind); ++p) {
      const NetId s = in_[g * 3 + p];
      if (s != kNoNet) fn(s);
    }
  };

  // Levels from the (cycle-checked) topological order. DFF outputs are
  // sources.
  for (NetId id : nl_->topo_order()) {
    std::uint32_t lvl = 0;
    for_each_input(id, [&](NetId s) { lvl = std::max(lvl, level_[s] + 1); });
    level_[id] = lvl;
  }

  std::uint32_t max_level = 0;
  for (NetId id = 0; id < n; ++id) max_level = std::max(max_level, level_[id]);
  n_levels_ = n == 0 ? 0 : max_level + 1;

  // Level-major, id-minor order via counting sort (deterministic and
  // identical in effect to any valid topological order).
  std::vector<std::uint32_t> level_count(n_levels_ + 1, 0);
  for (NetId id = 0; id < n; ++id) ++level_count[level_[id] + 1];
  for (unsigned l = 1; l <= n_levels_; ++l) level_count[l] += level_count[l - 1];
  order_.resize(n);
  {
    std::vector<std::uint32_t> cursor(level_count.begin(),
                                      level_count.end() - 1);
    for (NetId id = 0; id < n; ++id) order_[cursor[level_[id]]++] = id;
  }
  // Within each level, group gates by opcode (id-minor for determinism).
  // Same-level gates never read each other, so any intra-level permutation
  // is a valid evaluation order; grouping turns the full sweep's per-gate
  // opcode dispatch into long predictable runs of the same branch target.
  for (unsigned l = 0; l < n_levels_; ++l) {
    std::stable_sort(order_.begin() + level_count[l],
                     order_.begin() + level_count[l + 1],
                     [&](NetId a, NetId b) { return op_[a] < op_[b]; });
  }

  // Fanout CSR over the combinational edges.
  fan_begin_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    for_each_input(id, [&](NetId s) { ++fan_begin_[s + 1]; });
  }
  for (std::size_t i = 1; i <= n; ++i) fan_begin_[i] += fan_begin_[i - 1];
  fan_.resize(fan_begin_[n]);
  {
    std::vector<std::uint32_t> cursor(fan_begin_.begin(), fan_begin_.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      for_each_input(id, [&](NetId s) { fan_[cursor[s]++] = id; });
    }
  }
}

std::vector<std::uint8_t> CompiledNetlist::fanin_cone(
    const std::vector<NetId>& roots) const {
  std::vector<std::uint8_t> mask(size(), 0);
  std::vector<NetId> stack;
  for (NetId r : roots) {
    if (r < mask.size() && !mask[r]) {
      mask[r] = 1;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    // DFF D edges are included: a fault can propagate into state and be
    // observed on a later cycle.
    const unsigned pins = fanin_count(static_cast<GateKind>(op_[g]));
    for (unsigned p = 0; p < pins; ++p) {
      const NetId src = in_[g * 3 + p];
      if (src != kNoNet && !mask[src]) {
        mask[src] = 1;
        stack.push_back(src);
      }
    }
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void CompiledNetlist::serialize(common::ByteWriter& w) const {
  w.put_u32(kSerialVersion);
  w.put_u32(n_levels_);
  w.put_vec_u8(op_);
  w.put_vec_u32(in_);
  w.put_vec_u32(level_);
  w.put_vec_u32(order_);
  w.put_vec_u32(fan_begin_);
  w.put_vec_u32(fan_);
  w.put_vec_u32(dffs_);
}

std::unique_ptr<CompiledNetlist> CompiledNetlist::deserialize(
    const Netlist& nl, common::ByteReader& r) {
  if (r.get_u32() != kSerialVersion) return nullptr;
  auto cn = std::unique_ptr<CompiledNetlist>(
      new CompiledNetlist(nl, DeserializeTag{}));
  cn->n_levels_ = r.get_u32();
  cn->op_ = r.get_vec_u8();
  cn->in_ = r.get_vec_u32();
  cn->level_ = r.get_vec_u32();
  cn->order_ = r.get_vec_u32();
  cn->fan_begin_ = r.get_vec_u32();
  cn->fan_ = r.get_vec_u32();
  cn->dffs_ = r.get_vec_u32();
  if (!r.ok()) return nullptr;

  // Structural validation: the evaluators index these tables without bounds
  // checks, so a blob that decoded cleanly but names out-of-range gates,
  // inconsistent sizes, or broken CSR offsets is rejected rather than
  // trusted. (The store's payload hash makes this unreachable for honest
  // corruption; it guards key collisions and hand-edited files.)
  const std::size_t n = nl.size();
  auto ids_ok = [n](const std::vector<NetId>& v, bool allow_no_net = false) {
    for (const NetId id : v) {
      if (id >= n && !(allow_no_net && id == kNoNet)) return false;
    }
    return true;
  };
  auto csr_ok = [n](const std::vector<std::uint32_t>& begin,
                    std::size_t entries) {
    if (begin.size() != n + 1 || begin.front() != 0 ||
        begin.back() != entries) {
      return false;
    }
    for (std::size_t i = 0; i + 1 < begin.size(); ++i) {
      if (begin[i] > begin[i + 1]) return false;
    }
    return true;
  };
  if (cn->op_.size() != n || cn->in_.size() != n * 3 ||
      cn->level_.size() != n) {
    return nullptr;
  }
  if (!ids_ok(cn->in_, /*allow_no_net=*/true) || !ids_ok(cn->order_) ||
      !ids_ok(cn->fan_) || !ids_ok(cn->dffs_)) {
    return nullptr;
  }
  if (!csr_ok(cn->fan_begin_, cn->fan_.size())) return nullptr;
  for (const NetId g : cn->order_) {
    if (cn->level_[g] >= cn->n_levels_) return nullptr;
  }
  return cn;
}

// ---------------------------------------------------------------------------
// CompiledEvaluatorT
// ---------------------------------------------------------------------------

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(
    std::shared_ptr<const CompiledNetlist> owned, const CompiledNetlist& cn)
    : owned_(std::move(owned)),
      cn_(&cn),
      values_(cn.size() * W, 0),
      inputs_(cn.size() * W, 0),
      state_(cn.size() * W, 0),
      out_f0_(cn.size() * W, 0),
      out_f1_(cn.size() * W, 0),
      pin_f0_(cn.size() * 3 * W, 0),
      pin_f1_(cn.size() * 3 * W, 0),
      out_forced_(cn.size(), 0),
      pin_forced_(cn.size(), 0),
      pin_listed_(cn.size() * 3, 0),
      dispatch_(cn.size(), 0),
      queue_(cn.levels()),
      queued_(cn.size(), 0) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(const CompiledNetlist& cn)
    : CompiledEvaluatorT(nullptr, cn) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(const Netlist& nl)
    : CompiledEvaluatorT(std::make_shared<CompiledNetlist>(nl)) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(
    std::shared_ptr<const CompiledNetlist> cn)
    : CompiledEvaluatorT(cn, *cn) {}

template <unsigned W>
void CompiledEvaluatorT<W>::set_bus(const Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    set_input(bus[i], (value >> i) & 1u);
  }
}

template <unsigned W>
std::uint64_t CompiledEvaluatorT<W>::bus_value(const Bus& bus,
                                               unsigned lane) const {
  const unsigned w = lane / 64, bit = lane % 64;
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    out |= ((values_[bus[i] * W + w] >> bit) & 1u) << i;
  }
  return out;
}

template <unsigned W>
void CompiledEvaluatorT<W>::schedule(NetId g) {
  if (!queued_[g]) {
    queued_[g] = 1;
    queue_[cn_->level_[g]].push_back(g);
    ++pending_;
  }
}

template <unsigned W>
void CompiledEvaluatorT<W>::invalidate_undo() {
  undo_active_ = false;
  undo_.clear();
}

template <unsigned W>
void CompiledEvaluatorT<W>::set_input_block(NetId net,
                                            const std::uint64_t* words) {
  bool changed = false;
  for (unsigned i = 0; i < W; ++i) {
    changed |= inputs_[net * W + i] != words[i];
  }
  if (!changed) return;
  for (unsigned i = 0; i < W; ++i) inputs_[net * W + i] = words[i];
  // The baseline shifts under the injected faults; teardown must
  // re-propagate instead of replaying stale blocks.
  if (has_faults_) invalidate_undo();
  if (!full_pending_) schedule(net);
}

// Re-derives a gate's dispatch byte from its current force state. Called on
// every per-gate transition (first force / teardown); the touched lists keep
// the number of calls proportional to the active fault set.
template <unsigned W>
void CompiledEvaluatorT<W>::update_dispatch(NetId g) {
  std::uint8_t m = pin_forced_[g] != 0 ? kDispatchPins : 0;
  if (out_forced_[g]) m |= kDispatchOut;
  dispatch_[g] = m;
}

template <unsigned W>
void CompiledEvaluatorT<W>::inject_block(const Site& site, bool stuck_value,
                                         const std::uint64_t* lane_mask) {
  if (!has_faults_) {
    // Undo-log teardown is only sound when a fault-free baseline exists in
    // values_: at least one eval() ran, and no input/state events are still
    // waiting to be consumed (those would be replayed away with the fault).
    undo_active_ = !full_pending_ && pending_ == 0;
    has_faults_ = true;
  }
  if (site.is_output()) {
    // List on the explicit flag, not on "blocks were zero": release_block
    // can zero a listed site's blocks, and re-listing it would double-count
    // it (pin_forced_ would underflow at teardown).
    if (!out_forced_[site.gate]) {
      out_forced_[site.gate] = 1;
      touched_out_.push_back(site.gate);
      update_dispatch(site.gate);
    }
    std::uint64_t* f = stuck_value ? &out_f1_[site.gate * W]
                                   : &out_f0_[site.gate * W];
    for (unsigned i = 0; i < W; ++i) f[i] |= lane_mask[i];
  } else {
    const std::uint32_t slot = site.gate * 3 + site.pin;
    if (!pin_listed_[slot]) {
      pin_listed_[slot] = 1;
      touched_pin_.push_back(slot);
      ++pin_forced_[site.gate];
      update_dispatch(site.gate);
    }
    std::uint64_t* f = stuck_value ? &pin_f1_[slot * W] : &pin_f0_[slot * W];
    for (unsigned i = 0; i < W; ++i) f[i] |= lane_mask[i];
  }
  if (!full_pending_) schedule(site.gate);
}

template <unsigned W>
void CompiledEvaluatorT<W>::release_block(const Site& site,
                                          const std::uint64_t* lane_mask) {
  if (!has_faults_) return;
  auto strip = [&](std::uint64_t* f0, std::uint64_t* f1) {
    for (unsigned i = 0; i < W; ++i) {
      f0[i] &= ~lane_mask[i];
      f1[i] &= ~lane_mask[i];
    }
  };
  if (site.is_output()) {
    strip(&out_f0_[site.gate * W], &out_f1_[site.gate * W]);
  } else {
    strip(&pin_f0_[(site.gate * 3 + site.pin) * W],
          &pin_f1_[(site.gate * 3 + site.pin) * W]);
  }
  if (!full_pending_) schedule(site.gate);
}

template <unsigned W>
void CompiledEvaluatorT<W>::clear_faults() {
  if (!has_faults_) return;
  if (undo_active_) {
    // Every block perturbed since injection was recorded; restoring them in
    // reverse overwrite order reinstates the fault-free baseline exactly.
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      for (unsigned i = 0; i < W; ++i) {
        values_[it->net * W + i] = it->prev[i];
      }
    }
  } else if (!full_pending_) {
    // No replayable log (inputs/state moved, or a full sweep ran while the
    // faults were active): re-propagate from the fault sites instead.
    for (NetId g : touched_out_) schedule(g);
    for (std::uint32_t slot : touched_pin_) schedule(slot / 3);
  }
  for (NetId g : touched_out_) {
    for (unsigned i = 0; i < W; ++i) {
      out_f0_[g * W + i] = out_f1_[g * W + i] = 0;
    }
    out_forced_[g] = 0;
    update_dispatch(g);
  }
  for (std::uint32_t slot : touched_pin_) {
    for (unsigned i = 0; i < W; ++i) {
      pin_f0_[slot * W + i] = pin_f1_[slot * W + i] = 0;
    }
    pin_listed_[slot] = 0;
    --pin_forced_[slot / 3];
    update_dispatch(slot / 3);
  }
  touched_out_.clear();
  touched_pin_.clear();
  invalidate_undo();
  has_faults_ = false;
}

// Gate function on the current pin values, no forces.
template <unsigned W>
inline void CompiledEvaluatorT<W>::compute_plain(
    NetId g, std::uint64_t* SBST_RESTRICT out) const {
  const NetId* in = &cn_->in_[g * 3];
  auto pin = [&](unsigned p, std::uint64_t* dst) SBST_ALWAYS_INLINE {
    const std::uint64_t* v = &values_[in[p] * W];
    for (unsigned i = 0; i < W; ++i) dst[i] = v[i];
  };
  std::uint64_t a[W], b[W];
  switch (static_cast<GateKind>(cn_->op_[g])) {
    case GateKind::kInput:
      for (unsigned i = 0; i < W; ++i) out[i] = inputs_[g * W + i];
      break;
    case GateKind::kConst0:
      for (unsigned i = 0; i < W; ++i) out[i] = 0;
      break;
    case GateKind::kConst1:
      for (unsigned i = 0; i < W; ++i) out[i] = ~std::uint64_t{0};
      break;
    case GateKind::kDff:
      // Matches the reference evaluator: DFFs ignore pin forces on D.
      for (unsigned i = 0; i < W; ++i) out[i] = state_[g * W + i];
      break;
    case GateKind::kBuf:
      pin(0, out);
      break;
    case GateKind::kNot:
      pin(0, a);
      for (unsigned i = 0; i < W; ++i) out[i] = ~a[i];
      break;
    case GateKind::kAnd:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] & b[i];
      break;
    case GateKind::kOr:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] | b[i];
      break;
    case GateKind::kNand:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] & b[i]);
      break;
    case GateKind::kNor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] | b[i]);
      break;
    case GateKind::kXor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] ^ b[i];
      break;
    case GateKind::kXnor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] ^ b[i]);
      break;
    case GateKind::kMux2: {
      std::uint64_t sel[W];
      pin(0, sel);
      pin(1, a);
      pin(2, b);
      for (unsigned i = 0; i < W; ++i) {
        out[i] = (sel[i] & b[i]) | (~sel[i] & a[i]);
      }
      break;
    }
    default:
      throw std::logic_error("compiled eval: unknown gate kind");
  }
}

// Gate function with the pin forces applied to each pin read.
template <unsigned W>
inline void CompiledEvaluatorT<W>::compute(
    NetId g, std::uint64_t* SBST_RESTRICT out) const {
  const NetId* in = &cn_->in_[g * 3];
  auto pin = [&](unsigned p, std::uint64_t* dst) SBST_ALWAYS_INLINE {
    const std::uint64_t* v = &values_[in[p] * W];
    const std::uint64_t* pf0 = &pin_f0_[(g * 3 + p) * W];
    const std::uint64_t* pf1 = &pin_f1_[(g * 3 + p) * W];
    for (unsigned i = 0; i < W; ++i) dst[i] = (v[i] | pf1[i]) & ~pf0[i];
  };
  std::uint64_t a[W], b[W];
  switch (static_cast<GateKind>(cn_->op_[g])) {
    case GateKind::kInput:
      for (unsigned i = 0; i < W; ++i) out[i] = inputs_[g * W + i];
      break;
    case GateKind::kConst0:
      for (unsigned i = 0; i < W; ++i) out[i] = 0;
      break;
    case GateKind::kConst1:
      for (unsigned i = 0; i < W; ++i) out[i] = ~std::uint64_t{0};
      break;
    case GateKind::kDff:
      for (unsigned i = 0; i < W; ++i) out[i] = state_[g * W + i];
      break;
    case GateKind::kBuf:
      pin(0, out);
      break;
    case GateKind::kNot:
      pin(0, a);
      for (unsigned i = 0; i < W; ++i) out[i] = ~a[i];
      break;
    case GateKind::kAnd:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] & b[i];
      break;
    case GateKind::kOr:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] | b[i];
      break;
    case GateKind::kNand:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] & b[i]);
      break;
    case GateKind::kNor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] | b[i]);
      break;
    case GateKind::kXor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = a[i] ^ b[i];
      break;
    case GateKind::kXnor:
      pin(0, a);
      pin(1, b);
      for (unsigned i = 0; i < W; ++i) out[i] = ~(a[i] ^ b[i]);
      break;
    case GateKind::kMux2: {
      std::uint64_t sel[W];
      pin(0, sel);
      pin(1, a);
      pin(2, b);
      for (unsigned i = 0; i < W; ++i) {
        out[i] = (sel[i] & b[i]) | (~sel[i] & a[i]);
      }
      break;
    }
    default:
      throw std::logic_error("compiled eval: unknown gate kind");
  }
}

template <unsigned W>
template <bool kForces>
void CompiledEvaluatorT<W>::full_sweep() {
  // The unforced paths write straight into the gate's values_ block: routing
  // them through a shared local buffer merges the stores of every opcode
  // case behind one phi, which blocks SLP vectorization of the W-word loops.
  for (NetId g : cn_->order_) {
    if constexpr (!kForces) {
      compute_plain(g, &values_[g * W]);
    } else {
      // Per-gate fast path: with hundreds of lane-packed faults active, most
      // gates still carry no force at all — one predictable byte test skips
      // every force load for them.
      const std::uint8_t m = dispatch_[g];
      if (m == 0) {
        compute_plain(g, &values_[g * W]);
      } else {
        std::uint64_t v[W];
        if (m & kDispatchPins) {
          compute(g, v);
        } else {
          compute_plain(g, v);
        }
        if (m & kDispatchOut) {
          const std::uint64_t* f0 = &out_f0_[g * W];
          const std::uint64_t* f1 = &out_f1_[g * W];
          for (unsigned i = 0; i < W; ++i) v[i] = (v[i] | f1[i]) & ~f0[i];
        }
        for (unsigned i = 0; i < W; ++i) values_[g * W + i] = v[i];
      }
    }
  }
}

template <unsigned W>
void CompiledEvaluatorT<W>::full_eval() {
  if (has_faults_) {
    full_sweep<true>();
    // values_ now carry faulty blocks nobody recorded; a later undo replay
    // would restore garbage.
    invalidate_undo();
  } else {
    full_sweep<false>();
  }
  // The sweep subsumes any queued events.
  for (auto& q : queue_) {
    for (NetId g : q) queued_[g] = 0;
    q.clear();
  }
  pending_ = 0;
  full_pending_ = false;
  gate_evals_ += cn_->order_.size();
}

template <unsigned W>
void CompiledEvaluatorT<W>::event_eval() {
  const std::size_t n_levels = queue_.size();
  const bool forces = has_faults_;
  std::uint64_t v[W];
  for (std::size_t lvl = 0; lvl < n_levels && pending_ > 0; ++lvl) {
    std::vector<NetId>& q = queue_[lvl];
    // Fanout targets land on strictly higher levels, so q is stable here.
    for (NetId g : q) {
      queued_[g] = 0;
      --pending_;
      ++gate_evals_;
      if (!forces) {
        compute_plain(g, v);
      } else {
        const std::uint8_t m = dispatch_[g];
        if (m == 0) {
          compute_plain(g, v);
        } else {
          if (m & kDispatchPins) {
            compute(g, v);
          } else {
            compute_plain(g, v);
          }
          if (m & kDispatchOut) {
            const std::uint64_t* f0 = &out_f0_[g * W];
            const std::uint64_t* f1 = &out_f1_[g * W];
            for (unsigned i = 0; i < W; ++i) v[i] = (v[i] | f1[i]) & ~f0[i];
          }
        }
      }
      std::uint64_t* cur = &values_[g * W];
      bool changed = false;
      for (unsigned i = 0; i < W; ++i) changed |= v[i] != cur[i];
      if (!changed) continue;
      if (undo_active_) {
        UndoEntry e;
        e.net = g;
        for (unsigned i = 0; i < W; ++i) e.prev[i] = cur[i];
        undo_.push_back(e);
      }
      for (unsigned i = 0; i < W; ++i) cur[i] = v[i];
      const std::uint32_t begin = cn_->fan_begin_[g];
      const std::uint32_t end = cn_->fan_begin_[g + 1];
      for (std::uint32_t e = begin; e < end; ++e) schedule(cn_->fan_[e]);
    }
    q.clear();
  }
}

template <unsigned W>
void CompiledEvaluatorT<W>::eval() {
  if (full_pending_) {
    full_eval();
  } else {
    event_eval();
  }
}

template <unsigned W>
void CompiledEvaluatorT<W>::step() {
  eval();
  bool state_changed = false;
  for (NetId q : cn_->dffs_) {
    const NetId d = cn_->in_[q * 3];
    if (d == kNoNet) {
      throw std::logic_error("eval: DFF with unconnected D input");
    }
    bool changed = false;
    for (unsigned i = 0; i < W; ++i) {
      changed |= state_[q * W + i] != values_[d * W + i];
    }
    if (changed) {
      for (unsigned i = 0; i < W; ++i) state_[q * W + i] = values_[d * W + i];
      state_changed = true;
      if (!full_pending_) schedule(q);
    }
  }
  if (state_changed && has_faults_) invalidate_undo();
}

template <unsigned W>
void CompiledEvaluatorT<W>::reset_state(bool value) {
  const std::uint64_t w = value ? ~std::uint64_t{0} : 0;
  bool state_changed = false;
  for (NetId q : cn_->dffs_) {
    bool changed = false;
    for (unsigned i = 0; i < W; ++i) changed |= state_[q * W + i] != w;
    if (changed) {
      for (unsigned i = 0; i < W; ++i) state_[q * W + i] = w;
      state_changed = true;
      if (!full_pending_) schedule(q);
    }
  }
  if (state_changed && has_faults_) invalidate_undo();
}

template <unsigned W>
void CompiledEvaluatorT<W>::save_state(std::vector<std::uint64_t>& out) const {
  out.resize(cn_->dffs_.size() * W);
  for (std::size_t k = 0; k < cn_->dffs_.size(); ++k) {
    const NetId q = cn_->dffs_[k];
    for (unsigned i = 0; i < W; ++i) out[k * W + i] = state_[q * W + i];
  }
}

template <unsigned W>
void CompiledEvaluatorT<W>::load_state(const std::vector<std::uint64_t>& in) {
  if (in.size() != cn_->dffs_.size() * W) {
    throw std::invalid_argument("load_state: snapshot size mismatch");
  }
  for (std::size_t k = 0; k < cn_->dffs_.size(); ++k) {
    const NetId q = cn_->dffs_[k];
    for (unsigned i = 0; i < W; ++i) state_[q * W + i] = in[k * W + i];
  }
  if (has_faults_) invalidate_undo();
  full_pending_ = true;
}

template class CompiledEvaluatorT<1>;
template class CompiledEvaluatorT<4>;

}  // namespace sbst::netlist
