#include "netlist/compiled.hpp"

#include <algorithm>
#include <stdexcept>

namespace sbst::netlist {

namespace {

constexpr std::uint8_t kUnknown = 2;  // const-prop lattice: 0, 1, unknown

bool is_chain(GateKind k) { return k == GateKind::kBuf || k == GateKind::kNot; }

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl, const CompileOptions& opts)
    : nl_(&nl), opts_(opts) {
  const std::size_t n = nl.size();
  op_.resize(n);
  in_.assign(n * 3, kNoNet);
  inv_.assign(n, 0);
  level_.assign(n, 0);
  live_.assign(n, 1);

  for (NetId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    op_[id] = static_cast<std::uint8_t>(g.kind);
    for (unsigned p = 0; p < 3; ++p) in_[id * 3 + p] = g.in[p];
  }

  if (opts_.any()) optimize();

  for (NetId id = 0; id < n; ++id) {
    if (op_[id] == static_cast<std::uint8_t>(GateKind::kDff) && live_[id]) {
      dffs_.push_back(id);
    }
  }

  build_order_and_fanout();
}

// Fuses kBuf/kNot chains into per-pin invert bits, folds const-tied pins,
// and sweeps gates nothing observable reads. Fault exactness relies on
// three side tables built here:
//  * remap_: forces injected on a bypassed chain gate are copied (with
//    parity) onto every pin slot that was retargeted past it;
//  * marker_: forces injected on a consumed constant re-activate the
//    original evaluation of every transitively folded consumer;
//  * the liveness rule that a folded gate keeps ALL its original inputs
//    alive, so the fallback path always reads current values.
void CompiledNetlist::optimize() {
  const std::size_t n = op_.size();
  orig_op_ = op_;
  orig_in_ = in_;
  folded_.assign(n, 0);

  const std::vector<NetId>& topo = nl_->topo_order();

  // ---- inverter-chain fusion ----------------------------------------------
  if (opts_.fuse_inverters) {
    for (NetId g : topo) {
      const GateKind kind = static_cast<GateKind>(op_[g]);
      if (kind == GateKind::kDff) continue;  // DFFs ignore pin forces on D
      const unsigned pins = fanin_count(kind);
      for (unsigned p = 0; p < pins; ++p) {
        NetId s = in_[g * 3 + p];
        unsigned parity = 0;
        // Chain gates were already resolved (topo order), so each hop lands
        // on a non-chain source after folding in the hop's own parity.
        while (is_chain(static_cast<GateKind>(op_[s]))) {
          parity ^= (static_cast<GateKind>(op_[s]) == GateKind::kNot ? 1u : 0u) ^
                    (inv_[s] & 1u);
          s = in_[s * 3];
        }
        in_[g * 3 + p] = s;
        if (parity) inv_[g] |= std::uint8_t{1} << p;
      }
    }
  }

  // ---- constant propagation -----------------------------------------------
  // dropped[g]: original-position pins whose (constant) source the folded
  // form no longer reads — the marker graph edges.
  std::vector<std::array<NetId, 3>> dropped(n, {kNoNet, kNoNet, kNoNet});
  std::vector<std::uint8_t> cval(n, kUnknown);
  if (opts_.const_prop) {
    for (NetId g : topo) {
      const GateKind kind = static_cast<GateKind>(op_[g]);
      const unsigned pins = fanin_count(kind);
      std::uint8_t cv[3] = {kUnknown, kUnknown, kUnknown};
      for (unsigned p = 0; p < pins; ++p) {
        const std::uint8_t c = cval[in_[g * 3 + p]];
        cv[p] = c == kUnknown ? kUnknown : c ^ ((inv_[g] >> p) & 1u);
      }
      NetId src[3];
      std::uint8_t pinv[3];
      for (unsigned p = 0; p < 3; ++p) {
        src[p] = in_[g * 3 + p];
        pinv[p] = (inv_[g] >> p) & 1u;
      }
      // new_* describe the replacement; op stays unchanged unless set.
      GateKind new_op = kind;
      NetId n0 = kNoNet, n1 = kNoNet;
      std::uint8_t ninv = 0;
      bool fold = false;
      auto to_const = [&](bool v) {
        new_op = v ? GateKind::kConst1 : GateKind::kConst0;
        fold = true;
      };
      // Keep pin `keep`, optionally inverted on top of its own inv bit.
      auto to_buf = [&](unsigned keep, unsigned extra_inv) {
        new_op = GateKind::kBuf;
        n0 = src[keep];
        ninv = pinv[keep] ^ extra_inv;
        fold = true;
      };
      auto to_pair = [&](GateKind op2, unsigned a, std::uint8_t ainv,
                         unsigned b, std::uint8_t binv) {
        new_op = op2;
        n0 = src[a];
        n1 = src[b];
        ninv = static_cast<std::uint8_t>((pinv[a] ^ ainv) |
                                         ((pinv[b] ^ binv) << 1));
        fold = true;
      };
      switch (kind) {
        case GateKind::kConst0:
          cval[g] = 0;
          break;
        case GateKind::kConst1:
          cval[g] = 1;
          break;
        case GateKind::kBuf:
          if (cv[0] != kUnknown) to_const(cv[0]);
          break;
        case GateKind::kNot:
          if (cv[0] != kUnknown) to_const(!cv[0]);
          break;
        case GateKind::kAnd:
          if (cv[0] == 0 || cv[1] == 0) to_const(false);
          else if (cv[0] == 1 && cv[1] == 1) to_const(true);
          else if (cv[0] == 1) to_buf(1, 0);
          else if (cv[1] == 1) to_buf(0, 0);
          break;
        case GateKind::kOr:
          if (cv[0] == 1 || cv[1] == 1) to_const(true);
          else if (cv[0] == 0 && cv[1] == 0) to_const(false);
          else if (cv[0] == 0) to_buf(1, 0);
          else if (cv[1] == 0) to_buf(0, 0);
          break;
        case GateKind::kNand:
          if (cv[0] == 0 || cv[1] == 0) to_const(true);
          else if (cv[0] == 1 && cv[1] == 1) to_const(false);
          else if (cv[0] == 1) to_buf(1, 1);
          else if (cv[1] == 1) to_buf(0, 1);
          break;
        case GateKind::kNor:
          if (cv[0] == 1 || cv[1] == 1) to_const(false);
          else if (cv[0] == 0 && cv[1] == 0) to_const(true);
          else if (cv[0] == 0) to_buf(1, 1);
          else if (cv[1] == 0) to_buf(0, 1);
          break;
        case GateKind::kXor:
          if (cv[0] != kUnknown && cv[1] != kUnknown) to_const(cv[0] ^ cv[1]);
          else if (cv[0] != kUnknown) to_buf(1, cv[0]);
          else if (cv[1] != kUnknown) to_buf(0, cv[1]);
          break;
        case GateKind::kXnor:
          if (cv[0] != kUnknown && cv[1] != kUnknown) to_const(!(cv[0] ^ cv[1]));
          else if (cv[0] != kUnknown) to_buf(1, !cv[0]);
          else if (cv[1] != kUnknown) to_buf(0, !cv[1]);
          break;
        case GateKind::kMux2:
          // pins: 0 = sel, 1 = d0, 2 = d1; out = sel ? d1 : d0.
          if (cv[0] != kUnknown) to_buf(cv[0] ? 2 : 1, 0);
          else if (cv[1] != kUnknown && cv[2] != kUnknown) {
            if (cv[1] == cv[2]) to_const(cv[1]);
            else if (cv[1] == 0) to_pair(GateKind::kAnd, 0, 0, 2, 0);
            else to_pair(GateKind::kOr, 0, 1, 2, 0);  // d0==1: ~sel | d1
          } else if (cv[2] != kUnknown) {
            if (cv[2] == 0) to_pair(GateKind::kAnd, 0, 1, 1, 0);  // ~sel & d0
            else to_pair(GateKind::kOr, 0, 0, 1, 0);              // sel | d0
          } else if (cv[1] != kUnknown) {
            if (cv[1] == 0) to_pair(GateKind::kAnd, 0, 0, 2, 0);  // sel & d1
            else to_pair(GateKind::kOr, 0, 1, 2, 0);              // ~sel | d1
          }
          break;
        default:
          break;  // kInput, kDff: never folded
      }
      if (!fold) continue;
      // Record which constant sources the fold consumed: every original-
      // position pin whose source is no longer read by the replacement and
      // was constant-valued. (Non-constant dropped pins — a mux data leg
      // behind a constant select — cannot influence the output and need no
      // marker.)
      const std::array<NetId, 3> old_src = {src[0], src[1], src[2]};
      folded_[g] = 1;
      op_[g] = static_cast<std::uint8_t>(new_op);
      in_[g * 3 + 0] = n0;
      in_[g * 3 + 1] = n1;
      in_[g * 3 + 2] = kNoNet;
      inv_[g] = ninv;
      for (unsigned p = 0; p < pins; ++p) {
        const NetId s = old_src[p];
        if (cval[s] == kUnknown) continue;
        if (s == n0 || s == n1) continue;  // still read
        dropped[g][p] = s;
      }
      if (new_op == GateKind::kConst0) cval[g] = 0;
      if (new_op == GateKind::kConst1) cval[g] = 1;
    }
  }

  // ---- liveness + dead sweep ----------------------------------------------
  // Roots: every declared output net (the union of all observe cones is a
  // subset of their fanin). Live folded gates keep their ORIGINAL inputs
  // alive so the fallback path reads current values; live DFFs keep their D
  // source alive.
  if (opts_.dead_sweep) {
    live_.assign(n, 0);
    std::vector<NetId> stack;
    auto mark = [&](NetId g) {
      if (g != kNoNet && !live_[g]) {
        live_[g] = 1;
        stack.push_back(g);
      }
    };
    for (NetId r : nl_->output_nets()) mark(r);
    while (!stack.empty()) {
      const NetId g = stack.back();
      stack.pop_back();
      const GateKind kind = static_cast<GateKind>(op_[g]);
      if (kind == GateKind::kDff) {
        mark(in_[g * 3]);
        continue;
      }
      for (unsigned p = 0; p < fanin_count(kind); ++p) mark(in_[g * 3 + p]);
      if (folded_[g]) {
        const GateKind ok = static_cast<GateKind>(orig_op_[g]);
        for (unsigned p = 0; p < fanin_count(ok); ++p) {
          mark(orig_in_[g * 3 + p]);
        }
      }
    }
  }

  // ---- fusion fault remap -------------------------------------------------
  // For every retargeted live pin slot, walk the bypassed original chain
  // and give each chain gate an entry forcing that slot (with the parity
  // accumulated between the chain gate and the slot's original read point).
  {
    std::vector<std::vector<Remap>> per_gate(n);
    for (NetId g = 0; g < n; ++g) {
      if (!live_[g]) continue;
      const GateKind kind = static_cast<GateKind>(orig_op_[g]);
      if (kind == GateKind::kDff) continue;
      for (unsigned p = 0; p < fanin_count(kind); ++p) {
        if (in_[g * 3 + p] == orig_in_[g * 3 + p] && !folded_[g]) continue;
        NetId b = orig_in_[g * 3 + p];
        if (!is_chain(static_cast<GateKind>(orig_op_[b]))) continue;
        const std::uint32_t slot = g * 3 + p;
        std::uint8_t parity = 0;
        while (is_chain(static_cast<GateKind>(orig_op_[b]))) {
          per_gate[b].push_back(Remap{slot, parity});
          parity ^= static_cast<GateKind>(orig_op_[b]) == GateKind::kNot;
          b = orig_in_[b * 3];
        }
      }
    }
    remap_begin_.assign(n + 1, 0);
    for (NetId g = 0; g < n; ++g) {
      remap_begin_[g + 1] = remap_begin_[g] +
                            static_cast<std::uint32_t>(per_gate[g].size());
    }
    remap_.reserve(remap_begin_[n]);
    for (NetId g = 0; g < n; ++g) {
      remap_.insert(remap_.end(), per_gate[g].begin(), per_gate[g].end());
    }
  }

  // ---- const-prop fault markers -------------------------------------------
  // Marker graph: dropped-const edges (source -> folded consumer). A fault
  // anywhere on gate u must re-activate the original evaluation of every
  // folded gate reachable from u through const nets.
  {
    std::vector<std::vector<NetId>> readers(n);  // const src -> folded gates
    for (NetId g = 0; g < n; ++g) {
      if (!folded_[g] || !live_[g]) continue;
      for (unsigned p = 0; p < 3; ++p) {
        if (dropped[g][p] != kNoNet) readers[dropped[g][p]].push_back(g);
      }
    }
    marker_begin_.assign(n + 1, 0);
    std::vector<std::vector<NetId>> lists(n);
    std::vector<std::uint8_t> seen(n, 0);
    std::vector<NetId> touched;
    for (NetId u = 0; u < n; ++u) {
      // Only const nets and folded gates can deviate transitively.
      if (readers[u].empty() && !folded_[u]) continue;
      std::vector<NetId> stack{u};
      seen[u] = 1;
      touched.push_back(u);
      while (!stack.empty()) {
        const NetId v = stack.back();
        stack.pop_back();
        for (NetId r : readers[v]) {
          if (seen[r]) continue;
          seen[r] = 1;
          touched.push_back(r);
          lists[u].push_back(r);
          // Deviation only continues past gates folded to constants.
          if (cval[r] != kUnknown) stack.push_back(r);
        }
      }
      for (NetId t : touched) seen[t] = 0;
      touched.clear();
    }
    for (NetId g = 0; g < n; ++g) {
      marker_begin_[g + 1] = marker_begin_[g] +
                             static_cast<std::uint32_t>(lists[g].size());
    }
    marker_.reserve(marker_begin_[n]);
    for (NetId g = 0; g < n; ++g) {
      marker_.insert(marker_.end(), lists[g].begin(), lists[g].end());
    }
  }
}

void CompiledNetlist::build_order_and_fanout() {
  const std::size_t n = op_.size();
  // Per-gate "union" input set: the optimized pins plus, for folded gates,
  // the original pins (the fallback path reads them, so their changes must
  // re-schedule the gate). DFF D edges are sequential and excluded.
  auto for_each_union_input = [&](NetId g, auto&& fn) {
    const GateKind kind = static_cast<GateKind>(op_[g]);
    if (kind == GateKind::kDff) return;
    for (unsigned p = 0; p < fanin_count(kind); ++p) {
      const NetId s = in_[g * 3 + p];
      if (s != kNoNet) fn(s);
    }
    if (!folded_.empty() && folded_[g]) {
      const GateKind ok = static_cast<GateKind>(orig_op_[g]);
      for (unsigned p = 0; p < fanin_count(ok); ++p) {
        const NetId s = orig_in_[g * 3 + p];
        if (s == kNoNet) continue;
        bool dup = false;
        for (unsigned q = 0; q < fanin_count(kind); ++q) {
          if (in_[g * 3 + q] == s) dup = true;
        }
        if (!dup) fn(s);
      }
    }
  };

  // Levels from the (cycle-checked) topological order, which remains valid
  // for the union graph: fusion only retargets pins to transitive original
  // ancestors. DFF outputs are sources.
  for (NetId id : nl_->topo_order()) {
    if (static_cast<GateKind>(op_[id]) == GateKind::kDff) continue;
    std::uint32_t lvl = 0;
    for_each_union_input(id, [&](NetId s) {
      lvl = std::max(lvl, level_[s] + 1);
    });
    level_[id] = lvl;
  }

  std::uint32_t max_level = 0;
  for (NetId id = 0; id < n; ++id) max_level = std::max(max_level, level_[id]);
  n_levels_ = n == 0 ? 0 : max_level + 1;

  // Level-major, id-minor order over LIVE gates via counting sort
  // (deterministic and identical in effect to any valid topological order).
  std::vector<std::uint32_t> level_count(n_levels_ + 1, 0);
  std::size_t n_live = 0;
  for (NetId id = 0; id < n; ++id) {
    if (!live_[id]) continue;
    ++level_count[level_[id] + 1];
    ++n_live;
  }
  for (unsigned l = 1; l <= n_levels_; ++l) level_count[l] += level_count[l - 1];
  order_.resize(n_live);
  {
    std::vector<std::uint32_t> cursor(level_count.begin(),
                                      level_count.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      if (live_[id]) order_[cursor[level_[id]]++] = id;
    }
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

  // Fanout CSR over the union edges of live gates.
  fan_begin_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    if (!live_[id]) continue;
    for_each_union_input(id, [&](NetId s) { ++fan_begin_[s + 1]; });
  }
  for (std::size_t i = 1; i <= n; ++i) fan_begin_[i] += fan_begin_[i - 1];
  fan_.resize(fan_begin_[n]);
  {
    std::vector<std::uint32_t> cursor(fan_begin_.begin(), fan_begin_.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      if (!live_[id]) continue;
      for_each_union_input(id, [&](NetId s) { fan_[cursor[s]++] = id; });
    }
  }
}

std::vector<std::uint8_t> CompiledNetlist::fanin_cone(
    const std::vector<NetId>& roots) const {
  const std::uint8_t* ops = orig_ops();
  const NetId* ins = orig_ins();
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
    const unsigned pins = fanin_count(static_cast<GateKind>(ops[g]));
    for (unsigned p = 0; p < pins; ++p) {
      const NetId src = ins[g * 3 + p];
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
  w.put_bool(opts_.const_prop);
  w.put_bool(opts_.fuse_inverters);
  w.put_bool(opts_.dead_sweep);
  w.put_u32(n_levels_);
  w.put_vec_u8(op_);
  w.put_vec_u32(in_);
  w.put_vec_u8(inv_);
  w.put_vec_u8(orig_op_);
  w.put_vec_u32(orig_in_);
  w.put_vec_u8(folded_);
  w.put_vec_u8(live_);
  w.put_vec_u32(level_);
  w.put_vec_u32(order_);
  w.put_vec_u32(fan_begin_);
  w.put_vec_u32(fan_);
  w.put_vec_u32(dffs_);
  w.put_vec_u32(remap_begin_);
  w.put_u64(remap_.size());
  for (const Remap& rm : remap_) {
    w.put_u32(rm.slot);
    w.put_u8(rm.invert);
  }
  w.put_vec_u32(marker_begin_);
  w.put_vec_u32(marker_);
}

std::unique_ptr<CompiledNetlist> CompiledNetlist::deserialize(
    const Netlist& nl, common::ByteReader& r) {
  if (r.get_u32() != kSerialVersion) return nullptr;
  CompileOptions opts;
  opts.const_prop = r.get_bool();
  opts.fuse_inverters = r.get_bool();
  opts.dead_sweep = r.get_bool();
  auto cn = std::unique_ptr<CompiledNetlist>(
      new CompiledNetlist(nl, opts, DeserializeTag{}));
  cn->n_levels_ = r.get_u32();
  cn->op_ = r.get_vec_u8();
  cn->in_ = r.get_vec_u32();
  cn->inv_ = r.get_vec_u8();
  cn->orig_op_ = r.get_vec_u8();
  cn->orig_in_ = r.get_vec_u32();
  cn->folded_ = r.get_vec_u8();
  cn->live_ = r.get_vec_u8();
  cn->level_ = r.get_vec_u32();
  cn->order_ = r.get_vec_u32();
  cn->fan_begin_ = r.get_vec_u32();
  cn->fan_ = r.get_vec_u32();
  cn->dffs_ = r.get_vec_u32();
  cn->remap_begin_ = r.get_vec_u32();
  const std::size_t n_remap = r.get_count(5);
  cn->remap_.reserve(n_remap);
  for (std::size_t i = 0; i < n_remap; ++i) {
    Remap rm;
    rm.slot = r.get_u32();
    rm.invert = r.get_u8();
    cn->remap_.push_back(rm);
  }
  cn->marker_begin_ = r.get_vec_u32();
  cn->marker_ = r.get_vec_u32();
  if (!r.ok()) return nullptr;

  // Structural validation: the evaluators index these tables without bounds
  // checks, so a blob that decoded cleanly but names out-of-range gates,
  // inconsistent sizes, or broken CSR offsets is rejected rather than
  // trusted. (The store's payload hash makes this unreachable for honest
  // corruption; it guards key collisions and hand-edited files.)
  const std::size_t n = nl.size();
  const bool any = opts.any();
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
      cn->inv_.size() != n || cn->live_.size() != n ||
      cn->level_.size() != n) {
    return nullptr;
  }
  if (any ? (cn->orig_op_.size() != n || cn->orig_in_.size() != n * 3 ||
             cn->folded_.size() != n)
          : (!cn->orig_op_.empty() || !cn->orig_in_.empty() ||
             !cn->folded_.empty())) {
    return nullptr;
  }
  if (!ids_ok(cn->in_, /*allow_no_net=*/true) ||
      !ids_ok(cn->orig_in_, /*allow_no_net=*/true) || !ids_ok(cn->order_) ||
      !ids_ok(cn->fan_) || !ids_ok(cn->dffs_) || !ids_ok(cn->marker_)) {
    return nullptr;
  }
  if (!csr_ok(cn->fan_begin_, cn->fan_.size())) return nullptr;
  if (any) {
    if (!csr_ok(cn->remap_begin_, cn->remap_.size()) ||
        !csr_ok(cn->marker_begin_, cn->marker_.size())) {
      return nullptr;
    }
    for (const Remap& rm : cn->remap_) {
      if (rm.slot >= n * 3) return nullptr;
    }
  } else if (!cn->remap_begin_.empty() || !cn->remap_.empty() ||
             !cn->marker_begin_.empty() || !cn->marker_.empty()) {
    return nullptr;
  }
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
    std::shared_ptr<const CompiledNetlist> owned, const CompiledNetlist& cn,
    bool event_driven)
    : owned_(std::move(owned)),
      cn_(&cn),
      event_driven_(event_driven),
      opt_(cn.options().any()),
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
      fallback_cnt_(opt_ ? cn.size() : 0, 0),
      dispatch_(cn.size(), 0),
      queue_(cn.levels()),
      queued_(cn.size(), 0) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(const CompiledNetlist& cn,
                                          bool event_driven)
    : CompiledEvaluatorT(nullptr, cn, event_driven) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(const Netlist& nl, bool event_driven)
    : CompiledEvaluatorT(std::make_shared<CompiledNetlist>(nl), event_driven) {}

template <unsigned W>
CompiledEvaluatorT<W>::CompiledEvaluatorT(
    std::shared_ptr<const CompiledNetlist> cn, bool event_driven)
    : CompiledEvaluatorT(cn, *cn, event_driven) {}

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
  if (event_driven_ && !full_pending_) schedule_live(net);
}

// Re-derives a gate's dispatch byte from its current force state. Called on
// every per-gate transition (first force / teardown); the touched lists keep
// the number of calls proportional to the active fault set.
template <unsigned W>
void CompiledEvaluatorT<W>::update_dispatch(NetId g) {
  const bool pf = pin_forced_[g] != 0;
  const bool fb = opt_ && fallback_cnt_[g] != 0;
  std::uint8_t m = 0;
  if (opt_ && cn_->folded_[g] && (pf || fb)) {
    m = kDispatchOrig;
  } else if (pf) {
    m = kDispatchPins;
  }
  if (out_forced_[g]) m |= kDispatchOut;
  dispatch_[g] = m;
}

template <unsigned W>
void CompiledEvaluatorT<W>::force_slot(std::uint32_t slot, bool stuck_value,
                                       const std::uint64_t* lane_mask) {
  // List on the explicit flag, not on "blocks were zero": release_block can
  // zero an already-listed slot, and re-listing it would double-count
  // pin_forced_ (underflowing at teardown).
  if (!pin_listed_[slot]) {
    pin_listed_[slot] = 1;
    touched_pin_.push_back(slot);
    ++pin_forced_[slot / 3];
    update_dispatch(slot / 3);
  }
  std::uint64_t* f = stuck_value ? &pin_f1_[slot * W] : &pin_f0_[slot * W];
  for (unsigned i = 0; i < W; ++i) f[i] |= lane_mask[i];
}

template <unsigned W>
void CompiledEvaluatorT<W>::inject_block(const Site& site, bool stuck_value,
                                         const std::uint64_t* lane_mask) {
  if (!has_faults_) {
    // Undo-log teardown is only sound when a fault-free baseline exists in
    // values_: at least one eval() ran, and no input/state events are still
    // waiting to be consumed (those would be replayed away with the fault).
    undo_active_ = event_driven_ && !full_pending_ && pending_ == 0;
    has_faults_ = true;
  }
  if (site.is_output()) {
    // Same listing discipline as force_slot: the flag, not the block
    // contents, decides whether the gate joins touched_out_ (release_block
    // can zero a listed gate's blocks without delisting it).
    if (!out_forced_[site.gate]) {
      out_forced_[site.gate] = 1;
      touched_out_.push_back(site.gate);
      update_dispatch(site.gate);
    }
    std::uint64_t* f = stuck_value ? &out_f1_[site.gate * W]
                                   : &out_f0_[site.gate * W];
    for (unsigned i = 0; i < W; ++i) f[i] |= lane_mask[i];
  } else {
    force_slot(site.gate * 3 + site.pin, stuck_value, lane_mask);
  }
  if (event_driven_ && !full_pending_) schedule_live(site.gate);
  if (!opt_) return;

  // Fusion remap: copy the force (with parity) onto every pin slot that was
  // retargeted past this gate. A pin-site force on a chain gate reaches its
  // consumers through the gate's own function, hence the extra inversion
  // for kNot.
  const std::uint32_t rb = cn_->remap_begin_[site.gate];
  const std::uint32_t re = cn_->remap_begin_[site.gate + 1];
  if (re != rb) {
    const unsigned extra =
        site.is_output()
            ? 0u
            : (static_cast<GateKind>(cn_->orig_ops()[site.gate]) ==
                       GateKind::kNot
                   ? 1u
                   : 0u);
    for (std::uint32_t r = rb; r < re; ++r) {
      const CompiledNetlist::Remap& m = cn_->remap_[r];
      const NetId target = m.slot / 3;
      if (!cn_->live_[target]) continue;
      force_slot(m.slot, stuck_value ^ (m.invert ^ extra),  lane_mask);
      if (event_driven_ && !full_pending_) schedule(target);
    }
  }

  // Const-prop markers: a fault on a consumed constant re-activates the
  // original evaluation of every transitively folded consumer (which then
  // reads its original, still-live inputs directly — no force value
  // needed).
  const std::uint32_t mb = cn_->marker_begin_[site.gate];
  const std::uint32_t me = cn_->marker_begin_[site.gate + 1];
  for (std::uint32_t m = mb; m < me; ++m) {
    const NetId target = cn_->marker_[m];
    ++fallback_cnt_[target];
    touched_fallback_.push_back(target);
    update_dispatch(target);
    if (event_driven_ && !full_pending_) schedule(target);
  }
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
  if (event_driven_ && !full_pending_) schedule_live(site.gate);
  if (!opt_) return;
  // Strip the fusion-remapped copies too. Both polarities go, so the remap
  // inversion parity is irrelevant. Const-prop fallback activations are
  // deliberately left in place: with zero forces the original evaluation
  // computes the same value as the folded one, and keeping the refcount
  // symmetric with inject/clear avoids underflow at teardown.
  const std::uint32_t rb = cn_->remap_begin_[site.gate];
  const std::uint32_t re = cn_->remap_begin_[site.gate + 1];
  for (std::uint32_t r = rb; r < re; ++r) {
    const CompiledNetlist::Remap& m = cn_->remap_[r];
    const NetId target = m.slot / 3;
    if (!cn_->live_[target]) continue;
    strip(&pin_f0_[m.slot * W], &pin_f1_[m.slot * W]);
    if (event_driven_ && !full_pending_) schedule(target);
  }
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
  } else if (event_driven_ && !full_pending_) {
    // No replayable log (inputs/state moved, or a full sweep ran while the
    // faults were active): re-propagate from the fault sites instead.
    for (NetId g : touched_out_) schedule_live(g);
    for (std::uint32_t slot : touched_pin_) schedule_live(slot / 3);
    for (NetId g : touched_fallback_) schedule(g);
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
  for (NetId g : touched_fallback_) {
    --fallback_cnt_[g];
    update_dispatch(g);
  }
  touched_out_.clear();
  touched_pin_.clear();
  touched_fallback_.clear();
  invalidate_undo();
  has_faults_ = false;
}

// Computes the optimized form with per-pin inversion; kPinF selects whether
// pin forces are applied (post-inversion, matching what the pin would have
// read from the pre-fusion source).
template <unsigned W>
inline void CompiledEvaluatorT<W>::compute_plain(
    NetId g, std::uint64_t* SBST_RESTRICT out) const {
  const NetId* in = &cn_->in_[g * 3];
  const std::uint8_t inv = cn_->inv_[g];
  auto pin = [&](unsigned p, std::uint64_t* dst) SBST_ALWAYS_INLINE {
    const std::uint64_t* v = &values_[in[p] * W];
    const std::uint64_t m = (inv >> p) & 1u ? ~std::uint64_t{0} : 0;
    for (unsigned i = 0; i < W; ++i) dst[i] = v[i] ^ m;
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

// Optimized form with pin forces applied after inversion.
template <unsigned W>
inline void CompiledEvaluatorT<W>::compute(
    NetId g, std::uint64_t* SBST_RESTRICT out) const {
  const NetId* in = &cn_->in_[g * 3];
  const std::uint8_t inv = cn_->inv_[g];
  auto pin = [&](unsigned p, std::uint64_t* dst) SBST_ALWAYS_INLINE {
    const std::uint64_t* v = &values_[in[p] * W];
    const std::uint64_t* pf0 = &pin_f0_[(g * 3 + p) * W];
    const std::uint64_t* pf1 = &pin_f1_[(g * 3 + p) * W];
    const std::uint64_t m = (inv >> p) & 1u ? ~std::uint64_t{0} : 0;
    for (unsigned i = 0; i < W; ++i) {
      dst[i] = ((v[i] ^ m) | pf1[i]) & ~pf0[i];
    }
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

// Original (pre-optimization) form: original opcode and inputs, pin forces
// at original positions, NO inversion masks — exactly the unoptimized
// force-aware compute. Runs for const-folded gates while a pin force or a
// const marker is active on them.
template <unsigned W>
inline void CompiledEvaluatorT<W>::compute_orig(
    NetId g, std::uint64_t* SBST_RESTRICT out) const {
  const NetId* in = &cn_->orig_ins()[g * 3];
  auto pin = [&](unsigned p, std::uint64_t* dst) SBST_ALWAYS_INLINE {
    const std::uint64_t* v = &values_[in[p] * W];
    const std::uint64_t* pf0 = &pin_f0_[(g * 3 + p) * W];
    const std::uint64_t* pf1 = &pin_f1_[(g * 3 + p) * W];
    for (unsigned i = 0; i < W; ++i) {
      dst[i] = (v[i] | pf1[i]) & ~pf0[i];
    }
  };
  std::uint64_t a[W], b[W];
  switch (static_cast<GateKind>(cn_->orig_ops()[g])) {
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
      // Only logic gates are ever const-folded.
      throw std::logic_error("compiled eval: fallback on non-logic gate");
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
        if (m & kDispatchOrig) {
          compute_orig(g, v);
        } else if (m & kDispatchPins) {
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
          if (m & kDispatchOrig) {
            compute_orig(g, v);
          } else if (m & kDispatchPins) {
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
  if (!event_driven_ || full_pending_) {
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
      if (event_driven_ && !full_pending_) schedule(q);
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
      if (event_driven_ && !full_pending_) schedule(q);
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
