// Grading kernels shared by sim.cpp and sim_parallel.cpp. Internal to
// src/fault.
//
// Two kernels: combinational PPSFP (every fault model, each with its own
// activation lanes: always, launch/capture pair, or windowed) and
// activity-gated sequential lane-packed batches (a faulty machine holds a
// lane only while it can differ from the good one). Both read a fault-free
// pass computed once per stimulus and shared by every chunk: good responses
// per pattern block, or every net in every clock cycle. They are templated
// on the evaluator type (Ev::kWords lane-block width). The combinational
// kernel follows a single-evaluator discipline — good-machine pass, then
// per fault inject / eval / observe / clear_faults — which the event-driven
// CompiledEvaluatorT turns into one fanout-cone propagation plus an
// O(touched) revert per fault. `reach` (nullable) is the
// output-cone prefilter: a fault whose site cannot structurally reach the
// observe set is skipped, which cannot change its detection flag (it would
// never be detected anyway).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "netlist/netlist.hpp"

namespace sbst::fault {

using ObserveSet = std::vector<netlist::NetId>;

namespace detail {

/// Empty observe set -> all declared outputs; throws if the netlist has none.
ObserveSet resolve_observe(const netlist::Netlist& nl,
                           const ObserveSet& observe);

void require_combinational(const netlist::Netlist& nl, const char* who);

/// Loads pattern blocks [b0, b0 + Ev::kWords) into the words of the
/// evaluator's lane blocks — 64 * kWords patterns per eval. Trailing
/// missing blocks are zero-padded (their valid-lane masks are 0, so the
/// padding never grades anything).
template <class Ev>
void apply_block_group(Ev& ev, const PatternSet& patterns, std::size_t b0) {
  constexpr unsigned W = Ev::kWords;
  const auto& inputs = patterns.netlist().inputs();
  const std::size_t n_blocks = patterns.block_count();
  std::uint64_t block[W];
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (unsigned w = 0; w < W; ++w) {
      block[w] = b0 + w < n_blocks ? patterns.block(b0 + w)[k] : 0;
    }
    ev.set_input_block(inputs[k], block);
  }
}

/// Fault-free responses per pattern block: good[b][o] is the word of
/// observe[o] under pattern block b.
using GoodResponses = std::vector<std::vector<std::uint64_t>>;

/// One good-machine pass per block group on `ev`. Computed once per grading
/// and shared read-only by every chunk task.
template <class Ev>
GoodResponses comb_good_responses(Ev& ev, const PatternSet& patterns,
                                  const ObserveSet& observe) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  GoodResponses good(n_blocks);
  for (std::size_t b = 0; b < n_blocks; b += W) {
    apply_block_group(ev, patterns, b);
    ev.eval();
    for (unsigned w = 0; w < W && b + w < n_blocks; ++w) {
      good[b + w].resize(observe.size());
      for (std::size_t o = 0; o < observe.size(); ++o) {
        good[b + w][o] = ev.value_word(observe[o], w);
      }
    }
  }
  return good;
}

/// Combinational PPSFP over faults [begin, end) of a homogeneous list: per
/// block group (Ev::kWords blocks of 64 patterns), one good-machine eval,
/// then one faulty eval per still-undetected fault, compared against the
/// precomputed `good` responses. A fault is forced only in its activation
/// lanes, and a fault dormant for the whole group is not evaluated at all:
///  * stuck-at: every valid lane;
///  * transient-SEU / intermittent: the lanes where its activation stream
///    is on;
///  * transition: the capture lanes of a launch/capture pair — the good
///    line carries the pre-transition value sv at pattern p - 1 and !sv at
///    p, so forcing sv at p is the delayed transition. The good line value
///    is read off the good-machine eval; the launch bit of lane 63 carries
///    into lane 0 of the next word (and block group).
/// Faults already flagged on entry (e.g. pre-dropped by an ATPG loop) are
/// skipped, and the kernel stops once every fault of the slice is detected.
/// Flags are independent of kWords: grouping only changes how many patterns
/// each eval carries.
template <class Ev>
void grade_comb_blocks(Ev& ev, const std::vector<Fault>& faults,
                       std::size_t begin, std::size_t end,
                       const PatternSet& patterns, const ObserveSet& observe,
                       const GoodResponses& good, const std::uint8_t* reach,
                       std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  if (begin >= end) return;
  const FaultModel model = faults[begin].model;
  const bool transition = model == FaultModel::kTransition;
  const bool windowed = model != FaultModel::kStuckAt && !transition;
  std::vector<std::uint64_t> keys(windowed ? end - begin : 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = fault_stream_key(faults[begin + i]);
  }
  // Launch bit of the previous word's lane 63, per transition fault.
  std::vector<std::uint64_t> carry(transition ? end - begin : 0);
  std::size_t undetected = 0;
  for (std::size_t f = begin; f < end; ++f) undetected += flags[f] ? 0 : 1;
  const netlist::Netlist& nl = patterns.netlist();
  const std::size_t n_blocks = patterns.block_count();
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good-machine baseline the faulty evals branch from
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      const Fault& fault = faults[f];
      if (reach && !reach[fault.site.gate]) continue;
      std::uint64_t act[W];
      std::uint64_t any = 0;
      if (transition) {
        const netlist::NetId line =
            fault.site.is_output()
                ? fault.site.gate
                : nl.gate(fault.site.gate).in[fault.site.pin];
        std::uint64_t& c = carry[f - begin];
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t lv = ev.value_word(line, w);
          const std::uint64_t at_sv = fault.stuck_value ? lv : ~lv;
          const std::uint64_t launch = at_sv & valid[w];
          act[w] = ~at_sv & valid[w] & ((launch << 1) | c);  // capture lanes
          c = launch >> 63;
          any |= act[w];
        }
      } else {
        for (unsigned w = 0; w < W; ++w) {
          act[w] = windowed ? fault_active_word(keys[f - begin], model,
                                                b + w) &
                                  valid[w]
                            : valid[w];
          any |= act[w];
        }
      }
      if (any == 0) continue;  // fault dormant for this whole block group
      ev.inject_block(fault.site, fault.stuck_value, act);
      ev.eval();
      bool det = false;
      for (std::size_t o = 0; o < observe.size() && !det; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if (valid[w] == 0) continue;  // padded word: no good row
          if ((good[b + w][o] ^ ev.value_word(observe[o], w)) & act[w]) {
            det = true;
            break;
          }
        }
      }
      ev.clear_faults();
      if (det) {
        flags[f] = 1;
        --undetected;
      }
    }
  }
}

/// The fault-free machine over a clocked stimulus: bit c % 64 of
/// bits[net * words + c / 64] is the net's value in cycle c (for a DFF, the
/// state it enters the cycle with). Recorded once per stimulus and shared
/// read-only by every sequential grading of it, whatever the fault model.
struct SeqGoodRecord {
  std::size_t words = 0;  // 64-cycle words per net
  std::vector<std::uint64_t> bits;

  const std::uint64_t* net(netlist::NetId n) const { return &bits[n * words]; }
  bool at(netlist::NetId n, std::size_t c) const {
    return (net(n)[c / 64] >> (c % 64)) & 1u;
  }
};

/// Runs `stimulus` fault-free on `ev` from the all-zero reset state and
/// records every net in every cycle.
template <class Ev>
SeqGoodRecord seq_good_record(Ev& ev, const SeqStimulus& stimulus) {
  const netlist::Netlist& nl = ev.netlist();
  const auto& inputs = nl.inputs();
  SeqGoodRecord rec;
  rec.words = (stimulus.size() + 63) / 64;
  rec.bits.assign(nl.size() * rec.words, 0);
  ev.clear_faults();
  ev.reset_state(false);
  for (std::size_t c = 0; c < stimulus.size(); ++c) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ev.set_input(inputs[k], stimulus.input_bit(c, k));
    }
    ev.step();
    std::uint64_t* col = &rec.bits[c / 64];
    for (netlist::NetId n = 0; n < nl.size(); ++n) {
      col[n * rec.words] |= (ev.value(n) & 1u) << (c % 64);
    }
  }
  return rec;
}

/// Cycles per segment of grade_seq_gated: the granularity at which lanes
/// are admitted, evicted and compacted, and batches swap on the evaluator.
inline constexpr std::size_t kSeqSegment = 4;

/// Sequential grading of faults [begin, end) against `stimulus`, whose
/// fault-free run is `good`. A batch packs up to 64 * kWords - 1 faulty
/// machines beside the good machine in lane 0 and clocks them together.
/// Stuck-at lanes stay forced; transient-SEU / intermittent lanes toggle
/// their force per cycle as their activation streams switch on/off.
/// Releasing a force leaves any divergence it seeded in that lane's
/// flip-flops, which is exactly the windowed semantics: a one-cycle flip can
/// be caught many cycles later.
///
/// Activity gating (HOPE, Lee & Ha): in a cycle where a faulty machine's
/// DFF state equals the good machine's and its fault is not excited
/// (inactive, or the good value of its line equals its stuck value), the
/// machine computes exactly the good outputs and next state, so it can
/// neither be detected nor diverge. Such a fault holds no lane. The batches
/// of a chunk advance in segments of kSeqSegment cycles on one evaluator,
/// which swaps per-batch DFF-state snapshots. At each segment start:
///  * eviction: a lane whose state equals lane 0's and whose fault is not
///    excited in the segment is freed, with nothing saved;
///  * admission: a fault excited in the segment takes a free lane, which
///    starts from the good state (a batch left without lanes restarts from
///    `good`, a new batch opens only when every lane is taken);
///  * compaction (PROOFS, Niermann/Cheng/Patel): while the lanes fit in one
///    batch fewer, the emptiest batch's lanes move into free lanes of the
///    others, carrying their DFF-state bits and activation bit, and that
///    batch dissolves.
/// Each batch that holds lanes then reloads its state and forces and runs
/// the segment, stopping early once all its lanes are detected. No flag can
/// change: a lane's verdict depends only on its own fault, and a fault holds
/// a lane in every cycle where its machine can differ from the good one.
/// Faults outside `reach`, and faults on a DFF's D pin (which the
/// evaluators ignore), never take a lane.
///
/// Each cycle is one full sweep by choice: event-driven stepping visits ~41%
/// of the register file's gates per cycle but costs ~2.4x more per visited
/// gate, so it is no faster there and slower on the divider and the
/// pipeline registers.
template <class Ev>
void grade_seq_gated(Ev& ev, const std::vector<Fault>& faults,
                     std::size_t begin, std::size_t end,
                     const SeqStimulus& stimulus, const SeqGoodRecord& good,
                     const ObserveSet& observe, const std::uint8_t* reach,
                     std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  constexpr unsigned kLanes = 64 * W;  // lane 0 = good machine
  constexpr std::size_t kNever = ~std::size_t{0};
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  struct Batch {
    std::array<std::uint32_t, kLanes> fault{};  // offset from begin
    std::uint64_t alive[W] = {};   // lanes holding an undetected fault
    std::uint64_t active[W] = {};  // lanes whose force is on
    std::vector<std::uint64_t> state;  // DFF snapshot between segments
    std::size_t survivors() const {
      std::size_t n = 0;
      for (unsigned w = 0; w < W; ++w) n += std::popcount(alive[w]);
      return n;
    }
  };
  // Calls fn(lane) for every set lane of a kWords-word mask.
  auto for_lanes = [](const std::uint64_t* mask, auto&& fn) {
    for (unsigned w = 0; w < W; ++w) {
      for (std::uint64_t m = mask[w]; m != 0; m &= m - 1) {
        fn(w * 64 + static_cast<unsigned>(std::countr_zero(m)));
      }
    }
  };
  if (begin >= end) return;
  const netlist::Netlist& nl = ev.netlist();
  const std::vector<netlist::NetId>& dffs = ev.compiled().dffs();
  const FaultModel model = faults[begin].model;
  const bool windowed = model != FaultModel::kStuckAt;
  const std::size_t n = end - begin;
  const std::size_t cycles = stimulus.size();

  // Per fault: the line whose good value excites it, its activation key,
  // the next cycle it is excited in (kNever: never again), and whether it
  // holds a lane.
  std::vector<netlist::NetId> line(n);
  std::vector<std::uint64_t> keys(windowed ? n : 0);
  std::vector<std::size_t> next(n, kNever);
  std::vector<std::uint8_t> held(n, 0);
  auto excitation = [&](std::size_t i, std::size_t from) {
    const std::uint64_t* bits = good.net(line[i]);
    const std::uint64_t sv = faults[begin + i].stuck_value ? kAll : 0;
    std::uint64_t mask = kAll << (from % 64);
    for (std::size_t w = from / 64; w < good.words; ++w, mask = kAll) {
      std::uint64_t x = (bits[w] ^ sv) & mask;
      if (windowed && x != 0) x &= fault_active_word(keys[i], model, w);
      if (x != 0) {
        const std::size_t c = w * 64 + std::countr_zero(x);
        return c < cycles ? c : kNever;
      }
    }
    return kNever;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Fault& f = faults[begin + i];
    const netlist::Gate& g = nl.gate(f.site.gate);
    if (flags[begin + i] || (reach && !reach[f.site.gate])) continue;
    if (!f.site.is_output() && g.kind == netlist::GateKind::kDff) continue;
    line[i] = f.site.is_output() ? f.site.gate : g.in[f.site.pin];
    if (windowed) keys[i] = fault_stream_key(f);
    next[i] = excitation(i, 0);
  }

  const auto& inputs = nl.inputs();
  std::vector<Batch> batches;
  std::vector<std::uint32_t> admit;
  for (std::size_t s = 0; s < cycles; s += kSeqSegment) {
    const std::size_t seg_end = std::min(cycles, s + kSeqSegment);

    // Eviction: lanes back on the good machine and not excited until after
    // this segment.
    for (Batch& b : batches) {
      if (b.survivors() == 0) continue;
      std::uint64_t diverged[W] = {};
      for (std::size_t k = 0; k < b.state.size(); k += W) {
        const std::uint64_t g = b.state[k] & 1u ? kAll : 0;
        for (unsigned w = 0; w < W; ++w) diverged[w] |= b.state[k + w] ^ g;
      }
      std::uint64_t evict[W] = {};
      for_lanes(b.alive, [&](unsigned lane) {
        const std::uint32_t i = b.fault[lane];
        if ((diverged[lane / 64] >> (lane % 64)) & 1u) return;
        if (next[i] < s) next[i] = excitation(i, s);
        if (next[i] < seg_end) return;
        evict[lane / 64] |= std::uint64_t{1} << (lane % 64);
        held[i] = 0;
      });
      for (unsigned w = 0; w < W; ++w) b.alive[w] &= ~evict[w];
    }

    // Admission: dormant faults excited in this segment take free lanes of
    // the batches that hold lanes, then of emptied batches, then of new ones.
    admit.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!held[i] && !flags[begin + i] && next[i] < seg_end) {
        admit.push_back(static_cast<std::uint32_t>(i));
      }
    }
    std::size_t taken = 0;
    auto fill = [&](Batch& b) {
      std::uint64_t fresh[W] = {};
      for (unsigned lane = 1; lane < kLanes && taken < admit.size(); ++lane) {
        const unsigned w = lane / 64;
        const std::uint64_t m = std::uint64_t{1} << (lane % 64);
        if (b.alive[w] & m) continue;
        const std::uint32_t i = admit[taken++];
        b.fault[lane] = i;
        b.alive[w] |= m;
        fresh[w] |= m;
        held[i] = 1;
      }
      // A fresh lane starts as the good machine in lane 0, unforced; a lane
      // freed by a detection still holds its last fault's state.
      for (unsigned w = 0; w < W; ++w) {
        b.active[w] = windowed ? b.active[w] & ~fresh[w] : b.alive[w];
      }
      for (std::size_t k = 0; k < b.state.size(); k += W) {
        const std::uint64_t g = b.state[k] & 1u ? kAll : 0;
        for (unsigned w = 0; w < W; ++w) {
          b.state[k + w] = (b.state[k + w] & ~fresh[w]) | (g & fresh[w]);
        }
      }
    };
    auto restart = [&](Batch& b) {
      std::fill(b.active, b.active + W, 0);
      b.state.resize(dffs.size() * W);
      for (std::size_t k = 0; k < dffs.size(); ++k) {
        const std::uint64_t g = good.at(dffs[k], s) ? kAll : 0;
        std::fill_n(b.state.begin() + k * W, W, g);
      }
      fill(b);
    };
    for (Batch& b : batches) {
      if (b.survivors() > 0) fill(b);
    }
    for (Batch& b : batches) {
      if (taken < admit.size() && b.survivors() == 0) restart(b);
    }
    while (taken < admit.size()) restart(batches.emplace_back());

    // Lane compaction: dissolve the emptiest batch while the lanes fit in
    // one batch fewer.
    const std::size_t none = batches.size();
    for (;;) {
      std::size_t live = 0, total = 0, from = none;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::size_t k = batches[i].survivors();
        if (k == 0) continue;
        ++live;
        total += k;
        if (from == none || k < batches[from].survivors()) from = i;
      }
      if (live < 2 || total > (live - 1) * (kLanes - 1)) break;
      Batch& src = batches[from];
      std::size_t to = 0;
      unsigned dl = 1;
      for_lanes(src.alive, [&](unsigned sl) {
        // Next free lane of a live batch other than the source.
        for (;; ++dl) {
          if (to == from || batches[to].survivors() == 0 || dl == kLanes) {
            ++to;
            dl = 0;  // the loop increment skips lane 0, the good machine
          } else if (!((batches[to].alive[dl / 64] >> (dl % 64)) & 1u)) {
            break;
          }
        }
        Batch& dst = batches[to];
        const std::uint64_t dm = std::uint64_t{1} << (dl % 64);
        const unsigned sw = sl / 64, ss = sl % 64, dw = dl / 64;
        dst.fault[dl] = src.fault[sl];
        dst.alive[dw] |= dm;
        dst.active[dw] = (dst.active[dw] & ~dm) |
                         (((src.active[sw] >> ss) & 1u) ? dm : 0);
        for (std::size_t k = 0; k < dst.state.size(); k += W) {
          dst.state[k + dw] = (dst.state[k + dw] & ~dm) |
                              (((src.state[k + sw] >> ss) & 1u) ? dm : 0);
        }
        ++dl;
      });
      std::fill(src.alive, src.alive + W, 0);
    }

    // Run the segment, batch by batch.
    for (Batch& b : batches) {
      if (b.survivors() == 0) continue;
      ev.load_state(b.state);
      ev.clear_faults();
      std::uint64_t forced[W];
      for (unsigned w = 0; w < W; ++w) forced[w] = b.alive[w] & b.active[w];
      for_lanes(forced, [&](unsigned lane) {
        const Fault& f = faults[begin + b.fault[lane]];
        ev.inject_lane(f.site, f.stuck_value, lane);
      });
      for (std::size_t c = s; c < seg_end; ++c) {
        if (windowed) {
          for_lanes(b.alive, [&](unsigned lane) {
            const Fault& f = faults[begin + b.fault[lane]];
            const bool on = fault_active(keys[b.fault[lane]], model, c);
            std::uint64_t& act = b.active[lane / 64];
            const std::uint64_t m = std::uint64_t{1} << (lane % 64);
            if (on == ((act & m) != 0)) return;
            if (on) {
              ev.inject_lane(f.site, f.stuck_value, lane);
            } else {
              ev.release_lane(f.site, lane);
            }
            act ^= m;
          });
        }
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          ev.set_input(inputs[k], stimulus.input_bit(c, k));
        }
        ev.request_full_eval();
        ev.step();
        if (!stimulus.observed(c)) continue;
        std::uint64_t detected[W] = {};
        for (netlist::NetId out : observe) {
          for (unsigned w = 0; w < W; ++w) {
            detected[w] |= ev.diff_word(out, w, 0);
          }
        }
        std::uint64_t left = 0;
        for (unsigned w = 0; w < W; ++w) {
          detected[w] &= b.alive[w];
          b.alive[w] &= ~detected[w];
          left |= b.alive[w];
        }
        for_lanes(detected, [&](unsigned lane) {
          flags[begin + b.fault[lane]] = 1;
        });
        if (left == 0) break;  // early exit: every lane detected
      }
      ev.save_state(b.state);
    }
  }
}

// ---- fault-model routing ---------------------------------------------------

/// The (single) model of a homogeneous fault list; throws std::invalid_argument
/// on mixed lists. Empty lists grade as stuck-at (all paths no-op anyway).
FaultModel list_model(const std::vector<Fault>& faults);

}  // namespace detail
}  // namespace sbst::fault
