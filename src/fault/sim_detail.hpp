// Helpers shared by the serial (sim.cpp) and parallel (sim_parallel.cpp)
// fault-simulation engines. Internal to src/fault.
//
// The grading loops are templated on the evaluator type so every simulator
// runs unchanged on the reference Evaluator, the compiled full-sweep
// evaluator, and the event-driven evaluator (see engine.hpp). They follow a
// single-evaluator discipline — good-machine pass, then per fault
// inject / eval / observe / clear_faults — which the event-driven engine
// turns into one fanout-cone propagation plus an O(touched) revert per
// fault. `reach` (nullable) is the output-cone prefilter: a fault whose
// site cannot structurally reach the observe set is skipped, which cannot
// change its detection flag (it would never be detected anyway).
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

/// Loads pattern block `b` (64 packed patterns) into the evaluator's inputs.
template <class Ev>
void apply_block(Ev& ev, const PatternSet& patterns, std::size_t b) {
  const auto& words = patterns.block(b);
  const auto& inputs = patterns.netlist().inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input_word(inputs[k], words[k]);
  }
}

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

/// Loads the single pattern `p` broadcast into all 64 lanes.
template <class Ev>
void apply_pattern_broadcast(Ev& ev, const PatternSet& patterns,
                             std::size_t p) {
  const auto& words = patterns.block(p / 64);
  const unsigned lane = p % 64;
  const auto& inputs = patterns.netlist().inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input(inputs[k], (words[k] >> lane) & 1u);
  }
  // The whole stimulus just changed; a worklist pass would rediscover a
  // netlist-wide frontier gate by gate, so ask for one level-major sweep.
  ev.request_full_eval();
}

/// One fault at a time, one broadcast pattern at a time (the serial oracle's
/// loop structure).
template <class Ev>
void grade_serial(Ev& ev, const std::vector<Fault>& faults,
                  const PatternSet& patterns, const ObserveSet& observe,
                  const std::uint8_t* reach, std::uint8_t* flags) {
  std::vector<std::uint64_t> good_out(observe.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    apply_pattern_broadcast(ev, patterns, p);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      good_out[o] = ev.value(observe[o]);
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;
      if (reach && !reach[faults[f].site.gate]) continue;
      ev.inject(faults[f].site, faults[f].stuck_value, ~std::uint64_t{0});
      ev.eval();
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if ((good_out[o] ^ ev.value(observe[o])) & 1u) {
          flags[f] = 1;
          break;
        }
      }
      ev.clear_faults();
    }
  }
}

/// PPSFP over all blocks, Ev::kWords blocks per eval: good pass per block
/// group, then one faulty eval per undetected fault with fault dropping.
/// Detection flags are independent of kWords — grouping only changes how
/// many patterns each eval carries, never whether some pattern detects a
/// fault.
template <class Ev>
void grade_comb(Ev& ev, const std::vector<Fault>& faults,
                const PatternSet& patterns, const ObserveSet& observe,
                const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  std::vector<std::uint64_t> good_out(observe.size() * W);
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      for (unsigned w = 0; w < W; ++w) {
        good_out[o * W + w] = ev.value_word(observe[o], w);
      }
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;  // fault dropping
      if (reach && !reach[faults[f].site.gate]) continue;
      ev.inject_broadcast(faults[f].site, faults[f].stuck_value);
      ev.eval();
      for (std::size_t o = 0; o < observe.size() && !flags[f]; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if ((good_out[o * W + w] ^ ev.value_word(observe[o], w)) &
              valid[w]) {
            flags[f] = 1;
            break;
          }
        }
      }
      ev.clear_faults();
    }
  }
}

/// PPSFP over faults [begin, end) against fault-free responses precomputed
/// once for all workers (the threaded block engine's inner loop).
template <class Ev>
void grade_comb_blocks(
    Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
    std::size_t end, const PatternSet& patterns, const ObserveSet& observe,
    const std::vector<std::vector<std::uint64_t>>& good_out,
    const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  std::size_t undetected = end - begin;
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good-machine baseline (the event engine branches from it)
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      if (reach && !reach[faults[f].site.gate]) continue;
      ev.inject_broadcast(faults[f].site, faults[f].stuck_value);
      ev.eval();
      bool det = false;
      for (std::size_t o = 0; o < observe.size() && !det; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if (valid[w] == 0) continue;  // padded word: no good_out row
          if ((good_out[b + w][o] ^ ev.value_word(observe[o], w)) &
              valid[w]) {
            det = true;
            break;
          }
        }
      }
      if (det) {
        flags[f] = 1;
        --undetected;
      }
      ev.clear_faults();
    }
  }
}

/// Cycles per lock-step segment of grade_seq_batches: the granularity at
/// which batches swap on the evaluator and lanes are compacted.
inline constexpr std::size_t kSeqSegment = 16;

/// Sequential grading of faults [begin, end): simulate_seq's parallel-fault
/// loop. A batch packs 64 * kWords - 1 faulty machines beside the good
/// machine in lane 0 and clocks them through the stimulus together.
/// Stuck-at lanes stay forced throughout; transient-SEU / intermittent lanes
/// toggle their force per cycle as their activation streams switch on/off.
/// Releasing a force leaves any divergence it seeded in that lane's
/// flip-flops, which is exactly the windowed semantics: a one-cycle flip can
/// be caught many cycles later.
///
/// Two cuts stop the kernel from simulating lanes whose flags can no longer
/// change. Neither can alter a flag, because a lane's verdict depends only
/// on its own fault:
///  * Early exit: a batch stops once every injected (reach-passing) lane is
///    detected.
///  * Lane compaction (PROOFS, Niermann/Cheng/Patel): the batches advance in
///    lock-step segments of kSeqSegment cycles on one evaluator, which swaps
///    per-batch DFF-state snapshots. After each segment, while the surviving
///    lanes fit in fewer batches, the emptiest batch's survivors move into
///    free lanes of the others, carrying their DFF-state bits, force and
///    activation bit, and that batch dissolves.
///
/// Each cycle is one full sweep by choice: event-driven stepping visits ~41%
/// of the register file's gates per cycle but costs ~2.4x more per visited
/// gate, so it is no faster there and slower on the divider and the
/// pipeline registers.
template <class Ev>
void grade_seq_batches(Ev& ev, const std::vector<Fault>& faults,
                       std::size_t begin, std::size_t end,
                       const SeqStimulus& stimulus, const ObserveSet& observe,
                       const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  constexpr unsigned kLanes = 64 * W;  // lane 0 = good machine
  constexpr std::uint32_t kFree = ~std::uint32_t{0};
  struct Batch {
    std::array<std::uint32_t, kLanes> fault;  // offset from begin, or kFree
    std::uint64_t alive[W] = {};   // injected lanes not yet detected
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
  const bool windowed = faults[begin].model != FaultModel::kStuckAt;
  std::vector<std::uint64_t> keys(windowed ? end - begin : 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = fault_stream_key(faults[begin + i]);
  }

  ev.clear_faults();
  ev.reset_state(false);
  std::vector<std::uint64_t> reset;
  ev.save_state(reset);
  std::vector<Batch> batches;
  for (std::size_t base = begin; base < end; base += kLanes - 1) {
    Batch b;
    b.fault.fill(kFree);
    const std::size_t n = std::min<std::size_t>(kLanes - 1, end - base);
    for (std::size_t j = 0; j < n; ++j) {
      if (reach && !reach[faults[base + j].site.gate]) continue;
      const unsigned lane = static_cast<unsigned>(j + 1);
      b.fault[lane] = static_cast<std::uint32_t>(base + j - begin);
      b.alive[lane / 64] |= std::uint64_t{1} << (lane % 64);
    }
    if (b.survivors() == 0) continue;  // nothing injected, nothing to grade
    if (!windowed) std::copy(b.alive, b.alive + W, b.active);
    b.state = reset;
    batches.push_back(std::move(b));
  }

  const auto& inputs = ev.netlist().inputs();
  const std::size_t none = batches.size();
  std::size_t loaded = none;  // batch whose state and forces `ev` holds
  auto unload = [&] {
    if (loaded != none && batches[loaded].survivors() > 0) {
      ev.save_state(batches[loaded].state);
    }
    loaded = none;
  };
  for (std::size_t s = 0; s < stimulus.size(); s += kSeqSegment) {
    const std::size_t seg_end = std::min(stimulus.size(), s + kSeqSegment);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Batch& b = batches[i];
      if (b.survivors() == 0) continue;
      if (loaded != i) {
        unload();
        ev.load_state(b.state);
        ev.clear_faults();
        std::uint64_t forced[W];
        for (unsigned w = 0; w < W; ++w) forced[w] = b.alive[w] & b.active[w];
        for_lanes(forced, [&](unsigned lane) {
          const Fault& f = faults[begin + b.fault[lane]];
          ev.inject_lane(f.site, f.stuck_value, lane);
        });
        loaded = i;
      }
      for (std::size_t c = s; c < seg_end; ++c) {
        if (windowed) {
          for_lanes(b.alive, [&](unsigned lane) {
            const Fault& f = faults[begin + b.fault[lane]];
            const bool on = fault_active(keys[b.fault[lane]], f.model, c);
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
        if (left == 0) break;  // early exit: every injected lane detected
      }
    }

    // Lane compaction: dissolve the emptiest batch while the survivors fit
    // in one batch fewer. Only live batches take lanes — a finished batch's
    // snapshot stopped at its exit cycle.
    for (;;) {
      std::size_t live = 0, total = 0, from = none;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::size_t n = batches[i].survivors();
        if (n == 0) continue;
        ++live;
        total += n;
        if (from == none || n < batches[from].survivors()) from = i;
      }
      if (live < 2 || total > (live - 1) * (kLanes - 1)) break;
      unload();
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
      src.state = {};
    }
  }
}

// ---- fault-model routing ---------------------------------------------------

/// The (single) model of a homogeneous fault list; throws std::invalid_argument
/// on mixed lists. Empty lists grade as stuck-at (all paths no-op anyway).
FaultModel list_model(const std::vector<Fault>& faults);

// ---- transition grading ----------------------------------------------------

/// Fault-free per-block net values and observe-point responses, precomputed
/// ONCE with the reference Evaluator. Transition grading needs the good value
/// of the faulted LINE itself for launch/capture pairing, and optimized
/// compiled evaluators cannot provide it: dead-sweep liveness is computed on
/// post-fusion edges, so a fused-away gate's value array is stale.
struct TransitionBaseline {
  std::vector<std::vector<std::uint64_t>> vals;  // [block][net]
  std::vector<std::vector<std::uint64_t>> out;   // [block][observe index]
};

TransitionBaseline make_transition_baseline(const netlist::Netlist& nl,
                                            const PatternSet& patterns,
                                            const ObserveSet& observe);

/// Transition grading of faults [begin, end) against a precomputed baseline,
/// block-major so the event engine pays one stimulus propagation per block
/// group. Bitwise-identical flags to the legacy simulate_transition: per
/// block, launch lanes carry the fault-free value sv, capture lanes carry
/// !sv AND the equivalent stuck-at-sv is observed; a fault is detected by a
/// launch at global pattern L and capture at L + 1 (lane 63 chains into lane
/// 0 of the next block, and across group words, via prev_msb).
template <class Ev>
void grade_transition_blocks(Ev& ev, const std::vector<Fault>& faults,
                             std::size_t begin, std::size_t end,
                             const PatternSet& patterns,
                             const ObserveSet& observe,
                             const TransitionBaseline& baseline,
                             const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const netlist::Netlist& nl = patterns.netlist();
  const std::size_t n_blocks = patterns.block_count();
  if (patterns.size() < 2) return;

  // Per-fault cross-block state: the launch bit of the previous block's
  // lane 63 (blocks are visited strictly in order, so one word suffices).
  std::vector<std::uint8_t> prev_msb(end - begin, 0);
  std::size_t undetected = end - begin;
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good-machine baseline (the event engine branches from it)
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      const Fault& fault = faults[f];
      const bool sv = fault.stuck_value;  // captured (faulty) value
      const netlist::NetId line =
          fault.site.is_output() ? fault.site.gate
                                 : nl.gate(fault.site.gate).in[fault.site.pin];
      std::uint64_t launch[W], capture_value[W];
      std::uint64_t any_capture = 0;
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t lv =
            valid[w] ? baseline.vals[b + w][line] : 0;
        launch[w] = (sv ? lv : ~lv) & valid[w];
        capture_value[w] = (sv ? ~lv : lv) & valid[w];
        any_capture |= capture_value[w];
      }
      std::uint64_t detect[W] = {};
      const bool reachable = !reach || reach[fault.site.gate];
      if (any_capture != 0 && reachable) {
        ev.inject_broadcast(fault.site, sv);
        ev.eval();
        for (std::size_t o = 0; o < observe.size(); ++o) {
          for (unsigned w = 0; w < W; ++w) {
            if (valid[w] == 0) continue;  // padded word: no baseline row
            detect[w] |=
                baseline.out[b + w][o] ^ ev.value_word(observe[o], w);
          }
        }
        ev.clear_faults();
      }
      std::uint8_t msb = prev_msb[f - begin];
      for (unsigned w = 0; w < W; ++w) {
        const std::uint64_t capture = capture_value[w] & detect[w];
        if (((launch[w] << 1) & capture) || (msb && (capture & 1u))) {
          flags[f] = 1;
        }
        msb = static_cast<std::uint8_t>((launch[w] >> 63) & 1u);
      }
      prev_msb[f - begin] = msb;
      if (flags[f]) --undetected;
    }
  }
}

// ---- windowed grading (transient SEU / intermittent) -----------------------

/// PPSFP windowed grading, inline good pass (the serial simulate_comb shape):
/// pattern p grades a fault only in lanes where its activation stream is on
/// at global index p.
template <class Ev>
void grade_windowed(Ev& ev, const std::vector<Fault>& faults,
                    const PatternSet& patterns, const ObserveSet& observe,
                    const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  std::vector<std::uint64_t> good_out(observe.size() * W);
  std::vector<std::uint64_t> keys(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    keys[f] = fault_stream_key(faults[f]);
  }
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      for (unsigned w = 0; w < W; ++w) {
        good_out[o * W + w] = ev.value_word(observe[o], w);
      }
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;  // fault dropping
      if (reach && !reach[faults[f].site.gate]) continue;
      std::uint64_t act[W];
      std::uint64_t any = 0;
      for (unsigned w = 0; w < W; ++w) {
        act[w] =
            fault_active_word(keys[f], faults[f].model, b + w) & valid[w];
        any |= act[w];
      }
      if (any == 0) continue;  // fault dormant for this whole block group
      ev.inject_block(faults[f].site, faults[f].stuck_value, act);
      ev.eval();
      for (std::size_t o = 0; o < observe.size() && !flags[f]; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if ((good_out[o * W + w] ^ ev.value_word(observe[o], w)) &
              valid[w]) {
            flags[f] = 1;
            break;
          }
        }
      }
      ev.clear_faults();
    }
  }
}

/// Windowed grading of faults [begin, end) against fault-free responses
/// precomputed once for all workers (the threaded block engine's shape).
template <class Ev>
void grade_windowed_blocks(
    Ev& ev, const std::vector<Fault>& faults, std::size_t begin,
    std::size_t end, const PatternSet& patterns, const ObserveSet& observe,
    const std::vector<std::vector<std::uint64_t>>& good_out,
    const std::uint8_t* reach, std::uint8_t* flags) {
  constexpr unsigned W = Ev::kWords;
  const std::size_t n_blocks = patterns.block_count();
  std::size_t undetected = end - begin;
  std::vector<std::uint64_t> keys(end - begin);
  for (std::size_t f = begin; f < end; ++f) {
    keys[f - begin] = fault_stream_key(faults[f]);
  }
  std::uint64_t valid[W];
  for (std::size_t b = 0; b < n_blocks && undetected > 0; b += W) {
    for (unsigned w = 0; w < W; ++w) {
      valid[w] = b + w < n_blocks ? patterns.valid_lanes(b + w) : 0;
    }
    apply_block_group(ev, patterns, b);
    ev.eval();  // good-machine baseline (the event engine branches from it)
    for (std::size_t f = begin; f < end; ++f) {
      if (flags[f]) continue;  // fault dropping
      if (reach && !reach[faults[f].site.gate]) continue;
      std::uint64_t act[W];
      std::uint64_t any = 0;
      for (unsigned w = 0; w < W; ++w) {
        act[w] = fault_active_word(keys[f - begin], faults[f].model, b + w) &
                 valid[w];
        any |= act[w];
      }
      if (any == 0) continue;  // fault dormant for this whole block group
      ev.inject_block(faults[f].site, faults[f].stuck_value, act);
      ev.eval();
      bool det = false;
      for (std::size_t o = 0; o < observe.size() && !det; ++o) {
        for (unsigned w = 0; w < W; ++w) {
          if (valid[w] == 0) continue;  // padded word: no good_out row
          if ((good_out[b + w][o] ^ ev.value_word(observe[o], w)) &
              valid[w]) {
            det = true;
            break;
          }
        }
      }
      if (det) {
        flags[f] = 1;
        --undetected;
      }
      ev.clear_faults();
    }
  }
}

/// Serial windowed oracle: the grade_serial loop with activation gating — a
/// dormant fault is simply not injected for that pattern.
template <class Ev>
void grade_windowed_serial(Ev& ev, const std::vector<Fault>& faults,
                           const PatternSet& patterns,
                           const ObserveSet& observe,
                           const std::uint8_t* reach, std::uint8_t* flags) {
  std::vector<std::uint64_t> good_out(observe.size());
  std::vector<std::uint64_t> keys(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    keys[f] = fault_stream_key(faults[f]);
  }
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    apply_pattern_broadcast(ev, patterns, p);
    ev.eval();
    for (std::size_t o = 0; o < observe.size(); ++o) {
      good_out[o] = ev.value(observe[o]);
    }
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (flags[f]) continue;
      if (reach && !reach[faults[f].site.gate]) continue;
      if (!fault_active(keys[f], faults[f].model, p)) continue;
      ev.inject(faults[f].site, faults[f].stuck_value, ~std::uint64_t{0});
      ev.eval();
      for (std::size_t o = 0; o < observe.size(); ++o) {
        if ((good_out[o] ^ ev.value(observe[o])) & 1u) {
          flags[f] = 1;
          break;
        }
      }
      ev.clear_faults();
    }
  }
}

}  // namespace detail
}  // namespace sbst::fault
