// Fault simulators: grade a fault list against a stimulus, counting a
// fault detected when an observed output differs from the fault-free
// response.
//
//  * simulate_comb:  PPSFP — 256 packed patterns per pass, one fault
//                    re-simulated per pass with fault dropping.
//                    Combinational netlists only.
//  * simulate_seq:   parallel-fault — lane 0 is the fault-free machine, the
//                    other 255 lanes carry faulty machines through the whole
//                    clocked stimulus. Works for sequential netlists
//                    (divider, register file, memory controller).
//
// Both run the production kernels of sim_detail.hpp on the calling thread;
// the multi-threaded front doors (fault-partitioned thread pool, bitwise-
// identical results) live in sim_parallel.hpp. The one-fault-at-a-time
// oracles these are cross-checked against are test-only
// (tests/comb_oracle.hpp, tests/seq_oracle.hpp).
#pragma once

#include <optional>
#include <vector>

#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "fault/pattern.hpp"

namespace sbst::fault {

/// Restricts which output nets count as observation points (e.g. only the
/// outputs a self-test routine actually propagates). Empty = all outputs.
using ObserveSet = std::vector<netlist::NetId>;

CoverageResult simulate_comb(const netlist::Netlist& nl,
                             const std::vector<Fault>& faults,
                             const PatternSet& patterns,
                             const ObserveSet& observe = {});

CoverageResult simulate_seq(const netlist::Netlist& nl,
                            const std::vector<Fault>& faults,
                            const SeqStimulus& stimulus,
                            const ObserveSet& observe = {});

/// Incremental PPSFP grading for fault-dropping loops (ATPG test-set
/// generation): simulates `patterns` against the faults whose `flags` entry
/// is still 0 and sets the flag of each new detection. Reuses a prebuilt
/// EngineContext so repeated calls (one per pattern batch) pay for
/// compilation and cone marking once. Flags are bitwise-identical to
/// grading all batches together in one call.
void simulate_comb_into(const EngineContext& ctx,
                        const std::vector<Fault>& faults,
                        const PatternSet& patterns, std::uint8_t* flags);

/// Fault-free responses of a combinational netlist: for each pattern, the
/// value of each observed output net (packed per pattern in pattern order).
/// Used by TPG-quality analyses and the MISR aliasing experiments.
std::vector<std::vector<bool>> good_responses(const netlist::Netlist& nl,
                                              const PatternSet& patterns,
                                              const ObserveSet& observe = {});

}  // namespace sbst::fault
