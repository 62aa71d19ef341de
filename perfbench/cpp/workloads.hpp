// The benchmark's workloads. Each drives the sbst layers only through their
// public headers, times every call from outside, checks every answer, and
// fills the full metric set: the end-to-end metrics untraced, the per-layer
// metrics traced (see perfbench/README.md for the definitions).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable report lines (stderr): failures, sample counts, the
  /// modelled-design statistics.
  std::vector<std::string> notes;
};

/// Names of the workloads, in run order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws on an infrastructure error (missing input
/// files, a daemon that would not start); check failures are counted in
/// Result::failed instead.
Result run_workload(const RunConfig& config);

/// Regenerates the campaign strata file: classifies a fixed subset of the
/// injectable CUTs' collapsed faults and writes up to 24 per outcome class
/// and every class's uncapped count.
void write_campaign_strata(const std::string& path);

}  // namespace perfbench
