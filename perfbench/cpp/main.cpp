// perfbench — the sbst repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --write-strata perfbench/campaign_strata.txt
//
// Runs one workload (table1, fault_models, campaign, serve) for about S
// seconds and prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Notes (sample counts, failed checks, the modelled-design
// statistics) go to stderr. See perfbench/README.md.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload table1|fault_models|campaign|serve "
      "[--seed N] [--seconds S] [--trace 0|1]\n",
      stderr);
  return 2;
}

bool parse_uint(const char* s, unsigned long long& out) {
  if (!s || !*s) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0' && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (argc == 3 && std::string(argv[1]) == "--write-strata") {
    try {
      perfbench::write_campaign_strata(argv[2]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    unsigned long long n = 0;
    if (arg == "--workload" && value) {
      cfg.workload = value;
    } else if (arg == "--seed" && parse_uint(value, n)) {
      cfg.seed = n;
    } else if (arg == "--seconds" && parse_uint(value, n) && n > 0 &&
               n <= 3600) {
      cfg.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_uint(value, n) && n <= 1) {
      cfg.trace = n == 1;
    } else {
      return usage();
    }
    ++i;
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == cfg.workload;
  }
  if (!known) return usage();
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::Result r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "# %s\n", note.c_str());
  }
  std::fprintf(stderr, "# failed_frac %zu/%zu\n", r.failed, r.attempted);
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
