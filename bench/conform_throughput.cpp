// Conformance-corpus replay throughput: cases / second per executor.
//
// Generates a randomized corpus in memory, then replays every case through
// each of the three executors (reference interpreter, predecoded micro-op
// core, guarded watchdog run) separately, timing each leg. Every replay is
// also diffed against the case's recorded post-state — a throughput number
// from a diverging executor would be meaningless, so any mismatch is a hard
// failure.
//
// Usage: conform_throughput [count] [seed]
// Emits a table to stdout and machine-readable BENCH_conform.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/tablefmt.hpp"
#include "conform/gen.hpp"
#include "conform/runner.hpp"
#include "core/component.hpp"
#include "core/session.hpp"

using namespace sbst;
using conform::Executor;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BenchRow {
  std::string key;
  double seconds = 0;
  double cases_per_sec = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t count =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2200;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  const conform::CaseGen gen({.seed = seed, .count = count});
  const auto t_gen = std::chrono::steady_clock::now();
  const conform::Corpus corpus = gen.generate();
  const double gen_s = seconds_since(t_gen);

  std::size_t traps = 0;
  for (const conform::ConformCase& c : corpus.cases) {
    if (!c.trap.empty()) ++traps;
  }
  std::printf("corpus: %zu cases, %zu classes, %zu trap cases, seed %llu, "
              "content hash %016llx\n",
              corpus.cases.size(),
              conform::corpus_class_names(corpus).size(), traps,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(
                  conform::corpus_content_hash(corpus)));

  std::vector<BenchRow> rows;
  rows.push_back({"generate", gen_s,
                  static_cast<double>(count) / gen_s});

  // The session hands each replay leg the shared predecoded image from its
  // content-addressed cache.
  core::ProcessorModel model;
  core::GradingSession session(model, {.num_threads = 1, .store = nullptr});

  const Executor executors[] = {Executor::kInterpreter, Executor::kDecoded,
                                Executor::kGuarded};
  for (const Executor exec : executors) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t mismatches = 0;
    for (const conform::ConformCase& c : corpus.cases) {
      isa::Program image;
      image.base = c.entry;
      image.words = c.code;
      const conform::Replay r =
          conform::replay_case(c, exec, session.decoded(image));
      if (r.state != c.final_state || r.trap != c.trap) ++mismatches;
    }
    const double s = seconds_since(t0);
    if (mismatches != 0) {
      std::fprintf(stderr, "FAIL: %zu mismatches on %s\n", mismatches,
                   conform::executor_name(exec));
      return 1;
    }
    rows.push_back({conform::executor_name(exec), s,
                    static_cast<double>(count) / s});
  }

  Table t({"Stage", "Seconds", "Cases / s"});
  for (const BenchRow& r : rows) {
    t.add_row({r.key, Table::num(r.seconds, 3),
               Table::num(r.cases_per_sec, 0)});
  }
  t.print();

  std::FILE* json = std::fopen("BENCH_conform.json", "w");
  if (!json) {
    std::perror("BENCH_conform.json");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"cases\": %zu,\n"
               "  \"classes\": %zu,\n"
               "  \"trap_cases\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"content_hash\": \"%016llx\",\n"
               "  \"stages\": {\n",
               corpus.cases.size(),
               conform::corpus_class_names(corpus).size(), traps,
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(
                   conform::corpus_content_hash(corpus)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(json,
                 "    \"%s\": {\"seconds\": %.6f, \"cases_per_sec\": %.0f}"
                 "%s\n",
                 rows[i].key.c_str(), rows[i].seconds, rows[i].cases_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::puts("wrote BENCH_conform.json");
  return 0;
}
