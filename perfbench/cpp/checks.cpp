#include "checks.hpp"

#include <cstdio>
#include <sstream>

namespace perfbench {

using sbst::core::CutCoverage;
using sbst::core::InjectionOutcome;
using sbst::core::ProgramEvaluation;

namespace {

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(' ');
  if (a == std::string::npos) return "";
  return s.substr(a, s.find_last_not_of(' ') - a + 1);
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

std::string overall_line(const ProgramEvaluation& ev) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "overall FC %.2f%%; %llu cycles, %llu stalls, %llu data refs",
                ev.overall_fc(),
                static_cast<unsigned long long>(ev.total.cpu_cycles),
                static_cast<unsigned long long>(ev.total.pipeline_stall_cycles),
                static_cast<unsigned long long>(ev.total.data_references()));
  return buf;
}

std::string check_golden_evaluate(const std::string& golden,
                                  const sbst::core::ProcessorModel& model,
                                  const ProgramEvaluation& ev) {
  std::istringstream in(golden);
  std::string line;
  std::size_t row = 0;
  bool overall_seen = false;
  while (std::getline(in, line)) {
    if (line.rfind("overall FC", 0) == 0) {
      if (line != overall_line(ev)) {
        return "overall line: want '" + line + "', got '" + overall_line(ev) +
               "'";
      }
      overall_seen = true;
      continue;
    }
    if (line.find('|') == std::string::npos ||
        line.rfind("Component", 0) == 0) {
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream cs(line);
    for (std::string cell; std::getline(cs, cell, '|');) {
      cells.push_back(trim(cell));
    }
    if (cells.size() != 3) return "malformed golden row '" + line + "'";
    if (row >= ev.cuts.size()) return "golden has more rows than evaluation";
    const CutCoverage& c = ev.cuts[row++];
    const std::string name = model.component(c.id).name;
    const std::string fc = fixed(c.coverage.percent(), 1);
    const std::string miss = fixed(ev.missing_fc(c.id), 2);
    if (cells[0] != name || cells[1] != fc || cells[2] != miss) {
      return "row " + std::to_string(row) + ": want '" + cells[0] + " " +
             cells[1] + " " + cells[2] + "', got '" + name + " " + fc + " " +
             miss + "'";
    }
  }
  if (row != ev.cuts.size()) return "evaluation has more rows than golden";
  if (!overall_seen) return "golden has no overall line";
  return "";
}

std::string check_same_evaluation(const ProgramEvaluation& want,
                                  const ProgramEvaluation& got) {
  if (want.cuts.size() != got.cuts.size()) return "row count differs";
  for (std::size_t i = 0; i < want.cuts.size(); ++i) {
    const CutCoverage& a = want.cuts[i];
    const CutCoverage& b = got.cuts[i];
    const std::string at = "row " + std::to_string(i) + ": ";
    if (a.id != b.id || a.model != b.model) return at + "component differs";
    if (a.collapsed_faults != b.collapsed_faults) return at + "faults differ";
    if (a.stimulus_size != b.stimulus_size) return at + "stimulus differs";
    if (a.coverage.detected != b.coverage.detected) {
      return at + "detected count differs";
    }
    if (a.coverage.detected_flags != b.coverage.detected_flags) {
      return at + "detection flags differ";
    }
  }
  if (want.total.instructions != got.total.instructions ||
      want.total.cpu_cycles != got.total.cpu_cycles ||
      want.total.data_references() != got.total.data_references()) {
    return "traced run stats differ";
  }
  if (want.signatures != got.signatures) return "signatures differ";
  return "";
}

std::string check_same_outcomes(const std::vector<InjectionOutcome>& want,
                                const std::vector<InjectionOutcome>& got) {
  if (want.size() != got.size()) return "outcome count differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const InjectionOutcome& a = want[i];
    const InjectionOutcome& b = got[i];
    const std::string at = "fault " + std::to_string(i) + ": ";
    if (a.outcome != b.outcome) return at + "outcome class differs";
    if (a.stop != b.stop) return at + "stop reason differs";
    if (a.corrupted_results != b.corrupted_results) {
      return at + "corrupted results differ";
    }
    if (a.faulty_stats.instructions != b.faulty_stats.instructions) {
      return at + "faulty instructions differ";
    }
    if (a.faulty_signatures != b.faulty_signatures) {
      return at + "faulty signatures differ";
    }
  }
  return "";
}

std::string check_same_bytes(const std::string& want, const std::string& got) {
  if (want == got) return "";
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  return "responses differ at byte " + std::to_string(i) + " of " +
         std::to_string(want.size());
}

}  // namespace perfbench
