#include "util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

TailPercentile tail_percentile(std::vector<double> v, std::size_t beyond) {
  TailPercentile t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest sample with at least pct% at or below it.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    if (rank == 0 || rank > v.size()) continue;
    const std::size_t above = v.size() - rank;
    if (above >= beyond) {
      t.found = true;
      t.percent = pct;
      t.value = v[rank - 1];
      t.beyond = above;
      return t;
    }
  }
  return t;
}

std::vector<std::size_t> stratified_takes(
    const std::vector<std::size_t>& counts, std::size_t n) {
  std::size_t present = 0, total = 0;
  for (const std::size_t c : counts) {
    present += c > 0;
    total += c;
  }
  if (n < present) {
    throw std::invalid_argument("fewer draws than non-empty strata");
  }
  std::vector<std::size_t> take(counts.size());
  std::vector<std::pair<double, std::size_t>> rest;  // (-remainder, index)
  std::size_t left = n;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    const double quota = static_cast<double>(n - present) *
                         static_cast<double>(counts[k]) /
                         static_cast<double>(total);
    take[k] = 1 + static_cast<std::size_t>(quota);
    left -= take[k];
    rest.emplace_back(-(quota - std::floor(quota)), k);
  }
  std::sort(rest.begin(), rest.end());
  for (std::size_t i = 0; i < left; ++i) ++take[rest[i].second];
  return take;
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;  // end of the covered prefix so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled, Clock clock)
    : enabled_(enabled), clock_(std::move(clock)) {}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start = clock_();
  s.end = s.start;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = clock_();
  // Spans close innermost first; tolerate a scope closed out of order.
  const auto it = std::find(stack_.begin(), stack_.end(), index);
  stack_.erase(it, stack_.end());
}

int Tracer::record(std::string name, double start, double end, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.op = op_;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"op\": %llu, \"self\": %.9f}\n",
                 s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.op), self[i]);
  }
  return std::fclose(f) == 0;
}

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     std::size_t count) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(rng); due.size() < count; t += gap(rng)) due.push_back(t);
  return due;
}

std::vector<RequestTimes> pace_open_loop(
    const std::vector<double>& due, const std::function<double()>& clock,
    const std::function<void(double)>& sleep_until,
    const std::function<void(std::size_t)>& send) {
  std::vector<RequestTimes> out(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    out[i].due = due[i];
    if (clock() < due[i]) sleep_until(due[i]);
    out[i].sent = clock();
    send(i);
  }
  return out;
}

OpenLoopStats account_open_loop(const std::vector<RequestTimes>& requests) {
  OpenLoopStats st;
  double prev_done = -1e300;
  for (const RequestTimes& r : requests) {
    const double start = std::max(r.sent, prev_done);
    st.latency.push_back(r.done - r.due);
    st.service.push_back(r.done - start);
    st.wait.push_back(start - r.due);
    st.gen_late_max = std::max(st.gen_late_max, r.sent - r.due);
    st.busy += r.done - start;
    prev_done = r.done;
  }
  return st;
}

}  // namespace perfbench
