// Benchmark plumbing with no dependency on the sbst libraries: order
// statistics, stratified allocation, metric-name validation, the in-memory
// span tracer, and the open-loop request schedule with its due-time
// accounting. Everything here takes its clock as a parameter so the
// self-tests can drive it with a fake one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on a monotonic clock (steady_clock since first use).
double now_s();

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> v);

/// The p-th quantile (0..1) by linear interpolation between order
/// statistics; 0 if empty.
double quantile(std::vector<double> v, double p);

/// The highest of the standard percentiles (50, 75, 90, 95, 99, 99.9) that
/// has at least `beyond` samples strictly above its rank, by nearest rank.
/// `found` is false when even the median has fewer than `beyond` samples
/// beyond it.
struct TailPercentile {
  bool found = false;
  double percent = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
TailPercentile tail_percentile(std::vector<double> v, std::size_t beyond = 10);

/// Proportional stratified allocation of `n` draws over strata whose
/// measured sizes are `counts`: every non-empty stratum first gets one draw
/// (so every class present is drawn), the rest are split in proportion to
/// `counts` by largest remainder (ties to the lower index). Throws
/// std::invalid_argument if `n` is below the number of non-empty strata.
std::vector<std::size_t> stratified_takes(
    const std::vector<std::size_t>& counts, std::size_t n);

/// Metric and workload names: 1 to 64 letters, digits, '_', '.' and '-',
/// starting with a letter or a digit.
bool valid_name(std::string_view name);

/// One recorded interval. `parent` indexes the enclosing span (-1 = root);
/// every span of one benchmark operation carries the same `op` id.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Not thread-safe: spans are recorded from the thread
/// that makes the timed call.
class Tracer {
 public:
  using Clock = std::function<double()>;
  explicit Tracer(bool enabled, Clock clock = now_s);

  /// Starts a new operation; later spans carry its id.
  std::uint64_t next_op() { return ++op_; }
  /// Opens a span under the innermost open span; returns its index (-1 when
  /// disabled).
  int open(std::string name);
  void close(int index);
  /// Records a closed span with explicit times under `parent` (-1 = none),
  /// for intervals timed on other threads; returns its index.
  int record(std::string name, double start, double end, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as JSON lines (name, start, end, parent, op, self).
  bool write(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), index_(tracer.open(std::move(name))) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  bool enabled_;
  Clock clock_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The first `count` arrival times of a seeded Poisson stream at `rate` per
/// second (exponential gaps from time 0).
std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     std::size_t count);

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response completed (all on one clock).
struct RequestTimes {
  double due = 0;
  double sent = 0;
  double done = 0;
};

/// Paces `due` times against `clock`: for each request waits until it is
/// due (via `sleep_until`), then calls `send(i)` and records when it went
/// out. A send that stalls makes later requests late; their due times do
/// not move.
std::vector<RequestTimes> pace_open_loop(
    const std::vector<double>& due, const std::function<double()>& clock,
    const std::function<void(double)>& sleep_until,
    const std::function<void(std::size_t)>& send);

/// Open-loop accounting for a single-server FIFO (the serial serve loop):
/// latency counts from the due time, service starts when the request was
/// sent and the previous one was done, and waiting is start minus due.
struct OpenLoopStats {
  std::vector<double> latency;  // done - due
  std::vector<double> service;  // done - max(sent, previous done)
  std::vector<double> wait;     // max(sent, previous done) - due
  double gen_late_max = 0;      // max(sent - due)
  double busy = 0;              // sum of service
};
OpenLoopStats account_open_loop(const std::vector<RequestTimes>& requests);

}  // namespace perfbench
