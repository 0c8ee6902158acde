// Measurement helpers of the serving benchmark that do not touch the
// serving stack: the percentile sample-count rule, windowed latency
// summaries, the seeded Poisson arrival schedule, span recording with
// self-time arithmetic, output digests and the result-line JSON. Kept
// apart from the load generator so perfbench_selftest can pin them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- Percentiles --------------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
// 0 for an empty sample.
double percentile(std::vector<double> sample, double p);

// The sample-count rule: a percentile is reportable from n samples only
// when at least ten samples lie beyond it, i.e. n * (100 - p) / 100 >= 10
// (p99 needs n >= 1000). Evaluated in integer per-mille so p99 at exactly
// n = 1000 is not lost to rounding.
bool percentile_resolved(std::uint64_t n, double p);

// ---- Windowed latency summary -------------------------------------------

// One answered or failed request as the load generator saw it.
struct Sample {
  float done_s = 0.0f;      // completion time, seconds since measurement start
  float latency_us = 0.0f;  // from send (closed loop) or due time (open loop)
  bool ok = false;
};

// One fixed window of a run (by completion time).
struct WindowStats {
  double rps = 0.0;          // completions (ok or not) per second
  double goodput_rps = 0.0;  // ok completions within the latency limit per second
  double p50_us = 0.0, p99_us = 0.0;
  std::uint64_t samples = 0;  // ok latencies in the window
};

// Windows of `window_s` seconds covering [0, seconds); samples completing
// after the last full window (in flight at the stop) are left out.
std::vector<WindowStats> window_stats(const std::vector<Sample>& samples, double seconds,
                                      double window_s, double latency_limit_us);

// A run's figures from its windows, pooled over sub-runs: each figure is
// its better quartile across windows (the 75th percentile of rates, the
// 25th of latencies). Stalls of the host only ever make a window worse,
// so the better quartile tracks the program while a change that worsens
// most windows still moves it. A window's p99 joins the pool only when
// the sample-count rule resolves it (a stall can push completions out of
// a window, leaving it too few latencies), unless fewer than half of the
// windows resolve theirs: then every window's p99 counts.
struct Figures {
  double throughput_rps = 0.0, goodput_rps = 0.0, p50_us = 0.0, p99_us = 0.0;
  std::size_t windows = 0;
  std::size_t p99_windows = 0;           // windows whose p99 is resolved
  std::uint64_t samples = 0;             // ok latencies inside the windows
  std::uint64_t min_window_samples = 0;  // fewest ok latencies in one window
};
Figures summarize(const std::vector<WindowStats>& windows);

// ---- Open-loop schedule -------------------------------------------------

// Poisson arrivals at `rate` per second over [0, seconds): due offsets in
// seconds, ascending. Deterministic per seed (exponential gaps from
// vsq::Rng, which is platform-stable).
std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double seconds);

// ---- Spans ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

// A recorded span. Child spans name their parent as "the root span of
// my request" (kParentRequest): a request's spans may come from different
// threads (open loop: the generator submits, the collector waits), so
// parents are resolved by request id when the logs are merged.
struct Span {
  std::uint16_t name = 0;
  std::uint8_t parent = 0;  // kParentNone or kParentRequest
  std::uint64_t req = 0;
  std::int64_t start_ns = 0, end_ns = 0;
};
inline constexpr std::uint8_t kParentNone = 0;
inline constexpr std::uint8_t kParentRequest = 1;

// One thread's span buffer. Not thread-safe: each generator thread owns
// one. Spans past the capacity are counted, not stored.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, std::size_t capacity);

  void add(std::uint16_t name, std::uint8_t parent, std::uint64_t req, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  Clock::time_point origin_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// A merged span with its parent resolved to an index (-1 = root).
struct ResolvedSpan {
  std::uint16_t name = 0;
  std::uint64_t req = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t parent = -1;
};

// Merge thread logs; a kParentRequest span points at the span named
// `root_name` with the same request id (root when there is none).
std::vector<ResolvedSpan> merge_spans(const std::vector<const SpanLog*>& logs,
                                      std::uint16_t root_name);

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals.
std::vector<std::int64_t> self_times_ns(const std::vector<ResolvedSpan>& spans);

// ---- Outputs and result line ---------------------------------------------

// FNV-1a over the exact bit patterns of a float row (and its length): two
// rows digest equal only when every bit matches, up to 64-bit collisions.
std::uint64_t digest_row(const float* row, std::size_t n);

// [A-Za-z0-9_.-]+, first character a letter or digit, at most 64 long.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The run's last stdout line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}, values at full precision.
// Throws std::invalid_argument on an invalid or duplicate name or a
// non-finite value.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
