#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

bool percentile_resolved(std::uint64_t n, double p) {
  const auto permille = static_cast<std::uint64_t>(std::llround(std::clamp(p, 0.0, 100.0) * 10.0));
  return n * (1000 - permille) >= 10 * 1000;
}

std::vector<WindowStats> window_stats(const std::vector<Sample>& samples, double seconds,
                                      double window_s, double latency_limit_us) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::floor(seconds / window_s)));
  const double span_s = window_s * static_cast<double>(n);
  std::vector<std::vector<double>> lat(n);
  std::vector<std::uint64_t> done(n, 0), good(n, 0);
  for (const Sample& s : samples) {
    if (!(s.done_s >= 0.0f) || s.done_s >= span_s) continue;
    const auto w = std::min(n - 1, static_cast<std::size_t>(s.done_s / window_s));
    ++done[w];
    if (!s.ok) continue;
    lat[w].push_back(s.latency_us);
    if (s.latency_us <= latency_limit_us) ++good[w];
  }
  std::vector<WindowStats> out(n);
  for (std::size_t w = 0; w < n; ++w) {
    out[w].rps = static_cast<double>(done[w]) / window_s;
    out[w].goodput_rps = static_cast<double>(good[w]) / window_s;
    out[w].p50_us = percentile(lat[w], 50.0);
    out[w].p99_us = percentile(lat[w], 99.0);
    out[w].samples = lat[w].size();
  }
  return out;
}

Figures summarize(const std::vector<WindowStats>& windows) {
  Figures f;
  if (windows.empty()) return f;
  std::vector<double> rps, good, p50, p99, p99_all;
  f.min_window_samples = std::numeric_limits<std::uint64_t>::max();
  for (const WindowStats& w : windows) {
    rps.push_back(w.rps);
    good.push_back(w.goodput_rps);
    p50.push_back(w.p50_us);
    if (percentile_resolved(w.samples, 99.0)) p99.push_back(w.p99_us);
    p99_all.push_back(w.p99_us);
    f.samples += w.samples;
    f.min_window_samples = std::min(f.min_window_samples, w.samples);
  }
  f.windows = windows.size();
  f.p99_windows = p99.size();
  f.throughput_rps = percentile(rps, 75.0);
  f.goodput_rps = percentile(good, 75.0);
  f.p50_us = percentile(p50, 25.0);
  f.p99_us = percentile(2 * p99.size() >= windows.size() ? p99 : p99_all, 25.0);
  return f;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  if (!(rate > 0.0)) throw std::invalid_argument("poisson_schedule: rate must be > 0");
  vsq::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;  // uniform() in [0, 1): log1p finite
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

SpanLog::SpanLog(Clock::time_point origin, std::size_t capacity)
    : origin_(origin), capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::add(std::uint16_t name, std::uint8_t parent, std::uint64_t req,
                  Clock::time_point start, Clock::time_point end) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  spans_.push_back(Span{name, parent, req, ns(start), ns(end)});
}

std::vector<ResolvedSpan> merge_spans(const std::vector<const SpanLog*>& logs,
                                      std::uint16_t root_name) {
  std::vector<ResolvedSpan> out;
  std::map<std::uint64_t, std::int64_t> root_of;  // request id -> root span index
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name == root_name && s.parent == kParentNone) {
        root_of.emplace(s.req, static_cast<std::int64_t>(out.size()));
      }
      out.push_back(ResolvedSpan{s.name, s.req, s.start_ns, s.end_ns, -1});
    }
  }
  std::size_t i = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent == kParentRequest) {
        const auto it = root_of.find(s.req);
        if (it != root_of.end() && it->second != static_cast<std::int64_t>(i)) {
          out[i].parent = it->second;
        }
      }
      ++i;
    }
  }
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<ResolvedSpan>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const ResolvedSpan& s : spans) {
    if (s.parent < 0) continue;
    const ResolvedSpan& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::uint64_t digest_row(const float* row, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, row + i, sizeof(bits));
    mix(bits);
  }
  return h;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  std::set<std::string> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("result_json: invalid or duplicate metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("result_json: non-finite value for " + m.name);
    }
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
