// perfbench_selftest — pins the benchmark's own arithmetic: the
// percentile sample-count rule, window figures, Poisson schedule
// determinism per seed, self-time arithmetic and metric-name validity.
// run.py runs it after every build; exit status 1 on any failure.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  check(near(percentile({}, 50), 0.0), "empty sample percentile is 0");
  check(near(percentile({3, 1, 2}, 50), 2.0), "median of 1,2,3");
  check(near(percentile({1, 2}, 50), 1.5), "median interpolates");
  check(near(percentile({0, 10}, 99), 9.9), "p99 interpolates");
  check(!percentile_resolved(999, 99), "p99 needs 1000 samples (999 too few)");
  check(percentile_resolved(1000, 99), "p99 resolved at exactly 1000 samples");
  check(percentile_resolved(20, 50), "p50 resolved at 20 samples");
  check(!percentile_resolved(19, 50), "p50 needs 20 samples");
  check(!percentile_resolved(9999, 99.9), "p99.9 needs 10000 samples");
  check(percentile_resolved(10000, 99.9), "p99.9 resolved at 10000 samples");
}

void test_windows() {
  // Two 1-second windows: window 0 holds latencies 1..100, window 1 holds
  // 101..200 plus one failure; a straggler after the end is left out.
  std::vector<Sample> s;
  for (int i = 1; i <= 100; ++i) s.push_back({0.5f, static_cast<float>(i), true});
  for (int i = 101; i <= 200; ++i) s.push_back({1.5f, static_cast<float>(i), true});
  s.push_back({1.9f, 5.0f, false});
  s.push_back({2.5f, 1.0f, true});
  const std::vector<WindowStats> w = window_stats(s, 2.0, 1.0, 150.0);
  check(w.size() == 2, "two windows");
  check(near(w[0].rps, 100.0) && near(w[1].rps, 101.0), "rates count failures, not stragglers");
  check(near(w[0].goodput_rps, 100.0) && near(w[1].goodput_rps, 50.0),
        "goodput counts ok within the limit");
  check(w[0].samples == 100 && w[1].samples == 100, "failures carry no latency");
  check(near(w[0].p50_us, 50.5) && near(w[1].p50_us, 150.5), "window p50");

  // Better quartile across windows: 75th percentile of rates, 25th of
  // latencies (linear interpolation over the window values).
  std::vector<WindowStats> pool;
  for (int i = 0; i < 5; ++i) {
    pool.push_back({100.0 * (i + 1), 10.0 * (i + 1), 1.0 * (i + 1), 2.0 * (i + 1),
                    static_cast<std::uint64_t>(1000 + i)});
  }
  const Figures f = summarize(pool);
  check(f.windows == 5 && f.samples == 5010 && f.min_window_samples == 1000, "window counts");
  check(near(f.throughput_rps, 400.0) && near(f.goodput_rps, 40.0), "rates: 75th percentile");
  check(near(f.p50_us, 2.0) && near(f.p99_us, 4.0), "latencies: 25th percentile");
  check(f.p99_windows == 5, "every window resolves its p99");
  pool[4].samples = 999;  // too few for a p99: its 10 drops out of the p99 pool
  const Figures g = summarize(pool);
  check(g.p99_windows == 4 && near(g.p99_us, 3.5) && near(g.p50_us, 2.0),
        "unresolved window p99 left out, its p50 kept");
  for (int i = 0; i < 3; ++i) pool[i].samples = 10;  // most windows unresolved
  const Figures h = summarize(pool);
  check(h.p99_windows == 1 && near(h.p99_us, 4.0), "every window counts when most are unresolved");
}

void test_poisson() {
  const std::vector<double> a = poisson_schedule(7, 1000.0, 2.0);
  const std::vector<double> b = poisson_schedule(7, 1000.0, 2.0);
  const std::vector<double> c = poisson_schedule(8, 1000.0, 2.0);
  check(a == b, "same seed, same schedule");
  check(a != c, "different seed, different schedule");
  check(a.size() > 1800 && a.size() < 2200, "about rate * seconds arrivals");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  check(sorted && a.front() >= 0.0 && a.back() < 2.0, "ascending, inside [0, seconds)");
}

void test_self_time() {
  // Root [0, 100] with children [10, 30] and [20, 50] (overlapping: the
  // union covers 40) and [90, 120] (clipped to the parent: covers 10).
  const auto t0 = Clock::time_point{};
  const auto at = [&](int ns) { return t0 + std::chrono::nanoseconds(ns); };
  SpanLog gen(t0, 16), col(t0, 16);
  col.add(0, kParentNone, 1, at(0), at(100));
  gen.add(1, kParentRequest, 1, at(10), at(30));
  gen.add(1, kParentRequest, 1, at(20), at(50));
  col.add(2, kParentRequest, 1, at(90), at(120));
  col.add(2, kParentRequest, 2, at(5), at(6));  // request 2 has no root
  const std::vector<ResolvedSpan> spans = merge_spans({&gen, &col}, 0);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  check(spans.size() == 5, "all spans merged");
  check(spans[2].parent == -1 && spans[0].parent == 2 && spans[1].parent == 2 &&
            spans[3].parent == 2 && spans[4].parent == -1,
        "parents resolved by request id across thread logs");
  check(self[2] == 100 - 40 - 10, "root self = duration - union of children");
  check(self[0] == 20 && self[1] == 30 && self[3] == 30, "leaf self = duration");
  SpanLog full(t0, 1);
  full.add(0, kParentNone, 1, at(0), at(1));
  full.add(0, kParentNone, 2, at(0), at(1));
  check(full.spans().size() == 1 && full.dropped() == 1, "spans past capacity are counted");
}

void test_names_and_json() {
  check(valid_metric_name("int_layer.tiny_bert.layer0.attn.q.us"), "dotted name is valid");
  check(valid_metric_name("setup_s") && valid_metric_name("9a-b"), "plain names are valid");
  check(!valid_metric_name(""), "empty name invalid");
  check(!valid_metric_name(".x") && !valid_metric_name("_x"), "must start alnum");
  check(!valid_metric_name("a b") && !valid_metric_name("a/b"), "no space or slash");
  check(!valid_metric_name(std::string(65, 'a')), "at most 64 characters");
  const std::string j = result_json(true, 3, 0, {{"x", 0.5, "s"}});
  check(j == R"({"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 0.5, "unit": "s"}}})",
        "result line format");
  bool threw = false;
  try {
    result_json(true, 1, 0, {{"x", 1, "s"}, {"x", 2, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "duplicate metric names rejected");
  threw = false;
  try {
    result_json(true, 1, 0, {{"x", std::nan(""), "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "non-finite values rejected");
  const float row[3] = {1.0f, -0.0f, 2.0f};
  const float other[3] = {1.0f, 0.0f, 2.0f};
  check(digest_row(row, 3) != digest_row(other, 3), "digest sees the sign bit of zero");
  check(digest_row(row, 2) != digest_row(row, 3), "digest sees the length");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_windows();
  test_poisson();
  test_self_time();
  test_names_and_json();
  if (failures > 0) {
    std::cerr << failures << " perfbench self-test(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
