// perfbench_serve — the serving benchmark's load generator (README.md
// beside this file gives each workload's reason and what every metric
// should move). It drives the serving stack from outside, through its
// public API only:
//
//   perfbench_serve --generate=DIR
//       write the builtin 4/8/6/10 packages DIR/{tiny,tiny_conv,tiny_bert}.vsqa
//   perfbench_serve --workload=mlp_closed|bert_open|mixed_net --seed=N
//                   --seconds=S --trace=0|1 --archives=DIR --out=DIR
//
// --trace=0 runs kSubRuns sub-runs of S/kSubRuns seconds, each on a freshly
// built stack, and prints the end-to-end metrics; --trace=1 runs the
// workload untraced and then traced for S/2 seconds each (the difference
// is the tracing overhead), probes every layer's public functions and
// prints the per-layer metrics. Either way every response is audited
// bit-for-bit against a separately loaded sequential runner and every
// request is reconciled with the serving stack's own counters after timing
// stops; a mismatch or a ledger gap exits 1. The last stdout line is the
// result JSON (core.h result_json).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core.h"
#include "exp/ptq.h"
#include "kernels/isa.h"
#include "net/client.h"
#include "net/server.h"
#include "quant/export.h"
#include "quant/quantized_tensor.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;
using vsq::QuantizedModelPackage;
using vsq::QuantizedModelRunner;
using vsq::Shape;
using vsq::Tensor;

// ---- Workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::string> models;  // served models; index = Record::model
  double limit_us;                  // fixed p99 latency limit behind goodput
  double max_rps;                   // sizes closed-loop input pools
  // Summary window: short enough that the host's stalls leave many windows
  // untouched, long enough to hold ~1000+ latencies at the workload's rate.
  double window_s;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"mlp_closed", {"tiny"}, 1000.0, 160000.0, 0.25},
      {"bert_open", {"tiny_bert"}, 10000.0, 0.0, 1.0},
      {"mixed_net", {"tiny", "tiny_conv", "tiny_bert"}, 10000.0, 40000.0, 0.5},
  };
  return w;
}

constexpr int kClients = 4;            // closed-loop threads / connections
constexpr double kBertRate = 1200.0;   // bert_open Poisson arrivals per second
constexpr int kSubRuns = 5;            // fresh-stack sub-runs per untraced run
constexpr int kSetupsPerSubRun = 4;    // timed stack builds per sub-run (setup_s)
constexpr int kReloadEvery = 1000;     // mixed_net: client 0 reloads tiny_conv
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;  // per thread
constexpr std::size_t kTraceFileSpans = 200000;

// Spans of the traced phase (request path) and of the layer probes.
enum SpanName : std::uint16_t {
  kSpanRequest,
  kSpanSubmit,
  kSpanWait,
  kSpanNetInfer,
  kSpanReload,
  kSpanArchiveLoad,
  kSpanRunnerBuild,
  kSpanRunnerForward,
  kSpanIntLayer,
  kSpanActQuantize,
  kSpanCount
};
const char* const kSpanNames[kSpanCount] = {
    "request",      "serve.submit", "serve.wait",     "net.infer",         "registry.reload",
    "archive.load", "runner.build", "runner.forward", "int_layer.execute", "act_quantize.run"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string archive_path(const std::string& dir, const std::string& model) {
  return dir + "/" + model + ".vsqa";
}

// ---- Seeded inputs --------------------------------------------------------

// Pre-generated request inputs of one model for one client. Request k
// reads the window of len(k) floats starting at float k of `data`:
// distinct windows are distinct inputs at 4 bytes of storage per request
// instead of a full row, so every request of a long run exists before
// timing starts. A pool that runs out wraps (counted in `wraps`).
struct InputStream {
  Tensor data;                     // [cap + width, 1] backing buffer
  std::vector<std::uint8_t> lens;  // token rows: per-request length
  std::int64_t width = 0;          // row width, or max_seq for token rows
  std::size_t cap = 0;

  std::int64_t len(std::size_t k) const { return lens.empty() ? width : lens[k]; }
  Tensor row(std::size_t k) const {
    const auto b = static_cast<std::int64_t>(k);
    return data.view_rows(b, b + len(k)).reshape(Shape{1, len(k)});
  }
};

// Gaussian rows for the MLP, uniform(-2, 2) images for the CNN (its
// calibration distribution), token rows of length uniform in
// [1, max_seq] with ids uniform in [0, vocab) for the transformer.
InputStream make_stream(const QuantizedModelRunner& r, std::uint64_t seed, std::size_t cap) {
  InputStream s;
  vsq::Rng rng(seed);
  s.cap = std::max<std::size_t>(cap, 1);
  s.width = r.in_features();
  s.data = Tensor(Shape{static_cast<std::int64_t>(s.cap) + s.width, 1});
  for (float& v : s.data.span()) {
    if (r.seq()) {
      v = static_cast<float>(rng.uniform_u64(static_cast<std::uint64_t>(r.vocab())));
    } else if (r.spatial()) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    } else {
      v = static_cast<float>(rng.normal());
    }
  }
  if (r.seq()) {
    s.lens.resize(s.cap);
    for (auto& l : s.lens) {
      l = static_cast<std::uint8_t>(1 + rng.uniform_u64(static_cast<std::uint64_t>(r.max_seq())));
    }
  }
  return s;
}

std::uint64_t stream_seed(std::uint64_t seed, int client, std::size_t model) {
  return seed * 1000003ull + static_cast<std::uint64_t>(client) * 101ull + model + 1;
}

// The audit oracle: a package loaded separately from the served copy and
// a sequential runner over it. Also gives the generator the input geometry.
struct RefModel {
  std::string name;
  std::unique_ptr<QuantizedModelPackage> pkg;
  std::unique_ptr<QuantizedModelRunner> runner;
};

RefModel load_ref(const std::string& dir, const std::string& name) {
  RefModel m;
  m.name = name;
  m.pkg = std::make_unique<QuantizedModelPackage>(QuantizedModelPackage::load(archive_path(dir, name)));
  m.runner = std::make_unique<QuantizedModelRunner>(*m.pkg);
  return m;
}

// ---- One timed phase ------------------------------------------------------

// One answered or failed request, as the generator saw it.
struct Record {
  std::uint64_t digest = 0;  // of the response row (ok only)
  float done_s = 0.0f;       // completion, seconds since measurement start
  float latency_us = 0.0f;   // from send (closed loop) or due time (open loop)
  std::uint32_t slot = 0;    // input index within its stream
  std::uint8_t model = 0;    // index into Workload::models
  bool ok = false;
};

// What setup builds: one session (in-process workloads) or a registry
// behind a loopback NetServer (mixed_net).
struct Stack {
  std::unique_ptr<vsq::InferenceSession> session;
  std::unique_ptr<vsq::ModelRegistry> registry;
  // Declared last so it is destroyed first: it references the registry.
  std::unique_ptr<vsq::net::NetServer> server;
};

Stack build_stack(const Workload& w, const std::string& dir) {
  Stack s;
  if (w.name == "mixed_net") {
    s.registry = std::make_unique<vsq::ModelRegistry>();
    for (const std::string& m : w.models) s.registry->load_file(m, archive_path(dir, m));
    s.server = std::make_unique<vsq::net::NetServer>(*s.registry);
  } else {
    s.session = std::make_unique<vsq::InferenceSession>(
        QuantizedModelPackage::load(archive_path(dir, w.models[0])));
  }
  return s;
}

// Per-thread output of a load generator. `records` is allocated and
// zeroed before timing at a fixed capacity, so the run's resident memory
// does not grow with its throughput; a thread that fills it stops and
// fails the run.
struct ClientOut {
  std::vector<Record> records;
  std::size_t n = 0;  // records used
  bool full = false;
  std::uint64_t attempted = 0, wraps = 0;
  std::vector<double> reload_ms;
  std::array<std::uint64_t, 7> by_status{};  // mixed_net: wire status tally
  std::uint64_t transport_errors = 0;

  bool has_room() {
    full = n == records.size();
    return !full;
  }
  void add(std::size_t slot, std::size_t model, Clock::time_point t_start, Clock::time_point done,
           double latency_us, bool ok, std::uint64_t digest) {
    records[n++] = Record{digest, static_cast<float>(seconds_between(t_start, done)),
                          static_cast<float>(latency_us), static_cast<std::uint32_t>(slot),
                          static_cast<std::uint8_t>(model), ok};
  }
};

struct PhaseResult {
  Clock::time_point t_start;  // origin of the phase's span timestamps
  std::uint64_t attempted = 0, ok = 0, failed = 0, wraps = 0;
  std::vector<WindowStats> windows;
  double peak_rss_mb = 0.0;        // sampled when the load generators stop
  std::vector<double> gen_lag_us;  // open loop: submit start minus due time
  std::vector<double> reload_ms;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<vsq::ServeStatsSnapshot> snaps;  // per workload model
  std::uint64_t frames_ok = 0, frames_not_ok = 0, protocol_errors = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> ledger_gaps;
};

std::uint64_t request_id(int client, std::uint64_t k) {
  return (static_cast<std::uint64_t>(client) << 40) | k;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// mlp_closed: each client submits its next row only after the previous
// response arrived.
void closed_inproc_client(vsq::InferenceSession& session, const InputStream& in, int client,
                          Clock::time_point t_start, Clock::time_point t_end, ClientOut& out,
                          SpanLog* log) {
  for (std::uint64_t k = 0; out.has_room(); ++k) {
    const auto t0 = Clock::now();
    if (t0 >= t_end) break;
    const std::size_t slot = k % in.cap;
    if (k > 0 && slot == 0) ++out.wraps;
    ++out.attempted;
    Clock::time_point t1 = t0, t2;
    std::uint64_t digest = 0;
    bool ok = false;
    try {
      std::future<Tensor> f = session.submit(in.row(slot));
      if (log) t1 = Clock::now();
      const Tensor y = f.get();
      t2 = Clock::now();
      digest = digest_row(y.data(), static_cast<std::size_t>(y.numel()));
      ok = true;
    } catch (const std::exception&) {
      t2 = Clock::now();
    }
    out.add(slot, 0, t_start, t2, us_between(t0, t2), ok, digest);
    if (log) {
      const std::uint64_t req = request_id(client, k);
      log->add(kSpanRequest, kParentNone, req, t0, t2);
      log->add(kSpanSubmit, kParentRequest, req, t0, t1);
      log->add(kSpanWait, kParentRequest, req, t1, t2);
    }
  }
}

// Run the calling thread at raised priority (nice -10), the way
// independent clients on other machines are not slowed by the server's
// threads. Best effort: without the privilege the thread keeps its
// priority.
void raise_priority() { setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), -10); }

// bert_open: one generator thread submits on a seeded Poisson schedule
// regardless of completions; a collector thread resolves the futures in
// submission order. Latency runs from each request's due time.
void open_loop(vsq::InferenceSession& session, const InputStream& in,
               const std::vector<double>& due_s, Clock::time_point t_start, ClientOut& out,
               std::vector<double>& gen_lag_us, SpanLog* gen_log, SpanLog* col_log) {
  struct Pending {
    std::future<Tensor> f;
    std::size_t i = 0;
    Clock::time_point due, sub0, sub1;
    bool submitted = false;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  gen_lag_us.reserve(due_s.size());

  std::jthread collector([&] {
    raise_priority();
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      std::uint64_t digest = 0;
      bool ok = false;
      if (p.submitted) {
        try {
          const Tensor y = p.f.get();
          digest = digest_row(y.data(), static_cast<std::size_t>(y.numel()));
          ok = true;
        } catch (const std::exception&) {
        }
      }
      const auto t2 = Clock::now();
      out.add(p.i, 0, t_start, t2, us_between(p.due, t2), ok, digest);
      if (col_log) {
        col_log->add(kSpanRequest, kParentNone, p.i, p.due, t2);
        col_log->add(kSpanWait, kParentRequest, p.i, p.sub1, t2);
      }
    }
  });

  raise_priority();
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    Pending p;
    p.i = i;
    p.due = t_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(p.due);
    p.sub0 = Clock::now();
    gen_lag_us.push_back(us_between(p.due, p.sub0));
    try {
      p.f = session.submit(in.row(i % in.cap));
      p.submitted = true;
    } catch (const std::exception&) {
    }
    p.sub1 = Clock::now();
    if (gen_log) gen_log->add(kSpanSubmit, kParentRequest, i, p.sub0, p.sub1);
    ++out.attempted;
    {
      std::lock_guard lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(mu);
    done = true;
  }
  cv.notify_one();
}

// mixed_net: one TCP connection per client, closed loop, seeded model
// mix; client 0 also hot-reloads tiny_conv every kReloadEvery requests.
void closed_net_client(const Workload& w, Stack& stack, const std::string& dir,
                       const std::vector<InputStream>& in, const std::vector<std::uint8_t>& mix,
                       int client, Clock::time_point t_start, Clock::time_point t_end,
                       ClientOut& out, SpanLog* log) {
  vsq::net::NetClient conn("127.0.0.1", stack.server->port());
  std::vector<std::uint64_t> next(w.models.size(), 0);
  std::vector<float> row;
  for (std::uint64_t k = 0; out.has_room(); ++k) {
    const auto t0 = Clock::now();
    if (t0 >= t_end) break;
    const std::uint8_t m = mix[k % mix.size()];
    const InputStream& s = in[m];
    const std::size_t slot = next[m]++ % s.cap;
    if (next[m] > 1 && slot == 0) ++out.wraps;
    const Tensor x = s.row(slot);
    row.assign(x.data(), x.data() + x.numel());
    ++out.attempted;
    Clock::time_point t2;
    std::uint64_t digest = 0;
    bool ok = false;
    try {
      const vsq::net::ResponseFrame resp = conn.infer(w.models[m], row);
      t2 = Clock::now();
      ++out.by_status[static_cast<std::size_t>(resp.status)];
      if (resp.status == vsq::net::Status::kOk) {
        ok = true;
        digest = digest_row(resp.row.data(), resp.row.size());
      }
    } catch (const std::exception&) {
      t2 = Clock::now();
      ++out.transport_errors;
      try {
        conn.reconnect();
      } catch (const std::exception&) {
      }
    }
    out.add(slot, m, t_start, t2, us_between(t0, t2), ok, digest);
    if (log) {
      const std::uint64_t req = request_id(client, k);
      log->add(kSpanRequest, kParentNone, req, t0, t2);
      log->add(kSpanNetInfer, kParentRequest, req, t0, t2);
    }
    if (client == 0 && (k + 1) % kReloadEvery == 0) {
      const auto r0 = Clock::now();
      stack.registry->reload_file("tiny_conv", archive_path(dir, "tiny_conv"));
      const auto r1 = Clock::now();
      out.reload_ms.push_back(us_between(r0, r1) / 1000.0);
      if (log) log->add(kSpanReload, kParentNone, request_id(client, k) | (1ull << 63), r0, r1);
    }
  }
}

// Run one timed phase on a built stack, then (timing stopped) audit every
// response and reconcile the request ledger.
PhaseResult run_phase(const Workload& w, Stack& stack, const std::string& dir,
                      const std::vector<RefModel>& refs, std::uint64_t seed, double seconds,
                      bool traced) {
  PhaseResult res;
  const std::size_t n_models = w.models.size();
  const bool open = w.name == "bert_open";
  const bool net = w.name == "mixed_net";
  const int n_gen = open ? 1 : kClients;  // generator threads (+ collector when open)

  // Inputs and result buffers: everything a request carries is generated
  // here, before timing.
  std::vector<std::vector<InputStream>> streams(static_cast<std::size_t>(n_gen));
  std::vector<ClientOut> outs(static_cast<std::size_t>(n_gen));
  std::vector<double> due;
  std::vector<std::vector<std::uint8_t>> mixes(static_cast<std::size_t>(n_gen));
  if (open) {
    due = poisson_schedule(seed, kBertRate, seconds);
    streams[0].push_back(make_stream(*refs[0].runner, stream_seed(seed, 0, 0), due.size()));
    outs[0].records.resize(due.size());
  } else {
    const auto per_client = static_cast<std::size_t>(w.max_rps / kClients * seconds) + 1;
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t m = 0; m < n_models; ++m) {
        streams[c].push_back(
            make_stream(*refs[m].runner, stream_seed(seed, c, m), per_client / n_models));
      }
      outs[c].records.resize(per_client);
      if (!net) continue;
      vsq::Rng rng(stream_seed(seed, c, 99));
      mixes[c].resize(per_client);
      for (auto& m : mixes[c]) m = static_cast<std::uint8_t>(rng.uniform_u64(n_models));
    }
  }

  const auto t_start = Clock::now() + std::chrono::milliseconds(20);
  const auto t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  res.t_start = t_start;
  if (traced) {
    for (int c = 0; c < (open ? 2 : kClients); ++c) {
      res.logs.push_back(std::make_unique<SpanLog>(t_start, kSpanCapacity));
    }
  }
  const auto log_of = [&](int c) { return traced ? res.logs[c].get() : nullptr; };
  {
    std::vector<std::jthread> threads;
    std::atomic<int> thread_failures{0};
    for (int c = 0; c < n_gen; ++c) {
      threads.emplace_back([&, c] {
        try {
          std::this_thread::sleep_until(t_start);
          if (open) {
            open_loop(*stack.session, streams[0][0], due, t_start, outs[0], res.gen_lag_us,
                      log_of(0), log_of(1));
          } else if (net) {
            closed_net_client(w, stack, dir, streams[c], mixes[c], c, t_start, t_end, outs[c],
                              log_of(c));
          } else {
            closed_inproc_client(*stack.session, streams[c][0], c, t_start, t_end, outs[c],
                                 log_of(c));
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: load generator " << c << " failed: " << e.what() << "\n";
          thread_failures.fetch_add(1);
        }
      });
    }
    threads.clear();  // joins
    if (thread_failures.load() > 0) res.ledger_gaps.push_back("a load generator thread failed");
  }
  res.peak_rss_mb = peak_rss_mb();

  // ---- Ledger: attempted = ok + failed, reconciled with the stack ----
  std::vector<std::uint64_t> ok_by_model(n_models, 0);
  std::array<std::uint64_t, 7> by_status{};
  std::uint64_t transport_errors = 0;
  for (const ClientOut& o : outs) {
    if (o.full) res.ledger_gaps.push_back("record buffer full: raise the workload's max_rps");
    res.attempted += o.attempted;
    res.wraps += o.wraps;
    transport_errors += o.transport_errors;
    res.reload_ms.insert(res.reload_ms.end(), o.reload_ms.begin(), o.reload_ms.end());
    for (std::size_t s = 0; s < by_status.size(); ++s) by_status[s] += o.by_status[s];
    for (std::size_t i = 0; i < o.n; ++i) {
      const Record& r = o.records[i];
      r.ok ? ++res.ok : ++res.failed;
      if (r.ok) ++ok_by_model[r.model];
    }
  }
  const auto gap = [&](const std::string& what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      res.ledger_gaps.push_back(what + ": " + std::to_string(a) + " != " + std::to_string(b));
    }
  };
  gap("attempted vs ok + failed", res.attempted, res.ok + res.failed);
  if (net) {
    gap("transport errors", transport_errors, 0);
    for (std::size_t s = 0; s < by_status.size(); ++s) {
      const auto st = static_cast<vsq::net::Status>(s);
      gap(std::string("client vs server frames ") + vsq::net::status_name(st), by_status[s],
          stack.server->frames_by_status(st));
    }
    res.frames_ok = stack.server->frames_ok();
    res.frames_not_ok = stack.server->frames_shed() + stack.server->frames_rejected();
    res.protocol_errors = stack.server->protocol_errors();
    for (std::size_t m = 0; m < n_models; ++m) {
      res.snaps.push_back(stack.registry->stats(w.models[m]));
    }
  } else {
    res.snaps.push_back(stack.session->stats());
  }
  std::uint64_t served_failed = 0;
  for (std::size_t m = 0; m < n_models; ++m) {
    const vsq::ServeStatsSnapshot& s = res.snaps[m];
    gap("client ok vs ServeStats requests (" + w.models[m] + ")", ok_by_model[m], s.requests);
    served_failed += s.errors + s.shed + s.deadline_expired;
  }
  if (!net) gap("client failed vs ServeStats errors+shed+expired", res.failed, served_failed);

  // ---- Audit: every response against the sequential oracle ----
  std::atomic<std::uint64_t> mismatches{0};
  {
    std::vector<std::jthread> auditors;
    for (int t = 0; t < kClients; ++t) {
      auditors.emplace_back([&, t] {
        std::uint64_t bad = 0, global = 0;
        for (std::size_t c = 0; c < outs.size(); ++c) {
          for (std::size_t i = 0; i < outs[c].n; ++i, ++global) {
            const Record& r = outs[c].records[i];
            if (global % kClients != static_cast<std::uint64_t>(t) || !r.ok) continue;
            const Tensor want = refs[r.model].runner->forward(streams[c][r.model].row(r.slot));
            if (digest_row(want.data(), static_cast<std::size_t>(want.numel())) != r.digest) {
              ++bad;
            }
          }
        }
        mismatches.fetch_add(bad);
      });
    }
  }
  res.mismatches = mismatches.load();

  std::vector<Sample> samples;
  for (const ClientOut& o : outs) {
    for (std::size_t i = 0; i < o.n; ++i) {
      const Record& r = o.records[i];
      samples.push_back(Sample{r.done_s, r.latency_us, r.ok});
    }
  }
  res.windows = window_stats(samples, seconds, w.window_s, w.limit_us);
  return res;
}

// ---- Probes of single layers (traced runs) ------------------------------

// Median wall time of fn(i) in microseconds over at least `min_reps`
// calls and `min_s` seconds; each call is recorded as a `span` span.
double median_us(SpanLog& log, SpanName span, const std::function<void(std::size_t)>& fn,
                 int min_reps = 15, double min_s = 0.03) {
  std::vector<double> t;
  const auto begin = Clock::now();
  for (std::size_t i = 0;
       static_cast<int>(i) < min_reps || seconds_between(begin, Clock::now()) < min_s; ++i) {
    const auto a = Clock::now();
    fn(i);
    const auto b = Clock::now();
    log.add(span, kParentNone, i, a, b);
    t.push_back(us_between(a, b));
  }
  return percentile(t, 50.0);
}

// The execute() input shape, activation-quantize rows and MAC count of
// every integer layer of a program at batch n (token rows padded to t).
struct LayerShape {
  std::string layer;
  Shape x;
  std::int64_t act_rows = 0;
  double macs = 0.0;
};

std::vector<LayerShape> layer_shapes(const QuantizedModelPackage& pkg,
                                     const QuantizedModelRunner& r, std::int64_t n,
                                     std::int64_t t) {
  using Op = vsq::ForwardStep::Op;
  std::vector<LayerShape> out;
  const auto gemm = [&](const std::string& name, std::int64_t rows) {
    const auto& q = pkg.layers.at(name).weights;
    out.push_back({name, Shape{rows, q.cols()}, rows,
                   static_cast<double>(rows) * static_cast<double>(q.cols() * q.rows)});
  };
  // Spatial activations as {N, H, W, C}; after pooling {N, C}.
  std::vector<std::int64_t> h = {n, pkg.in_h, pkg.in_w, pkg.in_c}, saved;
  const auto conv = [&](const std::string& name, const std::vector<std::int64_t>& x) {
    const vsq::QuantizedLayerPackage& l = pkg.layers.at(name);
    const std::int64_t oh = (x[1] + 2 * l.pad - l.kernel) / l.stride + 1;
    const std::int64_t ow = (x[2] + 2 * l.pad - l.kernel) / l.stride + 1;
    const std::int64_t rows = x[0] * oh * ow;
    out.push_back({name, Shape{x[0], x[1], x[2], x[3]}, rows,
                   static_cast<double>(rows) * static_cast<double>(l.weights.cols() * l.weights.rows)});
    return std::vector<std::int64_t>{x[0], oh, ow, l.weights.rows};
  };
  for (const vsq::ForwardStep& s : r.program()) {
    switch (s.op) {
      case Op::kGemm:
        gemm(s.layer, r.seq() ? n * t : n);
        break;
      case Op::kAttention:
        for (const char* p : {".q", ".k", ".v", ".out"}) gemm(s.layer + p, n * t);
        break;
      case Op::kConv: h = conv(s.layer, h); break;
      case Op::kConvSaved: saved = conv(s.layer, saved); break;
      case Op::kSave: saved = h; break;
      case Op::kGlobalPool: h = {n, h[3]}; break;
      default: break;
    }
  }
  return out;
}

// A batch of n token rows padded (-1 sentinel) to the batcher's bucket
// width for the longest one, or n plain rows.
Tensor probe_batch(const InputStream& s, std::size_t first, std::int64_t n) {
  std::int64_t t = s.width;
  if (!s.lens.empty()) {
    std::int64_t longest = 1;
    for (std::int64_t i = 0; i < n; ++i) longest = std::max(longest, s.len((first + i) % s.cap));
    t = 8;
    while (t < longest) t *= 2;
    t = std::min(t, s.width);
  }
  Tensor b(Shape{n, t});
  b.fill(-1.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor x = s.row((first + static_cast<std::size_t>(i)) % s.cap);
    std::copy(x.data(), x.data() + x.numel(), b.data() + i * t);
  }
  return b;
}

std::string metric_safe(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') c = '_';
  }
  return s;
}

// Probe one model's layers: archive load, runner build, forward at batch
// 1 and at the served batch n, each integer layer and its activation
// quantize at the shapes the batch-n forward runs them. Returns the
// batch-n forward time in microseconds.
double probe_model(const RefModel& m, const std::string& dir, std::int64_t n, std::uint64_t seed,
                   SpanLog& log, std::vector<Metric>& out) {
  const std::string p = m.name + ".";
  const QuantizedModelRunner& r = *m.runner;
  const std::string path = archive_path(dir, m.name);
  out.push_back(
      {"archive." + p + "load_ms",
       median_us(log, kSpanArchiveLoad, [&](std::size_t) { QuantizedModelPackage::load(path); },
                 5, 0.0) / 1000.0,
       "ms"});
  out.push_back(
      {"runner." + p + "build_ms",
       median_us(log, kSpanRunnerBuild, [&](std::size_t) { QuantizedModelRunner build(*m.pkg); },
                 5, 0.0) / 1000.0,
       "ms"});
  std::int64_t packed = 0;
  for (const auto& [name, prim] : r.primitives()) packed += prim.resident_bytes();
  out.push_back({"kernels." + p + "packed_bytes", static_cast<double>(packed), "bytes"});

  const InputStream s = make_stream(r, seed, 4096);
  const double b1 =
      median_us(log, kSpanRunnerForward, [&](std::size_t i) { r.forward(s.row(i % s.cap)); });
  std::vector<Tensor> batches;
  for (std::size_t i = 0; i < 16; ++i) {
    batches.push_back(probe_batch(s, i * static_cast<std::size_t>(n), n));
  }
  const double bn = median_us(log, kSpanRunnerForward,
                              [&](std::size_t i) { r.forward(batches[i % batches.size()]); });
  const std::int64_t t = batches[0].shape()[1];

  vsq::Rng rng(seed ^ 0x5eedull);
  double int_sum = 0.0, act_sum = 0.0, macs = 0.0;
  for (const LayerShape& ls : layer_shapes(*m.pkg, r, n, t)) {
    const vsq::QuantizedLayerPackage& l = m.pkg->layers.at(ls.layer);
    const vsq::IntLayerPrimitive& prim = *r.primitive(ls.layer);
    // Gaussian activations, rectified where the layer quantizes them
    // unsigned (post-ReLU inputs are about half zeros).
    const auto fill = [&](Tensor& t) {
      for (float& v : t.span()) {
        v = static_cast<float>(rng.normal());
        if (!l.act_spec.fmt.is_signed) v = std::max(v, 0.0f);
      }
    };
    Tensor x(ls.x);
    fill(x);
    Tensor a(Shape{ls.act_rows, l.weights.cols()});
    fill(a);
    const double us_int = median_us(log, kSpanIntLayer, [&](std::size_t) { prim.execute(x); });
    const double us_act = median_us(log, kSpanActQuantize, [&](std::size_t) {
      vsq::quantize_activations_int(a, l.act_spec, l.act_amax, l.act_gamma);
    });
    out.push_back({"int_layer." + p + metric_safe(ls.layer) + ".us", us_int, "us"});
    out.push_back({"act_quantize." + p + metric_safe(ls.layer) + ".us", us_act, "us"});
    int_sum += us_int;
    act_sum += us_act;
    macs += ls.macs;
  }
  out.push_back({"act_quantize." + p + "share", int_sum > 0 ? act_sum / int_sum : 0.0, "ratio"});
  out.push_back({"runner." + p + "forward_b1_us", b1, "us"});
  out.push_back({"runner." + p + "forward_bN_us", bn, "us"});
  out.push_back({"runner." + p + "gmacs", macs / bn / 1000.0, "GMAC/s"});
  out.push_back({"runner." + p + "fp_share", (bn - int_sum) / bn, "ratio"});
  return bn;
}

// Serial NetClient::infer against serial ModelRegistry::infer on the same
// inputs (all three models in rotation) on an idle loopback stack, plus
// idle hot reloads.
void probe_net_and_registry(const std::vector<RefModel>& refs, const std::string& dir,
                            std::uint64_t seed, std::vector<Metric>& out) {
  std::vector<double> reload_ms;
  vsq::ModelRegistry registry;
  for (const RefModel& m : refs) registry.load_file(m.name, archive_path(dir, m.name));
  vsq::net::NetServer server(registry);
  vsq::net::NetClient conn("127.0.0.1", server.port());
  std::vector<InputStream> in;
  for (std::size_t m = 0; m < refs.size(); ++m) {
    in.push_back(make_stream(*refs[m].runner, stream_seed(seed, 7, m), 512));
  }
  std::vector<double> net_us, local_us;
  std::vector<float> row;
  for (std::size_t i = 0; i < 900; ++i) {
    const std::size_t m = i % refs.size();
    const Tensor x = in[m].row(i / refs.size());
    row.assign(x.data(), x.data() + x.numel());
    const auto a = Clock::now();
    const vsq::net::ResponseFrame resp = conn.infer(refs[m].name, row);
    const auto b = Clock::now();
    registry.infer(refs[m].name, x);
    const auto c = Clock::now();
    if (resp.status != vsq::net::Status::kOk) throw std::runtime_error("net probe: non-ok response");
    net_us.push_back(us_between(a, b));
    local_us.push_back(us_between(b, c));
  }
  out.push_back({"net.rtt_p50_us", percentile(net_us, 50.0), "us"});
  out.push_back({"net.overhead_p50_us", percentile(net_us, 50.0) - percentile(local_us, 50.0), "us"});
  for (int i = 0; i < 5; ++i) {
    const auto a = Clock::now();
    registry.reload_file("tiny_conv", archive_path(dir, "tiny_conv"));
    reload_ms.push_back(us_between(a, Clock::now()) / 1000.0);
  }
  out.push_back({"registry.reload_ms", percentile(reload_ms, 50.0), "ms"});
}

// ---- Output ---------------------------------------------------------------

std::string phase_line(const std::string& label, const PhaseResult& r) {
  const Figures f = summarize(r.windows);
  std::ostringstream os;
  os << label << ": attempted=" << r.attempted << " ok=" << r.ok << " failed=" << r.failed
     << " samples=" << f.samples << " windows=" << f.windows << " p99_windows=" << f.p99_windows
     << " min_window_samples=" << f.min_window_samples << " throughput_rps=" << f.throughput_rps
     << " latency_p50_us=" << f.p50_us << " latency_p99_us=" << f.p99_us
     << " mismatches=" << r.mismatches << " input_wraps=" << r.wraps;
  if (!r.gen_lag_us.empty()) os << " gen_lag_p99_us=" << percentile(r.gen_lag_us, 99.0);
  if (!r.reload_ms.empty()) os << " reloads=" << r.reload_ms.size();
  os << "\n  window rps:";
  for (const WindowStats& w : r.windows) os << " " << std::llround(w.rps);
  os << "\n  window p99_us:";
  for (const WindowStats& w : r.windows) os << " " << std::llround(w.p99_us);
  return os.str();
}

// Validity of a phase: clean audit, no ledger gap.
bool phase_valid(const PhaseResult& r) {
  bool ok = true;
  for (const std::string& g : r.ledger_gaps) {
    std::cerr << "perfbench: ledger gap: " << g << "\n";
    ok = false;
  }
  if (r.mismatches > 0) {
    std::cerr << "perfbench: " << r.mismatches
              << " responses differ from the sequential reference\n";
    ok = false;
  }
  return ok;
}

// Warn when most windows hold too few latencies for the sample-count rule
// to resolve their p99 (a saturated open loop): the figure then pools
// unresolved windows too.
void warn_unresolved_p99(const Figures& f) {
  if (2 * f.p99_windows >= f.windows) return;
  std::cerr << "perfbench: warning: only " << f.p99_windows << " of " << f.windows
            << " windows hold enough latencies to resolve their p99\n";
}

void write_trace(const std::string& path, const std::vector<ResolvedSpan>& spans,
                 const std::vector<std::int64_t>& self) {
  std::ofstream f(path);
  f << "# spans=" << spans.size() << " written=" << std::min(spans.size(), kTraceFileSpans)
    << "\nindex,name,request,start_ns,end_ns,parent,self_ns\n";
  for (std::size_t i = 0; i < std::min(spans.size(), kTraceFileSpans); ++i) {
    const ResolvedSpan& s = spans[i];
    f << i << "," << kSpanNames[s.name] << "," << s.req << "," << s.start_ns << "," << s.end_ns
      << "," << s.parent << "," << self[i] << "\n";
  }
}

int generate(const std::string& dir) {
  for (const char* m : {"tiny", "tiny_conv", "tiny_bert"}) {
    vsq::builtin_serving_package(m).save(archive_path(dir, m));
  }
  return 0;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace,
        const std::string& dir, const std::string& out_dir) {
  std::cout << "perfbench: workload=" << w.name << " seed=" << seed << " seconds=" << seconds
            << " trace=" << trace << "\n"
            << "cpu: " << vsq::isa::summary()
            << " | isa tier: " << vsq::isa::tier_name(vsq::isa::effective_cap())
            << " | pool: " << vsq::ThreadPool::global().concurrency() << " threads\n";

  std::vector<RefModel> refs;
  for (const std::string& m : w.models) refs.push_back(load_ref(dir, m));

  if (!trace) {
    // kSubRuns sub-runs, each on a freshly built stack (fresh threads, so
    // one unlucky thread placement cannot set the run's figures) with its
    // own inputs. setup_s is the median of kSetupsPerSubRun timed builds per
    // sub-run: the spare builds are torn down at once, the last one serves.
    std::vector<double> setup_s;
    std::vector<WindowStats> windows;
    std::uint64_t attempted = 0, ok = 0, failed = 0;
    double rss_mb = 0.0;
    bool valid = true;
    for (int i = 0; i < kSubRuns; ++i) {
      for (int rep = 1; rep < kSetupsPerSubRun; ++rep) {
        const auto a = Clock::now();
        const Stack spare = build_stack(w, dir);
        setup_s.push_back(seconds_between(a, Clock::now()));
      }
      const auto a = Clock::now();
      Stack stack = build_stack(w, dir);
      setup_s.push_back(seconds_between(a, Clock::now()));
      const PhaseResult r = run_phase(w, stack, dir, refs, seed * kSubRuns + i,
                                      seconds / kSubRuns, false);
      std::cout << phase_line("sub-run " + std::to_string(i), r) << "\n";
      valid = phase_valid(r) && valid;
      attempted += r.attempted;
      ok += r.ok;
      failed += r.failed;
      rss_mb = std::max(rss_mb, r.peak_rss_mb);
      windows.insert(windows.end(), r.windows.begin(), r.windows.end());
    }
    const Figures f = summarize(windows);
    warn_unresolved_p99(f);
    const double ok_ratio =
        static_cast<double>(ok) / static_cast<double>(std::max<std::uint64_t>(1, attempted));
    std::cout << "diagnostics: fail_ratio=" << 1.0 - ok_ratio << " samples=" << f.samples
              << " windows=" << f.windows << " latency_limit_us=" << w.limit_us << "\n";
    const std::vector<Metric> metrics = {
        {"setup_s", percentile(setup_s, 50.0), "s"},
        {"throughput_rps", f.throughput_rps, "1/s"},
        {"goodput_rps", f.goodput_rps, "1/s"},
        {"latency_p50_us", f.p50_us, "us"},
        {"latency_p99_us", f.p99_us, "us"},
        {"ok_ratio", ok_ratio, "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::cout << result_json(valid, attempted, failed, metrics) << std::endl;
    return valid ? 0 : 1;
  }

  // Traced run: untraced then traced phase on the same seed, each on a
  // fresh stack, then the layer probes.
  const auto phase = [&](bool traced) {
    Stack stack = build_stack(w, dir);
    return run_phase(w, stack, dir, refs, seed, seconds / 2, traced);
  };
  const PhaseResult base = phase(false);
  const PhaseResult r = phase(true);
  std::cout << phase_line("untraced", base) << "\n" << phase_line("traced", r) << "\n";
  const Figures traced = summarize(r.windows), untraced = summarize(base.windows);
  warn_unresolved_p99(untraced);
  warn_unresolved_p99(traced);
  const bool valid = phase_valid(base) && phase_valid(r);

  // Layers, probed on idle copies after the timed phases, each model at
  // the mean batch the traced phase served it (1 when it was not served).
  std::map<std::string, std::int64_t> batch_of;
  for (std::size_t m = 0; m < refs.size(); ++m) {
    batch_of[refs[m].name] = std::max<std::int64_t>(1, std::llround(r.snaps[m].mean_batch));
  }
  SpanLog probe_log(r.t_start, kSpanCapacity);
  std::vector<Metric> probes;
  double primary_bn = 0.0;
  std::uint64_t probe_seed = stream_seed(seed, 9, 0);
  std::vector<RefModel> all;
  for (const char* name : {"tiny", "tiny_conv", "tiny_bert"}) {
    all.push_back(load_ref(dir, name));
    const RefModel& m = all.back();
    const auto it = batch_of.find(m.name);
    const double bn = probe_model(m, dir, it == batch_of.end() ? 1 : it->second, ++probe_seed,
                                  probe_log, probes);
    if (m.name == w.models[0]) primary_bn = bn;
  }
  probe_net_and_registry(all, dir, seed, probes);

  std::vector<const SpanLog*> logs = {&probe_log};
  std::uint64_t dropped = probe_log.dropped();
  for (const auto& l : r.logs) {
    logs.push_back(l.get());
    dropped += l->dropped();
  }
  const std::vector<ResolvedSpan> spans = merge_spans(logs, kSpanRequest);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  write_trace(out_dir + "/trace-" + w.name + ".csv", spans, self);
  std::vector<std::vector<double>> dur(kSpanCount);
  std::vector<double> self_sum(kSpanCount, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    dur[spans[i].name].push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1000.0);
    self_sum[spans[i].name] += static_cast<double>(self[i]) / 1000.0;
  }

  // Serving core, from the traced phase's ServeStats snapshots.
  std::uint64_t requests = 0, batches = 0, seq_batches = 0, mixed = 0;
  std::uint64_t errors = 0, shed = 0, expired = 0, restarts = 0;
  for (std::size_t m = 0; m < r.snaps.size(); ++m) {
    const vsq::ServeStatsSnapshot& s = r.snaps[m];
    requests += s.requests;
    batches += s.batches;
    errors += s.errors;
    shed += s.shed;
    expired += s.deadline_expired;
    restarts += s.worker_restarts;
    if (refs[m].runner->seq()) {
      seq_batches += s.batches;
      mixed += s.mixed_bucket_batches;
    }
  }
  const double submit_p50 = percentile(dur[kSpanSubmit], 50.0);
  const double wait_p50 = percentile(dur[kSpanWait], 50.0);

  std::vector<Metric> metrics;
  const bool inproc = w.name != "mixed_net";
  metrics.push_back({"serve.submit_p50_us", submit_p50, "us"});
  metrics.push_back({"serve.wait_p50_us", wait_p50, "us"});
  metrics.push_back({"serve.overhead_us", inproc ? wait_p50 - primary_bn : 0.0, "us"});
  metrics.push_back({"serve.mean_batch", batches ? static_cast<double>(requests) / batches : 0.0, "count"});
  metrics.push_back({"serve.batches", static_cast<double>(batches), "count"});
  metrics.push_back({"serve.errors", static_cast<double>(errors), "count"});
  metrics.push_back({"serve.shed", static_cast<double>(shed), "count"});
  metrics.push_back({"serve.deadline_expired", static_cast<double>(expired), "count"});
  metrics.push_back({"serve.worker_restarts", static_cast<double>(restarts), "count"});
  metrics.push_back({"serve.mixed_bucket_ratio",
                     seq_batches ? static_cast<double>(mixed) / seq_batches : 0.0, "ratio"});
  metrics.push_back({"net.frames_ok", static_cast<double>(r.frames_ok), "count"});
  metrics.push_back({"net.frames_not_ok", static_cast<double>(r.frames_not_ok), "count"});
  metrics.push_back({"net.protocol_errors", static_cast<double>(r.protocol_errors), "count"});
  metrics.push_back({"registry.reloads", static_cast<double>(r.reload_ms.size()), "count"});
  metrics.insert(metrics.end(), probes.begin(), probes.end());
  for (int n = 0; n < kSpanCount; ++n) {
    const auto count = static_cast<double>(dur[n].size());
    metrics.push_back(
        {std::string("trace.self_us.") + kSpanNames[n], count ? self_sum[n] / count : 0.0, "us"});
  }
  metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  metrics.push_back({"trace.dropped_spans", static_cast<double>(dropped), "count"});
  metrics.push_back({"trace.overhead_p50_us", traced.p50_us - untraced.p50_us, "us"});
  metrics.push_back(
      {"trace.overhead_rps", untraced.throughput_rps - traced.throughput_rps, "1/s"});

  std::cout << result_json(valid, base.attempted + r.attempted, base.failed + r.failed, metrics)
            << std::endl;
  return valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const vsq::Args args(argc, argv);
    const std::string gen_dir = args.get_str("generate", "");
    if (!gen_dir.empty()) return generate(gen_dir);
    const std::string name = args.get_str("workload", "");
    const int seed = args.get_int("seed", 1);
    const double seconds = args.get_double("seconds", 10.0);
    const int trace = args.get_int("trace", 0);
    const std::string dir = args.get_str("archives", "");
    const std::string out_dir = args.get_str("out", ".");
    if (!args.unused().empty() || dir.empty() || seed < 0 || !(seconds >= kSubRuns) ||
        (trace != 0 && trace != 1)) {
      std::cerr << "usage: perfbench_serve --workload=NAME --seed=N --seconds=S --trace=0|1 "
                   "--archives=DIR [--out=DIR] | --generate=DIR (seconds >= "
                << kSubRuns << ")\n";
      return 2;
    }
    for (const Workload& w : workloads()) {
      if (w.name == name) {
        return run(w, static_cast<std::uint64_t>(seed), seconds, trace == 1, dir, out_dir);
      }
    }
    std::cerr << "perfbench_serve: unknown workload: " << name << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serve: " << e.what() << "\n";
    return 1;
  }
}
