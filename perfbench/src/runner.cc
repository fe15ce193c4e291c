#include "perfbench/src/runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/cc/sharded_controller.h"

namespace perfbench {

rt::TxnResult Client::Run(rt::Executor& exec, const std::string& name,
                          const std::function<Value(rt::MethodCtx&)>& body,
                          bool cross_shard) {
  uint32_t trace_id = 0;
  if (trace_stride != 0 && window != nullptr &&
      window->load(std::memory_order_relaxed) >= 0 &&
      seq % trace_stride == 0 && traced + 1 < (1u << 24)) {
    trace_id = ((index + 1) << 24) | ++traced;
  }
  ++seq;
  const int64_t start = NowNs();
  TxnTrace trace(trace_id, start);
  rt::TxnResult r = exec.RunTransaction(name, [&body](rt::MethodCtx& m) {
    AttemptScope attempt;
    return body(m);
  });
  const int64_t end = NowNs();
  trace.Finish(end, static_cast<uint8_t>((r.committed ? kTxnCommitted : 0) |
                                         (cross_shard ? kTxnCrossShard : 0)));
  last_latency_ns = end - start;
  return r;
}

void Client::Finish(bool ok) {
  const int w =
      window == nullptr ? -1 : window->load(std::memory_order_relaxed);
  if (w < 0) return;
  WindowAcc& acc = windows[w];
  ++acc.attempted;
  acc.ok += ok ? 1 : 0;
  const auto lat = static_cast<uint32_t>(
      std::min<int64_t>(last_latency_ns, UINT32_MAX));
  if (acc.samples < WindowAcc::kMaxSamples) {
    acc.latency_ns[acc.samples++] = lat;
  } else {
    // Reservoir sampling: every transaction of the window is equally
    // likely to be in the sample.
    const uint64_t j = sampler.Next() % (acc.attempted);
    if (j < WindowAcc::kMaxSamples) acc.latency_ns[j] = lat;
  }
}

Counters Counters::Read(rt::Executor& exec) {
  Counters c;
  rt::Executor::Stats& st = exec.stats();
  c.committed = st.committed.load();
  c.aborted = st.aborted.load();
  for (size_t r = 0; r < objectbase::cc::kNumAbortReasons; ++r) {
    c.aborts_by_reason[r] = st.aborts_by_reason[r].load();
  }
  auto add_wal = [&c](rt::WalWriter* w) {
    if (w == nullptr) return;
    c.wal_syncs += w->syncs();
    c.wal_staged += w->staged();
  };
  if (objectbase::cc::ShardedController* sc = exec.sharded()) {
    for (uint32_t s = 0; s < sc->num_shards(); ++s) add_wal(exec.shard_wal(s));
    c.cross_commits = sc->cross_shard_commits();
    c.cycle_aborts = sc->cross_shard_cycle_aborts();
    c.poll_timeouts = sc->commit_poll_timeouts();
  } else {
    add_wal(exec.wal());
  }
  return c;
}

Counters Counters::Minus(const Counters& o) const {
  Counters d = *this;
  d.committed -= o.committed;
  d.aborted -= o.aborted;
  for (size_t r = 0; r < objectbase::cc::kNumAbortReasons; ++r) {
    d.aborts_by_reason[r] -= o.aborts_by_reason[r];
  }
  d.wal_syncs -= o.wal_syncs;
  d.wal_staged -= o.wal_staged;
  d.cross_commits -= o.cross_commits;
  d.cycle_aborts -= o.cycle_aborts;
  d.poll_timeouts -= o.poll_timeouts;
  return d;
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  Usage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.vol_ctxsw = ru.ru_nvcsw;
  u.invol_ctxsw = ru.ru_nivcsw;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    long long v[8] = {};
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      u.steal_ticks = v[7];
      for (long long x : v) u.all_ticks += x;
    }
    std::fclose(f);
  }
  return u;
}

Usage Usage::Minus(const Usage& o) const {
  return Usage{user_s - o.user_s,           sys_s - o.sys_s,
               vol_ctxsw - o.vol_ctxsw,     invol_ctxsw - o.invol_ctxsw,
               steal_ticks - o.steal_ticks, all_ticks - o.all_ticks};
}

Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  const long m = static_cast<long>(n) + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  q.q1 = out[0];
  q.q3 = out[2];
  return q;
}

double Percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

Quartiles PhaseResult::Over(double (*figure)(const Window&)) const {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back(figure(w));
  return QuartilesOf(std::move(v));
}

PhaseResult RunPhase(Workload& wl,
                     std::vector<std::unique_ptr<Client>>& clients,
                     const PhaseOptions& opt) {
  const int nw = std::max(1, opt.windows);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> window{-1};
  for (auto& c : clients) {
    c->windows.assign(nw, WindowAcc{});
    c->window = &window;
    c->trace_stride = opt.trace_stride;
  }
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (auto& c : clients) {
    Client* client = c.get();
    threads.emplace_back([&wl, &go, &stop, client] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) wl.RunOne(*client);
    });
  }

  const auto ns = [](double s) { return static_cast<int64_t>(s * 1e9); };
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns(opt.warmup_s)));

  std::vector<int64_t> bounds{NowNs()};
  std::vector<Usage> usage{Usage::Now()};
  const Counters c0 = Counters::Read(wl.exec());
  window.store(0);
  for (int w = 1; w <= nw; ++w) {
    const int64_t due = bounds[0] + ns(opt.seconds) * w / nw;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    window.store(w < nw ? w : -1);
    bounds.push_back(NowNs());
    usage.push_back(Usage::Now());
  }
  const Counters c1 = Counters::Read(wl.exec());
  stop.store(true);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.counters = c1.Minus(c0);
  r.usage = usage.back().Minus(usage.front());
  r.windows.resize(nw);
  for (int w = 0; w < nw; ++w) {
    Window& win = r.windows[w];
    win.seconds = (bounds[w + 1] - bounds[w]) * 1e-9;
    win.cpu_s = usage[w + 1].user_s - usage[w].user_s + usage[w + 1].sys_s -
                usage[w].sys_s;
    std::vector<int64_t> lat;
    for (auto& c : clients) {
      const WindowAcc& acc = c->windows[w];
      win.attempted += acc.attempted;
      win.ok += acc.ok;
      lat.insert(lat.end(), acc.latency_ns.begin(),
                 acc.latency_ns.begin() + acc.samples);
    }
    r.attempted += win.attempted;
    r.failed += win.attempted - win.ok;
    win.p50_us = Percentile(lat, 0.50) / 1e3;
    win.p99_us = Percentile(lat, 0.99) / 1e3;
  }
  for (auto& c : clients) {
    c->window = nullptr;
    c->windows.clear();
    c->windows.shrink_to_fit();
  }
  return r;
}

void RunFixed(Workload& wl, std::vector<std::unique_ptr<Client>>& clients,
              int txns) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    Client* client = c.get();
    client->window = nullptr;
    client->trace_stride = 0;
    threads.emplace_back([&wl, client, txns] {
      for (int i = 0; i < txns; ++i) wl.RunOne(*client);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace perfbench
