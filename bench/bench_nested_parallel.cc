// E4 — Internal parallelism of methods.
//
// Claim (Section 1(c)): "we also want to allow methods to exhibit internal
// concurrency … a method should be allowed to send messages, invoking
// other methods, simultaneously."  A transaction splitting fixed work
// across k parallel child invocations should shorten its latency until the
// machine saturates.
#include "bench/bench_util.h"

using namespace objectbase;  // NOLINT

int main() {
  bench::Banner("E4: internal parallelism (fan-out)",
                "fixed per-transaction work split across k parallel child "
                "method executions (paper Section 1(c))");
  const int scale = bench::Scale();
  const int kThreads = 2;
  const int kTotalWork = 64;  // local steps of work per transaction

  TablePrinter table({"fanout", "mean-ms", "p99-ms", "txns/s", "speedup"});
  double base_mean = 0;
  for (int fanout : {1, 2, 4, 8}) {
    workload::FanoutParams p;
    p.fanout = fanout;
    p.work_per_child = kTotalWork / fanout;
    p.shards_per_thread = 8;
    p.spin_per_op = 150000;  // long-running child methods (~75us/op)
    rt::ObjectBase base;
    workload::SetupFanout(base, p, kThreads);
    rt::Executor exec(base,
                      {.protocol = rt::Protocol::kN2pl, .record = false});
    workload::FsmWorkload w = workload::MakeFanoutWorkload(p);
    w.threads = kThreads;
    w.iterations = 10 * scale;
    bench::MixRow m = bench::RunMix(exec, w, 5);
    double mean_ms = m.run.latency_ns.Mean() / 1e6;
    if (fanout == 1) base_mean = mean_ms;
    table.AddRow({TablePrinter::Fmt(int64_t{fanout}),
                  TablePrinter::Fmt(mean_ms, 3),
                  TablePrinter::Fmt(m.P99Ms(), 3),
                  TablePrinter::Fmt(m.Throughput(), 0),
                  TablePrinter::Fmt(base_mean / mean_ms, 2)});
    bench::JsonLine("nested_parallel")
        .Field("name", "fanout")
        .Field("fanout", fanout)
        .Field("ns_per_op", m.run.latency_ns.Mean())
        .Field("throughput", m.Throughput())
        .Field("speedup", base_mean / mean_ms)
        .Emit();
  }
  table.Print();
  std::printf("\nExpected shape: transaction latency falls as fanout grows "
              "(children run on their\nown threads, shards are disjoint so "
              "no blocking), flattening near the core count.\n");
  return 0;
}
