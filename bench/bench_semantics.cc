// E3 — Semantic commutativity vs read/write conflict tables.
//
// Claim (Section 1(b), Definition 3): object bases issue operations richer
// than read/write; exploiting their commutativity (Counter.add commutes
// with Counter.add) admits concurrency that a classical read/write table
// (Register.increment treated via read+write locks… here: increment
// conflicts with increment) cannot.
#include "bench/bench_util.h"

using namespace objectbase;  // NOLINT

int main() {
  bench::Banner("E3: semantic ADTs vs read/write registers",
                "the same add-heavy workload over Counters (adds commute) "
                "vs Registers (classical conflicts), N2PL step locks");
  const int scale = bench::Scale();

  TablePrinter table({"table", "objects", "threads", "tput/s", "abort-ratio",
                      "deadlock", "p99-ms"});
  for (bool counters : {false, true}) {
    for (int objects : {1, 8}) {
      for (int threads : {1, 4, 8}) {
        workload::SemanticParams p;
        p.objects = objects;
        p.ops_per_txn = 4;
        p.read_fraction = 0.05;
        p.use_counters = counters;
        p.spin_per_op = 2000;
        rt::ObjectBase base;
        workload::SetupSemantic(base, p);
        rt::Executor exec(base,
                          {.protocol = rt::Protocol::kN2pl, .record = false});
        workload::FsmWorkload w = workload::MakeSemanticWorkload(p);
        w.threads = threads;
        w.iterations = 150 * scale;
        bench::MixRow m = bench::RunMix(exec, w, 11 + objects * threads);
        table.AddRow({counters ? "semantic (counter)" : "read/write (register)",
                      TablePrinter::Fmt(int64_t{objects}),
                      TablePrinter::Fmt(int64_t{threads}),
                      TablePrinter::Fmt(m.Throughput(), 0),
                      TablePrinter::Fmt(m.AbortRatio(), 3),
                      TablePrinter::Fmt(m.deadlocks),
                      TablePrinter::Fmt(m.P99Ms(), 2)});
        bench::JsonLine("semantics")
            .Field("name", counters ? "counter" : "register")
            .Field("objects", objects)
            .Field("threads", threads)
            .Field("ns_per_op", m.Throughput() > 0 ? 1e9 / m.Throughput() : 0.0)
            .Field("throughput", m.Throughput())
            .Field("abort_ratio", m.AbortRatio())
            .Emit();
      }
    }
  }
  table.Print();
  std::printf("\nExpected shape: across several objects the semantic table "
              "scales with threads\n(adds commute; no lock-order cycles) "
              "while read-modify-write register traffic\ncollapses under "
              "deadlock/retry churn.  On a single hot object both are "
              "bounded by\nthe object's lock table itself; the semantic "
              "run still aborts far less.\n");
  return 0;
}
