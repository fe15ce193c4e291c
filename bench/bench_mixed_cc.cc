// E6 — Modular per-object synchronisation vs a uniform policy.
//
// Claim (Section 2 / Theorem 5): letting each object run its most suitable
// intra-object algorithm (the B-tree with latch crabbing; commuting
// counters optimistic) under an inter-object compatibility layer can beat
// imposing one uniform policy on every object.
#include "bench/bench_util.h"

#include "src/cc/mixed_controller.h"

using namespace objectbase;  // NOLINT

int main() {
  bench::Banner("E6: per-object (MIXED) vs uniform synchronisation",
                "dictionary-heavy mix: B-tree crabbing + certifier vs "
                "uniform N2PL / GEMSTONE (paper Section 2, Theorem 5)");
  const int scale = bench::Scale();

  TablePrinter table({"config", "threads", "tput/s", "abort-ratio",
                      "p99-ms"});
  struct Config {
    const char* name;
    rt::Protocol protocol;
  };
  for (Config cfg : {Config{"GEMSTONE (uniform)", rt::Protocol::kGemstone},
                     Config{"N2PL (uniform)", rt::Protocol::kN2pl},
                     Config{"MIXED (per-object)", rt::Protocol::kMixed}}) {
    for (int threads : {2, 4, 8}) {
      workload::DictionaryParams p;
      p.dicts = 2;
      p.keyspace = 2048;
      p.theta = 0.2;
      p.ops_per_txn = 6;
      p.spin_per_op = 1000;
      workload::FsmWorkload w = workload::MakeDictionaryWorkload(p);
      w.threads = threads;
      w.iterations = 120 * scale;

      rt::ObjectBase base;
      workload::SetupDictionary(base, p);
      rt::Executor exec(base, {.protocol = cfg.protocol,
                               .granularity = cc::Granularity::kStep,
                               .record = false});
      if (cfg.protocol == rt::Protocol::kMixed) {
        // Counters of commuting adds: optimistic; dictionaries default to
        // crabbing via supports_concurrent_apply.
        exec.SetIntraPolicy("dict-total", cc::IntraPolicy::kOptimistic);
      }
      bench::MixRow m = bench::RunMix(exec, w, 13 + threads);
      table.AddRow({cfg.name, TablePrinter::Fmt(int64_t{threads}),
                    TablePrinter::Fmt(m.Throughput(), 0),
                    TablePrinter::Fmt(m.AbortRatio(), 3),
                    TablePrinter::Fmt(m.P99Ms(), 2)});
      bench::JsonLine("mixed_cc")
          .Field("name", cfg.name)
          .Field("threads", threads)
          .Field("ns_per_op", m.Throughput() > 0 ? 1e9 / m.Throughput() : 0.0)
          .Field("throughput", m.Throughput())
          .Field("abort_ratio", m.AbortRatio())
          .Field("p99_ms", m.P99Ms())
          .Emit();
    }
  }
  table.Print();
  std::printf("\nExpected shape (the Section 6 trade-off, stated as open "
              "by the paper): GEMSTONE\ncollapses under contention (whole-"
              "object locks + deadlock churn).  Uniform N2PL\nand MIXED "
              "both scale flat and dominate it.  MIXED buys each object "
              "local freedom\n(the B-tree runs its own latches, counters "
              "go optimistic) and pays for it in\ninter-object "
              "certification overhead — the \"more complex and stringent "
              "inter-object\nsynchronisation\" the paper predicts as the "
              "price (Section 2).\n");
  return 0;
}
