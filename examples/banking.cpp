// Banking: a contended multi-threaded workload compared across protocols.
//
// Runs the same transfer/audit mix under GEMSTONE (the paper's Section 1
// conservative reduction), N2PL, NTO and CERT, printing throughput and the
// abort breakdown — a miniature of experiment E1 with verification on.  Exits
// non-zero if a history fails the legality/serialisability oracles or money
// is not conserved.
//
// Build & run:  ./build/examples/example_banking
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/model/legality.h"
#include "src/model/serialiser.h"
#include "src/workload/generators.h"

using namespace objectbase;  // NOLINT: example brevity

int main() {
  workload::BankingParams params;
  params.accounts = 16;
  params.branches = 4;
  params.theta = 0.6;  // skewed: hot accounts
  params.audit_weight = 0.25;

  TablePrinter table({"protocol", "committed", "tput/s", "abort-ratio",
                      "deadlocks", "ts-rejects", "validation", "verified"});
  bool all_ok = true;

  for (rt::Protocol protocol :
       {rt::Protocol::kGemstone, rt::Protocol::kN2pl, rt::Protocol::kNto,
        rt::Protocol::kCert}) {
    rt::ObjectBase base;
    workload::SetupBanking(base, params);
    rt::Executor exec(base, {.protocol = protocol,
                             .granularity = cc::Granularity::kStep,
                             .record = true});
    workload::FsmWorkload w = workload::MakeBankingWorkload(params);
    w.threads = 4;
    w.iterations = 150;
    // RunMix exits non-zero if a teardown check (money conserved) fails.
    bench::MixRow m = bench::RunMix(exec, w, 42);

    model::History h = exec.recorder().Snapshot();
    bool verified = model::CheckLegal(h, true).legal &&
                    model::CheckSerialisable(h).serialisable;
    all_ok = all_ok && verified;

    table.AddRow({rt::ProtocolName(protocol),
                  TablePrinter::Fmt(m.run.committed),
                  TablePrinter::Fmt(m.Throughput(), 0),
                  TablePrinter::Fmt(m.AbortRatio(), 3),
                  TablePrinter::Fmt(m.deadlocks),
                  TablePrinter::Fmt(m.ts_rejects),
                  TablePrinter::Fmt(m.validation_fails),
                  verified ? "yes" : "NO"});
  }
  std::printf("Banking mix: 75%% transfers / 25%% audits, 16 accounts, "
              "zipf 0.6, 4 threads\n");
  table.Print();
  return all_ok ? 0 : 1;
}
