// E8 — NTO's memory of remembered steps and the watermark GC.
//
// Claim (Section 5.2): the step-remembering implementation needs "a
// mechanism … which will render some of this information obsolete and will
// allow us to 'forget' it"; the active-transaction watermark provides it.
// Without GC the per-object remembered-step tables grow without bound.
#include "bench/bench_util.h"

#include "src/adt/counter_adt.h"
#include "src/cc/nto_controller.h"
#include "src/common/stats.h"
#include "src/runtime/executor.h"

using namespace objectbase;  // NOLINT

int main() {
  bench::Banner("E8: NTO remembered-step garbage collection",
                "watermark GC on vs off: remembered entries and throughput "
                "(paper Section 5.2)");
  const int scale = bench::Scale();
  const int kObjects = 8;

  TablePrinter table({"gc", "txns", "remembered-entries", "tput/s",
                      "entries/txn"});
  for (bool gc : {true, false}) {
    for (int txns : {2000, 8000}) {
      rt::ObjectBase base;
      for (int i = 0; i < kObjects; ++i) {
        base.CreateObject("c" + std::to_string(i), adt::MakeCounterSpec(0));
      }
      // A fold threshold of 0 turns the watermark GC off.
      rt::ExecutorOptions options{.protocol = rt::Protocol::kNto,
                                  .record = false};
      if (!gc) options.journal_fold_threshold = 0;
      rt::Executor exec(base, options);
      Rng rng(1);
      Stopwatch clock;
      for (int i = 0; i < txns * scale; ++i) {
        int a = static_cast<int>(rng.Uniform(kObjects));
        int b = static_cast<int>(rng.Uniform(kObjects));
        exec.RunTransaction("t", [&, a, b](rt::MethodCtx& txn) {
          txn.Invoke("c" + std::to_string(a), "add", {1});
          txn.Invoke("c" + std::to_string(b), "get");
          return Value();
        });
      }
      double seconds = clock.ElapsedSeconds();
      std::vector<rt::Object*> objects;
      for (int i = 0; i < kObjects; ++i) {
        objects.push_back(base.Find("c" + std::to_string(i)));
      }
      size_t remembered = cc::NtoController::RememberedEntries(objects);
      table.AddRow({gc ? "on" : "off",
                    TablePrinter::Fmt(int64_t{txns} * scale),
                    TablePrinter::Fmt(uint64_t{remembered}),
                    TablePrinter::Fmt(txns * scale / seconds, 0),
                    TablePrinter::Fmt(
                        static_cast<double>(remembered) / (txns * scale),
                        4)});
      bench::JsonLine("nto_gc")
          .Field("name", gc ? "gc_on" : "gc_off")
          .Field("txns", int64_t{txns} * scale)
          .Field("remembered", uint64_t{remembered})
          .Field("ns_per_op", seconds * 1e9 / (txns * scale))
          .Field("throughput", txns * scale / seconds)
          .Emit();
    }
  }
  table.Print();
  std::printf("\nExpected shape: with GC on, remembered entries stay bounded "
              "(independent of run\nlength); with GC off they grow linearly "
              "with transactions and throughput decays\nas every conflict "
              "check scans an ever-longer table.\n");
  return 0;
}
