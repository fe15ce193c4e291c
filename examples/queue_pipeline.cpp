// Queue pipeline: the Section 5.1 Enqueue/Dequeue story.
//
// Producers and consumers share FIFO queues.  With operation-granularity
// locks every Enqueue delays every Dequeue on the same queue; with
// step-granularity (return-value-aware) locks an Enqueue only delays the
// Dequeue that returns its item.  This example runs both and prints the
// difference — a miniature of experiment E2.  Exits non-zero if a history
// fails the legality/serialisability oracles.
//
// Build & run:  ./build/examples/example_queue_pipeline
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/model/legality.h"
#include "src/model/serialiser.h"
#include "src/workload/generators.h"

using namespace objectbase;  // NOLINT: example brevity

int main() {
  workload::QueueParams params;
  params.queues = 2;       // few queues: contention is the point
  params.batch = 3;
  params.prefill = 64;     // dequeues rarely observe an empty queue

  TablePrinter table(
      {"granularity", "committed", "tput/s", "abort-ratio", "verified"});
  bool all_ok = true;

  for (cc::Granularity g :
       {cc::Granularity::kOperation, cc::Granularity::kStep}) {
    rt::ObjectBase base;
    workload::SetupQueues(base, params);
    rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                             .granularity = g,
                             .record = true});

    workload::FsmWorkload w = workload::MakeQueueWorkload(params);
    w.threads = 4;
    w.iterations = 120;
    bench::MixRow m = bench::RunMix(exec, w, 42);

    model::History h = exec.recorder().Snapshot();
    bool verified = model::CheckLegal(h, true).legal &&
                    model::CheckSerialisable(h).serialisable;
    all_ok = all_ok && verified;

    table.AddRow({g == cc::Granularity::kOperation ? "operation" : "step",
                  TablePrinter::Fmt(m.run.committed),
                  TablePrinter::Fmt(m.Throughput(), 0),
                  TablePrinter::Fmt(m.AbortRatio(), 3),
                  verified ? "yes" : "NO"});
  }
  std::printf("Producer/consumer pipeline, 2 queues, 4 threads, N2PL\n");
  table.Print();
  std::printf("\nSection 5.1: \"if we locked operations with no regard to "
              "their return values, an Enqueue\nwould delay any Dequeue of "
              "an incomparable method execution\" — step locks avoid it.\n");
  return all_ok ? 0 : 1;
}
