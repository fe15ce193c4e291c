// E2 — Step-granularity (return-value-aware) locks vs operation locks on
// queues.
//
// Claim (Section 5.1): "an Enqueue conflicts with a Dequeue only if the
// latter returns the item placed into the queue by the former.  Thus, if we
// locked operations with no regard to their return values, an Enqueue
// operation would delay any Dequeue operation" — step locks recover that
// concurrency, most visibly when queues stay non-empty.
#include "bench/bench_util.h"

using namespace objectbase;  // NOLINT

int main() {
  bench::Banner("E2: queue step vs operation locking",
                "Section 5.1's Enqueue/Dequeue example: return-value-aware "
                "locks vs operation-class locks under N2PL");
  const int scale = bench::Scale();

  TablePrinter table({"queues", "prefill", "granularity", "tput/s",
                      "abort-ratio", "deadlock", "p99-ms"});
  for (int queues : {1, 4}) {
    for (int64_t prefill : {int64_t{0}, int64_t{512}}) {
      for (cc::Granularity g :
           {cc::Granularity::kOperation, cc::Granularity::kStep}) {
        workload::QueueParams p;
        p.queues = queues;
        p.batch = 2;
        p.prefill = prefill;
        p.spin_per_op = 30000;  // long methods: blocking dominates mechanics
        workload::FsmWorkload w = workload::MakeQueueWorkload(p);
        w.threads = 8;
        w.iterations = 100 * scale;

        rt::ObjectBase base;
        workload::SetupQueues(base, p);
        rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                                 .granularity = g,
                                 .record = false});
        bench::MixRow m = bench::RunMix(exec, w, 7 + queues);
        table.AddRow(
            {TablePrinter::Fmt(int64_t{queues}), TablePrinter::Fmt(prefill),
             g == cc::Granularity::kOperation ? "operation" : "step",
             TablePrinter::Fmt(m.Throughput(), 0),
             TablePrinter::Fmt(m.AbortRatio(), 3),
             TablePrinter::Fmt(m.deadlocks),
             TablePrinter::Fmt(m.P99Ms(), 2)});
        bench::JsonLine("queue_steps")
            .Field("name",
                   g == cc::Granularity::kOperation ? "operation" : "step")
            .Field("queues", queues)
            .Field("prefill", prefill)
            .Field("ns_per_op", m.Throughput() > 0 ? 1e9 / m.Throughput() : 0.0)
            .Field("throughput", m.Throughput())
            .Field("abort_ratio", m.AbortRatio())
            .Emit();
      }
    }
  }
  table.Print();
  std::printf("\nExpected shape: step >= operation everywhere; the largest "
              "gap at few queues with\nprefill>0 (non-empty queues: "
              "enqueues and dequeues of distinct items commute).\nWith "
              "prefill=0 dequeues often see the empty queue, which "
              "conflicts with every\nenqueue — the step-mode advantage "
              "shrinks, exactly as the paper predicts.\n");
  return 0;
}
