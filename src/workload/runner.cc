#include "src/workload/runner.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

namespace objectbase::workload {

RunMetrics RunWorkload(rt::Executor& exec, const WorkloadSpec& spec) {
  if (spec.prepare) spec.prepare(exec);
  exec.ResetStats();
  RunMetrics metrics;
  if (spec.threads <= 0) return metrics;
  std::mutex agg_mu;
  std::vector<double> weights;
  weights.reserve(spec.mix.size());
  for (const TxnTemplate& t : spec.mix) weights.push_back(t.weight);

  // Start latch: workers are dispatched first and parked; the clock starts
  // only once every worker is ready, and stops at the LAST transaction
  // completion (not after join + histogram merges).  Without this, short
  // sweeps charge thread-spawn and teardown time to the measured interval
  // and under-report throughput.  The LAST worker to arrive releases the
  // latch (the dispatching thread is already blocked in the batch wait).
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  int ready = 0;
  bool go = false;
  Stopwatch clock;  // Reset just before release, under latch_mu.
  std::atomic<uint64_t> last_done_ns{0};

  // Workers run on the executor's branch pool (dedicated mode: one
  // whole-run task per worker, the dispatching thread only waits).
  // EnsureWorkers guarantees a free pool thread per worker task, so every
  // task reaches the latch and the release below cannot deadlock.
  rt::BranchPool& pool = exec.branch_pool();
  pool.EnsureWorkers(static_cast<size_t>(spec.threads));
  rt::BranchPool::Batch batch(pool);
  for (int t = 0; t < spec.threads; ++t) {
    batch.Add(rt::BranchPool::kAnyShard, [&, t](bool /*on_caller*/) {
      Rng rng(spec.seed * 1315423911u + t * 2654435761u + 1);
      Histogram local_latency;
      uint64_t local_gave_up = 0;
      uint64_t local_retries = 0;
      std::vector<double> w = weights;
      {
        std::unique_lock<std::mutex> l(latch_mu);
        ++ready;
        if (ready == spec.threads) {
          clock.Reset();
          go = true;
          latch_cv.notify_all();
        } else {
          latch_cv.wait(l, [&] { return go; });
        }
      }
      for (uint64_t i = 0; i < spec.txns_per_thread; ++i) {
        const TxnTemplate& tmpl = spec.mix[rng.WeightedIndex(w)];
        rt::MethodFn body = tmpl.make(rng);
        Stopwatch txn_clock;
        // The executor's retry loop owns the budget, the backoff and
        // wound-wait's age token.
        const rt::TxnResult r = exec.RunTransaction(tmpl.name, std::move(body));
        local_latency.Record(txn_clock.ElapsedNanos());
        if (r.attempts > 0) local_retries += r.attempts - 1;
        if (!r.committed) ++local_gave_up;
      }
      // Stamp completion BEFORE the (serialised) histogram merge.
      uint64_t done = clock.ElapsedNanos();
      uint64_t seen = last_done_ns.load(std::memory_order_relaxed);
      while (seen < done && !last_done_ns.compare_exchange_weak(
                                seen, done, std::memory_order_relaxed)) {
      }
      std::lock_guard<std::mutex> g(agg_mu);
      metrics.latency_ns.Merge(local_latency);
      metrics.gave_up += local_gave_up;
      metrics.retries += local_retries;
    });
  }
  // Dedicated mode: the dispatcher never inlines worker tasks — each task
  // is a whole worker loop, and inlining one would park this thread behind
  // the latch with the batch only partially dispatched.
  batch.RunAndWait(/*caller_inline=*/false);
  metrics.seconds = last_done_ns.load(std::memory_order_relaxed) / 1e9;

  const rt::Executor::Stats& s = exec.stats();
  metrics.committed = s.committed.load();
  metrics.aborted_attempts = s.aborted.load();
  metrics.deadlocks = s.AbortsFor(cc::AbortReason::kDeadlock);
  metrics.wounds = s.AbortsFor(cc::AbortReason::kWounded);
  metrics.ts_rejects = s.AbortsFor(cc::AbortReason::kTimestampOrder);
  metrics.validation_fails = s.AbortsFor(cc::AbortReason::kValidation);
  metrics.cascades = s.AbortsFor(cc::AbortReason::kCascade) +
                     s.AbortsFor(cc::AbortReason::kDoomed);
  const uint32_t shards = exec.base().num_shards();
  metrics.committed_by_shard.resize(shards);
  for (uint32_t k = 0; k < shards; ++k) {
    metrics.committed_by_shard[k] = s.committed_by_shard[k].load();
  }
  metrics.cross_shard_committed =
      s.committed_by_shard[rt::Executor::Stats::kCrossShardSlot].load();
  return metrics;
}

}  // namespace objectbase::workload
