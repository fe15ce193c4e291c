// Shared helpers for the experiment binaries (E1..E8).
//
// Scale: set OBJBASE_BENCH_SCALE (default 1) to multiply per-thread
// transaction counts for longer, steadier runs.
#ifndef OBJECTBASE_BENCH_BENCH_UTIL_H_
#define OBJECTBASE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_json.h"
#include "src/common/table_printer.h"
#include "src/workload/generators.h"

namespace objectbase::bench {

inline int Scale() {
  const char* s = std::getenv("OBJBASE_BENCH_SCALE");
  if (s == nullptr) return 1;
  int v = std::atoi(s);
  return v > 0 ? v : 1;
}

inline void Banner(const char* id, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", id, claim);
}

/// What a flat-mix row prints: the runner's result plus the abort counts
/// the executor kept during the walk.
struct MixRow {
  workload::FsmRunResult run;
  uint64_t aborted = 0;  ///< Attempts that ended in an abort.
  uint64_t retries = 0;
  uint64_t deadlocks = 0;
  uint64_t ts_rejects = 0;
  uint64_t validation_fails = 0;
  uint64_t cascades = 0;  ///< kCascade + kDoomed.
  uint64_t cross_shard_committed = 0;

  double Throughput() const {
    return run.seconds > 0 ? run.committed / run.seconds : 0;
  }
  /// Aborted attempts per committed transaction.
  double AbortRatio() const {
    return run.committed > 0 ? static_cast<double>(aborted) / run.committed
                             : static_cast<double>(aborted);
  }
  double P99Ms() const { return run.latency_ns.Percentile(0.99) / 1e6; }

  /// The executor's counts now (the cumulative stats, not a delta).
  static MixRow Counts(const rt::Executor::Stats& s) {
    MixRow c;
    c.aborted = s.aborted.load();
    c.retries = s.retries.load();
    c.deadlocks = s.AbortsFor(cc::AbortReason::kDeadlock);
    c.ts_rejects = s.AbortsFor(cc::AbortReason::kTimestampOrder);
    c.validation_fails = s.AbortsFor(cc::AbortReason::kValidation);
    c.cascades = s.AbortsFor(cc::AbortReason::kCascade) +
                 s.AbortsFor(cc::AbortReason::kDoomed);
    c.cross_shard_committed =
        s.committed_by_shard[rt::Executor::Stats::kCrossShardSlot].load();
    return c;
  }
};

/// Runs the flat mix `w` alone on `exec` in FsmRunner's parallel mode.  The
/// counts cover the walk only: they are read after `w.setup` (which may
/// prefill objects by transaction) and before `w.teardown` (whose audits
/// are transactions too).  A failed invariant check ends the binary with
/// exit code 1.
inline MixRow RunMix(rt::Executor& exec, const workload::FsmWorkload& w,
                     uint64_t seed) {
  MixRow before;
  MixRow after;
  workload::FsmWorkload walk = w;
  walk.setup = [&](rt::Executor& e) {
    if (w.setup) w.setup(e);
    before = MixRow::Counts(e.stats());
  };
  walk.teardown = [&](workload::FsmCheckCtx& ctx) {
    after = MixRow::Counts(exec.stats());
    if (w.teardown) w.teardown(ctx);
  };
  workload::FsmRunner runner(
      exec, {.mode = workload::FsmMode::kParallel, .seed = seed});
  MixRow row;
  row.run = runner.Run({&walk});
  for (const std::string& f : row.run.failures) {
    std::fprintf(stderr, "INVARIANT FAILURE: %s\n", f.c_str());
  }
  if (!row.run.ok()) std::exit(1);
  row.aborted = after.aborted - before.aborted;
  row.retries = after.retries - before.retries;
  row.deadlocks = after.deadlocks - before.deadlocks;
  row.ts_rejects = after.ts_rejects - before.ts_rejects;
  row.validation_fails = after.validation_fails - before.validation_fails;
  row.cascades = after.cascades - before.cascades;
  row.cross_shard_committed =
      after.cross_shard_committed - before.cross_shard_committed;
  return row;
}

}  // namespace objectbase::bench

#endif  // OBJECTBASE_BENCH_BENCH_UTIL_H_
