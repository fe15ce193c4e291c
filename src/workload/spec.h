// Workload specifications and run metrics.
//
// A WorkloadSpec is a protocol-independent description of offered load: a
// weighted mix of transaction templates executed by a set of worker
// threads.  The same spec is run against different Executors (protocols /
// granularities) to produce the comparison rows of experiments E1–E8.
#ifndef OBJECTBASE_WORKLOAD_SPEC_H_
#define OBJECTBASE_WORKLOAD_SPEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/runtime/executor.h"

namespace objectbase::workload {

/// One transaction type in the mix.  `make` samples the transaction's
/// parameters from the thread's RNG and returns the body to run.
struct TxnTemplate {
  std::string name;
  double weight = 1.0;
  std::function<rt::MethodFn(Rng&)> make;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TxnTemplate> mix;
  int threads = 4;
  uint64_t txns_per_thread = 200;
  uint64_t seed = 42;
  /// Optional hook run once before the workers start (e.g. DefineMethod
  /// registrations, prefilling objects).
  std::function<void(rt::Executor&)> prepare;
};

/// Simulated method length: the paper's premise (Section 1(b)) is that
/// methods "can themselves be quite long programmes", which is why
/// serialising whole objects costs so much.  SpinWork burns `iters`
/// iterations of busy work.
void SpinWork(int iters);

/// Aggregated result of one workload run.
struct RunMetrics {
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;  ///< Attempts that ended in an abort.
  uint64_t retries = 0;           ///< Re-attempts after an aborted attempt.
  uint64_t gave_up = 0;           ///< Transactions that exhausted retries.
  uint64_t deadlocks = 0;
  uint64_t wounds = 0;  ///< kWounded aborts (wound–wait victims).
  uint64_t ts_rejects = 0;
  uint64_t validation_fails = 0;
  uint64_t cascades = 0;  ///< kCascade + kDoomed.
  /// Commits whose footprint stayed on a single shard, indexed by that
  /// shard (size = num_shards; one slot on a plain base).
  std::vector<uint64_t> committed_by_shard;
  /// Commits that spanned >1 shard (the two-phase commit-wait path).
  uint64_t cross_shard_committed = 0;
  /// Wall clock from "every worker released from the start latch" to the
  /// LAST transaction completion — thread spawn/join and metric merging
  /// are excluded (they skewed short sweeps low).
  double seconds = 0;
  Histogram latency_ns;

  double Throughput() const {
    return seconds > 0 ? committed / seconds : 0;
  }
  /// Aborted attempts per committed transaction.
  double AbortRatio() const {
    return committed > 0 ? static_cast<double>(aborted_attempts) / committed
                         : static_cast<double>(aborted_attempts);
  }
};

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_SPEC_H_
