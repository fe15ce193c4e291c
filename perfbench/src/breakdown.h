// Turns the spans of a traced phase into per-layer figures, and checks that
// they add up (the breakdown test).
//
// Per transaction, the parts are laid end to end on the client thread:
//
//   txn = begin + attempt + retry_gap + attempt + ... + commit_tail
//
// Inside an attempt or method body, children (invokes, steps, batches) run
// one after another, so a span's self time is its duration minus the sum of
// its children's.  A parallel batch counts by its critical path: its slowest
// branch, plus the join wait (batch duration minus that branch).  Rolling
// every span's self time up that path gives the layers below; they sum to
// the transaction's wall latency.
#ifndef PERFBENCH_BREAKDOWN_H_
#define PERFBENCH_BREAKDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"

namespace perfbench {

/// Layers a transaction's critical path is split into.
enum Layer : int {
  kLayerExecutor,    ///< begin, retry gaps, Invoke minus its method body.
  kLayerBody,        ///< The benchmark's own attempt and method bodies.
  kLayerCcStep,      ///< Calls that issue one ADT operation.
  kLayerCcCommit,    ///< Last body exit to RunTransaction return.
  kLayerBranchPool,  ///< Join wait of parallel batches.
  kNumLayers,
};

const char* LayerName(int layer);

struct Breakdown {
  size_t txns = 0;        ///< Traced transactions analysed.
  size_t committed = 0;   ///< Of which committed.
  size_t incomplete = 0;  ///< Span sets with a missing transaction span.
  size_t violations = 0;  ///< Breakdown-test failures.
  std::string first_violation;
  double max_sum_err_frac = 0;  ///< max |parts - wall| / wall.

  // Durations (ns), one entry per span.
  std::vector<int64_t> begin, retry_gap, commit_tail, commit_tail_cross,
      commit_tail_local, invoke_overhead, step, step_read, step_write, batch,
      join_wait;

  // Sums (ns) over every analysed transaction.
  int64_t attempt_ns = 0;         ///< All attempt bodies.
  int64_t wasted_attempt_ns = 0;  ///< Attempts that did not commit.
  int64_t step_ns = 0;            ///< All steps, branches included.
  int64_t body_self_ns = 0;       ///< Attempt and method self time.
  uint64_t steps = 0;
  uint64_t attempts = 0;
  int64_t layer_ns[kNumLayers] = {};
  int64_t wall_ns = 0;
};

/// Analyses `spans` (consumed: sorted in place).
Breakdown Analyse(std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BREAKDOWN_H_
