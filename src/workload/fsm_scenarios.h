// The three seeded FSM scenarios — the structural workloads the flat-mix
// generators never covered (ROADMAP "FSM-composed workload framework"):
//
//   * secondary-index maintenance: a BTreeDictionary catalogue and a Set
//     secondary index kept MUTUALLY CONSISTENT (index contains exactly the
//     dictionary's keys) by every mutating transaction; the per-state check
//     re-reads both objects in one transaction, so any serialisation point
//     at which they disagree is an invariant failure;
//   * queue-graph pipeline with backpressure: a chain of bounded queues
//     with producer / stage-mover / consumer states plus an explicit
//     producer STALL state; enqueues are guarded by in-transaction length
//     checks, so "every queue's length <= bound" and "produced - consumed
//     == items in flight" hold at every serial point;
//   * read-mostly catalogue serving: zipf-hot gets over a BTreeDictionary
//     with occasional hot-key writes that also bump a version counter;
//     checks pin per-walker version monotonicity and version >= entries
//     added.
//
// Each scenario prefixes its object names, so any combination can share one
// ObjectBase (the composed-mode requirement).  Call SetupX on the base
// BEFORE constructing the executor; the returned workload's `setup` hook
// resolves handles and prefills via the executor (generators.h discipline:
// resolve once, execute many).
#ifndef OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_
#define OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_

#include <string>

#include "src/workload/fsm.h"

namespace objectbase::workload {

// --- secondary-index maintenance --------------------------------------------
// Objects: <prefix>:dict (BTreeDictionary), <prefix>:index (Set).
// States: upsert (put + index insert on fresh keys), remove (del + index
// erase), lookup (read-only get/contains pair).
struct SecondaryIndexParams {
  std::string prefix = "si";
  int keyspace = 64;
  double theta = 0.4;   ///< Zipf skew over the keyspace.
  int prefill = 16;     ///< Keys present (and indexed) before the walk.
  int threads = 3;
  int iterations = 40;
};
void SetupSecondaryIndex(rt::ObjectBase& base, const SecondaryIndexParams& p);
FsmWorkload MakeSecondaryIndexFsm(const SecondaryIndexParams& p);

// --- queue-graph pipeline with backpressure ----------------------------------
// Objects: <prefix>:q0 .. :q<stages-1> (Queues), <prefix>:produced and
// <prefix>:consumed (Counters).
// States: produce (bounded enqueue into q0), stall (the producer's
// backpressure state: observes q0's length, mutates nothing), move:<i>
// (dequeue q<i-1> -> enqueue q<i>, also bounded), consume (dequeue tail).
struct QueuePipelineParams {
  std::string prefix = "qp";
  int stages = 3;  ///< Queue count; >= 2 gives at least one mover state.
  int bound = 6;   ///< Backpressure bound per queue.
  int threads = 3;
  int iterations = 40;
};
void SetupQueuePipeline(rt::ObjectBase& base, const QueuePipelineParams& p);
FsmWorkload MakeQueuePipelineFsm(const QueuePipelineParams& p);

// --- read-mostly catalogue serving -------------------------------------------
// Objects: <prefix>:cat (BTreeDictionary), <prefix>:version (Counter).
// States: serve (a handful of zipf gets, read-only), write (hot-key put +
// version bump), audit (version/count consistency read).
struct CatalogueParams {
  std::string prefix = "cat";
  int keyspace = 256;
  double theta = 0.9;  ///< Hot-key skew for writes AND reads.
  int prefill = 64;    ///< Entries served before the walk starts.
  int reads_per_serve = 3;
  int threads = 4;
  int iterations = 50;
};
void SetupCatalogue(rt::ObjectBase& base, const CatalogueParams& p);
FsmWorkload MakeCatalogueFsm(const CatalogueParams& p);

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_FSM_SCENARIOS_H_
