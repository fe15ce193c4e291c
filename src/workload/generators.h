// Flat-mix workloads: the scenario families behind experiments E1–E8.
//
// Each family has a Setup function (creates the objects) and a Make*Workload
// function returning a flat mix: an FsmWorkload with one state per
// transaction type and every transition row equal to the normalised type
// weights, so each visit is an independent weighted pick.  Run it with an
// FsmRunner in kParallel mode; its `threads` and `iterations` are the walker
// count and the transactions per walker.  The same workload runs unchanged
// under every protocol, which is what makes the experiment rows comparable.
#ifndef OBJECTBASE_WORKLOAD_GENERATORS_H_
#define OBJECTBASE_WORKLOAD_GENERATORS_H_

#include "src/workload/fsm.h"

namespace objectbase::workload {

/// Simulated method length: the paper's premise (Section 1(b)) is that
/// methods "can themselves be quite long programmes", which is why
/// serialising whole objects costs so much.  SpinWork burns `iters`
/// iterations of busy work.
void SpinWork(int iters);

// --- Banking (E1, E7) -------------------------------------------------------
// `accounts` BankAccount objects (opening balance `initial`) plus one
// Counter per branch.  Transfers withdraw from one account, deposit to
// another and bump both branch counters; audits read a handful of balances.
// Key skew `theta` (0 = uniform) controls contention.  The teardown checks
// that the accounts plus the branch counters still sum to
// `accounts * initial`.
struct BankingParams {
  int accounts = 64;
  int branches = 4;
  int64_t initial = 10'000;
  double theta = 0.0;
  double audit_weight = 0.2;
  int audit_scan = 8;  ///< Balances read per audit.
  int spin_per_op = 0;  ///< Simulated method length (SpinWork iterations).
};
void SetupBanking(rt::ObjectBase& base, const BankingParams& p);
FsmWorkload MakeBankingWorkload(const BankingParams& p);

// --- Queue pipeline (E2) ----------------------------------------------------
// `queues` Queue objects.  Producers enqueue batches; consumers dequeue
// batches.  Under operation-granularity locking every enqueue blocks every
// dequeue on the same queue; under step granularity they only conflict when
// the dequeue returns the enqueued item or sees an empty queue (Section 5.1).
// The workload's setup enqueues `prefill` items on every queue.
struct QueueParams {
  int queues = 8;
  int batch = 4;
  double producer_weight = 1.0;
  double consumer_weight = 1.0;
  int64_t prefill = 64;  ///< Items per queue, so dequeues rarely hit empty.
  int spin_per_op = 0;   ///< Simulated method length.
};
void SetupQueues(rt::ObjectBase& base, const QueueParams& p);
FsmWorkload MakeQueueWorkload(const QueueParams& p);

// --- Semantic ADTs vs read/write registers (E3) ------------------------------
// The same logical workload (add deltas, occasionally read) over Counter
// objects (adds commute) versus Register objects (increment conflicts with
// increment at operation granularity only through the table; the register
// table is the classical read/write one).
struct SemanticParams {
  int objects = 8;
  int ops_per_txn = 4;
  double read_fraction = 0.1;
  bool use_counters = true;  ///< false: plain registers via read+write.
  int spin_per_op = 0;       ///< Simulated method length.
};
void SetupSemantic(rt::ObjectBase& base, const SemanticParams& p);
FsmWorkload MakeSemanticWorkload(const SemanticParams& p);

// --- Nested fan-out (E4) -----------------------------------------------------
// Each transaction spawns `fanout` parallel child methods, each of which
// performs `work_per_child` counter additions on its own shard object (no
// cross-transaction contention): measures the runtime's internal
// parallelism.
struct FanoutParams {
  int fanout = 4;
  int work_per_child = 64;
  int shards_per_thread = 16;
  int spin_per_op = 200;  ///< Busy-work iterations per op (simulated method length).
};
void SetupFanout(rt::ObjectBase& base, const FanoutParams& p,
                 int max_threads);
FsmWorkload MakeFanoutWorkload(const FanoutParams& p);

// --- Dictionary mix (E6) ------------------------------------------------------
// `dicts` B-tree dictionary objects plus a Counter of total entries.  Puts,
// gets and dels on zipf-distributed keys; every mutation also bumps the
// counter (an inter-object constraint so the inter-object layer matters);
// the teardown checks that `dict-total` equals the dictionaries' counts.
struct DictionaryParams {
  int dicts = 4;
  int keyspace = 4096;
  double theta = 0.0;
  double get_weight = 4.0;
  double put_weight = 2.0;
  double del_weight = 1.0;
  int ops_per_txn = 4;
  int spin_per_op = 0;  ///< Simulated method length.
};
void SetupDictionary(rt::ObjectBase& base, const DictionaryParams& p);
FsmWorkload MakeDictionaryWorkload(const DictionaryParams& p);

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_GENERATORS_H_
