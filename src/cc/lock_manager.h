// The N2PL lock manager, Section 5.1 (Moss' algorithm, Argus variant).
//
// Locks are held by method executions and obey the five rules:
//   1. an execution issues a step only while owning its lock — enforced by
//      acquiring before ApplyLocked (operation granularity) or by the
//      provisional-execution loop (step granularity);
//   2. a lock is granted only if every owner of a conflicting lock is an
//      ancestor of the requester;
//   3. two-phase: no acquisition after release — we implement the stricter
//      Argus discipline (footnote 6): locks are only ever released by
//      inheritance at child commit (rule 5) or wholesale at top-level
//      completion, which trivially satisfies rules 3 and 4;
//   4. a lock is released only after the children released theirs —
//      immediate from the Argus discipline;
//   5. on child commit every lock transfers to the parent.
//
// Lock modes: a lock is identified by the step (or operation class) it
// protects; two locks conflict iff the steps do (Definition 3 through the
// object's spec).  `exclusive`/`shared` entries implement the Gemstone
// baseline's whole-object locks (shared for read-only methods — the
// conventional read lock of the object-as-data-item reduction).
//
// Hot-path structure (see docs/lock_manager.md):
//   * tables live in lock-free chunked storage and each rt::Object caches
//     its table pointer at first touch, so the steady-state Acquire never
//     takes a global registry lock (LockTableMutexAcquisitions pins this);
//   * each table keeps a dense per-op-class grant bitmask, so the common
//     no-conflict grant is one mask test instead of a per-owner scan;
//   * blocked requests spin briefly, then PARK on a per-request waiter
//     (adapting the parking-mutex design of openbsd-mtx-test); releases
//     wake only the requests whose conflict mask actually cleared — there
//     is no per-table broadcast.
#ifndef OBJECTBASE_CC_LOCK_MANAGER_H_
#define OBJECTBASE_CC_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/adt/adt.h"
#include "src/cc/waits_for.h"
#include "src/common/value.h"

namespace objectbase::rt {
class Object;
class TxnNode;
}  // namespace objectbase::rt

namespace objectbase::cc {

/// Process-wide count of global lock-table-registry mutex acquisitions
/// (all LockManager instances).  Instrumentation for the acceptance
/// invariant: steady-state Acquire on an already-cached object must not
/// move it — only the first touch of a fresh table chunk does.
std::atomic<uint64_t>& LockTableMutexAcquisitions();

/// Process-wide count of waiter wake signals issued (all instances).  An
/// uncontended grant must not move it — there is no waiter herd to poke.
std::atomic<uint64_t>& LockWaiterWakeups();

/// Process-wide count of parks that expired on the 250 ms safety-net
/// timeout instead of a signal.  Diagnostic: a non-trivial rate means a
/// targeted-wake rule is missing a case (tests pin it at zero for the
/// covered scenarios).
std::atomic<uint64_t>& LockParkTimeouts();

/// Process-wide count of wounds issued under ContentionPolicy::kWoundWait
/// (an older requester marking a younger lock holder for abort).  At most
/// one per (wounder, victim-node) pair — the flag is idempotent.
std::atomic<uint64_t>& WoundsIssued();

/// How a blocking lock request behaves when waiting turns dangerous.
///
///   kDetect    — PR-3 behaviour: a waits-for cycle aborts the requester
///                (AbortReason::kDeadlock), retried from the top.
///   kWoundWait — age ordering by hierarchical timestamp: when an OLDER
///                top-level transaction (smaller hts top component) blocks
///                on a lock held by a YOUNGER one, the younger holder is
///                wounded — its owning method execution is marked for
///                abort (AbortReason::kWounded) and the wound is routed
///                through the runtime's partial-abort path, so under N2PL
///                a wound kills only the holding subtree, not its whole
///                top.  Younger requesters wait as usual.  Cycle detection
///                stays on as a safety net (wounds are observed lazily;
///                MIXED's cross-layer commit-waits still need it).
enum class ContentionPolicy { kDetect, kWoundWait };

const char* ContentionPolicyName(ContentionPolicy p);

class LockManager {
 public:
  LockManager();
  ~LockManager();

  enum class Outcome { kGranted, kDeadlock, kWounded };

  /// Selects the blocking-request behaviour (default kDetect).  Set at
  /// executor construction, before any transaction runs; the slot is
  /// atomic so tests may flip it between (not during) runs.
  void SetContentionPolicy(ContentionPolicy p) {
    contention_policy_.store(p, std::memory_order_relaxed);
  }
  ContentionPolicy contention_policy() const {
    return contention_policy_.load(std::memory_order_relaxed);
  }

  /// Invoked (under the wounded object's table mutex) with the TOP of each
  /// transaction this manager wounds.  A composing layer whose commits can
  /// block OUTSIDE the lock manager (MIXED's certifier commit-waits) uses
  /// it to doom the victim in its dependency registry — a wound victim
  /// parked in a commit-wait never reaches a lock-manager observation
  /// point, so without this hook a composite cycle through it would only
  /// dissolve via the bounded transient-park safety net.  Set at
  /// construction, before any transaction runs.
  void SetWoundHook(std::function<void(rt::TxnNode&)> hook) {
    wound_hook_ = std::move(hook);
  }

  /// A lock request; `ret` present means step granularity.  `op` is the
  /// resolved descriptor (nullptr for whole-object locks), so conflict
  /// tests against held locks are dense-id probes — no strings are copied
  /// into or compared inside the lock table.  `exclusive`/`shared` are the
  /// Gemstone whole-object modes: shared commutes only with shared,
  /// exclusive with nothing; both conservatively conflict with every
  /// operation-class lock.
  struct Request {
    const adt::OpDescriptor* op = nullptr;
    Args args;
    std::optional<Value> ret;
    bool exclusive = false;
    bool shared = false;
  };

  /// Blocking acquire obeying rule 2.  Returns kDeadlock when blocking
  /// would close a waits-for cycle (the requester is the victim).
  /// Reentrant by construction: locks owned by ancestors never block —
  /// which also makes shared->exclusive upgrades "wait for the other
  /// holders" (the requester's own shared entry never blocks it; mutual
  /// upgrades close a waits-for cycle and one side aborts).
  Outcome Acquire(rt::TxnNode& txn, rt::Object& obj, Request req);

  /// Non-blocking variant for the provisional-execution loop: returns
  /// kGranted and inserts the entry, or kWouldBlock/kDeadlock/kWounded
  /// without inserting (kWounded: the REQUESTER was wounded by an older
  /// transaction and must abort its wounded subtree).
  enum class TryOutcome { kGranted, kWouldBlock, kDeadlock, kWounded };
  TryOutcome TryAcquire(rt::TxnNode& txn, rt::Object& obj, const Request& req);

  /// Blocks until the table changes in a way that could make `req`
  /// grantable (or deadlock is detected).  Used between TryAcquire retries.
  Outcome WaitWhileBlocked(rt::TxnNode& txn, rt::Object& obj,
                           const Request& req);

  /// Rule 5: every lock owned by `child` in this manager's tables
  /// transfers to its parent.  Idempotent on the nodes' locked-object
  /// lists, so each shard's manager runs it for the same child.
  void TransferToParent(rt::TxnNode& child);

  /// Releases every lock owned by any execution in the subtree rooted at
  /// `root` (abort path) or by the top-level execution (commit path —
  /// after inheritance all live locks have bubbled up to it).
  void ReleaseSubtree(rt::TxnNode& root);

  /// Thread registry hooks for deadlock detection (see WaitsForGraph).
  void NoteRunning(uint64_t thread_key, rt::TxnNode* node) {
    wfg_->SetRunning(thread_key, node);
  }
  void NoteFinished(uint64_t thread_key) { wfg_->ClearRunning(thread_key); }

  /// The thread-level waits-for registry.  Exposed so a composing layer
  /// can declare NON-lock waits that hold locks across them — MIXED's
  /// commit-wait on certifier predecessors is invisible to the lock-only
  /// graph otherwise, which turns a lock/commit-wait cycle into an
  /// undetected cross-layer deadlock (found by the cross-protocol fuzz;
  /// see MixedController::OnTopCommit).
  WaitsForGraph& waits_for() { return *wfg_; }

  /// Sharded topology: every shard's manager declares its waits in ONE
  /// graph so lock cycles spanning shards stay detectable (a per-shard
  /// graph would see only its own fragment of the cycle).  Call before any
  /// transaction runs; `wfg` must outlive this manager.  Note the parked-
  /// waiter registry stays per-manager: a cross-manager wound reaches a
  /// parked victim via the bounded park timeout rather than a signal.
  void ShareWaitsForGraph(WaitsForGraph* wfg) { wfg_ = wfg; }

  size_t LockCount();

 private:
  struct Entry {
    rt::TxnNode* owner;
    Request req;
  };

  // A registered waiting request (for fairness: later conflicting
  // acquisitions queue behind it instead of barging).  Lives on the
  // waiting call's stack; the table's waiter list holds pointers.  Wakers
  // signal it individually — spin-then-park, never a table-wide broadcast.
  struct Waiter {
    uint64_t seq = 0;
    rt::TxnNode* txn = nullptr;
    const Request* req = nullptr;  // owned by the waiting call's stack frame
    uint64_t wake_mask = 0;  // held-op-class bits that block this request
    std::atomic<uint32_t> signal{0};  // 0 = parked/spinning, 1 = wake hint
    std::mutex park_mu;
    std::condition_variable park_cv;
  };

  // Per-object lock table: the hot path contends only on the object it
  // touches.  The grant-mask fields cache, per operation class, whether
  // any held entry could conflict with a new request of that class — the
  // no-conflict grant and the targeted waiter wakeup both test one mask
  // instead of scanning entries.  Masks cover specs with <= 64 operations
  // (all of ours); larger specs fall back to the entry scan.
  struct ObjTable {
    std::mutex mu;
    std::vector<Entry> entries;
    std::vector<Waiter*> waiters;
    uint64_t next_wait_seq = 0;
    // --- grant bitmask machinery (guarded by mu) ---
    const adt::AdtSpec* spec = nullptr;  // set at first acquire
    bool mask_usable = false;            // NumOps <= 64
    uint64_t held_mask = 0;       // op-class bits with >= 1 held entry
    uint32_t whole_shared = 0;    // count of shared whole-object entries
    uint32_t whole_excl = 0;      // count of exclusive whole-object entries
    std::vector<uint64_t> req_conflict_mask;  // [op id] -> blocking held bits
    std::vector<uint32_t> op_held_count;      // [op id] -> held entries
  };

  // Tables live in fixed-size chunks behind atomic pointers (the DepRef
  // pattern): readers index without coordinating with growth, and the
  // global mutex is only ever taken to allocate a chunk.  Object ids past
  // the chunked range (262144) spill into a mutex-guarded overflow map —
  // still O(1) on the steady path, because the resolved table pointer is
  // cached on the rt::Object either way.
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // 64 tables
  static constexpr uint32_t kMaxChunks = 4096;               // 262144 objects
  struct Chunk {
    ObjTable tables[kChunkSize];
  };

  /// The object's table via its cached handle (steady state: one list
  /// probe, no registry access); resolves and caches on first touch.
  ObjTable& TableFor(rt::Object& obj);
  /// Chunked-registry lookup by id, allocating the chunk if needed.
  ObjTable& GetTable(uint32_t object_id);
  /// Lookup without allocation (release/transfer paths); nullptr if the
  /// chunk was never touched.
  ObjTable* FindTable(uint32_t object_id) const;

  /// One-time per-table setup: binds the spec and precomputes the
  /// request-conflict masks.  Requires table.mu held.
  static void EnsureTableInitLocked(ObjTable& table, const adt::AdtSpec& spec);

  /// Grant/held bookkeeping around entry insertion/removal.  Require mu.
  static void NoteEntryAddedLocked(ObjTable& table, const Request& req);
  static void NoteEntryRemovedLocked(ObjTable& table, const Request& req);

  /// The no-conflict fast path: grantable by mask test alone (no waiters,
  /// no potentially-conflicting held class).  Requires table.mu held.
  static bool FastGrantableLocked(const ObjTable& table, const Request& req);

  /// Wakes parked waiters after a table mutation.  `wake_all` for
  /// ancestry-changing events (inheritance), otherwise each waiter is
  /// signalled only if its conflict mask cleared — or if `new_owner` (a
  /// just-granted entry's owner) is its ancestor, which flips its fairness
  /// exemption.  Requires table.mu held.
  void WakeWaitersLocked(ObjTable& table, bool wake_all,
                         rt::TxnNode* new_owner);

  /// Conservative per-waiter test: could the waiter's blocker set be empty
  /// now?  Mask test for op-class requests; whole-object requests scan the
  /// (short) entry list with the rule-2 ancestor exemption so upgrades are
  /// woken too.  Requires table.mu held.
  static bool WaiterMayProceedLocked(const ObjTable& table, const Waiter& w);

  /// Removes `w` from the waiter list (no wake — call sites follow up with
  /// WakeWaitersLocked for the departure event).  Requires table.mu held.
  static void UnregisterWaiterLocked(ObjTable& table, const Waiter& w);

  /// The shared blocked-wait loop of Acquire and WaitWhileBlocked:
  /// revalidate blockers, run deadlock detection, park, repeat.  Enters
  /// and exits with `g` (over table.mu) held; the waiter is unregistered
  /// on both outcomes.  On kGranted nothing has been inserted or woken —
  /// the caller inserts its entry (Acquire) or not (WaitWhileBlocked) and
  /// runs the departure/grant wake scan.  On kDeadlock the departure wake
  /// has already run.  `register_immediately` preserves WaitWhileBlocked's
  /// fairness seq (registered before the first blocker computation).
  Outcome WaitForGrantLocked(ObjTable& table,
                             std::unique_lock<std::mutex>& g,
                             rt::TxnNode& txn, rt::Object& obj,
                             const Request& req, bool register_immediately);

  /// Signals one parked waiter (sets the flag under its park mutex so the
  /// wake cannot slip between the predicate check and the wait).
  static void SignalWaiter(Waiter& w);

  /// Spin briefly on the signal flag, then park on the per-waiter condvar
  /// (250 ms safety-net timeout — wakeups are edge-triggered hints, the
  /// woken request always revalidates under the table mutex).
  static void ParkWaiter(Waiter& w);

  // Returns owners of entries conflicting with `req` that are not ancestors
  // of `txn`, plus earlier conflicting waiters (fairness).  `my_wait_seq`
  // is the requester's waiter seq (UINT64_MAX when not registered).
  // Requires table.mu held.
  static std::vector<uint64_t> BlockersLocked(const ObjTable& table,
                                              rt::TxnNode& txn,
                                              rt::Object& obj,
                                              const Request& req,
                                              uint64_t my_wait_seq);

  /// Wound–wait aggression: marks every holder of a conflicting entry whose
  /// TOP is strictly younger than `txn`'s top for abort, then signals any
  /// parked waiter serving a wounded subtree so victims observe the wound
  /// promptly instead of riding the 250 ms safety net.  Requires table.mu
  /// held (entry owner pointers are stable under it).
  void WoundYoungerHoldersLocked(ObjTable& table, rt::TxnNode& txn,
                                 rt::Object& obj, const Request& req);

  /// True if a conflicting holder is (inside) a wound victim: a detected
  /// cycle through it is transient (the victim is unwinding), so wound–wait
  /// parks instead of taking the deadlock-detection abort.  Requires
  /// table.mu held.
  bool AnyWoundedBlockerLocked(const ObjTable& table, rt::TxnNode& txn,
                               rt::Object& obj, const Request& req);

  /// Parked-waiter registry bookkeeping (kWoundWait only): waiters enlist
  /// before parking so a wounder can signal victims parked on OTHER
  /// objects' tables.  Lock order: table.mu before parked_mu_, never
  /// reversed (the parking thread holds no table mutex here).
  void RegisterParked(Waiter& w);
  void UnregisterParked(Waiter& w);

  // True if `txn` (or an ancestor) holds ANY lock on the object: such a
  // transaction is in progress there and bypasses the fairness queue.
  // Requires table.mu held.
  static bool HoldsHereLocked(const ObjTable& table, rt::TxnNode& txn);

  // True if `txn` itself already holds an identical operation-granularity
  // (or whole-object) lock on the object; avoids table bloat on
  // re-acquires.  Requires table.mu held.
  static bool AlreadyHeldLocked(const ObjTable& table, rt::TxnNode& txn,
                                const Request& req);

  // True when a re-acquire of `req`'s class is possible at all (its class
  // bit / mode count is non-zero) — gates the AlreadyHeldLocked scan so
  // first acquisitions skip it.  Requires table.mu held.
  static bool MayAlreadyHoldLocked(const ObjTable& table, const Request& req);

  const uint64_t manager_id_;  // process-unique, never recycled
  mutable std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<uint32_t> table_limit_{0};  // high-water object id bound
  mutable std::mutex chunk_alloc_mu_;  // allocation only — never steady-state
  // Tables for object ids >= kMaxChunks * kChunkSize (guarded by
  // chunk_alloc_mu_; node-based, so table addresses are stable).
  mutable std::map<uint32_t, ObjTable> overflow_tables_;
  WaitsForGraph owned_wfg_;
  WaitsForGraph* wfg_ = &owned_wfg_;  // see ShareWaitsForGraph
  std::atomic<ContentionPolicy> contention_policy_{ContentionPolicy::kDetect};
  std::function<void(rt::TxnNode&)> wound_hook_;
  // Waiters currently parked (kWoundWait only; see RegisterParked).
  std::mutex parked_mu_;
  std::vector<Waiter*> parked_;
};

/// Key identifying the calling thread in the waits-for graph: a DENSE slot
/// id drawn from a process-wide pool (released at thread exit and reused),
/// so thread registries can be flat vectors instead of maps.
uint64_t ThisThreadKey();

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_LOCK_MANAGER_H_
