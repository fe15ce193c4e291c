// Object: a runtime object of the object base.
//
// Pairs an AdtSpec with a live state, the per-object serialisation mutex
// (local steps are atomic state transformers, Definition 2 — unless the
// spec provides its own internal synchronisation), and the lock-free
// applied-step journal the timestamp/certification protocols use for
// conflict detection (see src/runtime/journal.h and docs/journal.md).
#ifndef OBJECTBASE_RUNTIME_OBJECT_H_
#define OBJECTBASE_RUNTIME_OBJECT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/adt/adt.h"
#include "src/cc/hts.h"
#include "src/common/value.h"
#include "src/runtime/journal.h"

namespace objectbase::rt {

class Object {
 public:
  Object(uint32_t id, std::string name,
         std::shared_ptr<const adt::AdtSpec> spec);
  ~Object();

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const adt::AdtSpec& spec() const { return *spec_; }
  std::shared_ptr<const adt::AdtSpec> spec_ptr() const { return spec_; }

  adt::AdtState& state() { return *state_; }
  const adt::AdtState& state() const { return *state_; }

  /// Resets the state to a fresh initial state (between workload runs).
  /// Requires quiescence (no running transactions).
  void ResetState();

  /// The per-object apply latch.  Held EXCLUSIVE around apply for every
  /// spec that does not support concurrent application, and for ops the
  /// spec marked exclusive_apply (non-linearizable scans).  Concurrent-
  /// apply objects take it SHARED around apply — recorded or not; the
  /// application order comes from the journal position reserved at the
  /// ADT's internal linearization point (src/adt/apply_order.h) — which
  /// lets their internal latches provide the synchronisation while still
  /// excluding rebuild/fold (which take it exclusive).  It also provides
  /// the journal's append/fold exclusion (journal.h locking contract).
  std::shared_mutex& state_mu() { return state_mu_; }

  bool concurrent_apply() const { return spec_->supports_concurrent_apply(); }

  /// Home shard under a sharded base (0 when unsharded).  Assigned at
  /// creation / pin time, before execution starts; steady-state reads are
  /// plain loads on the routing path.
  uint32_t shard() const { return shard_; }
  void set_shard(uint32_t s) { shard_ = s; }

  /// Per-object apply-order ticket for the NON-journaled protocols
  /// (N2PL/GEMSTONE): drawn inside the exclusive apply critical section,
  /// so ticket order IS the application order — the concrete < on this
  /// object's local steps — without touching any global counter.  The
  /// journaled protocols use the journal position instead.
  uint64_t NextApplyStamp() {
    return apply_stamp_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The applied-step journal.  Appends and maintenance go through the
  /// helpers below (they know which latches the contract needs); scans are
  /// lock-free (AppliedJournal::Scan) and need no latch at all.
  AppliedJournal& journal() { return *journal_; }
  const AppliedJournal& journal() const { return *journal_; }

  /// Journal length without any lock (relaxed) — the per-step GC cadence
  /// polls this on every local operation.
  size_t applied_log_size() const { return journal_->LiveCount(); }

  /// Ops whose operation class conflicts with `op` (a row of the spec's
  /// conflict matrix, precomputed at construction).  The conflict scans
  /// feed this to AppliedJournal::Scan::ForEachConflicting; soundness for
  /// kStep granularity rests on the op table dominating the step table
  /// (pinned by adt_commutativity_test.OpDominatesStep).
  const std::vector<adt::OpId>& ConflictRowFor(adt::OpId op) const {
    return conflict_rows_[op];
  }

  // --- rebuild-based rollback (NTO/CERT/MIXED) -----------------------------
  //
  // The non-blocking protocols allow conflicting steps on top of uncommitted
  // ones; a later cascade of aborts cannot be rolled back with per-step
  // inverse operations (undo order would have to be globally reverse-
  // chronological across transactions).  Instead the object keeps a base
  // state plus the applied journal: aborting a subtree marks its entries
  // aborted and REBUILDS state = base + non-aborted entries in order — the
  // executable form of the paper's failure-semantics requirement (a): the
  // committed projection is what the state reflects.

  /// Marks every journal entry issued by the subtree rooted at
  /// `subtree_root_uid` as aborted and rebuilds the state from the base.
  /// Takes state_mu exclusive.
  ///
  /// Rebuild soundness (fuzz-found; docs/journal.md): a SURVIVING entry
  /// whose recorded outcome depended on the excised prefix must not be
  /// re-applied — on the corrected state its effect can differ from the
  /// recorded one (an erase that failed against excised state succeeds on
  /// rebuild and silently mutates).  Every such survivor belongs to a
  /// transaction with a dependency edge from the excised one, so the
  /// controller passes `doom_dependents` (runs the registry's transitive
  /// doom cascade; called under state_mu AFTER marking, which makes it
  /// atomic against concurrent steps on this object) and `exclude_dep`
  /// (true for entries of doomed transactions — they can never commit, and
  /// their own aborts mark these entries for good).  Read-only entries are
  /// never re-applied: they cannot change the state.
  void AbortEntriesAndRebuild(
      uint64_t subtree_root_uid, const std::function<void()>& doom_dependents,
      const std::function<bool(uint64_t dep_raw)>& exclude_dep);

  /// Folds the maximal journal prefix whose top-level serial number is
  /// below `watermark` (every such transaction has finished) into the base
  /// state and retires it — Section 5.2's "mechanism to forget".  Takes
  /// state_mu exclusive (plus the journal's counted fold_mu).  Only
  /// state-changing entries are applied to the base; read-only ones are
  /// retired without an apply.  Returns entries folded (read-only included).
  /// `rearm_base` != 0 arms the journal's adaptive fold cadence (see
  /// AppliedJournal::Fold); controllers pass their fold threshold.
  ///
  /// Single flight: while one fold runs on this object, another caller
  /// returns 0 at once instead of queueing on state_mu (folding is
  /// opportunistic, so a skipped fold only leaves the journal longer).
  /// The chunks the fold releases are freed after state_mu is dropped.
  size_t FoldPrefix(uint64_t watermark, size_t rearm_base = 0);

  // --- WAL recovery (src/runtime/wal.h) ------------------------------------

  /// Replays one durable redo record onto the live state and returns the
  /// operation's return value (recovery re-checks it against the recorded
  /// one).  Quiescent use only (restart-time recovery).
  Value ApplyRedo(adt::OpId op, const Args& args);

  /// Recovery epilogue: base state := recovered live state, journal
  /// cleared — the rebuild/fold machinery then starts from the recovered
  /// state instead of the initial one.
  void SealRecoveredState();

  // --- cached lock-table handle (cc::LockManager) --------------------------
  //
  // Mirrors the DepRef pattern of the dependency registry: the lock manager
  // resolves this object's table once and caches the pointer HERE, so the
  // steady-state Acquire path is a single list probe (length 1 in practice)
  // instead of a global-registry lookup.  Keyed by a process-unique manager
  // id (never recycled), so a stale node left by a destroyed manager is
  // only ever compared against, never dereferenced.  The payload is opaque
  // to the runtime layer (a cc::LockManager-internal table pointer).

  /// The table cached for `manager_id`, or nullptr if this manager has not
  /// touched the object yet.  Lock-free.
  void* CachedLockTable(uint64_t manager_id) const {
    for (const LockTableCacheNode* n =
             lock_table_cache_.load(std::memory_order_acquire);
         n != nullptr; n = n->next) {
      if (n->manager_id == manager_id) return n->table;
    }
    return nullptr;
  }

  /// Publishes the (manager, table) pair; idempotent per manager.
  void CacheLockTable(uint64_t manager_id, void* table);

 private:
  struct LockTableCacheNode {
    uint64_t manager_id;
    void* table;
    LockTableCacheNode* next;
  };

  uint32_t id_;
  uint32_t shard_ = 0;  // home shard (see shard())
  std::string name_;
  std::shared_ptr<const adt::AdtSpec> spec_;
  std::unique_ptr<adt::AdtState> state_;
  std::unique_ptr<adt::AdtState> base_state_;  // journal base (see above)
  std::shared_mutex state_mu_;
  std::atomic<bool> folding_{false};      // FoldPrefix single-flight claim
  std::atomic<uint64_t> apply_stamp_{0};  // NextApplyStamp ticket source
  std::unique_ptr<AppliedJournal> journal_;
  std::vector<std::vector<adt::OpId>> conflict_rows_;  // by OpId
  // CAS-pushed singly linked list, one node per caching lock manager
  // (almost always exactly one); freed by the destructor.
  std::atomic<LockTableCacheNode*> lock_table_cache_{nullptr};
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_OBJECT_H_
