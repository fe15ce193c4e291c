// TxnNode: one method execution in the runtime's transaction tree.
//
// Every Invoke() creates a child node; the tree mirrors the paper's
// forest of method executions (B's forest structure, Definition 6 cond. 1).
// A node carries its hierarchical timestamp (Section 5.2), its program-order
// counter (the ◁ relation), its undo log (Section 3's Abort semantics) and
// recorder bookkeeping.
//
// Threading: a node's fields are written by the single thread executing that
// node, except `children` (parallel batches append concurrently, guarded by
// mu_) and `doomed` (set by cascading aborts from other threads).
#ifndef OBJECTBASE_RUNTIME_TXN_H_
#define OBJECTBASE_RUNTIME_TXN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/adt/adt.h"
#include "src/cc/controller.h"
#include "src/cc/hts.h"
#include "src/model/history.h"

namespace objectbase::rt {

class Object;

/// One undone-able effect: an applied local step's inverse.
struct UndoRecord {
  /// PER-OBJECT apply-order key (journal position or Object::NextApplyStamp
  /// ticket): same-object undos run in reverse key order; different
  /// objects' undos commute (disjoint states), so no global order is
  /// needed (docs/recorder.md).
  uint64_t seq = 0;
  Object* object = nullptr;
  adt::UndoFn undo;  ///< Empty for read-only steps.
};

class TxnNode {
 public:
  TxnNode(uint64_t uid, TxnNode* parent, uint32_t object_id,
          std::string method);

  uint64_t uid() const { return uid_; }
  TxnNode* parent() const { return parent_; }
  TxnNode* top() { return top_; }
  const TxnNode* top() const { return top_; }
  /// Nesting depth: 0 for top-level executions.
  uint32_t depth() const { return depth_; }
  uint32_t object_id() const { return object_id_; }
  const std::string& method() const { return method_; }

  cc::Hts& hts() { return hts_; }
  const cc::Hts& hts() const { return hts_; }

  /// Issues the next child counter (NTO rule 2's Increment(ctr_e)).
  uint64_t NextChildCounter() { return child_counter_.fetch_add(1) + 1; }

  /// Program-order index for the next step; parallel batches reserve one
  /// index for all their messages.
  uint32_t NextPo() { return next_po_.fetch_add(1); }
  uint32_t CurrentPo() const { return next_po_.load(); }

  /// True iff `a` is this node or one of its ancestors.
  bool HasAncestorOrSelf(const TxnNode* a) const;
  bool HasAncestorOrSelf(uint64_t a_uid) const;

  /// Uids from self up to the top-level ancestor (self first).  Built once
  /// at construction (ancestry never changes); per-step readers take it by
  /// reference.
  const std::vector<uint64_t>& AncestorChain() const { return *chain_; }

  /// Shared ownership of the chain, for journal entries that outlive the
  /// node (AppliedJournal::Entry) — sharing replaces a per-step vector
  /// copy.
  const std::shared_ptr<const std::vector<uint64_t>>& ChainPtr() const {
    return chain_;
  }

  /// Immutable shared snapshot of this node's hts.  Created lazily by the
  /// node's own executing thread on its first local step (the hts is
  /// assigned right after construction, before any step runs); journal
  /// entries share it instead of copying the component vector per step.
  const std::shared_ptr<const cc::Hts>& HtsSnapshot() {
    if (!hts_snapshot_) hts_snapshot_ = std::make_shared<const cc::Hts>(hts_);
    return hts_snapshot_;
  }

  // --- per-shard registry handles (top-level nodes only) ---
  // Each shard keeps its own DependencyGraph, so a top carries one packed
  // cc::DepRef per shard, cached by that shard's controller in OnTopBegin:
  // the per-step doom poll addresses its slot directly (one atomic load —
  // no hashing, no registry lookup).  ShardedController::OnTopBegin sizes
  // the table and every slot is written before the body runs and before
  // any child thread is spawned, so plain reads are safe.  Up to
  // kInlineShardHandles slots live inside the node, so a transaction
  // allocates nothing for them; wider topologies spill to the heap.
  static constexpr uint32_t kInlineShardHandles = 4;
  void EnableShardHandles(uint32_t n) {
    if (n > kInlineShardHandles) {
      spilled_handles_ = std::make_unique<uint64_t[]>(n);
      shard_handles_ = spilled_handles_.get();
    }
  }
  uint64_t dep_handle_for(uint32_t shard) const {
    return shard_handles_[shard];
  }
  void set_dep_handle_for(uint32_t shard, uint64_t raw) {
    shard_handles_[shard] = raw;
  }

  /// Shards this top's steps have touched (bitmask; top-level only).  The
  /// steady-state step path pays one relaxed load — the fetch_or runs only
  /// the first time a shard joins the footprint.
  void NoteTouchedShard(uint32_t shard) {
    const uint64_t bit = uint64_t{1} << shard;
    if ((touched_shards_.load(std::memory_order_relaxed) & bit) == 0) {
      touched_shards_.fetch_or(bit, std::memory_order_relaxed);
    }
  }
  uint64_t touched_shards() const {
    return touched_shards_.load(std::memory_order_relaxed);
  }

  // --- undo log (appended only by the node's own thread) ---
  void PushUndo(UndoRecord r) { undo_log_.push_back(std::move(r)); }
  std::vector<UndoRecord>& undo_log() { return undo_log_; }

  // --- lock bookkeeping (which objects this execution locked) ---
  // Lets the lock manager touch only the relevant tables on inheritance
  // and release.  Rule 5 merges a committed child's list into its
  // parent's and leaves the child's own in place: every shard's lock
  // manager reads it, and merging is idempotent.  Guarded by the node's
  // mutex (parallel children merge their sets into the parent
  // concurrently).
  void NoteLockedObject(uint32_t object_id) {
    std::lock_guard<std::mutex> g(mu_);
    AddLockedObjectLocked(object_id);
  }
  void MergeLockedObjects(const std::vector<uint32_t>& objs) {
    std::lock_guard<std::mutex> g(mu_);
    for (uint32_t o : objs) AddLockedObjectLocked(o);
  }
  /// Appends to `out` the ids it does not hold yet.
  void AppendLockedObjects(std::vector<uint32_t>& out) {
    std::lock_guard<std::mutex> g(mu_);
    for (uint32_t o : locked_objects_) {
      if (std::find(out.begin(), out.end(), o) == out.end()) out.push_back(o);
    }
  }
  /// Unguarded view, for rule 5 at this node's commit: every descendant
  /// has finished by then, so nothing writes the list concurrently.
  const std::vector<uint32_t>& locked_objects() const {
    return locked_objects_;
  }

  // --- children (parallel batches may append concurrently) ---
  TxnNode* AddChild(std::unique_ptr<TxnNode> child);
  std::vector<std::unique_ptr<TxnNode>>& children() { return children_; }

  // --- status ---
  bool aborted() const { return aborted_; }
  void set_aborted(cc::AbortReason r) {
    aborted_ = true;
    abort_reason_ = r;
  }
  cc::AbortReason abort_reason() const { return abort_reason_; }

  // --- wound–wait (ContentionPolicy::kWoundWait) ---
  // An older transaction marks this method execution for abort while it
  // holds a contested lock.  Set by the wounder's thread under the lock
  // table's mutex; observed lock-free by the victim at its next
  // lock-manager interaction (or when signalled out of a park).  Never
  // cleared — nodes are per-attempt.
  void Wound() { wounded_.store(true, std::memory_order_release); }
  bool wounded() const { return wounded_.load(std::memory_order_acquire); }

  /// True when this node or any ancestor carries a wound (the victim must
  /// unwind at least to the highest wounded ancestor).  Depth-bounded
  /// pointer walk, no locks.
  bool WoundedHereOrAbove() const {
    for (const TxnNode* n = this; n != nullptr; n = n->parent_) {
      if (n->wounded()) return true;
    }
    return false;
  }

  /// Uid of the HIGHEST wounded node on the self..top path (0 when none):
  /// the root of the subtree the wound aborts — everything above it may
  /// survive via partial abort.
  uint64_t WoundedRootUid() const {
    uint64_t root = 0;
    for (const TxnNode* n = this; n != nullptr; n = n->parent_) {
      if (n->wounded()) root = n->uid_;
    }
    return root;
  }

  // --- recorder bookkeeping ---
  model::ExecId exec_id = model::kNoExec;

 private:
  void AddLockedObjectLocked(uint32_t object_id) {
    for (uint32_t o : locked_objects_) {
      if (o == object_id) return;
    }
    locked_objects_.push_back(object_id);
  }

  uint64_t uid_;
  TxnNode* parent_;
  TxnNode* top_;
  uint32_t depth_;
  uint32_t object_id_;
  std::string method_;
  // self..top uids (see AncestorChain); shared with journal entries.
  std::shared_ptr<const std::vector<uint64_t>> chain_;
  // Per-shard DepRefs (see EnableShardHandles).
  uint64_t inline_handles_[kInlineShardHandles] = {};
  std::unique_ptr<uint64_t[]> spilled_handles_;
  uint64_t* shard_handles_ = inline_handles_;
  std::atomic<uint64_t> touched_shards_{0};    // shard footprint bitmask
  cc::Hts hts_;
  std::shared_ptr<const cc::Hts> hts_snapshot_;  // see HtsSnapshot()
  std::atomic<uint64_t> child_counter_{0};
  std::atomic<uint32_t> next_po_{0};
  std::vector<UndoRecord> undo_log_;
  std::vector<uint32_t> locked_objects_;
  std::mutex mu_;
  std::vector<std::unique_ptr<TxnNode>> children_;
  bool aborted_ = false;
  cc::AbortReason abort_reason_ = cc::AbortReason::kNone;
  std::atomic<bool> wounded_{false};
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_TXN_H_
