// The concurrency-control interface between the runtime and the protocols.
//
// A Controller is one synchronisation discipline for one shard of the
// object base (or, for MIXED, a composition of per-object disciplines plus
// an inter-object layer).  The runtime calls it around every local step,
// child commit, top-level commit and abort.  Implemented by:
//   N2plController      — nested two-phase locking (Moss/Argus), Section 5.1
//   NtoController       — nested timestamp ordering (Reed), Section 5.2
//   CertController      — optimistic inter-object certification, Section 6
//   GemstoneController  — the Section 1 conservative reduction (object =
//                         data item, exclusive whole-object locks)
//   MixedController     — per-object intra-object policies under a global
//                         certifier (Theorem 5 realised)
// and composed over the shards by ShardedController, the one the Executor
// talks to (a plain ObjectBase is one shard).
#ifndef OBJECTBASE_CC_CONTROLLER_H_
#define OBJECTBASE_CC_CONTROLLER_H_

#include <string>

#include "src/common/value.h"

namespace objectbase::adt {
struct OpDescriptor;
}  // namespace objectbase::adt

namespace objectbase::rt {
class Object;
class TxnNode;
class WalWriter;
}  // namespace objectbase::rt

namespace objectbase::cc {

class DependencyGraph;

/// Why a method execution was aborted.
enum class AbortReason {
  kNone = 0,
  kDeadlock,        ///< N2PL/Gemstone waits-for cycle; requester is victim.
  kTimestampOrder,  ///< NTO rule 1 rejection (conflicting later-ts step seen).
  kValidation,      ///< Certifier found a serialisation cycle at commit.
  kCascade,         ///< A transaction this one conflicted-after aborted.
  kDoomed,          ///< Marked for death by a cascading abort mid-run.
  kUser,            ///< Application-requested Abort (Section 3).
  kInjected,        ///< Fault injection in tests/benches (E7).
  kWounded,         ///< Wound–wait: an older transaction claimed our lock.
  kCommitTimeout,   ///< Cross-shard commit-wait poll budget expired.
};

/// Number of AbortReason values (sizes per-reason stat arrays).
inline constexpr size_t kNumAbortReasons =
    static_cast<size_t>(AbortReason::kCommitTimeout) + 1;

const char* AbortReasonName(AbortReason r);

/// Outcome of one local-step execution attempt.
struct OpOutcome {
  bool ok = false;
  Value ret;
  AbortReason reason = AbortReason::kNone;

  static OpOutcome Ok(Value v) { return {true, std::move(v), AbortReason::kNone}; }
  static OpOutcome Abort(AbortReason r) { return {false, Value::None(), r}; }
};

/// Granularity of conflict testing, Section 5.1's two implementations.
enum class Granularity {
  kOperation,  ///< Conservative: lock/validate per operation class.
  kStep,       ///< Provisional execution; conflicts use return values.
};

class Controller {
 public:
  virtual ~Controller() = default;

  virtual const char* name() const = 0;

  /// True when the protocol tolerates a child (subtransaction) abort
  /// without dooming its top-level transaction.  Strict locking protocols
  /// can (no incomparable execution ever observed the child's effects);
  /// the optimistic/timestamp ones escalate child aborts to the top (see
  /// the recovery note in nto_controller.h).
  virtual bool SupportsPartialAbort() const { return false; }

  /// True when aborts are rolled back by rebuilding object state from the
  /// journal (Object::AbortEntriesAndRebuild) inside OnAbort, rather than
  /// by the runtime applying per-step undo closures in reverse order.
  virtual bool RollbackByRebuild() const { return false; }

  /// Called once when a top-level transaction begins (after its TxnNode —
  /// including its hierarchical timestamp — is constructed).
  virtual void OnTopBegin(rt::TxnNode& top) = 0;

  /// Executes one local operation of `txn` on `obj` under the protocol:
  /// acquires locks / validates timestamps / records dependencies, applies
  /// the operation, and records the step.  Blocking protocols may block.
  /// `op` is the already-resolved descriptor (the runtime resolves once at
  /// handle-creation time); no name lookup happens on this path.
  virtual OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                 const adt::OpDescriptor& op,
                                 const Args& args) = 0;

  /// A child (non-top-level) execution committed: inherit its locks to the
  /// parent (N2PL rule 5) or equivalent bookkeeping.
  virtual void OnChildCommit(rt::TxnNode& child) = 0;

  /// Top-level commit point.  May block (commit dependencies) and may veto
  /// the commit (validation failure / cascading abort); returns false with
  /// `reason` set in that case — the runtime then aborts the transaction.
  virtual bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) = 0;

  /// The subtree rooted at `node` aborted and its effects were undone by
  /// the runtime; drop protocol state (locks, timestamp entries) for the
  /// subtree and trigger any cascades.
  virtual void OnAbort(rt::TxnNode& node) = 0;

  /// Called when a top-level transaction is completely finished (committed
  /// or aborted, after OnTopCommit/OnAbort); lets protocols garbage-collect.
  virtual void OnTopFinished(rt::TxnNode& top) = 0;

  /// Attaches the write-ahead log (ExecutorOptions.durability != kNone).
  /// Called once at executor construction, before any transaction runs;
  /// controllers then stage redo records at apply time and gate commit
  /// acknowledgement on the durable watermark.  MIXED forwards to its
  /// inner certifier.
  virtual void AttachWal(rt::WalWriter* wal) { wal_ = wal; }

  /// Each controller instance runs one shard of the object base (a plain
  /// ObjectBase is one shard) and is told its shard index once at
  /// construction, before any transaction runs.  It addresses its
  /// top-level registry handle through DepHandleOf/SetDepHandle below, in
  /// that shard's slot of the TxnNode, and owns only the objects whose
  /// Object::shard() is this index.  MIXED forwards to its inner
  /// certifier.
  virtual void BindShardSlot(uint32_t shard) { shard_slot_ = shard; }

 protected:
  /// This controller's registry handle for `top` (see BindShardSlot).
  uint64_t DepHandleOf(const rt::TxnNode& top) const;
  void SetDepHandle(rt::TxnNode& top, uint64_t raw) const;

  /// Rebuild-based rollback (NTO, CERT and MIXED's certifier): marks the
  /// subtree's journal entries aborted on every object of this shard it
  /// touched and rebuilds each from its base, running the doom cascade
  /// through `deps`; a top-level abort then settles the top's slot.
  void AbortAndRebuild(rt::TxnNode& node, DependencyGraph& deps) const;

  rt::WalWriter* wal_ = nullptr;  ///< Null iff durability == kNone.
  uint32_t shard_slot_ = 0;       ///< See BindShardSlot.
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_CONTROLLER_H_
