// Modular synchronisation: per-object intra-object policies under a global
// inter-object certifier — Section 2 and Theorem 5 realised.
//
// "The potential advantage of separating intra- from inter-object
// synchronisation is that we may be able to allow each object to use, for
// intra-object synchronisation, the most suitable algorithm depending on
// its semantics, the implementation of its methods and so on."
//
// Each object is assigned an IntraPolicy:
//   kLocal2pl    — object-local operation locks held to top-level
//                  completion (keeps SG_local acyclic by blocking);
//   kTimestamp   — object-local NTO rule 1 (keeps SG_local in timestamp
//                  order, aborting violators);
//   kOptimistic  — apply immediately, conflicts only reported (SG_local
//                  order is whatever happened; the certifier sorts it out);
//   kCrabbing    — for specs with supports_concurrent_apply() (the B-tree
//                  dictionary): the object's own latch protocol serialises
//                  its operations; conflicts are reported like kOptimistic.
//
// Whatever the local policy, every conflict between incomparable
// executions is reported: cross-top conflicts to the shared dense-slot
// DependencyGraph (the delegated certifier caches the packed DepRef on the
// top-level TxnNode, so MIXED's per-step doom poll is the same single
// atomic load as CERT's), intra-top conflicts to the per-top sibling
// graph.  The commit-time certification (cycle test + commit dependencies
// + sibling acyclicity) is exactly enforcing Theorem 5's conditions (a)
// and (b) globally, which is what the paper asks of an inter-object
// mechanism.
#ifndef OBJECTBASE_CC_MIXED_CONTROLLER_H_
#define OBJECTBASE_CC_MIXED_CONTROLLER_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "src/cc/cert_controller.h"
#include "src/cc/controller.h"
#include "src/cc/lock_manager.h"

namespace objectbase::cc {

enum class IntraPolicy { kLocal2pl, kTimestamp, kOptimistic, kCrabbing };

const char* IntraPolicyName(IntraPolicy p);

class MixedController : public Controller {
 public:
  /// `num_objects` sizes the policy table once (the ObjectBase is fully
  /// populated before an Executor is built), so PolicyFor never races a
  /// resize.
  /// `fold_threshold`: the certifier's journal-GC cadence (see
  /// CertController); 0 disables folding.
  MixedController(rt::Recorder& recorder, size_t num_objects,
                  size_t fold_threshold = 64);

  const char* name() const override { return "MIXED"; }

  /// Assigns the intra-object policy for an object (default: kOptimistic;
  /// specs with supports_concurrent_apply() default to kCrabbing).  Slots
  /// are atomic, so a policy may also be flipped mid-run: in-flight steps
  /// keep whatever admission they already passed, new steps see the new
  /// policy, and the delegated certifier keeps either mix serialisable.
  /// Returns false for an object id outside the table (created after this
  /// controller — unsupported).
  bool SetPolicy(uint32_t object_id, IntraPolicy policy);
  IntraPolicy PolicyFor(const rt::Object& obj) const;

  void OnTopBegin(rt::TxnNode& top) override;
  OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                         const adt::OpDescriptor& op,
                         const Args& args) override;
  void OnChildCommit(rt::TxnNode& child) override;
  bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) override;
  void OnAbort(rt::TxnNode& node) override;
  void OnTopFinished(rt::TxnNode& top) override;

  /// Forwards to the delegated certifier (which does all the staging and
  /// commit gating) and routes its durability waits into this controller's
  /// waits-for graph, keeping composite wait states visible (the PR-5
  /// certifier-wait pattern).
  void AttachWal(rt::WalWriter* wal) override;

  bool SupportsPartialAbort() const override { return false; }
  bool RollbackByRebuild() const override { return true; }

  /// The per-shard handle slot must bind on the DELEGATED certifier too —
  /// it owns the DependencyGraph this controller registers tops in.
  void BindShardSlot(uint32_t shard) override {
    Controller::BindShardSlot(shard);
    certifier_.BindShardSlot(shard);
  }

  /// Serves the kLocal2pl objects.  Under wound-wait a victim can be
  /// parked in the certifier's commit-wait, outside the lock manager, so
  /// ShardedController installs this manager's wound hook: it dooms the
  /// victim's top in every shard's registry.
  LockManager& lock_manager() { return locks_; }

  /// The delegated inter-object certifier (sharded commit path: sibling
  /// union + per-shard registry access go through here).
  CertController& certifier() { return certifier_; }

 private:
  rt::Recorder& recorder_;
  // The inter-object layer is a full certifier; delegate to it for
  // dependency bookkeeping, sibling graphs and commit validation.
  CertController certifier_;
  LockManager locks_;
  /// Dense per-object policy table, indexed by object id; kUnset slots fall
  /// back to the spec-derived default.  Sized once at construction and
  /// never resized; slots are atomic so SetPolicy never races the
  /// lock-free PolicyFor reads on concurrent ExecuteLocal paths.
  static constexpr int8_t kUnsetPolicy = -1;
  const size_t policy_count_;
  std::unique_ptr<std::atomic<int8_t>[]> policies_;
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_MIXED_CONTROLLER_H_
