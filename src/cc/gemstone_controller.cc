#include "src/cc/gemstone_controller.h"

#include "src/runtime/apply.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

GemstoneController::GemstoneController(rt::Recorder& recorder)
    : recorder_(recorder) {}

void GemstoneController::OnTopBegin(rt::TxnNode&) {}

OpOutcome GemstoneController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                           const adt::OpDescriptor& op,
                                           const Args& args) {
  // The whole-object lock is owned by the TOP-LEVEL transaction directly
  // (the reduction flattens the nesting: the object is one data item and
  // the user transaction reads/writes it).  Read-only operations are the
  // reduction's reads: a shared lock; anything else writes: exclusive.
  LockManager::Request req;
  if (op.read_only) {
    req.shared = true;
  } else {
    req.exclusive = true;
  }
  switch (locks_.Acquire(*txn.top(), obj, std::move(req))) {
    case LockManager::Outcome::kGranted:
      break;
    case LockManager::Outcome::kDeadlock:
      return OpOutcome::Abort(AbortReason::kDeadlock);
    case LockManager::Outcome::kWounded:
      // Whole-object locks are owned by the top, so a GEMSTONE wound is
      // always a whole-top abort (the reduction has no inner subtree that
      // could absorb it).
      return OpOutcome::Abort(AbortReason::kWounded);
  }
  std::lock_guard<std::shared_mutex> g(obj.state_mu());
  rt::AppliedOutcome out = rt::ApplyLocked(txn, obj, op, args, recorder_,
                                           /*append_applied_log=*/false, wal_);
  return OpOutcome::Ok(std::move(out.ret));
}

void GemstoneController::OnChildCommit(rt::TxnNode&) {}

bool GemstoneController::OnTopCommit(rt::TxnNode& top, AbortReason*) {
  if (wal_ != nullptr) {
    // Same reasoning as N2PL: strict whole-object locks are released only
    // at OnTopFinished, so durability is ordered before visibility.
    wal_->WaitDurable(wal_->StageCommit(top.uid()), &locks_.waits_for(),
                      ThisThreadKey());
  }
  return true;
}

void GemstoneController::OnAbort(rt::TxnNode& node) {
  if (node.parent() == nullptr) locks_.ReleaseSubtree(node);
}

void GemstoneController::OnTopFinished(rt::TxnNode& top) {
  locks_.ReleaseSubtree(top);
}

}  // namespace objectbase::cc
