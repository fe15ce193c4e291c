#include "src/cc/mixed_controller.h"

#include "src/runtime/apply.h"

namespace objectbase::cc {

const char* IntraPolicyName(IntraPolicy p) {
  switch (p) {
    case IntraPolicy::kLocal2pl: return "local-2pl";
    case IntraPolicy::kTimestamp: return "local-timestamp";
    case IntraPolicy::kOptimistic: return "optimistic";
    case IntraPolicy::kCrabbing: return "crabbing";
  }
  return "?";
}

MixedController::MixedController(rt::Recorder& recorder, size_t num_objects,
                                 size_t fold_threshold)
    : recorder_(recorder),
      certifier_(recorder, Granularity::kStep, fold_threshold,
                 /*journal_hts=*/true),
      policy_count_(num_objects),
      policies_(std::make_unique<std::atomic<int8_t>[]>(num_objects)) {
  for (size_t i = 0; i < policy_count_; ++i) {
    policies_[i].store(kUnsetPolicy, std::memory_order_relaxed);
  }
}

bool MixedController::SetPolicy(uint32_t object_id, IntraPolicy policy) {
  if (object_id >= policy_count_) return false;
  policies_[object_id].store(static_cast<int8_t>(policy),
                             std::memory_order_release);
  return true;
}

IntraPolicy MixedController::PolicyFor(const rt::Object& obj) const {
  const int8_t p = obj.id() < policy_count_
                       ? policies_[obj.id()].load(std::memory_order_acquire)
                       : kUnsetPolicy;
  if (p != kUnsetPolicy) return static_cast<IntraPolicy>(p);
  return obj.concurrent_apply() ? IntraPolicy::kCrabbing
                                : IntraPolicy::kOptimistic;
}

void MixedController::OnTopBegin(rt::TxnNode& top) {
  certifier_.OnTopBegin(top);
}

void MixedController::AttachWal(rt::WalWriter* wal) {
  Controller::AttachWal(wal);
  certifier_.AttachWal(wal);
  certifier_.SetDurabilityWaitGraph(&locks_.waits_for());
}

OpOutcome MixedController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                        const adt::OpDescriptor& op,
                                        const Args& args) {
  IntraPolicy policy = PolicyFor(obj);
  switch (policy) {
    case IntraPolicy::kLocal2pl: {
      // Object-local strict operation locks: intra-object order is fixed by
      // blocking, so SG_local(h, obj) stays acyclic by construction; the
      // certifier still collects the inter-object (SG_mesg) constraints.
      LockManager::Request req;
      req.op = &op;
      req.args = args;
      switch (locks_.Acquire(txn, obj, std::move(req))) {
        case LockManager::Outcome::kGranted:
          break;
        case LockManager::Outcome::kDeadlock:
          return OpOutcome::Abort(AbortReason::kDeadlock);
        case LockManager::Outcome::kWounded:
          return OpOutcome::Abort(AbortReason::kWounded);
      }
      return certifier_.ExecuteLocal(txn, obj, op, args);
    }
    case IntraPolicy::kTimestamp: {
      // Object-local NTO rule 1: abort when a conflicting remembered step
      // of an incomparable execution carries a larger timestamp.  This is
      // an ADVISORY admission test (the certifier below still records the
      // real conflicts), and it runs before the apply latch is taken — so
      // the lock-free scan, which may miss an in-flight concurrent append,
      // is exactly as strong as the old mutex-guarded pre-scan was.
      const std::vector<uint64_t>& chain = txn.AncestorChain();
      bool ts_reject = false;
      {
        rt::AppliedJournal::Scan scan(obj.journal());
        scan.ForEachConflicting(
            obj.ConflictRowFor(op.id), scan.end_pos(), /*exclusive=*/false,
            [&](const rt::AppliedJournal::Entry& e) {
              if (e.IsAborted()) return true;
              if (!e.IncomparableWith(chain)) return true;
              if (*e.hts > txn.hts()) {
                ts_reject = true;
                return false;
              }
              return true;
            });
      }
      if (ts_reject) return OpOutcome::Abort(AbortReason::kTimestampOrder);
      return certifier_.ExecuteLocal(txn, obj, op, args);
    }
    case IntraPolicy::kOptimistic:
    case IntraPolicy::kCrabbing:
      // The certifier already runs concurrent-apply objects under the
      // shared latch (recorded or not — the apply-order hook supplies the
      // application order), so crabbing is pure delegation.
      return certifier_.ExecuteLocal(txn, obj, op, args);
  }
  return OpOutcome::Abort(AbortReason::kUser);
}

void MixedController::OnChildCommit(rt::TxnNode& child) {
  locks_.TransferToParent(child);
  certifier_.OnChildCommit(child);
}

bool MixedController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  // Cross-layer deadlock guard (found by the cross-protocol fuzz): the
  // certifier's commit-wait blocks until every conflict predecessor
  // finishes, while this transaction still HOLDS its strict local-2pl
  // locks.  A predecessor blocked on one of those locks closes a cycle
  // neither detector can see alone — the lock manager's waits-for graph
  // only records lock waits, and the certifier's cycle veto only records
  // dependency edges.  Declaring the commit-wait in the waits-for graph
  // makes the composite cycle visible: whichever side registers second
  // detects it, and a kDeadlock abort here cascades into the predecessor's
  // waiter the usual way.
  const DepRef ref = DepRef::FromRaw(DepHandleOf(top));
  const std::vector<uint64_t> preds =
      certifier_.deps().UnfinishedPredecessorUids(ref);
  if (preds.empty()) return certifier_.OnTopCommit(top, reason);
  const uint64_t thread_key = ThisThreadKey();
  if (locks_.waits_for().SetWaitingWouldDeadlock(thread_key, preds)) {
    *reason = AbortReason::kDeadlock;
    return false;
  }
  const bool ok = certifier_.OnTopCommit(top, reason);
  locks_.waits_for().ClearWaiting(thread_key);
  return ok;
}

void MixedController::OnAbort(rt::TxnNode& node) {
  locks_.ReleaseSubtree(node);
  certifier_.OnAbort(node);
}

void MixedController::OnTopFinished(rt::TxnNode& top) {
  locks_.ReleaseSubtree(top);
  certifier_.OnTopFinished(top);
}

}  // namespace objectbase::cc
