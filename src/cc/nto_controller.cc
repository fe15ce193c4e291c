#include "src/cc/nto_controller.h"

#include "src/runtime/apply.h"
#include "src/runtime/journal.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

NtoController::NtoController(rt::Recorder& recorder, Granularity granularity,
                             size_t fold_threshold)
    : recorder_(recorder),
      granularity_(granularity),
      fold_threshold_(fold_threshold) {}

void NtoController::OnTopBegin(rt::TxnNode& top) {
  // Cache the packed slot handle in this shard's slot of the node: every
  // per-step doom poll and recorded journal entry addresses the registry
  // slot directly.
  SetDepHandle(top, deps_.Register(top.uid(), top.hts().top_component()).raw());
}

namespace {

// Retires remembered steps that can no longer matter: every active
// transaction's timestamp exceeds theirs, so rule 1 can never compare
// against them again (the active-watermark mechanism of Section 5.2).
// Folding keeps the journal a suffix of the object's history, which the
// rebuild-based rollback relies on.  Caller must hold no object locks.
void MaybeGc(rt::Object& obj, DependencyGraph& deps, size_t threshold) {
  // Lock-free cadence poll (AppliedJournal::WantsFold is two relaxed
  // loads); the fold itself re-checks under the apply serialisation.
  // MinActiveCounter is a lock-free slot scan, so the whole GC probe
  // costs the step path no mutex when it does not fire.
  if (!obj.journal().WantsFold(threshold)) return;
  obj.FoldPrefix(deps.MinActiveCounter(), threshold);
}

}  // namespace

OpOutcome NtoController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                      const adt::OpDescriptor& op,
                                      const Args& args) {
  const DepRef my_ref = DepRef::FromRaw(DepHandleOf(*txn.top()));
  // One relaxed atomic load — the conflict-free step path takes no
  // DependencyGraph mutex at all (doom is monotonic, so a stale false
  // only delays the abort by one step).
  if (deps_.IsDoomed(my_ref)) {
    return OpOutcome::Abort(AbortReason::kDoomed);
  }
  if (fold_threshold_ != 0) MaybeGc(obj, deps_, fold_threshold_);

  const std::vector<uint64_t>& chain = txn.AncestorChain();
  const Hts& my_hts = txn.hts();
  const uint64_t my_top = txn.top()->uid();
  const std::vector<adt::OpId>& row = obj.ConflictRowFor(op.id);

  // NTO always applies under the exclusive latch, so the journal's per-op
  // conflict indices are complete here (journal.h) and scan-then-append is
  // atomic with respect to every other appender.
  std::lock_guard<std::shared_mutex> state_guard(obj.state_mu());

  if (granularity_ == Granularity::kOperation) {
    // Conservative test against remembered operation classes before
    // executing (Section 5.2's first implementation).  Lock-free scan.
    bool ts_reject = false;
    bool doomed = false;
    {
      rt::AppliedJournal::Scan scan(obj.journal());
      uint64_t last_dep = 0;  // consecutive same-writer entries: one edge
      scan.ForEachConflicting(
          row, scan.end_pos(), /*exclusive=*/true,
          [&](const rt::AppliedJournal::Entry& e) {
            if (e.IsAborted()) return true;
            if (!e.IncomparableWith(chain)) return true;  // rule 1: kin
            if (*e.hts > my_hts) {
              ts_reject = true;
              return false;
            }
            if (e.top_uid != my_top && e.dep != last_dep) {
              last_dep = e.dep;
              deps_.AddDependency(DepRef::FromRaw(e.dep), my_ref);
              // Abort-marking/edge-recording recheck (docs/journal.md): if
              // the writer aborted while we raced here, its slot may have
              // retired before our edge landed — the marking is visible by
              // now, so observing it closes the cascade window.
              if (e.IsAborted()) {
                doomed = true;
                return false;
              }
            }
            return true;
          });
    }
    if (ts_reject) return OpOutcome::Abort(AbortReason::kTimestampOrder);
    if (doomed) return OpOutcome::Abort(AbortReason::kDoomed);
    rt::AppliedOutcome out = rt::ApplyLocked(txn, obj, op, args, recorder_,
                                             /*append_applied_log=*/true,
                                             wal_, my_ref.raw());
    return OpOutcome::Ok(std::move(out.ret));
  }

  // Step granularity: provisional execution first (atomic w.r.t. the
  // object's other local operations — we hold state_mu), then the conflict
  // test sees the actual return value.
  adt::ApplyResult provisional = op.apply(obj.state(), args);
  bool ts_reject = false;
  bool doomed = false;
  {
    rt::AppliedJournal::Scan scan(obj.journal());
    uint64_t last_dep = 0;  // consecutive same-writer entries: one edge
    scan.ForEachConflicting(
        row, scan.end_pos(), /*exclusive=*/true,
        [&](const rt::AppliedJournal::Entry& e) {
          if (e.IsAborted()) return true;
          if (!e.IncomparableWith(chain)) return true;
          adt::StepView first{obj.spec().OpAt(e.op_id).name, &e.args, &e.ret,
                              e.op_id};
          adt::StepView second{op.name, &args, &provisional.ret, op.id};
          if (!obj.spec().StepConflicts(first, second)) return true;
          if (*e.hts > my_hts) {
            ts_reject = true;
            return false;
          }
          if (e.top_uid != my_top && e.dep != last_dep) {
            last_dep = e.dep;
            deps_.AddDependency(DepRef::FromRaw(e.dep), my_ref);
            if (e.IsAborted()) {  // recheck, see above
              doomed = true;
              return false;
            }
          }
          return true;
        });
  }
  if (ts_reject || doomed) {
    if (provisional.undo) provisional.undo(obj.state());
    return OpOutcome::Abort(ts_reject ? AbortReason::kTimestampOrder
                                      : AbortReason::kDoomed);
  }
  // Accept the provisional step as real.  The journal position — reserved
  // under this exclusive latch — is the per-object application order key
  // (undo ordering and the recorder's per-object merge); the raw recorder
  // stamp is a leased draw, no global RMW.
  const uint64_t raw = recorder_.NextSeq();
  const uint64_t pos = obj.journal().Reserve();
  txn.PushUndo(rt::UndoRecord{pos, &obj, std::move(provisional.undo)});
  recorder_.RecordLocalStep(txn.exec_id, txn.NextPo(), obj.id(), op.id, args,
                            provisional.ret, pos, raw);
  rt::JournalRecord entry;
  entry.seq = raw;
  entry.exec_uid = txn.uid();
  entry.top_uid = my_top;
  entry.dep = my_ref.raw();
  entry.top_serial = txn.top()->hts().top_component();
  entry.chain = txn.ChainPtr();
  entry.hts = txn.HtsSnapshot();
  entry.op_id = op.id;
  entry.args = args;
  entry.ret = provisional.ret;
  obj.journal().PublishAt(pos, std::move(entry));
  if (wal_ != nullptr) {
    // Accepted step: stage the redo under the same exclusive latch, keyed
    // by the journal position (the per-object application order).
    wal_->StageRedo(obj.id(), pos, my_top, txn.uid(), txn.ChainPtr(), op.id,
                    args, provisional.ret);
  }
  return OpOutcome::Ok(std::move(provisional.ret));
}

void NtoController::OnChildCommit(rt::TxnNode&) {}

bool NtoController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  const DepRef ref = DepRef::FromRaw(DepHandleOf(top));
  if (!deps_.ValidateAndWait(ref, reason)) return false;
  if (wal_ == nullptr) {
    deps_.MarkCommitted(ref);
    return true;
  }
  // Watermark soundness: stage the commit marker BEFORE MarkCommitted.  A
  // dependency successor passes its own ValidateAndWait only after our
  // MarkCommitted, so its marker always lands later in the log — the
  // prefix-closed durable watermark then guarantees an acknowledged
  // successor's predecessors are durable too.  Waiting AFTER MarkCommitted
  // overlaps our fsync with successors' validation (group commit).
  const uint64_t pos = wal_->StageCommit(top.uid());
  deps_.MarkCommitted(ref);
  wal_->WaitDurable(pos);
  return true;
}

void NtoController::OnAbort(rt::TxnNode& node) {
  // Mark the subtree's journal entries aborted and rebuild each touched
  // object's state from its base (see the recovery note in the header).
  AbortAndRebuild(node, deps_);
}

void NtoController::OnTopFinished(rt::TxnNode&) {
  // Nothing to do: settled registry slots retire incrementally inside
  // MarkCommitted/MarkAborted (the old every-32-finishes Prune() cadence —
  // and its racy fetch_add gating — is gone).
}

size_t NtoController::RememberedEntries(
    const std::vector<rt::Object*>& objects) {
  size_t n = 0;
  for (rt::Object* o : objects) n += o->applied_log_size();
  return n;
}

}  // namespace objectbase::cc
