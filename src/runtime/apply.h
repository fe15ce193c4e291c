// ApplyLocked: the one place a local operation touches an object's state.
//
// Callers (the protocol controllers) must have completed protocol admission
// (locks granted / timestamps validated) and must hold the object's apply
// serialisation unless the spec supports concurrent application.  The helper
// applies the state transformer, pushes the undo record onto the issuing
// execution's undo log (Section 3 Abort semantics), mirrors the step into
// the recorder (inside the same critical section, so the recorded
// application order is the real one) and appends the applied-step entry the
// timestamp/certification protocols scan.
#ifndef OBJECTBASE_RUNTIME_APPLY_H_
#define OBJECTBASE_RUNTIME_APPLY_H_

#include <string>

#include "src/runtime/object.h"
#include "src/runtime/recorder.h"
#include "src/runtime/txn.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {

struct AppliedOutcome {
  Value ret;
  uint64_t seq = 0;
};

/// Applies `op` and records everything.  `append_applied_log` is set by the
/// protocols that scan object logs (NTO/CERT/MIXED); N2PL and Gemstone skip
/// it (their lock tables carry the information).  A non-null `wal` stages a
/// redo record inside the same critical section (write-ahead durability;
/// the order key is the journal position when one exists, the staging
/// position otherwise — either is the true per-object application order).
/// `dep_raw` is the top's registry handle in the calling controller's shard
/// (journaled protocols only).
///
/// Order keys: the per-object application order — the exact part of the
/// formal < relation — is the journal position for journaled protocols and
/// the object's apply-stamp ticket otherwise, both drawn inside this apply
/// critical section.  The key orders this object's undo records (the abort
/// path undoes one object's steps newest-first; different objects' undos
/// commute — disjoint states) and is what Snapshot() merges by.  The raw
/// recorder stamp (one leased draw, no global RMW) only tie-breaks the
/// cross-object merge.
inline AppliedOutcome ApplyLocked(TxnNode& txn, Object& obj,
                                  const adt::OpDescriptor& op,
                                  const Args& args, Recorder& recorder,
                                  bool append_applied_log,
                                  WalWriter* wal = nullptr,
                                  uint64_t dep_raw = 0) {
  adt::ApplyResult applied = op.apply(obj.state(), args);
  const uint64_t raw = recorder.NextSeq();  // leased; 0 when not recording
  uint64_t pos = WalWriter::kOrderByStagePos;
  uint64_t order;
  if (append_applied_log) {
    // Lock-free: reserve-and-publish inside this apply critical section
    // (the caller holds the object's apply serialisation), so the journal
    // position order is the application order.
    JournalRecord entry;
    entry.seq = raw;
    entry.exec_uid = txn.uid();
    entry.top_uid = txn.top()->uid();
    entry.dep = dep_raw;
    entry.top_serial = txn.top()->hts().top_component();
    entry.chain = txn.ChainPtr();
    entry.hts = txn.HtsSnapshot();
    entry.op_id = op.id;
    entry.args = args;
    entry.ret = applied.ret;
    pos = obj.journal().Append(std::move(entry));
    order = pos;
  } else {
    order = obj.NextApplyStamp();
  }
  // Read-only steps get an (empty) undo record too: the abort path uses the
  // log to know which objects the execution touched.
  txn.PushUndo(UndoRecord{order, &obj, std::move(applied.undo)});
  recorder.RecordLocalStep(txn.exec_id, txn.NextPo(), obj.id(), op.id, args,
                           applied.ret, order, raw);
  if (wal != nullptr) {
    wal->StageRedo(obj.id(), pos, txn.top()->uid(), txn.uid(), txn.ChainPtr(),
                   op.id, args, applied.ret);
  }
  return AppliedOutcome{std::move(applied.ret), order};
}

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_APPLY_H_
