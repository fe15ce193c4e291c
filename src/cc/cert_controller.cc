#include "src/cc/cert_controller.h"

#include <algorithm>

#include "src/adt/apply_order.h"
#include "src/cc/lock_manager.h"
#include "src/model/serialisation_graph.h"
#include "src/runtime/apply.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

std::atomic<uint64_t>& CertStepExclusiveAcquisitions() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

CertController::CertController(rt::Recorder& recorder, Granularity granularity,
                               size_t fold_threshold, bool journal_hts)
    : recorder_(recorder),
      granularity_(granularity),
      fold_threshold_(fold_threshold),
      journal_hts_(journal_hts) {}

void CertController::OnTopBegin(rt::TxnNode& top) {
  // Cache the packed slot handle in this shard's slot of the node: every
  // per-step doom poll and recorded journal entry addresses the registry
  // slot directly.
  SetDepHandle(top, deps_.Register(top.uid(), top.hts().top_component()).raw());
}

OpOutcome CertController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                       const adt::OpDescriptor& op,
                                       const Args& args) {
  const uint64_t my_top = txn.top()->uid();
  const DepRef my_ref = DepRef::FromRaw(DepHandleOf(*txn.top()));
  // One relaxed atomic load; the conflict-free step path takes no
  // DependencyGraph mutex.
  if (deps_.IsDoomed(my_ref)) return OpOutcome::Abort(AbortReason::kDoomed);

  const std::vector<uint64_t>& chain = txn.AncestorChain();

  // Opportunistic watermark GC (the same retirement rule as NTO); folds a
  // committed prefix of the journal into the base state.  The cadence
  // poll is lock-free (AppliedJournal::WantsFold + lock-free watermark
  // scan); a step that finds another fold in flight on this object skips
  // GC, and the retired chunks are freed after the fold drops the latch.
  if (obj.journal().WantsFold(fold_threshold_)) {
    obj.FoldPrefix(deps_.MinActiveCounter(), fold_threshold_);
  }

  // Objects that synchronise internally (the latch-crabbing B-tree) run
  // their operations concurrently, recorded or not — the application order
  // the formal oracle needs is the journal position, reserved at the ADT's
  // internal linearization point via the apply-order hook.  Only ops the
  // spec marked exclusive_apply (non-linearizable scans) escalate.
  const bool exclusive = !obj.concurrent_apply() || op.exclusive_apply;
  std::unique_lock<std::shared_mutex> excl_guard(obj.state_mu(),
                                                 std::defer_lock);
  std::shared_lock<std::shared_mutex> shared_guard(obj.state_mu(),
                                                   std::defer_lock);
  if (exclusive) {
    CertStepExclusiveAcquisitions().fetch_add(1, std::memory_order_relaxed);
    excl_guard.lock();
  } else {
    shared_guard.lock();
  }
  // Apply first (optimistic), then PUBLISH the journal entry, then scan the
  // window below it.  Publish-before-scan is what replaces the old log
  // mutex's scan/append atomicity: of two concurrent conflicting appenders
  // the one with the larger position is guaranteed to see the other
  // (docs/journal.md), so no conflict edge is ever missed.  Under the
  // exclusive latch the window is exactly the old "everything before me".
  //
  // Position reservation: under the shared latch two applies race, so the
  // position must be reserved at the instant the ADT's effect becomes
  // visible (its internal linearization point) — the armed hook does that
  // from inside the B-tree's terminal leaf latch.  Under the exclusive
  // latch reserving after apply is equivalent.  Either way this thread
  // publishes the reserved slot before scanning, while still inside the
  // apply critical section (journal.h Reserve/PublishAt contract).
  adt::ApplyResult applied;
  uint64_t my_pos;
  if (exclusive) {
    applied = op.apply(obj.state(), args);
    my_pos = obj.journal().Reserve();
  } else {
    adt::ApplyOrderScope hook(
        +[](void* j) { return static_cast<rt::AppliedJournal*>(j)->Reserve(); },
        &obj.journal());
    applied = op.apply(obj.state(), args);
    // Defensive fallback: a concurrent-apply spec that never stamped.
    my_pos = hook.fired() ? hook.key() : obj.journal().Reserve();
  }
  const uint64_t raw = recorder_.NextSeq();  // leased; no global RMW
  txn.PushUndo(rt::UndoRecord{my_pos, &obj, std::move(applied.undo)});
  recorder_.RecordLocalStep(txn.exec_id, txn.NextPo(), obj.id(), op.id, args,
                            applied.ret, my_pos, raw);
  rt::JournalRecord entry;
  entry.seq = raw;
  entry.exec_uid = txn.uid();
  entry.top_uid = my_top;
  entry.dep = my_ref.raw();
  entry.top_serial = txn.top()->hts().top_component();
  entry.chain = txn.ChainPtr();
  if (journal_hts_) entry.hts = txn.HtsSnapshot();
  entry.op_id = op.id;
  entry.args = args;
  entry.ret = applied.ret;
  obj.journal().PublishAt(my_pos, std::move(entry));
  if (wal_ != nullptr) {
    // Stage the redo right after publication, keyed by the journal
    // position (under concurrent apply the ring order may differ from the
    // journal order; recovery sorts by this key, which the rebuild
    // machinery already treats as the application order).
    wal_->StageRedo(obj.id(), my_pos, my_top, txn.uid(), txn.ChainPtr(),
                    op.id, args, applied.ret);
  }
  bool doomed = false;
  {
    rt::AppliedJournal::Scan scan(obj.journal());
    uint64_t last_dep = 0;  // consecutive same-writer entries: one edge
    scan.ForEachConflicting(
        obj.ConflictRowFor(op.id), my_pos, exclusive,
        [&](const rt::AppliedJournal::Entry& e) {
          if (e.IsAborted()) return true;
          if (!e.IncomparableWith(chain)) return true;
          if (granularity_ == Granularity::kStep) {
            adt::StepView first{obj.spec().OpAt(e.op_id).name, &e.args,
                                &e.ret, e.op_id};
            adt::StepView second{op.name, &args, &applied.ret, op.id};
            if (!obj.spec().StepConflicts(first, second)) return true;
          }  // else: the conflict row already applied the op-level test
          if (e.top_uid != my_top) {
            if (e.dep != last_dep) {
              last_dep = e.dep;
              deps_.AddDependency(DepRef::FromRaw(e.dep), my_ref);
              // Abort-marking recheck (docs/journal.md): a writer that
              // aborted while we raced here may have retired its slot
              // before the edge landed; its marking is visible by now.
              if (e.IsAborted()) {
                doomed = true;
                return false;
              }
            }
          } else {
            // Parallel siblings of one transaction racing on the object:
            // genuine intra-transaction contention.
            SiblingStripe& stripe = StripeFor(my_top);
            std::lock_guard<std::mutex> sg(stripe.mu);
            stripe.edges[my_top].push_back(SiblingEdge{*e.chain, chain});
          }
          return true;
        });
  }
  if (doomed) return OpOutcome::Abort(AbortReason::kDoomed);
  return OpOutcome::Ok(std::move(applied.ret));
}

void CertController::OnChildCommit(rt::TxnNode&) {}

void CertController::AppendSiblingEdges(uint64_t top_uid,
                                        std::vector<SiblingEdge>& out) {
  SiblingStripe& stripe = StripeFor(top_uid);
  std::lock_guard<std::mutex> g(stripe.mu);
  auto it = stripe.edges.find(top_uid);
  if (it == stripe.edges.end()) return;
  out.insert(out.end(), it->second.begin(), it->second.end());
}

bool CertController::SiblingGraphAcyclic(uint64_t top_uid) {
  std::vector<SiblingEdge> edges;
  AppendSiblingEdges(top_uid, edges);
  if (edges.empty()) return true;
  return EdgesAcyclic(edges);
}

bool CertController::EdgesAcyclic(const std::vector<SiblingEdge>& edges) {
  // Lift each observation to the pair of executions just below the least
  // common ancestor (chains are self..top, so compare from the back).
  std::vector<std::pair<uint64_t, uint64_t>> lifted;
  std::vector<uint64_t> uids;
  lifted.reserve(edges.size());
  uids.reserve(edges.size() * 2);
  for (const SiblingEdge& e : edges) {
    size_t i = e.from_chain.size();
    size_t j = e.to_chain.size();
    while (i > 0 && j > 0 && e.from_chain[i - 1] == e.to_chain[j - 1]) {
      --i;
      --j;
    }
    if (i == 0 || j == 0) continue;  // comparable (defensive)
    lifted.emplace_back(e.from_chain[i - 1], e.to_chain[j - 1]);
    uids.push_back(e.from_chain[i - 1]);
    uids.push_back(e.to_chain[j - 1]);
  }
  if (lifted.empty()) return true;
  // Compact the uids into dense indices and run the flat Digraph's
  // scratch-reusing cycle check (the PR-1 SG machinery) instead of a
  // map-of-sets DFS.
  std::sort(uids.begin(), uids.end());
  uids.erase(std::unique(uids.begin(), uids.end()), uids.end());
  auto index_of = [&uids](uint64_t u) {
    return static_cast<uint32_t>(
        std::lower_bound(uids.begin(), uids.end(), u) - uids.begin());
  };
  model::Digraph graph(uids.size());
  for (const auto& [from, to] : lifted) {
    graph.AddEdge(index_of(from), index_of(to));
  }
  return graph.IsAcyclic();
}

bool CertController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  if (!SiblingGraphAcyclic(top.uid())) {
    *reason = AbortReason::kValidation;
    return false;
  }
  const DepRef ref = DepRef::FromRaw(DepHandleOf(top));
  if (!deps_.ValidateAndWait(ref, reason)) return false;
  if (wal_ == nullptr) {
    deps_.MarkCommitted(ref);
    return true;
  }
  // Stage-before-MarkCommitted, wait after: see NtoController::OnTopCommit
  // for the watermark-soundness argument (identical here).
  const uint64_t pos = wal_->StageCommit(top.uid());
  deps_.MarkCommitted(ref);
  wal_->WaitDurable(pos, durability_wfg_,
                    durability_wfg_ != nullptr ? ThisThreadKey() : 0);
  return true;
}

void CertController::OnAbort(rt::TxnNode& node) {
  // Mark the subtree's journal entries aborted and rebuild each touched
  // object's state from its base.
  AbortAndRebuild(node, deps_);
}

void CertController::OnTopFinished(rt::TxnNode& top) {
  // Settled registry slots retire incrementally inside MarkCommitted /
  // MarkAborted; only the sibling-edge buffer needs explicit cleanup.
  SiblingStripe& stripe = StripeFor(top.uid());
  std::lock_guard<std::mutex> g(stripe.mu);
  stripe.edges.erase(top.uid());
}

}  // namespace objectbase::cc
