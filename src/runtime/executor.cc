#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/cc/cert_controller.h"
#include "src/cc/gemstone_controller.h"
#include "src/cc/lock_manager.h"
#include "src/cc/n2pl_controller.h"
#include "src/cc/nto_controller.h"
#include "src/cc/sharded_controller.h"
#include "src/cc/waits_for.h"

namespace objectbase::rt {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kN2pl: return "N2PL";
    case Protocol::kNto: return "NTO";
    case Protocol::kCert: return "CERT";
    case Protocol::kGemstone: return "GEMSTONE";
    case Protocol::kMixed: return "MIXED";
  }
  return "?";
}

namespace {

/// One shard's protocol instance, with non-owning views into its
/// components.
struct BuiltShard {
  cc::ShardedController::Shard shard;
  cc::MixedController* mixed = nullptr;
};

BuiltShard BuildShard(const ExecutorOptions& o, Recorder& recorder,
                      size_t num_objects) {
  BuiltShard b;
  cc::ShardedController::Shard& sh = b.shard;
  switch (o.protocol) {
    case Protocol::kN2pl: {
      auto c = std::make_unique<cc::N2plController>(recorder, o.granularity);
      sh.locks = &c->lock_manager();
      sh.controller = std::move(c);
      break;
    }
    case Protocol::kNto: {
      auto c = std::make_unique<cc::NtoController>(
          recorder, o.granularity, o.journal_fold_threshold);
      sh.deps = &c->deps();
      sh.controller = std::move(c);
      break;
    }
    case Protocol::kCert: {
      auto c = std::make_unique<cc::CertController>(
          recorder, o.granularity, o.journal_fold_threshold);
      sh.cert = c.get();
      sh.deps = &c->deps();
      sh.controller = std::move(c);
      break;
    }
    case Protocol::kGemstone: {
      auto c = std::make_unique<cc::GemstoneController>(recorder);
      sh.locks = &c->lock_manager();
      sh.controller = std::move(c);
      break;
    }
    case Protocol::kMixed: {
      auto c = std::make_unique<cc::MixedController>(
          recorder, num_objects, o.journal_fold_threshold);
      b.mixed = c.get();
      sh.locks = &c->lock_manager();
      sh.cert = &c->certifier();
      sh.deps = &c->certifier().deps();
      sh.controller = std::move(c);
      break;
    }
  }
  if (sh.locks != nullptr) sh.locks->SetContentionPolicy(o.contention_policy);
  return b;
}

}  // namespace

Executor::Executor(ObjectBase& base, ExecutorOptions options)
    : base_(base),
      options_(options),
      recorder_(options.record),
      branch_pool_(base.num_shards()) {
  const bool durable =
      options_.durability != Durability::kNone && !options_.wal_path.empty();
  // One complete controller stack per shard (a plain ObjectBase is one
  // shard), composed under the routing layer.
  std::vector<cc::ShardedController::Shard> shards;
  shards.reserve(base_.num_shards());
  for (uint32_t s = 0; s < base_.num_shards(); ++s) {
    BuiltShard b = BuildShard(options_, recorder_, base_.size());
    cc::ShardedController::Shard& sh = b.shard;
    sh.controller->BindShardSlot(s);
    if (sh.locks != nullptr) {
      // All shards declare lock waits in ONE graph; a cross-shard lock
      // cycle is invisible to any per-shard fragment.
      if (!shared_wfg_) shared_wfg_ = std::make_unique<cc::WaitsForGraph>();
      sh.locks->ShareWaitsForGraph(shared_wfg_.get());
    }
    if (b.mixed != nullptr) mixeds_.push_back(b.mixed);
    if (durable) {
      // One log per shard; shard 0's is the configured path.  Attach AFTER
      // ShareWaitsForGraph: MIXED routes durability waits into its
      // manager's CURRENT graph.
      wals_.push_back(std::make_unique<WalWriter>(
          WalOptions{ShardWalPath(options_.wal_path, s)}));
      sh.wal = wals_.back().get();
      sh.controller->AttachWal(sh.wal);
    }
    shards.push_back(std::move(sh));
  }
  controller_ = std::make_unique<cc::ShardedController>(std::move(shards));
  supports_partial_abort_ = controller_->SupportsPartialAbort();
  method_tables_.resize(base_.size());
  recorder_.Reset(base_);
}

Executor::~Executor() = default;

WalRecoveryResult Executor::Recover(const std::string& log_path) {
  // The per-shard logs recover together (the cross-log atomicity rule
  // lives in RecoverShardedWalInto).
  WalRecoveryResult result =
      RecoverShardedWalInto(log_path, base_.num_shards(), base_);
  // Re-snapshot initial states so recorded histories (and their oracles)
  // start from the recovered baseline.
  recorder_.Reset(base_);
  return result;
}

bool Executor::DefineMethod(const std::string& object,
                            const std::string& method, MethodFn fn) {
  Object* obj = base_.Find(object);
  if (obj == nullptr) return false;
  if (obj->id() >= method_tables_.size()) {
    // Objects created after this executor: grow the deque — existing
    // tables stay in place, so MethodRefs resolved earlier remain valid.
    method_tables_.resize(std::max<size_t>(base_.size(), obj->id() + 1));
  }
  MethodTable& table = method_tables_[obj->id()];
  auto it = table.index.find(method);
  if (it != table.index.end()) {
    table.fns[it->second] = std::move(fn);  // redefinition: refs stay valid
    return true;
  }
  const uint32_t idx = static_cast<uint32_t>(table.fns.size());
  table.fns.push_back(std::move(fn));
  table.index.emplace(method, idx);
  return true;
}

ObjectHandle Executor::FindObject(const std::string& name) {
  return ObjectHandle(base_.Find(name));
}

const std::string& Executor::InternName(std::string_view name) {
  std::lock_guard<std::mutex> g(intern_mu_);
  auto it = interned_names_.find(name);
  if (it == interned_names_.end()) {
    it = interned_names_.emplace(name).first;
  }
  return *it;
}

MethodRef Executor::ResolveOnObject(Object& obj, std::string_view method) {
  MethodRef ref;
  ref.object = &obj;
  if (obj.id() < method_tables_.size()) {
    MethodTable& table = method_tables_[obj.id()];
    auto it = table.index.find(method);
    if (it != table.index.end()) {
      ref.fn = &table.fns[it->second];
      ref.name = &it->first;
      return ref;
    }
  }
  if (const adt::OpDescriptor* d = obj.spec().FindOp(method)) {
    // Implicit method: a single local step executing the operation.
    ref.op = d;
    ref.name = &d->name;
    return ref;
  }
  // Unknown method: invoking this ref aborts the child with kUser; the
  // child node still carries the requested name.
  ref.name = &InternName(method);
  return ref;
}

MethodRef Executor::Resolve(const std::string& object,
                            const std::string& method) {
  Object* obj = base_.Find(object);
  if (obj == nullptr) return MethodRef{};
  return ResolveOnObject(*obj, method);
}

MethodRef Executor::Resolve(ObjectHandle object, const std::string& method) {
  if (!object.valid()) return MethodRef{};
  return ResolveOnObject(*object.obj_, method);
}

bool Executor::SetIntraPolicy(const std::string& object,
                              cc::IntraPolicy policy) {
  Object* obj = base_.Find(object);
  if (obj == nullptr || mixeds_.empty()) return false;
  // The object lives on exactly one shard, but policy maps are per-instance
  // and cheap — keep them all in agreement so routing changes (pinning) can
  // never observe a stale policy.
  bool ok = true;
  for (cc::MixedController* m : mixeds_) {
    ok = m->SetPolicy(obj->id(), policy) && ok;
  }
  return ok;
}

void Executor::NoteThreadRunning(TxnNode* node) {
  // Only the lock-based protocols track threads (deadlock detection).
  if (shared_wfg_ == nullptr) return;
  if (node == nullptr) {
    shared_wfg_->ClearRunning(cc::ThisThreadKey());
  } else {
    shared_wfg_->SetRunning(cc::ThisThreadKey(), node);
  }
}

void Executor::NoteThreadFinished() { NoteThreadRunning(nullptr); }

TxnResult Executor::RunTransaction(const std::string& name, MethodFn body) {
  TxnResult result;
  uint64_t age_token = 0;  // non-zero only after a wounded attempt
  for (int attempt = 1; attempt <= options_.max_top_retries; ++attempt) {
    TxnResult r = RunAttempt(name, body, age_token);
    age_token = r.last_abort == cc::AbortReason::kWounded ? r.age_token : 0;
    result = r;
    result.attempts = attempt;
    if (r.committed) return result;
    // Quadratic backoff: a deterministic 20·a² µs (capped at 1 ms) after
    // attempt a, with no jitter — colliding retries sleep the same amount.
    if (attempt < options_.max_top_retries) {
      stats_.retries.fetch_add(1);
      int us = std::min(20 * attempt * attempt, 1000);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }
  return result;
}

TxnResult Executor::RunTransactionOnce(const std::string& name,
                                       MethodFn body, uint64_t age_token) {
  TxnResult r = RunAttempt(name, body, age_token);
  r.attempts = 1;
  return r;
}

TxnResult Executor::RunAttempt(const std::string& name, const MethodFn& body,
                               uint64_t age_token) {
  TxnResult result;
  const uint64_t counter =
      age_token != 0 ? age_token : next_top_counter_.fetch_add(1) + 1;
  result.age_token = counter;
  auto top = std::make_unique<TxnNode>(next_uid_.fetch_add(1) + 1, nullptr,
                                       UINT32_MAX, name);
  top->hts() = cc::Hts::TopLevel(counter);
  top->exec_id =
      recorder_.BeginExecution(model::kNoExec, model::kEnvironmentObject, name);
  controller_->OnTopBegin(*top);
  NoteThreadRunning(top.get());
  try {
    MethodCtx ctx(*this, *top, /*object=*/nullptr, Args{});
    Value v = body(ctx);
    cc::AbortReason reason = cc::AbortReason::kNone;
    if (!controller_->OnTopCommit(*top, &reason)) {
      throw AbortSignal{reason};
    }
    controller_->OnTopFinished(*top);
    NoteThreadFinished();
    stats_.committed.fetch_add(1);
    const uint64_t touched = top->touched_shards();
    const size_t slot =
        __builtin_popcountll(touched) > 1
            ? Stats::kCrossShardSlot
            : (touched == 0 ? 0
                            : static_cast<size_t>(__builtin_ctzll(touched)));
    stats_.committed_by_shard[slot].fetch_add(1, std::memory_order_relaxed);
    result.committed = true;
    result.ret = std::move(v);
    return result;
  } catch (AbortSignal& s) {
    AbortSubtree(*top, s.reason);
    controller_->OnTopFinished(*top);
    NoteThreadFinished();
    stats_.aborted.fetch_add(1);
    stats_.aborts_by_reason[static_cast<size_t>(s.reason)].fetch_add(1);
    result.committed = false;
    result.last_abort = s.reason;
    return result;
  }
}

Value Executor::InvokeChild(TxnNode& parent, const MethodRef& m, Args args,
                            uint32_t po, TxnNode* restore) {
  Object& obj = *m.object;
  uint64_t child_counter = parent.NextChildCounter();
  auto owned = std::make_unique<TxnNode>(next_uid_.fetch_add(1) + 1, &parent,
                                         obj.id(), *m.name);
  TxnNode* child = parent.AddChild(std::move(owned));
  child->hts() = parent.hts().Child(child_counter);
  uint64_t start = recorder_.NextSeq();
  child->exec_id = recorder_.BeginExecution(parent.exec_id, obj.id(), *m.name);
  NoteThreadRunning(child);
  try {
    Value v;
    if (m.fn != nullptr) {
      MethodCtx ctx(*this, *child, &obj, std::move(args));
      v = (*m.fn)(ctx);
    } else if (m.op != nullptr) {
      // Implicit method: a single local step executing the operation.
      // Nothing reads ctx.args() here, so the arguments move to the step.
      MethodCtx ctx(*this, *child, &obj, Args{});
      v = ctx.Local(*m.op, std::move(args));
    } else {
      throw AbortSignal{cc::AbortReason::kUser};
    }
    controller_->OnChildCommit(*child);
    if (restore != nullptr) {
      NoteThreadRunning(restore);
    } else {
      NoteThreadFinished();
    }
    uint64_t end = recorder_.NextSeq();
    recorder_.RecordMessageStep(parent.exec_id, po, child->exec_id, start,
                                end);
    return v;
  } catch (AbortSignal& s) {
    AbortSubtree(*child, s.reason);
    if (restore != nullptr) {
      NoteThreadRunning(restore);
    } else {
      NoteThreadFinished();
    }
    uint64_t end = recorder_.NextSeq();
    recorder_.RecordMessageStep(parent.exec_id, po, child->exec_id, start,
                                end);
    throw;
  }
}

namespace {

void CollectUndoRecords(TxnNode& node, std::vector<UndoRecord*>& out) {
  for (UndoRecord& u : node.undo_log()) out.push_back(&u);
  for (auto& child : node.children()) CollectUndoRecords(*child, out);
}

void MarkSubtreeAborted(Recorder& recorder, TxnNode& node,
                        cc::AbortReason reason) {
  if (!node.aborted()) {
    node.set_aborted(reason);
    recorder.MarkAborted(node.exec_id);
  }
  for (auto& child : node.children()) {
    MarkSubtreeAborted(recorder, *child, reason);
  }
}

}  // namespace

void Executor::AbortSubtree(TxnNode& node, cc::AbortReason reason) {
  // Semantics (b): the abort of a method execution aborts its descendents.
  MarkSubtreeAborted(recorder_, node, reason);
  if (node.parent() != nullptr) {
    // Partial abort under a still-live top: recovery must excise the
    // subtree's redo records even if that top later commits.  Staged here
    // — before the aborting child's parent can resume — so the abort
    // marker always precedes the top's commit marker in the log.
    // Top-level aborts need no marker: a commit record for that attempt's
    // uid can never exist.  Staged on every shard's log (abort markers on
    // logs the subtree never wrote to are harmless no-ops at recovery).
    for (auto& w : wals_) w->StageAbort(node.uid());
  }
  if (controller_->RollbackByRebuild()) {
    // The controller rebuilds object states from their journals in OnAbort.
    controller_->OnAbort(node);
    return;
  }
  // Strict protocols: apply the subtree's undo closures in reverse
  // application order.  Strictness guarantees no incomparable execution
  // interleaved conflicting steps, so subtree-local reverse order suffices.
  // UndoRecord::seq is the PER-OBJECT apply-order key (docs/recorder.md):
  // same-object undos must run newest-first, while undos on different
  // objects act on disjoint states and commute — so group by object and
  // reverse within each group.
  std::vector<UndoRecord*> undos;
  CollectUndoRecords(node, undos);
  std::sort(undos.begin(), undos.end(),
            [](const UndoRecord* a, const UndoRecord* b) {
              if (a->object != b->object) {
                return a->object->id() < b->object->id();
              }
              return a->seq > b->seq;
            });
  for (UndoRecord* u : undos) {
    if (!u->undo) continue;
    std::lock_guard<std::shared_mutex> g(u->object->state_mu());
    u->undo(u->object->state());
    u->undo = nullptr;  // idempotence if the subtree aborts again
  }
  controller_->OnAbort(node);
}

// --- MethodCtx -------------------------------------------------------------

Value MethodCtx::Invoke(const MethodRef& m, Args args) {
  if (m.object == nullptr) throw Executor::AbortSignal{cc::AbortReason::kUser};
  uint32_t po = node_.NextPo();
  return exec_.InvokeChild(node_, m, std::move(args), po, &node_);
}

Value MethodCtx::Invoke(const std::string& object, const std::string& method,
                        Args args) {
  return Invoke(exec_.Resolve(object, method), std::move(args));
}

MethodCtx::InvokeOutcome MethodCtx::TryInvoke(const MethodRef& m, Args args) {
  if (m.object == nullptr) {
    return InvokeOutcome{false, Value::None(), cc::AbortReason::kUser};
  }
  uint32_t po = node_.NextPo();
  try {
    Value v = exec_.InvokeChild(node_, m, std::move(args), po, &node_);
    return InvokeOutcome{true, std::move(v), cc::AbortReason::kNone};
  } catch (Executor::AbortSignal& s) {
    if (exec_.supports_partial_abort_ && !node_.WoundedHereOrAbove()) {
      // The child (and its descendents) aborted; this execution survives
      // and may try an alternative (Section 3).  A wound whose root is
      // this node or an ancestor must keep unwinding — the wounded
      // subtree is larger than the child we just aborted; a wound rooted
      // INSIDE the child is already fully handled and is survivable like
      // any other child abort (wound–wait's partial-abort payoff).
      return InvokeOutcome{false, Value::None(), s.reason};
    }
    throw;
  }
}

MethodCtx::InvokeOutcome MethodCtx::TryInvoke(const std::string& object,
                                              const std::string& method,
                                              Args args) {
  return TryInvoke(exec_.Resolve(object, method), std::move(args));
}

std::vector<MethodCtx::InvokeOutcome> MethodCtx::InvokeParallel(
    std::vector<BoundCall> calls) {
  std::vector<InvokeOutcome> outcomes(calls.size());
  if (calls.empty()) return outcomes;
  // All messages of the batch share one program-order index: they are
  // ◁-unordered (Definition 4 allows it; condition 2c imposes nothing).
  uint32_t po = node_.NextPo();
  // Branches run on the shared pool instead of a thread per branch.  Shard
  // affinity is a routing hint: a branch whose target object is known lands
  // on a worker pinned to that object's shard when one is free.  The caller
  // drains its own batch too (RunAndWait(caller_inline=true)), so a nest of
  // InvokeParallel calls can never deadlock on pool capacity.
  BranchPool& pool = exec_.branch_pool_;
  pool.EnsureWorkers(std::min<size_t>(calls.size(), 16));
  BranchPool::Batch batch(pool);
  for (size_t i = 0; i < calls.size(); ++i) {
    const MethodRef& m = calls[i].method;
    const uint32_t shard =
        m.object != nullptr ? m.object->shard() : BranchPool::kAnyShard;
    batch.Add(shard, [this, &calls, &outcomes, i, po](bool on_caller) {
      const MethodRef& m = calls[i].method;
      if (m.object == nullptr) {
        outcomes[i] = InvokeOutcome{false, Value::None(),
                                    cc::AbortReason::kUser};
        return;
      }
      try {
        // A branch run inline on the caller's thread must restore the
        // caller's running-node registration afterwards; a pool worker has
        // none to restore.
        Value v = exec_.InvokeChild(node_, m, std::move(calls[i].args), po,
                                    /*restore=*/on_caller ? &node_ : nullptr);
        outcomes[i] = InvokeOutcome{true, std::move(v),
                                    cc::AbortReason::kNone};
      } catch (Executor::AbortSignal& s) {
        outcomes[i] = InvokeOutcome{false, Value::None(), s.reason};
      }
    });
  }
  batch.RunAndWait(/*caller_inline=*/true);
  if (!exec_.supports_partial_abort_) {
    for (const InvokeOutcome& o : outcomes) {
      if (!o.ok) throw Executor::AbortSignal{o.reason};
    }
  } else if (node_.WoundedHereOrAbove()) {
    // A branch was wounded with the wound rooted at this node or above:
    // the whole wounded subtree must unwind, not just the branch.
    throw Executor::AbortSignal{cc::AbortReason::kWounded};
  }
  return outcomes;
}

std::vector<MethodCtx::InvokeOutcome> MethodCtx::InvokeParallel(
    std::vector<Call> calls) {
  std::vector<BoundCall> bound;
  bound.reserve(calls.size());
  for (Call& c : calls) {
    bound.push_back(BoundCall{exec_.Resolve(c.object, c.method),
                              std::move(c.args)});
  }
  return InvokeParallel(std::move(bound));
}

Value MethodCtx::Local(const adt::OpDescriptor& op, Args args) {
  if (object_ == nullptr) {
    // The environment has no variables (Definition 1).
    throw Executor::AbortSignal{cc::AbortReason::kUser};
  }
  cc::OpOutcome out =
      exec_.controller_->ExecuteLocal(node_, *object_, op, args);
  if (!out.ok) throw Executor::AbortSignal{out.reason};
  return std::move(out.ret);
}

const adt::OpDescriptor* MethodCtx::ResolveLocal(std::string_view op) const {
  if (object_ == nullptr) return nullptr;
  return object_->spec().FindOp(op);
}

Value MethodCtx::Local(const std::string& op, Args args) {
  if (object_ == nullptr) {
    throw Executor::AbortSignal{cc::AbortReason::kUser};
  }
  const adt::OpDescriptor* d = object_->spec().FindOp(op);
  if (d == nullptr) throw Executor::AbortSignal{cc::AbortReason::kUser};
  return Local(*d, std::move(args));
}

void MethodCtx::Abort() {
  throw Executor::AbortSignal{cc::AbortReason::kUser};
}

}  // namespace objectbase::rt
