#include "src/cc/sharded_controller.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/runtime/object.h"
#include "src/runtime/txn.h"
#include "src/runtime/wal.h"

namespace objectbase::cc {

ShardedController::ShardedController(std::vector<Shard> shards)
    : shards_(std::move(shards)) {
  for (Shard& sh : shards_) {
    if (sh.locks == nullptr || sh.deps == nullptr) continue;
    // MIXED: a wound victim can be blocked outside the lock manager — in
    // ANY shard's commit-wait or in the cross-shard poll — where it never
    // passes a wound observation point.  Dooming its registration on every
    // shard makes each of those waits unwind with kDoomed.  Stale/zero
    // handles make Doom a no-op, so a top wounded before its first step on
    // some shard is still safe.
    sh.locks->SetWoundHook([this](rt::TxnNode& top) {
      for (uint32_t s = 0; s < num_shards(); ++s) {
        shards_[s].deps->Doom(DepRef::FromRaw(top.dep_handle_for(s)));
      }
    });
  }
}

void ShardedController::OnTopBegin(rt::TxnNode& top) {
  // Eager registration: every shard's registry tracks every top, so each
  // shard's MinActiveCounter watermark (journal-fold / NTO-GC cadence) is
  // globally correct, and single-shard commits need no cross-shard
  // handshake — the foreign slots are settled edge-free at the end.
  top.EnableShardHandles(num_shards());
  for (Shard& sh : shards_) sh.controller->OnTopBegin(top);
}

OpOutcome ShardedController::ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                                          const adt::OpDescriptor& op,
                                          const Args& args) {
  const uint32_t s = obj.shard();
  txn.top()->NoteTouchedShard(s);
  return shards_[s].controller->ExecuteLocal(txn, obj, op, args);
}

void ShardedController::OnChildCommit(rt::TxnNode& child) {
  // Each shard's controller acts on its own tables (N2PL/MIXED rule 5).
  for (Shard& sh : shards_) sh.controller->OnChildCommit(child);
}

void ShardedController::FinishOthers(rt::TxnNode& top, uint32_t home) {
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (s == home || shards_[s].deps == nullptr) continue;
    // No step of this top ran on shard s, so its slot has no edges:
    // MarkCommitted settles it without validation.
    shards_[s].deps->MarkCommitted(DepRef::FromRaw(top.dep_handle_for(s)));
  }
}

bool ShardedController::OnTopCommit(rt::TxnNode& top, AbortReason* reason) {
  const uint64_t touched = top.touched_shards();
  if (__builtin_popcountll(touched) <= 1) {
    // Single-shard (or step-free) top: the home shard's controller commits
    // it by its own protocol.
    const uint32_t home =
        touched == 0 ? 0 : static_cast<uint32_t>(__builtin_ctzll(touched));
    if (!shards_[home].controller->OnTopCommit(top, reason)) return false;
    FinishOthers(top, home);
    return true;
  }
  return CommitCrossShard(top, touched, reason);
}

bool ShardedController::CommitRegistry::RegisterAndCheck(
    uint64_t uid, const std::vector<uint64_t>& preds) {
  std::lock_guard<std::mutex> g(mu);
  waits[uid] = preds;
  // DFS over registered members only: an edge uid -> pred means "uid's
  // commit waits for pred"; a path back to uid is a mutual-wait cycle.
  std::vector<uint64_t> stack(preds.begin(), preds.end());
  std::vector<uint64_t> seen;
  while (!stack.empty()) {
    const uint64_t v = stack.back();
    stack.pop_back();
    if (v == uid) return false;
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) continue;
    seen.push_back(v);
    auto it = waits.find(v);
    if (it == waits.end()) continue;  // not a cross-shard committer
    stack.insert(stack.end(), it->second.begin(), it->second.end());
  }
  return true;
}

void ShardedController::CommitRegistry::Unregister(uint64_t uid) {
  std::lock_guard<std::mutex> g(mu);
  waits.erase(uid);
}

bool ShardedController::CommitCrossShard(rt::TxnNode& top, uint64_t touched,
                                         AbortReason* reason) {
  const uint64_t uid = top.uid();
  auto for_each_touched = [&](auto&& fn) {
    for (uint32_t s = 0; s < num_shards(); ++s) {
      if ((touched >> s) & 1) fn(s);
    }
  };

  // Phase 0 — Theorem 5 condition (b) on the WHOLE transaction: certify
  // the union of the per-shard sibling graphs (each shard buffered only
  // the conflicts it observed).
  if (shards_[0].cert != nullptr) {
    std::vector<CertController::SiblingEdge> edges;
    for_each_touched(
        [&](uint32_t s) { shards_[s].cert->AppendSiblingEdges(uid, edges); });
    if (!edges.empty() && !CertController::EdgesAcyclic(edges)) {
      *reason = AbortReason::kValidation;
      return false;
    }
  }

  if (shards_[0].deps == nullptr) {
    // Locking kinds (N2PL/GEMSTONE): strict two-phase locks — already held
    // across every touched shard until OnTopFinished — ARE the
    // serialisation order; cross-shard deadlocks were handled at acquire
    // time by the shared waits-for graph.  Only durability remains.
    if (shards_[0].wal != nullptr) {
      std::vector<std::pair<rt::WalWriter*, uint64_t>> staged;
      for_each_touched([&](uint32_t s) {
        staged.emplace_back(shards_[s].wal,
                            shards_[s].wal->StageCommit(uid, touched));
      });
      for (auto& [wal, pos] : staged) {
        wal->WaitDurable(pos, &shards_[0].locks->waits_for(), ThisThreadKey());
      }
    }
    cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  auto ref_for = [&](uint32_t s) {
    return DepRef::FromRaw(top.dep_handle_for(s));
  };

  // Phase 1 — publish the union of unfinished predecessors.
  std::vector<uint64_t> preds;
  for_each_touched([&](uint32_t s) {
    std::vector<uint64_t> p =
        shards_[s].deps->UnfinishedPredecessorUids(ref_for(s));
    preds.insert(preds.end(), p.begin(), p.end());
  });
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());

  // kMixed: this commit-wait happens while the top still holds its strict
  // local-2pl locks; declare it in the (shared) waits-for graph so a
  // composite lock/commit-wait cycle is visible to whichever side
  // registers second (the unsharded MixedController::OnTopCommit guard).
  const uint64_t thread_key =
      shards_[0].locks != nullptr ? ThisThreadKey() : 0;
  bool declared = false;
  if (shards_[0].locks != nullptr && !preds.empty()) {
    if (shards_[0].locks->waits_for().SetWaitingWouldDeadlock(thread_key,
                                                              preds)) {
      *reason = AbortReason::kDeadlock;
      return false;
    }
    declared = true;
  }
  auto fail = [&](AbortReason r) {
    registry_.Unregister(uid);
    if (declared) shards_[0].locks->waits_for().ClearWaiting(thread_key);
    *reason = r;
    return false;
  };

  // Phase 2 — structural cycle check among cross-shard committers.
  if (!registry_.RegisterAndCheck(uid, preds)) {
    cross_cycle_aborts_.fetch_add(1, std::memory_order_relaxed);
    return fail(AbortReason::kDeadlock);
  }

  // Phase 3 — poll every touched shard until each certifies.  Predecessor
  // sets only shrink (edges into this top are frozen once its body is
  // done), so kOk per shard is stable modulo new dooms/cycles — which the
  // next phase re-checks anyway.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(poll_budget_us_);
  for (;;) {
    bool all_ok = true;
    AbortReason veto = AbortReason::kNone;
    for_each_touched([&](uint32_t s) {
      if (veto != AbortReason::kNone || !all_ok) return;
      switch (shards_[s].deps->TryValidate(ref_for(s))) {
        case DependencyGraph::ProbeResult::kOk:
          break;
        case DependencyGraph::ProbeResult::kWouldWait:
          all_ok = false;
          break;
        case DependencyGraph::ProbeResult::kDoomedVeto:
          veto = AbortReason::kDoomed;
          break;
        case DependencyGraph::ProbeResult::kCycleVeto:
          veto = AbortReason::kValidation;
          break;
      }
    });
    if (veto != AbortReason::kNone) return fail(veto);
    if (all_ok) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // Conservative resolution of multi-hop cycles threading through
      // single-shard tops (see the header): abort, never commit.  No cycle
      // was seen, so this is reported as a timeout, not a deadlock.
      poll_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return fail(AbortReason::kCommitTimeout);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

  // Phase 4 — the real per-shard validation (kActive -> kCommitting plus
  // the final doom/cycle check); non-blocking now that every shard
  // answered kOk.  A failure here unwinds through the normal abort path,
  // which settles every shard's slot (MarkAborted is valid from
  // kCommitting).
  {
    AbortReason r = AbortReason::kNone;
    bool ok = true;
    for_each_touched([&](uint32_t s) {
      if (!ok) return;
      ok = shards_[s].deps->ValidateAndWait(ref_for(s), &r);
    });
    if (!ok) return fail(r);
  }

  // Phase 5 — durability: one masked marker per touched shard's log, and
  // MarkCommitted DELAYED until all are durable, extending per-log prefix
  // closure to the cross-log atomicity rule (a successor anywhere can pass
  // its commit-wait only after our markers are all on disk).
  if (shards_[0].wal != nullptr) {
    std::vector<std::pair<rt::WalWriter*, uint64_t>> staged;
    for_each_touched([&](uint32_t s) {
      staged.emplace_back(shards_[s].wal,
                          shards_[s].wal->StageCommit(uid, touched));
    });
    WaitsForGraph* wfg = shards_[0].locks != nullptr
                             ? &shards_[0].locks->waits_for()
                             : nullptr;
    for (auto& [wal, pos] : staged) {
      wal->WaitDurable(pos, wfg, thread_key);
    }
  }

  // Phase 6 — settle every shard (touched slots carry the real edges; the
  // untouched ones are edge-free eager registrations).
  for (uint32_t s = 0; s < num_shards(); ++s) {
    shards_[s].deps->MarkCommitted(ref_for(s));
  }
  registry_.Unregister(uid);
  if (declared) shards_[0].locks->waits_for().ClearWaiting(thread_key);
  cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedController::OnAbort(rt::TxnNode& node) {
  // Each shard's controller releases its own locks and rebuilds its own
  // objects against its own registry (Controller::AbortAndRebuild).
  for (Shard& sh : shards_) sh.controller->OnAbort(node);
}

void ShardedController::OnTopFinished(rt::TxnNode& top) {
  for (Shard& sh : shards_) sh.controller->OnTopFinished(top);
}

}  // namespace objectbase::cc
