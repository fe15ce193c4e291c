#include "src/cc/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "src/common/thread_slot.h"
#include "src/runtime/object.h"
#include "src/runtime/txn.h"

namespace objectbase::cc {

uint64_t ThisThreadKey() { return common::DenseThreadSlot(); }

std::atomic<uint64_t>& LockTableMutexAcquisitions() {
  static std::atomic<uint64_t> count{0};
  return count;
}

std::atomic<uint64_t>& LockWaiterWakeups() {
  static std::atomic<uint64_t> count{0};
  return count;
}

std::atomic<uint64_t>& LockParkTimeouts() {
  static std::atomic<uint64_t> count{0};
  return count;
}

std::atomic<uint64_t>& WoundsIssued() {
  static std::atomic<uint64_t> count{0};
  return count;
}

const char* ContentionPolicyName(ContentionPolicy p) {
  switch (p) {
    case ContentionPolicy::kDetect: return "detect";
    case ContentionPolicy::kWoundWait: return "wound-wait";
  }
  return "?";
}

namespace {

std::atomic<uint64_t> next_manager_id{1};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Bounded spin before parking (the spin-then-park discipline of the
// openbsd-mtx-test parking mutex): long enough to catch a holder that is
// already releasing, short enough to be noise when it is not.
constexpr int kSpinIters = 96;

}  // namespace

LockManager::LockManager() : manager_id_(next_manager_id.fetch_add(1)) {}

LockManager::~LockManager() {
  for (auto& slot : chunks_) {
    delete slot.load(std::memory_order_acquire);
  }
}

namespace {

// Does the held lock `entry` block the new request `req`?  The direction
// matters (Definition 3 is order-sensitive): the holder's step happened
// first, so the question is whether holder-then-requester fails to commute,
// i.e. conflicts(held, requested).  Whole-object modes: shared commutes
// only with shared; exclusive and the shared-vs-operation pairs are
// conservative conflicts.
bool EntryBlocks(const adt::AdtSpec& spec, const LockManager::Request& held,
                 const LockManager::Request& req) {
  if (held.exclusive || req.exclusive) return true;
  if (held.shared || req.shared) return !(held.shared && req.shared);
  if (held.ret.has_value() && req.ret.has_value()) {
    adt::StepView first{held.op->name, &held.args, &*held.ret, held.op->id};
    adt::StepView second{req.op->name, &req.args, &*req.ret, req.op->id};
    return spec.StepConflicts(first, second);
  }
  // Operation granularity (or a mixed pair): be conservative.
  return spec.OpConflictsById(held.op->id, req.op->id);
}

// Would granting `req` to `txn` barge past an earlier conflicting waiter?
// Without this check a stream of mutually-commuting acquisitions can starve
// a conflicting waiter forever (e.g. continuous Counter.adds starving a
// get).  Conservative symmetric test; ancestors are exempt like in rule 2.
bool BargesPastWaiter(const adt::AdtSpec& spec, rt::TxnNode& txn,
                      const LockManager::Request& req,
                      rt::TxnNode* waiter_txn,
                      const LockManager::Request& waiter_req) {
  if (waiter_txn == &txn || txn.HasAncestorOrSelf(waiter_txn)) return false;
  return EntryBlocks(spec, waiter_req, req) ||
         EntryBlocks(spec, req, waiter_req);
}

}  // namespace

// --- table registry (lock-free steady state) --------------------------------

LockManager::ObjTable& LockManager::GetTable(uint32_t object_id) {
  const uint32_t chunk_idx = object_id >> kChunkShift;
  if (chunk_idx >= kMaxChunks) {
    // Past the chunked range: overflow map.  One mutex hit per first touch
    // of the (manager, object) pair — the caller caches the pointer on the
    // object, so the steady path stays O(1) here too.
    LockTableMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(chunk_alloc_mu_);
    return overflow_tables_[object_id];  // std::map: stable addresses
  }
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    LockTableMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(chunk_alloc_mu_);
    chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunks_[chunk_idx].store(chunk, std::memory_order_release);
    }
    uint32_t limit = (chunk_idx + 1) << kChunkShift;
    uint32_t seen = table_limit_.load(std::memory_order_relaxed);
    while (seen < limit &&
           !table_limit_.compare_exchange_weak(seen, limit,
                                               std::memory_order_relaxed)) {
    }
  }
  return chunk->tables[object_id & (kChunkSize - 1)];
}

LockManager::ObjTable* LockManager::FindTable(uint32_t object_id) const {
  const uint32_t chunk_idx = object_id >> kChunkShift;
  if (chunk_idx >= kMaxChunks) {
    std::lock_guard<std::mutex> g(chunk_alloc_mu_);
    auto it = overflow_tables_.find(object_id);
    return it == overflow_tables_.end() ? nullptr : &it->second;
  }
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk->tables[object_id & (kChunkSize - 1)];
}

LockManager::ObjTable& LockManager::TableFor(rt::Object& obj) {
  if (void* cached = obj.CachedLockTable(manager_id_)) {
    return *static_cast<ObjTable*>(cached);
  }
  ObjTable& table = GetTable(obj.id());
  obj.CacheLockTable(manager_id_, &table);
  return table;
}

// --- grant bitmask machinery ------------------------------------------------

void LockManager::EnsureTableInitLocked(ObjTable& table,
                                        const adt::AdtSpec& spec) {
  if (table.spec != nullptr) return;
  table.spec = &spec;
  const size_t n = spec.NumOps();
  table.mask_usable = n <= 64;
  if (!table.mask_usable) return;
  table.req_conflict_mask.assign(n, 0);
  table.op_held_count.assign(n, 0);
  for (adt::OpId req = 0; req < n; ++req) {
    uint64_t mask = 0;
    for (adt::OpId held = 0; held < n; ++held) {
      if (spec.OpConflictsById(held, req)) mask |= uint64_t{1} << held;
    }
    table.req_conflict_mask[req] = mask;
  }
}

void LockManager::NoteEntryAddedLocked(ObjTable& table, const Request& req) {
  if (req.exclusive) {
    ++table.whole_excl;
  } else if (req.shared) {
    ++table.whole_shared;
  } else if (table.mask_usable) {
    if (++table.op_held_count[req.op->id] == 1) {
      table.held_mask |= uint64_t{1} << req.op->id;
    }
  }
}

void LockManager::NoteEntryRemovedLocked(ObjTable& table, const Request& req) {
  if (req.exclusive) {
    --table.whole_excl;
  } else if (req.shared) {
    --table.whole_shared;
  } else if (table.mask_usable) {
    if (--table.op_held_count[req.op->id] == 0) {
      table.held_mask &= ~(uint64_t{1} << req.op->id);
    }
  }
}

bool LockManager::FastGrantableLocked(const ObjTable& table,
                                      const Request& req) {
  // Mask info unavailable (oversized spec), or waiters present (fairness
  // needs the full analysis): take the slow path.
  if (!table.mask_usable || !table.waiters.empty()) return false;
  if (req.exclusive) {
    return table.entries.empty();
  }
  if (req.shared) {
    return table.whole_excl == 0 && table.held_mask == 0;
  }
  if (table.whole_excl + table.whole_shared != 0) return false;
  return (table.held_mask & table.req_conflict_mask[req.op->id]) == 0;
}

bool LockManager::WaiterMayProceedLocked(const ObjTable& table,
                                         const Waiter& w) {
  const Request& req = *w.req;
  // Masked screen first: when nothing held can conflict even at class
  // level, the waiter is certainly eligible — one mask test, no scan.
  if (table.mask_usable) {
    const bool whole_free = table.whole_excl + table.whole_shared == 0;
    if (req.exclusive || req.shared) {
      if (table.held_mask == 0 &&
          (whole_free || (req.shared && table.whole_excl == 0))) {
        return true;
      }
    } else if (whole_free && (table.held_mask & w.wake_mask) == 0) {
      return true;
    }
  }
  // Precise fallback: scan the (short) entry list with the rule-2 ancestor
  // exemption and step-level conflict precision — the class mask cannot
  // see either, and both can leave a waiter's real blocker set empty while
  // its mask bit stays lit (an ancestor's same-class entry; a held step
  // that class-conflicts but step-commutes).  Without this the waiter
  // would ride the 250 ms safety net.  Fairness blockers are deliberately
  // ignored here: a fairness-only waiter revalidates and re-parks.
  if (table.spec == nullptr) return true;
  for (const Entry& e : table.entries) {
    if (w.txn->HasAncestorOrSelf(e.owner)) continue;
    if (EntryBlocks(*table.spec, e.req, req)) return false;
  }
  return true;
}

// --- parking ---------------------------------------------------------------

void LockManager::SignalWaiter(Waiter& w) {
  LockWaiterWakeups().fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(w.park_mu);
    w.signal.store(1, std::memory_order_release);
  }
  w.park_cv.notify_one();
}

void LockManager::ParkWaiter(Waiter& w) {
  for (int i = 0; i < kSpinIters; ++i) {
    if (w.signal.load(std::memory_order_acquire) != 0) return;
    CpuRelax();
  }
  std::unique_lock<std::mutex> g(w.park_mu);
  // The 250 ms timeout is a safety net only (e.g. against a wake-rule gap),
  // not a polling interval: every mutation that can unblock this request
  // signals it directly.
  if (!w.park_cv.wait_for(g, std::chrono::milliseconds(250), [&] {
        return w.signal.load(std::memory_order_acquire) != 0;
      })) {
    LockParkTimeouts().fetch_add(1, std::memory_order_relaxed);
  }
}

void LockManager::WakeWaitersLocked(ObjTable& table, bool wake_all,
                                    rt::TxnNode* new_owner) {
  for (Waiter* w : table.waiters) {
    if (w->signal.load(std::memory_order_relaxed) != 0) continue;
    bool wake = wake_all;
    if (!wake && new_owner != nullptr) {
      // A fresh grant can only HELP a waiter whose fairness exemption it
      // flips (the new entry's owner is its ancestor); for everyone else a
      // new entry only adds blockers.
      wake = w->txn->HasAncestorOrSelf(new_owner);
    }
    if (!wake) wake = WaiterMayProceedLocked(table, *w);
    if (wake) SignalWaiter(*w);
  }
}

void LockManager::UnregisterWaiterLocked(ObjTable& table, const Waiter& w) {
  for (auto it = table.waiters.begin(); it != table.waiters.end(); ++it) {
    if (*it == &w) {
      table.waiters.erase(it);
      return;
    }
  }
}

// --- admission --------------------------------------------------------------

bool LockManager::HoldsHereLocked(const ObjTable& table, rt::TxnNode& txn) {
  for (const Entry& e : table.entries) {
    if (txn.HasAncestorOrSelf(e.owner)) return true;
  }
  return false;
}

bool LockManager::MayAlreadyHoldLocked(const ObjTable& table,
                                       const Request& req) {
  if (req.ret.has_value()) return false;  // step locks are never deduped
  if (req.exclusive) return table.whole_excl != 0;
  if (req.shared) return table.whole_shared != 0;
  if (!table.mask_usable) return !table.entries.empty();
  return (table.held_mask >> req.op->id) & 1;
}

bool LockManager::AlreadyHeldLocked(const ObjTable& table, rt::TxnNode& txn,
                                    const Request& req) {
  for (const Entry& e : table.entries) {
    // Descriptor pointers are per-spec singletons, so identical-op tests
    // are pointer comparisons.
    if (e.owner == &txn && e.req.exclusive == req.exclusive &&
        e.req.shared == req.shared && e.req.op == req.op &&
        !e.req.ret.has_value() && !req.ret.has_value() &&
        e.req.args == req.args) {
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> LockManager::BlockersLocked(const ObjTable& table,
                                                  rt::TxnNode& txn,
                                                  rt::Object& obj,
                                                  const Request& req,
                                                  uint64_t my_wait_seq) {
  std::vector<uint64_t> blockers;
  for (const Entry& e : table.entries) {
    // Rule 2: owners that are ancestors of the requester never block it.
    if (txn.HasAncestorOrSelf(e.owner)) continue;
    if (EntryBlocks(obj.spec(), e.req, req)) {
      blockers.push_back(e.owner->uid());
    }
  }
  // Fairness: also wait behind earlier conflicting waiters so they cannot
  // starve (they will be granted before us) — EXCEPT when this transaction
  // is already in progress on the object (it or an ancestor holds a lock
  // here).  Queueing an in-progress holder behind a waiter that waits for
  // that very holder would be a deadlock by construction (lock convoys);
  // letting it finish is what unblocks the waiter.
  if (!table.waiters.empty() && !HoldsHereLocked(table, txn)) {
    for (const Waiter* w : table.waiters) {
      if (w->seq >= my_wait_seq) continue;
      if (BargesPastWaiter(obj.spec(), txn, req, w->txn, *w->req)) {
        blockers.push_back(w->txn->uid());
      }
    }
  }
  return blockers;
}

void LockManager::RegisterParked(Waiter& w) {
  std::lock_guard<std::mutex> g(parked_mu_);
  parked_.push_back(&w);
}

void LockManager::UnregisterParked(Waiter& w) {
  std::lock_guard<std::mutex> g(parked_mu_);
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (*it == &w) {
      parked_.erase(it);
      return;
    }
  }
}

void LockManager::WoundYoungerHoldersLocked(ObjTable& table, rt::TxnNode& txn,
                                            rt::Object& obj,
                                            const Request& req) {
  // Age = the top-level serial number (hts top component): strictly
  // monotone across top-level attempts, so "smaller = started earlier".
  // Only strictly younger TOPS are wounded — same-top holders are
  // siblings/relatives whose commit will unblock us (rule 5), and wounding
  // an older or equal transaction would invert the age order wound–wait's
  // progress argument rests on.
  const uint64_t my_age = txn.top()->hts().top_component();
  bool wounded_any = false;
  for (Entry& e : table.entries) {
    if (txn.HasAncestorOrSelf(e.owner)) continue;
    if (!EntryBlocks(obj.spec(), e.req, req)) continue;
    rt::TxnNode* holder_top = e.owner->top();
    if (holder_top->hts().top_component() <= my_age) continue;
    if (e.owner->wounded()) continue;  // idempotent per victim node
    e.owner->Wound();
    WoundsIssued().fetch_add(1, std::memory_order_relaxed);
    if (wound_hook_) wound_hook_(*holder_top);
    wounded_any = true;
  }
  if (!wounded_any) return;
  // Victims observe wounds at their next lock-manager interaction; one
  // parked ANYWHERE in this manager would otherwise ride its next signal
  // or the 250 ms safety net — poke it now.  Waiter lifetime is safe: a
  // waiter leaves parked_ (under parked_mu_) before its stack frame can
  // unwind, so every pointer seen here is live while we hold the mutex.
  std::lock_guard<std::mutex> pg(parked_mu_);
  for (Waiter* w : parked_) {
    if (w->signal.load(std::memory_order_relaxed) != 0) continue;
    if (w->txn->WoundedHereOrAbove()) SignalWaiter(*w);
  }
}

bool LockManager::AnyWoundedBlockerLocked(const ObjTable& table,
                                          rt::TxnNode& txn, rt::Object& obj,
                                          const Request& req) {
  for (const Entry& e : table.entries) {
    if (txn.HasAncestorOrSelf(e.owner)) continue;
    if (!EntryBlocks(obj.spec(), e.req, req)) continue;
    if (e.owner->WoundedHereOrAbove()) return true;
  }
  return false;
}

LockManager::Outcome LockManager::WaitForGrantLocked(
    ObjTable& table, std::unique_lock<std::mutex>& g, rt::TxnNode& txn,
    rt::Object& obj, const Request& req, bool register_immediately) {
  const uint64_t thread_key = ThisThreadKey();
  const ContentionPolicy policy = contention_policy();
  Waiter waiter;
  waiter.txn = &txn;
  waiter.req = &req;
  bool registered = false;
  auto register_waiter = [&] {
    waiter.seq = table.next_wait_seq++;
    waiter.wake_mask = (table.mask_usable && req.op != nullptr)
                           ? table.req_conflict_mask[req.op->id]
                           : 0;
    table.waiters.push_back(&waiter);
    registered = true;
  };
  if (register_immediately) register_waiter();
  // Transient-cycle parks are bounded: with the wound hook in place every
  // wounded member eventually unwinds and signals us, so the bound is a
  // liveness backstop (wake-rule gap, not an expected path), after which
  // the detection abort below proceeds.
  constexpr int kMaxTransientParks = 32;
  int transient_parks = 0;
  for (;;) {
    if (policy == ContentionPolicy::kWoundWait && txn.WoundedHereOrAbove()) {
      // We are (inside) a wound victim: stop competing and unwind.  Our
      // departure may unblock waiters queued behind us.
      if (registered) UnregisterWaiterLocked(table, waiter);
      WakeWaitersLocked(table, /*wake_all=*/false, nullptr);
      return Outcome::kWounded;
    }
    std::vector<uint64_t> blockers = BlockersLocked(
        table, txn, obj, req, registered ? waiter.seq : UINT64_MAX);
    if (blockers.empty()) {
      if (registered) UnregisterWaiterLocked(table, waiter);
      return Outcome::kGranted;
    }
    if (policy == ContentionPolicy::kWoundWait) {
      WoundYoungerHoldersLocked(table, txn, obj, req);
    }
    if (!registered) register_waiter();
    // Wound–wait progress rule: if a conflicting holder is already a wound
    // victim, any cycle the detector would report through it is TRANSIENT —
    // the victim is on its way out and its release recomputes our blockers.
    // Waiting is what wound–wait prescribes here (all surviving waits run
    // young→old, so real lock cycles cannot persist); aborting would
    // re-introduce the very age-blind victim selection the policy removes.
    // Cycles with NO wounded holder still fall through to detection — the
    // safety net for composite lock/commit-wait cycles wounds cannot break.
    if (policy == ContentionPolicy::kWoundWait &&
        transient_parks < kMaxTransientParks &&
        AnyWoundedBlockerLocked(table, txn, obj, req)) {
      ++transient_parks;
      waiter.signal.store(0, std::memory_order_relaxed);
      g.unlock();
      RegisterParked(waiter);
      if (!txn.WoundedHereOrAbove()) ParkWaiter(waiter);
      UnregisterParked(waiter);
      g.lock();
      continue;
    }
    bool cycle_has_wounded = false;
    if (wfg_->SetWaitingWouldDeadlock(
            thread_key, blockers,
            policy == ContentionPolicy::kWoundWait ? &cycle_has_wounded
                                                   : nullptr)) {
      if (policy == ContentionPolicy::kWoundWait && cycle_has_wounded &&
          transient_parks < kMaxTransientParks) {
        ++transient_parks;
        // Same transient-cycle rule as the direct-blocker check above,
        // for cycles whose wound victim sits deeper than our immediate
        // blockers: a member is mid-unwind, so park and re-probe instead
        // of aborting.  Cycles that persist with no wounded member fall
        // through to the abort below on a later iteration.
        waiter.signal.store(0, std::memory_order_relaxed);
        g.unlock();
        RegisterParked(waiter);
        if (!txn.WoundedHereOrAbove()) ParkWaiter(waiter);
        UnregisterParked(waiter);
        g.lock();
        continue;
      }
      UnregisterWaiterLocked(table, waiter);
      // Our departure may unblock waiters queued behind us.
      WakeWaitersLocked(table, /*wake_all=*/false, nullptr);
      return Outcome::kDeadlock;
    }
    waiter.signal.store(0, std::memory_order_relaxed);
    g.unlock();
    if (policy == ContentionPolicy::kWoundWait) {
      // Enlist in the parked registry so a wounder on ANOTHER object's
      // table can signal us (see WoundYoungerHoldersLocked).  The
      // re-check between enlisting and parking closes the race with a
      // wounder that scanned the registry before we appeared.
      RegisterParked(waiter);
      if (!txn.WoundedHereOrAbove()) ParkWaiter(waiter);
      UnregisterParked(waiter);
    } else {
      ParkWaiter(waiter);
    }
    g.lock();
    wfg_->ClearWaiting(thread_key);
  }
}

LockManager::Outcome LockManager::Acquire(rt::TxnNode& txn, rt::Object& obj,
                                          Request req) {
  if (contention_policy() == ContentionPolicy::kWoundWait &&
      txn.WoundedHereOrAbove()) {
    return Outcome::kWounded;
  }
  ObjTable& table = TableFor(obj);
  std::unique_lock<std::mutex> g(table.mu);
  EnsureTableInitLocked(table, obj.spec());
  if (MayAlreadyHoldLocked(table, req) && AlreadyHeldLocked(table, txn, req)) {
    return Outcome::kGranted;
  }
  if (!FastGrantableLocked(table, req)) {
    Outcome waited = WaitForGrantLocked(table, g, txn, obj, req,
                                        /*register_immediately=*/false);
    if (waited != Outcome::kGranted) return waited;
  }
  // Grant: insert the entry.  On the fast path there is nobody to wake; on
  // the waited path the grant is itself a mutation later waiters may care
  // about — our departure shortened the fairness queue, and the new entry
  // can flip a descendant waiter's fairness exemption.
  NoteEntryAddedLocked(table, req);
  rt::TxnNode* owner = &txn;
  table.entries.push_back(Entry{owner, std::move(req)});
  if (!table.waiters.empty()) {
    WakeWaitersLocked(table, /*wake_all=*/false, owner);
  }
  txn.NoteLockedObject(obj.id());
  return Outcome::kGranted;
}

LockManager::TryOutcome LockManager::TryAcquire(rt::TxnNode& txn,
                                                rt::Object& obj,
                                                const Request& req) {
  if (contention_policy() == ContentionPolicy::kWoundWait &&
      txn.WoundedHereOrAbove()) {
    return TryOutcome::kWounded;
  }
  ObjTable& table = TableFor(obj);
  std::lock_guard<std::mutex> g(table.mu);
  EnsureTableInitLocked(table, obj.spec());
  bool granted = FastGrantableLocked(table, req);
  if (!granted) {
    granted = BlockersLocked(table, txn, obj, req, UINT64_MAX).empty();
  }
  if (!granted) return TryOutcome::kWouldBlock;
  NoteEntryAddedLocked(table, req);
  table.entries.push_back(Entry{&txn, req});
  if (!table.waiters.empty()) {
    WakeWaitersLocked(table, /*wake_all=*/false, &txn);
  }
  txn.NoteLockedObject(obj.id());
  return TryOutcome::kGranted;
}

LockManager::Outcome LockManager::WaitWhileBlocked(rt::TxnNode& txn,
                                                   rt::Object& obj,
                                                   const Request& req) {
  ObjTable& table = TableFor(obj);
  std::unique_lock<std::mutex> g(table.mu);
  EnsureTableInitLocked(table, obj.spec());
  // Registered before the first blocker computation so the provisional-
  // execution retry keeps its fairness position across TryAcquire rounds.
  Outcome outcome = WaitForGrantLocked(table, g, txn, obj, req,
                                       /*register_immediately=*/true);
  if (outcome == Outcome::kGranted) {
    // No entry is inserted (the caller re-runs TryAcquire); our departure
    // may still unblock waiters queued behind us.
    WakeWaitersLocked(table, /*wake_all=*/false, nullptr);
  }
  return outcome;
}

// --- inheritance / release --------------------------------------------------

void LockManager::TransferToParent(rt::TxnNode& child) {
  rt::TxnNode* parent = child.parent();
  if (parent == nullptr) return;
  // Only the tables of objects the child actually locked are touched (rule
  // 5's inheritance); the parent then owns them too.
  const std::vector<uint32_t>& objects = child.locked_objects();
  for (uint32_t obj_id : objects) {
    ObjTable* table = FindTable(obj_id);
    if (table == nullptr) continue;
    std::lock_guard<std::mutex> g(table->mu);
    bool changed = false;
    for (Entry& e : table->entries) {
      if (e.owner == &child) {
        e.owner = parent;
        changed = true;
      }
    }
    // Ownership moved without the masks changing, so the mask-based wake
    // filter cannot see which waiters gained an ancestor exemption: wake
    // every parked request on this table (child commits are rare relative
    // to steps, and only the table's own waiters are touched).
    if (changed) {
      WakeWaitersLocked(*table, /*wake_all=*/true, nullptr);
    }
  }
  parent->MergeLockedObjects(objects);
}

namespace {
void CollectLockedObjects(rt::TxnNode& node, std::vector<uint32_t>& out) {
  node.AppendLockedObjects(out);
  for (auto& child : node.children()) CollectLockedObjects(*child, out);
}
}  // namespace

void LockManager::ReleaseSubtree(rt::TxnNode& root) {
  std::vector<uint32_t> touched;
  CollectLockedObjects(root, touched);
  for (uint32_t obj_id : touched) {
    ObjTable* table = FindTable(obj_id);
    if (table == nullptr) continue;
    std::lock_guard<std::mutex> g(table->mu);
    bool removed = false;
    for (auto it = table->entries.begin(); it != table->entries.end();) {
      if (it->owner->HasAncestorOrSelf(&root)) {
        NoteEntryRemovedLocked(*table, it->req);
        it = table->entries.erase(it);
        removed = true;
      } else {
        ++it;
      }
    }
    // Targeted wakeup: only requests whose conflict mask actually cleared
    // are signalled — commuting waiters (and waiters still blocked by other
    // holders) keep sleeping.
    if (removed && !table->waiters.empty()) {
      WakeWaitersLocked(*table, /*wake_all=*/false, nullptr);
    }
  }
}

size_t LockManager::LockCount() {
  size_t n = 0;
  const uint32_t limit = table_limit_.load(std::memory_order_acquire);
  for (uint32_t id = 0; id < limit; ++id) {
    ObjTable* table = FindTable(id);
    if (table == nullptr) {
      id |= kChunkSize - 1;  // whole chunk absent: skip it
      continue;
    }
    std::lock_guard<std::mutex> g(table->mu);
    n += table->entries.size();
  }
  std::lock_guard<std::mutex> g(chunk_alloc_mu_);
  for (auto& kv : overflow_tables_) {
    std::lock_guard<std::mutex> tg(kv.second.mu);
    n += kv.second.entries.size();
  }
  return n;
}

}  // namespace objectbase::cc
