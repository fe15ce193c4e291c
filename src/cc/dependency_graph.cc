#include "src/cc/dependency_graph.h"

#include <algorithm>
#include <new>

#include "src/model/serialisation_graph.h"

namespace objectbase::cc {

const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kDeadlock: return "deadlock";
    case AbortReason::kTimestampOrder: return "timestamp-order";
    case AbortReason::kValidation: return "validation";
    case AbortReason::kCascade: return "cascade";
    case AbortReason::kDoomed: return "doomed";
    case AbortReason::kUser: return "user";
    case AbortReason::kInjected: return "injected";
    case AbortReason::kWounded: return "wounded";
    case AbortReason::kCommitTimeout: return "commit-timeout";
  }
  return "?";
}

std::atomic<uint64_t>& DepGraphMutexAcquisitions() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

namespace {

/// Every mutex acquisition in this file goes through here, so the
/// lock-free acceptance tests can assert the hot paths never lock.
std::mutex& CountLock(std::mutex& m) {
  DepGraphMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
  return m;
}

bool Contains(const std::vector<uint64_t>& v, uint64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

DependencyGraph::DependencyGraph() = default;

DependencyGraph::~DependencyGraph() {
  for (auto& c : chunks_) {
    delete c.load(std::memory_order_relaxed);
  }
}

DepRef DependencyGraph::Register(uint64_t top_uid, uint64_t counter) {
  uint32_t idx;
  {
    std::lock_guard<std::mutex> g(CountLock(pool_mu_));
    if (!free_slots_.empty()) {
      idx = free_slots_.back();
      free_slots_.pop_back();
    } else {
      idx = slot_count_.load(std::memory_order_relaxed);
      const uint32_t chunk = idx >> kChunkShift;
      if (chunk >= kMaxChunks) throw std::bad_alloc();
      if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
        chunks_[chunk].store(new Chunk, std::memory_order_release);
      }
      slot_count_.store(idx + 1, std::memory_order_release);
    }
  }
  Slot& s = SlotAt(idx);
  // The free word carries the generation the next incarnation must use
  // (bumped at retirement); 0 only on a never-used slot.
  uint32_t gen = WordGen(s.word.load(std::memory_order_relaxed));
  if (gen == 0) gen = 1;
  {
    // Fends off a stale-handle reader that still holds edge_mu while
    // checking (and failing) its generation test.
    std::lock_guard<std::mutex> g(CountLock(s.edge_mu));
    s.top_uid = top_uid;
    s.preds.clear();
    s.succs.clear();
  }
  s.pending_preds.store(0, std::memory_order_relaxed);
  s.counter.store(counter, std::memory_order_relaxed);
  s.word.store(MakeWord(gen, Status::kActive, false),
               std::memory_order_release);
  return DepRef(idx, gen);
}

void DependencyGraph::AddDependency(DepRef from, DepRef to) {
  if (!from.valid() || !to.valid() || from.raw() == to.raw()) return;
  Slot& f = SlotAt(from.slot());
  // A stale handle means `from` finished and retired; for the protocol
  // call sites that implies it committed OR that its abort marking is
  // already visible: aborts mark the journal entry before MarkAborted
  // runs, the retirement's generation bump release-publishes that
  // marking, and the lock-free scans RE-CHECK the entry's aborted flag
  // after recording the edge (the recheck protocol of docs/journal.md).
  // So treating a stale `from` as an inert committed predecessor is
  // sound.  This is the common case when scanning a journal full of
  // settled writers, so bail out before the lock; the generation is
  // monotonic, making the unlocked test conservative only.
  if (WordGen(f.word.load(std::memory_order_acquire)) != from.gen()) return;
  bool doom_to = false;
  {
    std::lock_guard<std::mutex> g(CountLock(f.edge_mu));
    const uint64_t w = f.word.load(std::memory_order_relaxed);
    if (WordGen(w) != from.gen()) return;  // retired while we raced here
    const Status st = WordStatus(w);
    if (st == Status::kAborted) {
      // A dependency on an already-aborted transaction dooms the successor
      // immediately: it observed state that has been undone.
      doom_to = true;
    } else {
      if (Contains(f.succs, to.raw())) return;  // duplicate edge
      if (!StatusFinished(st)) {
        // Commit dependency: `to` must wait for this transaction.  Count
        // BEFORE the edge becomes visible (both under f.edge_mu, which the
        // finish-scan also takes), so a decrement can never precede its
        // increment.
        SlotAt(to.slot()).pending_preds.fetch_add(1,
                                                  std::memory_order_acq_rel);
      }
      // Committed predecessors are inert for waiting, but cycle detection
      // still wants the edge, so it is recorded either way.
      f.succs.push_back(to.raw());
    }
  }
  if (doom_to) {
    if (DoomIfLive(to)) NotifySlot(to.slot());
    return;
  }
  Slot& t = SlotAt(to.slot());
  {
    std::lock_guard<std::mutex> g(CountLock(t.edge_mu));
    if (WordGen(t.word.load(std::memory_order_relaxed)) == to.gen() &&
        !Contains(t.preds, from.raw())) {
      t.preds.push_back(from.raw());
    }
  }
}

bool DependencyGraph::IsDoomed(DepRef t) const {
  if (!t.valid()) return false;
  const uint64_t w = SlotAt(t.slot()).word.load(std::memory_order_relaxed);
  return WordGen(w) == t.gen() && WordDoomed(w);
}

bool DependencyGraph::DoomIfLive(DepRef t) {
  if (!t.valid()) return false;
  Slot& s = SlotAt(t.slot());
  uint64_t w = s.word.load(std::memory_order_relaxed);
  for (;;) {
    if (WordGen(w) != t.gen()) return false;
    if (WordDoomed(w)) return true;
    if (s.word.compare_exchange_weak(w, w | kDoomBit,
                                     std::memory_order_acq_rel)) {
      return true;
    }
  }
}

void DependencyGraph::Doom(DepRef t) {
  if (DoomIfLive(t)) NotifySlot(t.slot());
}

void DependencyGraph::NotifySlot(uint32_t slot_idx) {
  WaitStripe& ws = StripeFor(slot_idx);
  // The empty critical section orders this wake against a waiter that has
  // checked the predicate but not yet slept (the predicate itself is
  // atomic and was updated before we got here).
  { std::lock_guard<std::mutex> g(CountLock(ws.mu)); }
  ws.cv.notify_all();
}

bool DependencyGraph::HasCycleThrough(DepRef t) const {
  Slot& s = SlotAt(t.slot());
  // In-edges are appended only by the owning transaction's own threads,
  // which have all joined by commit time, so preds is stable here and a
  // cycle through `t` needs at least one in-edge: the conflict-free fast
  // path exits without touching any lock.
  if (s.preds.empty()) return false;
  const uint32_t n = slot_count_.load(std::memory_order_acquire);
  // Snapshot the subgraph reachable from `t` onto a flat Digraph over
  // dense slot ids (one per-slot lock at a time — never nested), then ask
  // whether `t` lies on a cycle.  Edges recorded concurrently with this
  // walk may be missed; that linearises exactly like the old global-mutex
  // registry when the edge landed just after validation, and the LAST
  // validator of any cycle starts after every edge of the cycle was
  // recorded, so a genuine cycle is always caught by someone.
  model::Digraph g(n);
  std::vector<uint64_t> work;
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint64_t> succs_scratch;
  work.push_back(t.raw());
  seen[t.slot()] = 1;
  while (!work.empty()) {
    const DepRef v = DepRef::FromRaw(work.back());
    work.pop_back();
    Slot& vs = SlotAt(v.slot());
    succs_scratch.clear();
    {
      std::lock_guard<std::mutex> g2(CountLock(vs.edge_mu));
      if (WordGen(vs.word.load(std::memory_order_relaxed)) != v.gen()) {
        continue;  // retired while queued: its edges are gone with it
      }
      succs_scratch.assign(vs.succs.begin(), vs.succs.end());
    }
    for (uint64_t raw : succs_scratch) {
      const DepRef w = DepRef::FromRaw(raw);
      // A successor slot created after `n` was sampled is a concurrently
      // registered transaction; its edge is concurrently recorded, which
      // this walk is already allowed to miss — and it must not index the
      // n-sized scratch below.
      if (w.slot() >= n) continue;
      const uint64_t ww = SlotAt(w.slot()).word.load(std::memory_order_acquire);
      if (WordGen(ww) != w.gen()) continue;  // retired successor: inert
      g.AddEdge(v.slot(), w.slot());
      if (!seen[w.slot()]) {
        seen[w.slot()] = 1;
        work.push_back(raw);
      }
    }
  }
  return g.OnCycle(t.slot());
}

DependencyGraph::ProbeResult DependencyGraph::TryValidate(DepRef t) {
  if (!t.valid()) return ProbeResult::kOk;
  Slot& s = SlotAt(t.slot());
  const uint64_t w = s.word.load(std::memory_order_acquire);
  if (WordGen(w) != t.gen()) return ProbeResult::kOk;  // untracked
  if (WordDoomed(w)) return ProbeResult::kDoomedVeto;
  if (HasCycleThrough(t)) return ProbeResult::kCycleVeto;
  if (s.pending_preds.load(std::memory_order_acquire) != 0) {
    return ProbeResult::kWouldWait;
  }
  return ProbeResult::kOk;
}

bool DependencyGraph::ValidateAndWait(DepRef t, AbortReason* reason) {
  *reason = AbortReason::kNone;
  if (!t.valid()) return true;  // untracked (recording-disabled edge case)
  Slot& s = SlotAt(t.slot());
  uint64_t w = s.word.load(std::memory_order_acquire);
  for (;;) {
    if (WordGen(w) != t.gen()) return true;  // untracked
    if (WordDoomed(w)) {
      *reason = AbortReason::kDoomed;
      return false;
    }
    const Status st = WordStatus(w);
    if (st == Status::kCommitting) break;  // re-validation
    if (st != Status::kActive) return true;  // defensive
    if (s.word.compare_exchange_weak(
            w, MakeWord(t.gen(), Status::kCommitting, false),
            std::memory_order_acq_rel)) {
      break;
    }
  }
  if (HasCycleThrough(t)) {
    RevertToActive(t);
    *reason = AbortReason::kValidation;
    return false;
  }
  if (s.pending_preds.load(std::memory_order_acquire) != 0) {
    WaitStripe& ws = StripeFor(t.slot());
    std::unique_lock<std::mutex> lk(CountLock(ws.mu));
    ws.cv.wait(lk, [&] {
      return s.pending_preds.load(std::memory_order_acquire) == 0 ||
             WordDoomed(s.word.load(std::memory_order_relaxed));
    });
  }
  if (WordDoomed(s.word.load(std::memory_order_acquire))) {
    RevertToActive(t);
    *reason = AbortReason::kDoomed;
    return false;
  }
  return true;
}

void DependencyGraph::RevertToActive(DepRef t) {
  Slot& s = SlotAt(t.slot());
  uint64_t w = s.word.load(std::memory_order_relaxed);
  for (;;) {
    if (WordGen(w) != t.gen()) return;
    if (WordStatus(w) != Status::kCommitting) return;
    if (s.word.compare_exchange_weak(
            w, MakeWord(t.gen(), Status::kActive, WordDoomed(w)),
            std::memory_order_acq_rel)) {
      return;
    }
  }
}

void DependencyGraph::FinishInternal(DepRef t, Status final_status) {
  if (!t.valid()) return;
  Slot& s = SlotAt(t.slot());
  std::vector<uint64_t> succs_copy;
  std::vector<uint64_t> preds_copy;
  {
    std::lock_guard<std::mutex> g(CountLock(s.edge_mu));
    uint64_t w = s.word.load(std::memory_order_relaxed);
    if (WordGen(w) != t.gen()) return;
    if (StatusFinished(WordStatus(w))) return;  // already finished
    for (;;) {
      // Preserve a concurrently-set doom bit (irrelevant once finished,
      // but IsDoomed may still be polled by a racing stale reader).
      const uint64_t nw = MakeWord(t.gen(), final_status, WordDoomed(w));
      if (s.word.compare_exchange_weak(w, nw, std::memory_order_acq_rel)) {
        break;
      }
    }
    // Edges appended after this point see a finished source (AddDependency
    // checks status under edge_mu), so this copy is exactly the set of
    // counted commit dependencies.
    succs_copy = s.succs;
    preds_copy = s.preds;
  }
  // Settle successors: a commit releases their commit dependency; an abort
  // additionally dooms every unfinished one (Section 3(a) cascade).
  for (uint64_t raw : succs_copy) {
    const DepRef sr = DepRef::FromRaw(raw);
    Slot& ts = SlotAt(sr.slot());
    bool notify = false;
    {
      std::lock_guard<std::mutex> g(CountLock(ts.edge_mu));
      uint64_t w = ts.word.load(std::memory_order_relaxed);
      if (WordGen(w) != sr.gen()) continue;  // successor already retired
      if (final_status == Status::kAborted &&
          !StatusFinished(WordStatus(w))) {
        while (!(w & kDoomBit) &&
               !ts.word.compare_exchange_weak(w, w | kDoomBit,
                                              std::memory_order_acq_rel)) {
        }
        notify = true;
      }
      // The generation check under ts.edge_mu (which retirement also
      // holds) guarantees this decrement hits the incarnation the edge
      // was counted against.
      if (ts.pending_preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        notify = true;
      }
    }
    if (notify) NotifySlot(sr.slot());
  }
  // Incremental retirement (replaces the old Prune() cadence): this slot
  // may now be settled, and this transaction may have been the last
  // unfinished successor blocking one of its predecessors.
  TryRetire(t);
  for (uint64_t raw : preds_copy) TryRetire(DepRef::FromRaw(raw));
}

void DependencyGraph::MarkCommitted(DepRef t) {
  FinishInternal(t, Status::kCommitted);
}

void DependencyGraph::MarkAborted(DepRef t) {
  FinishInternal(t, Status::kAborted);
}

void DependencyGraph::TryRetire(DepRef t) {
  if (!t.valid()) return;
  Slot& s = SlotAt(t.slot());
  bool recycle = false;
  {
    std::lock_guard<std::mutex> g(CountLock(s.edge_mu));
    const uint64_t w = s.word.load(std::memory_order_relaxed);
    if (WordGen(w) != t.gen()) return;  // already retired
    if (!StatusFinished(WordStatus(w))) return;
    for (uint64_t raw : s.succs) {
      const DepRef sr = DepRef::FromRaw(raw);
      const uint64_t sw =
          SlotAt(sr.slot()).word.load(std::memory_order_acquire);
      if (WordGen(sw) != sr.gen()) continue;  // retired, hence finished
      if (!StatusFinished(WordStatus(sw))) return;  // still live: keep us
    }
    // Settled: no active transaction can ever consult this slot again
    // through a live edge.  Recycle under a bumped generation.
    s.preds.clear();
    s.succs.clear();
    s.top_uid = 0;
    s.counter.store(UINT64_MAX, std::memory_order_relaxed);
    s.word.store(MakeWord(t.gen() + 1, Status::kFree, false),
                 std::memory_order_release);
    recycle = true;
  }
  if (recycle) {
    std::lock_guard<std::mutex> g(CountLock(pool_mu_));
    free_slots_.push_back(t.slot());
  }
}

void DependencyGraph::DoomSuccessorsTransitively(DepRef t) {
  if (!t.valid()) return;
  std::vector<uint64_t> work{t.raw()};
  std::vector<uint64_t> visited;  // CERT edges can form cycles
  while (!work.empty()) {
    const DepRef cur = DepRef::FromRaw(work.back());
    work.pop_back();
    Slot& s = SlotAt(cur.slot());
    std::vector<uint64_t> succs;
    {
      std::lock_guard<std::mutex> g(CountLock(s.edge_mu));
      if (WordGen(s.word.load(std::memory_order_relaxed)) != cur.gen()) {
        continue;  // retired: its cascade already ran at its finish
      }
      succs = s.succs;
    }
    for (uint64_t raw : succs) {
      if (Contains(visited, raw)) continue;
      visited.push_back(raw);
      const DepRef sr = DepRef::FromRaw(raw);
      if (DoomIfLive(sr)) {
        NotifySlot(sr.slot());
        work.push_back(raw);
      }
    }
  }
}

std::vector<uint64_t> DependencyGraph::UnfinishedPredecessorUids(
    DepRef t) const {
  std::vector<uint64_t> uids;
  if (!t.valid()) return uids;
  Slot& s = SlotAt(t.slot());
  std::vector<uint64_t> preds;
  {
    std::lock_guard<std::mutex> g(CountLock(s.edge_mu));
    if (WordGen(s.word.load(std::memory_order_relaxed)) != t.gen()) {
      return uids;
    }
    preds = s.preds;
  }
  for (uint64_t raw : preds) {
    const DepRef p = DepRef::FromRaw(raw);
    Slot& ps = SlotAt(p.slot());
    std::lock_guard<std::mutex> g(CountLock(ps.edge_mu));
    const uint64_t w = ps.word.load(std::memory_order_relaxed);
    if (WordGen(w) != p.gen()) continue;  // retired => finished long ago
    if (StatusFinished(WordStatus(w))) continue;
    uids.push_back(ps.top_uid);
  }
  return uids;
}

uint64_t DependencyGraph::MinActiveCounter() const {
  // Lock-free scan over the dense slot table (sized by peak concurrency,
  // not history).  Callers are themselves registered active transactions,
  // so the result is bounded by the caller's own counter and any
  // concurrently-registering transaction's (strictly larger) counter
  // cannot be folded early — see docs/dependency_graph.md.
  uint64_t min = UINT64_MAX;
  const uint32_t n = slot_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    const Slot& s = SlotAt(i);
    const uint64_t w = s.word.load(std::memory_order_acquire);
    const Status st = WordStatus(w);
    if (st == Status::kActive || st == Status::kCommitting) {
      const uint64_t c = s.counter.load(std::memory_order_acquire);
      if (c < min) min = c;
    }
  }
  return min;
}

size_t DependencyGraph::TrackedCount() const {
  size_t count = 0;
  const uint32_t n = slot_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    if (WordStatus(SlotAt(i).word.load(std::memory_order_acquire)) !=
        Status::kFree) {
      ++count;
    }
  }
  return count;
}

}  // namespace objectbase::cc
