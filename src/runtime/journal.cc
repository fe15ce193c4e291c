#include "src/runtime/journal.h"

#include <algorithm>

namespace objectbase::rt {

std::atomic<uint64_t>& JournalMutexAcquisitions() {
  static std::atomic<uint64_t> acquisitions{0};
  return acquisitions;
}

bool AppliedJournal::Entry::IncomparableWith(
    const std::vector<uint64_t>& other_chain) const {
  // O(1) kin test via the packed ancestor stamps every entry already
  // carries (top_uid + the chain length, which encodes depth).  The
  // overwhelmingly common case — different top-level transactions — is a
  // single compare; the conflict scans call this per candidate entry, so
  // the old two-sided std::find walk was O(depth) on the hottest loop of
  // the optimistic protocols (it survives as the reference in
  // tests/contention_policy_test.cc).
  if (other_chain.empty()) return true;
  if (top_uid != other_chain.back()) return true;
  // Same top: comparable iff the shallower execution is an ancestor of (or
  // is) the deeper one.  A chain lists self..top, so the ancestor of the
  // deeper execution at the shallower one's depth sits at a fixed index —
  // one probe replaces the walk.
  const size_t mine = chain->size();
  const size_t theirs = other_chain.size();
  if (mine <= theirs) {
    return other_chain[theirs - mine] != exec_uid;
  }
  return (*chain)[mine - theirs] != other_chain.front();
}

AppliedJournal::AppliedJournal(size_t num_ops)
    : num_ops_(num_ops),
      lists_(std::make_unique<PosList[]>(num_ops)),
      head_(new EntryChunk(0)),
      tail_hint_(head_.load(std::memory_order_relaxed)) {}

namespace {

// Chunk chains (journal and index chunks alike) are linked by `next`.

template <typename Chunk>
void FreeChain(Chunk* c) {
  while (c != nullptr) {
    Chunk* next = c->next.load(std::memory_order_relaxed);
    delete c;
    c = next;
  }
}

// Moves the limbo run [limbo, live) onto the front of the chain `out`.
// Only once no reader can reach limbo: it rewrites the run's last link.
template <typename Chunk>
void SpliceLimbo(Chunk*& limbo, const Chunk* live, Chunk*& out) {
  if (limbo == nullptr) return;
  Chunk* last = limbo;
  while (last->next.load(std::memory_order_relaxed) != live) {
    last = last->next.load(std::memory_order_relaxed);
  }
  last->next.store(out, std::memory_order_relaxed);
  out = limbo;
  limbo = nullptr;
}

}  // namespace

AppliedJournal::~AppliedJournal() { FreeAllChunks(); }

AppliedJournal::Retired::~Retired() {
  FreeChain(chunks_);
  FreeChain(pos_chunks_);
}

void AppliedJournal::FreeAllChunks() {
  // Quiescent by contract.  A non-empty limbo still chains into the live
  // chunks, so each walk starts at the oldest chunk either way.
  FreeChain(limbo_ != nullptr ? limbo_
                              : head_.load(std::memory_order_relaxed));
  limbo_ = nullptr;
  for (size_t op = 0; op < num_ops_; ++op) {
    PosList& list = lists_[op];
    FreeChain(list.limbo != nullptr
                  ? list.limbo
                  : list.head.load(std::memory_order_relaxed));
    list.limbo = nullptr;
  }
  limbo_chunks_ = 0;
}

AppliedJournal::EntryChunk* AppliedJournal::ChunkFor(uint64_t pos) {
  const uint64_t base = pos & ~uint64_t{kChunkSize - 1};
  // The hint is never unlinked while an appender runs: appends and folds
  // are mutually excluded by the object's apply serialisation, and a fold
  // refreshes the hint before freeing anything (ReleaseLimbo runs under
  // the same exclusion).
  EntryChunk* c = tail_hint_.load(std::memory_order_seq_cst);
  while (c->base != base) {
    if (c->base > base) {
      // A racing appender advanced the hint past us; restart from head.
      c = head_.load(std::memory_order_seq_cst);
      continue;
    }
    EntryChunk* next = c->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      auto* fresh = new EntryChunk(c->base + kChunkSize);
      if (c->next.compare_exchange_strong(next, fresh,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
        next = fresh;
      } else {
        delete fresh;  // the racing appender linked first
      }
    }
    c = next;
  }
  // Advance the hint monotonically (best effort — a stale hint only costs
  // the next appender a short walk).  Acquire on every read: a racing
  // appender may have just published the chunk we compare against.
  EntryChunk* hint = tail_hint_.load(std::memory_order_acquire);
  while (hint->base < c->base &&
         !tail_hint_.compare_exchange_weak(hint, c,
                                           std::memory_order_seq_cst,
                                           std::memory_order_acquire)) {
  }
  return c;
}

AppliedJournal::PosChunk* AppliedJournal::PosChunkFor(PosList& list,
                                                      uint64_t idx) {
  const uint64_t base = idx & ~uint64_t{kChunkSize - 1};
  PosChunk* c = list.tail_hint.load(std::memory_order_seq_cst);
  if (c == nullptr) {
    auto* fresh = new PosChunk(0);
    PosChunk* expected = nullptr;
    if (list.head.compare_exchange_strong(expected, fresh,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
      list.tail_hint.store(fresh, std::memory_order_seq_cst);
      c = fresh;
    } else {
      delete fresh;
      c = expected;
    }
  }
  while (c->base != base) {
    if (c->base > base) {
      c = list.head.load(std::memory_order_seq_cst);
      continue;
    }
    PosChunk* next = c->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      auto* fresh = new PosChunk(c->base + kChunkSize);
      if (c->next.compare_exchange_strong(next, fresh,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
        next = fresh;
      } else {
        delete fresh;
      }
    }
    c = next;
  }
  PosChunk* hint = list.tail_hint.load(std::memory_order_acquire);
  while ((hint == nullptr || hint->base < c->base) &&
         !list.tail_hint.compare_exchange_weak(hint, c,
                                               std::memory_order_seq_cst,
                                               std::memory_order_acquire)) {
  }
  return c;
}

uint64_t AppliedJournal::Append(JournalRecord&& r) {
  const uint64_t pos = Reserve();
  PublishAt(pos, std::move(r));
  return pos;
}

void AppliedJournal::PublishAt(uint64_t pos, JournalRecord&& r) {
  EntryChunk* c = ChunkFor(pos);
  Entry& e = c->entries[pos - c->base];
  e.pos = pos;
  e.seq = r.seq;
  e.exec_uid = r.exec_uid;
  e.top_uid = r.top_uid;
  e.dep = r.dep;
  e.top_serial = r.top_serial;
  e.chain = std::move(r.chain);
  e.hts = std::move(r.hts);
  e.op_id = r.op_id;
  e.args = std::move(r.args);
  e.ret = std::move(r.ret);
  e.aborted.store(false, std::memory_order_relaxed);
  e.ready.store(true, std::memory_order_release);
  // Index the entry under its op class.  Release-published after the entry
  // itself; an exclusive scanner sees both (the appender left the apply
  // critical section), a concurrent advisory scanner skips nulls.
  PosList& list = lists_[e.op_id];
  const uint64_t idx = list.count.fetch_add(1, std::memory_order_acq_rel);
  PosChunk* pc = PosChunkFor(list, idx);
  // Position first (the pointer's release store publishes it): walkers
  // filter on the slot-held position so they never dereference a pointer
  // whose chunk may have retired (see PosChunk in the header).
  pc->slot_pos[idx - pc->base].store(pos + 1, std::memory_order_relaxed);
  pc->slots[idx - pc->base].store(&e, std::memory_order_release);
}

bool AppliedJournal::MarkSubtreeAborted(uint64_t subtree_root_uid) {
  bool any = false;
  EntryChunk* c = head_.load(std::memory_order_acquire);
  const uint64_t lo =
      std::max(folded_.load(std::memory_order_acquire), c->base);
  const uint64_t hi = reserved_.load(std::memory_order_acquire);
  for (uint64_t pos = lo; pos < hi; ++pos) {
    while (pos >= c->base + kChunkSize) {
      c = c->next.load(std::memory_order_acquire);
    }
    // Exclusive caller: every entry below `reserved_` is published.
    Entry& e = c->entries[pos - c->base];
    if (e.aborted.load(std::memory_order_relaxed)) continue;
    if (std::find(e.chain->begin(), e.chain->end(), subtree_root_uid) !=
        e.chain->end()) {
      e.aborted.store(true, std::memory_order_release);
      any = true;
    }
  }
  return any;
}

void AppliedJournal::AdvanceFolded(uint64_t new_folded) {
  folded_.store(new_folded, std::memory_order_seq_cst);
  // Unlink journal chunks that now lie fully below the frontier.  Never
  // unlink the tail-most chunk: the append hint must stay linked.
  EntryChunk* c = head_.load(std::memory_order_relaxed);
  while (c->base + kChunkSize <= new_folded &&
         c->next.load(std::memory_order_acquire) != nullptr) {
    EntryChunk* next = c->next.load(std::memory_order_acquire);
    head_.store(next, std::memory_order_seq_cst);
    if (limbo_ == nullptr) limbo_ = c;
    ++limbo_chunks_;
    c = next;
  }
  // Refresh the append hint if it points into limbo (possible only when
  // everything up to the tail chunk folded).
  EntryChunk* hint = tail_hint_.load(std::memory_order_relaxed);
  if (hint->base < c->base) {
    tail_hint_.store(c, std::memory_order_seq_cst);
  }
  // Advance each conflict index past its folded prefix and retire its
  // fully-stale chunks the same way.  The walk reads the slot-held
  // positions, never the entries: under shared-latch appenders the index
  // can be slightly out of position order, so a slot past the stall point
  // may reference an entry whose chunk retired in an earlier fold —
  // harmless as long as nobody dereferences it (ForEach filters the same
  // way).
  for (size_t op = 0; op < num_ops_; ++op) {
    PosList& list = lists_[op];
    PosChunk* pc = list.head.load(std::memory_order_relaxed);
    if (pc == nullptr) continue;
    uint64_t i = std::max(list.first_live.load(std::memory_order_relaxed),
                          pc->base);
    const uint64_t n = list.count.load(std::memory_order_acquire);
    while (i < n) {
      while (i >= pc->base + kChunkSize) {
        pc = pc->next.load(std::memory_order_acquire);
      }
      const uint64_t pos_plus1 =
          pc->slot_pos[i - pc->base].load(std::memory_order_acquire);
      if (pos_plus1 == 0 || pos_plus1 - 1 >= new_folded) break;
      ++i;
    }
    list.first_live.store(i, std::memory_order_release);
    PosChunk* lc = list.head.load(std::memory_order_relaxed);
    while (lc->base + kChunkSize <= i &&
           lc->next.load(std::memory_order_acquire) != nullptr) {
      PosChunk* next = lc->next.load(std::memory_order_acquire);
      list.head.store(next, std::memory_order_seq_cst);
      if (list.limbo == nullptr) list.limbo = lc;
      ++limbo_chunks_;
      lc = next;
    }
    PosChunk* lhint = list.tail_hint.load(std::memory_order_relaxed);
    if (lhint != nullptr && lhint->base < lc->base) {
      list.tail_hint.store(lc, std::memory_order_seq_cst);
    }
  }
}

void AppliedJournal::ReleaseLimbo(Retired& out) {
  if (limbo_chunks_ == 0) return;
  // Safe iff no reader is pinned NOW: pins precede head snapshots, so any
  // reader pinned after this observation reads the refreshed heads and can
  // never reach a limbo chunk; any reader that could is pinned and makes
  // the count non-zero.  (Both sides seq_cst — see docs/journal.md.)
  if (readers_.load(std::memory_order_seq_cst) != 0) return;
  freed_chunks_.fetch_add(limbo_chunks_, std::memory_order_relaxed);
  limbo_chunks_ = 0;
  // Nobody can reach limbo any more, so its links are ours to rewrite.
  SpliceLimbo(limbo_, head_.load(std::memory_order_relaxed), out.chunks_);
  for (size_t op = 0; op < num_ops_; ++op) {
    PosList& list = lists_[op];
    SpliceLimbo(list.limbo, list.head.load(std::memory_order_relaxed),
                out.pos_chunks_);
  }
}

size_t AppliedJournal::LimboChunks() const {
  JournalMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(const_cast<std::mutex&>(fold_mu_));
  return limbo_chunks_;
}

void AppliedJournal::Reset() {
  JournalMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(fold_mu_);
  FreeAllChunks();
  for (size_t op = 0; op < num_ops_; ++op) {
    PosList& list = lists_[op];
    list.head.store(nullptr, std::memory_order_relaxed);
    list.tail_hint.store(nullptr, std::memory_order_relaxed);
    list.count.store(0, std::memory_order_relaxed);
    list.first_live.store(0, std::memory_order_relaxed);
  }
  auto* fresh = new EntryChunk(0);
  head_.store(fresh, std::memory_order_relaxed);
  tail_hint_.store(fresh, std::memory_order_relaxed);
  reserved_.store(0, std::memory_order_relaxed);
  folded_.store(0, std::memory_order_relaxed);
  next_fold_at_.store(0, std::memory_order_relaxed);
  last_fold_reserved_ = 0;
}

}  // namespace objectbase::rt
