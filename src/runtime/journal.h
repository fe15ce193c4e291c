// AppliedJournal: the lock-free applied-step journal of an Object.
//
// NTO/CERT/MIXED remember every applied local step and scan those memories
// on EVERY subsequent step (rule 1's timestamp test, the certifier's
// conflict window, the rebuild-based rollback).  Until PR 5 the journal was
// a std::deque behind a per-object mutex — the last per-step mutex in the
// optimistic protocols.  This class replaces it with an append-mostly
// structure whose step path (append + scan) takes no mutex at all:
//
//   * entries live in fixed-size CHUNKS linked by atomic next pointers;
//     the position space is grow-only (a global `reserved_` counter);
//   * appenders reserve a position with one fetch_add, fill the entry in
//     place and PUBLISH it with a release store of its ready flag.  Appends
//     happen inside the object's apply critical section (state_mu held at
//     least shared), so on exclusive-apply objects the journal order is
//     exactly the application order — the property the recorded oracle and
//     the rebuild path rely on;
//   * readers walk a consistent [folded, reserved) window with ZERO locks:
//     a Scan pins the journal (one atomic increment), snapshots the window
//     and spins briefly on any entry that is reserved but not yet published
//     (publication is a handful of field moves away — no locks, no waits);
//   * FoldPrefix-style GC retires whole chunks: entries below the fold
//     frontier are applied to the object's base state, the chunks are
//     unlinked, parked in limbo and released only once the journal has
//     been observed with no pinned readers after the unlink — so a scanner
//     that raced the fold keeps dereferencing valid memory (its stale view
//     is semantically "the scan ran before the fold").  Released chunks go
//     to a Retired handle, so the caller can free them after it drops the
//     object's latch;
//   * per-op-class CONFLICT INDICES: one append-only list of entry pointers
//     per OpId.  A conflict scan for op X visits only the lists of ops that
//     conflict with X instead of the whole window.  The lists are complete
//     exactly when the scanner holds the object's apply serialisation
//     exclusively (appends happen inside that critical section); scanners
//     that hold it shared — or not at all — fall back to the dense window
//     walk, which is always sound (see ForEachConflicting).
//
// Locking contract (the caller is the Object, which owns a state_mu):
//   * Append: caller holds the apply critical section (shared suffices).
//   * Fold / MarkSubtreeAborted / ReplayLive / Reset: caller holds the
//     apply serialisation EXCLUSIVELY (no concurrent appenders).  Lock-free
//     scans may still run concurrently with all of these.
//   * Scan: no lock required, ever.
//   * Retired (the chunks a Fold released): no lock; destroying it frees
//     them.  Object::FoldPrefix destroys it after dropping state_mu, and
//     runs at most one fold per object at a time (a step that finds a
//     fold in flight skips its own).
//
// The only mutex left is fold_mu_, serialising fold bookkeeping (limbo,
// the release decision) against itself; every acquisition bumps
// JournalMutexAcquisitions() — exactly one per Fold — so tests can pin the
// acceptance invariant: ZERO journal-mutex acquisitions on the
// steady-state step path (see docs/journal.md).
#ifndef OBJECTBASE_RUNTIME_JOURNAL_H_
#define OBJECTBASE_RUNTIME_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/adt/adt.h"
#include "src/cc/hts.h"
#include "src/common/value.h"

namespace objectbase::rt {

/// Process-wide count of mutex acquisitions inside AppliedJournal (all
/// instances) — the sibling of cc::DepGraphMutexAcquisitions and
/// cc::LockTableMutexAcquisitions.  Only fold/GC bookkeeping ever locks;
/// append and scan are lock-free, pinned by StepPathTakesNoJournalMutex in
/// the NTO/CERT protocol tests.
std::atomic<uint64_t>& JournalMutexAcquisitions();

/// One applied step, built by the protocol and moved into the journal.
/// (The in-place Entry adds the publication/abort atomics.)
struct JournalRecord {
  uint64_t seq = 0;       ///< Global apply sequence number.
  uint64_t exec_uid = 0;  ///< Issuing method execution.
  uint64_t top_uid = 0;   ///< Its top-level ancestor.
  uint64_t dep = 0;       ///< Packed cc::DepRef of the top's registry slot.
  /// The top's serial number (its hts().top_component(), also its registry
  /// serial): the fold key Fold compares against the watermark.
  uint64_t top_serial = 0;
  std::shared_ptr<const std::vector<uint64_t>> chain;  ///< self..top uids.
  /// The issuing node's hts snapshot, for protocols whose scans compare
  /// timestamps (NTO, MIXED's kTimestamp policy).  Plain CERT never reads
  /// it and leaves it null.
  std::shared_ptr<const cc::Hts> hts;
  adt::OpId op_id = adt::kNoOp;
  Args args;
  Value ret;
};

class AppliedJournal {
 public:
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // 64 entries

  /// One remembered applied step (NTO's per-operation timestamp memory,
  /// the certifier's conflict window, the rollback journal).  Identity is
  /// carried by uids/chains; lifetime is the containing chunk's.
  struct Entry {
    uint64_t pos = 0;  ///< Journal position (the serialisation order key).
    uint64_t seq = 0;
    uint64_t exec_uid = 0;
    uint64_t top_uid = 0;
    uint64_t dep = 0;
    uint64_t top_serial = 0;  ///< Fold key (see JournalRecord).
    std::shared_ptr<const std::vector<uint64_t>> chain;
    std::shared_ptr<const cc::Hts> hts;  ///< May be null (see JournalRecord).
    adt::OpId op_id = adt::kNoOp;
    Args args;
    Value ret;
    /// Set (with the abort-marking/edge-recording recheck protocol of
    /// docs/journal.md) when the issuing subtree aborts; excluded from the
    /// object's real history and from rebuilds.
    std::atomic<bool> aborted{false};
    /// Publication flag: fields above are immutable once this is set.
    std::atomic<bool> ready{false};

    bool IsAborted() const { return aborted.load(std::memory_order_acquire); }

    /// True iff the recording execution and `other_chain`'s execution are
    /// incomparable (neither uid appears in the other's chain).  O(1): the
    /// packed ancestor stamps (top_uid + chain length == depth) decide it
    /// with one compare in the cross-top case and one indexed probe within
    /// a top — no chain walk on the conflict-scan path.
    bool IncomparableWith(const std::vector<uint64_t>& other_chain) const;
  };

  explicit AppliedJournal(size_t num_ops);
  ~AppliedJournal();

  AppliedJournal(const AppliedJournal&) = delete;
  AppliedJournal& operator=(const AppliedJournal&) = delete;

  /// Appends one applied step; returns its journal position.  Caller must
  /// be inside the object's apply critical section (shared suffices; the
  /// publish protocol handles concurrent appenders from concurrent-apply
  /// objects).  Lock-free.  Equivalent to Reserve() + PublishAt().
  uint64_t Append(JournalRecord&& r);

  /// Splits Append for callers whose position must be drawn at an earlier
  /// instant than the record is filled — the apply-order hook reserves the
  /// position inside the ADT's internal linearization point (the B-tree's
  /// terminal leaf latch) and the controller publishes after apply()
  /// returns.  The reserving thread MUST PublishAt(pos) promptly while
  /// still inside the apply critical section: scanners WaitReady-spin on
  /// reserved-but-unpublished entries, and exclusive scans (which require
  /// every entry below reserved_ published) only run once appenders have
  /// left the critical section.
  uint64_t Reserve() {
    return reserved_.fetch_add(1, std::memory_order_acq_rel);
  }
  void PublishAt(uint64_t pos, JournalRecord&& r);

  /// Live entries: reserved - folded (includes aborted entries, matching
  /// the old deque's size()).  Lock-free; the per-step GC cadence poll.
  size_t LiveCount() const {
    const uint64_t f = folded_.load(std::memory_order_relaxed);
    const uint64_t t = reserved_.load(std::memory_order_relaxed);
    return static_cast<size_t>(t - f);
  }

  /// The shared fold-cadence poll (NTO/CERT/MIXED): the first fold fires
  /// once the live window reaches `threshold` entries; afterwards the poll
  /// is ADAPTIVE — each Fold with a rearm base schedules the next firing a
  /// growth-scaled number of APPENDS ahead (see Fold), so a fast-growing
  /// journal folds in larger batches (fewer fold_mu_ hits per entry) and a
  /// stuck watermark stops re-firing every threshold/2 steps the way the
  /// old modulo cadence did.  0 disables folding outright — the poll then
  /// returns false from the first branch and touches NOTHING else (the
  /// fold=0 zero-journal-mutex pin relies on this).  Lock-free (at most
  /// two relaxed loads).
  bool WantsFold(size_t threshold) const {
    if (threshold == 0) return false;
    const uint64_t at = next_fold_at_.load(std::memory_order_relaxed);
    if (at != 0) return reserved_.load(std::memory_order_relaxed) >= at;
    return LiveCount() >= threshold;
  }

  /// The append-count target the adaptive cadence armed (0 = not armed
  /// yet; observability for the cadence tests).
  uint64_t NextFoldAt() const {
    return next_fold_at_.load(std::memory_order_relaxed);
  }

 private:
  struct EntryChunk {
    explicit EntryChunk(uint64_t b) : base(b) {}
    const uint64_t base;
    std::atomic<EntryChunk*> next{nullptr};
    Entry entries[kChunkSize];
  };

  /// Per-op-class conflict index: an append-only chunked list of pointers
  /// to this op's entries, in append order (== position order whenever the
  /// object applies exclusively).  first_live_ advances at fold so scans
  /// and the index-vs-dense heuristic skip the retired prefix.
  ///
  /// Each slot carries the entry's POSITION alongside the pointer
  /// (published first; the release store of the pointer makes it visible).
  /// Walkers filter on the slot-held position and only dereference the
  /// pointer for positions at or above the walk's fold snapshot — under
  /// concurrent shared-latch appenders the index can be slightly out of
  /// position order, so a stale slot may sit BEYOND the first_live stall
  /// point with its pointee's chunk already retired; reading pos through
  /// the pointer there would be a use-after-free.
  struct PosChunk {
    explicit PosChunk(uint64_t b) : base(b) {}
    const uint64_t base;
    std::atomic<PosChunk*> next{nullptr};
    std::atomic<uint64_t> slot_pos[kChunkSize] = {};  // pos + 1; 0 = empty
    std::atomic<const Entry*> slots[kChunkSize] = {};
  };
  struct PosList {
    std::atomic<PosChunk*> head{nullptr};       // oldest linked chunk
    std::atomic<PosChunk*> tail_hint{nullptr};  // newest known chunk
    std::atomic<uint64_t> count{0};             // slots ever reserved
    std::atomic<uint64_t> first_live{0};        // slots folded away
    PosChunk* limbo = nullptr;  // oldest unlinked chunk (see limbo_)

    size_t LiveCount() const {
      const uint64_t f = first_live.load(std::memory_order_relaxed);
      const uint64_t c = count.load(std::memory_order_relaxed);
      return static_cast<size_t>(c - f);
    }

    /// Visits published candidates with pos in [lo, hi); returns false if
    /// `fn` stopped the scan.  Complete only for exclusive callers (see
    /// Scan::ForEachConflicting); unpublished slots are skipped — they
    /// belong to concurrent appenders an exclusive caller cannot have.
    /// The [lo, hi) filter uses the slot-held position; the entry pointer
    /// is only dereferenced once pos >= lo proves its chunk alive (lo is
    /// at or above the caller's pinned fold snapshot — see PosChunk).
    template <typename Fn>
    bool ForEach(uint64_t lo, uint64_t hi, Fn&& fn) const {
      const PosChunk* c = head.load(std::memory_order_seq_cst);
      if (c == nullptr) return true;
      const uint64_t f = first_live.load(std::memory_order_acquire);
      const uint64_t n = count.load(std::memory_order_acquire);
      for (uint64_t i = f < c->base ? c->base : f; i < n; ++i) {
        while (c != nullptr && i >= c->base + kChunkSize) {
          c = c->next.load(std::memory_order_acquire);
        }
        if (c == nullptr) return true;
        const Entry* e = c->slots[i - c->base].load(std::memory_order_acquire);
        if (e == nullptr) continue;
        const uint64_t pos =
            c->slot_pos[i - c->base].load(std::memory_order_relaxed) - 1;
        if (pos < lo || pos >= hi) continue;
        if (!fn(*e)) return false;
      }
      return true;
    }
  };

  static void WaitReady(const Entry& e) {
    // Publication is a few noexcept moves behind the reservation; spin.
    for (int i = 0; !e.ready.load(std::memory_order_acquire); ++i) {
      if (i > 64) std::this_thread::yield();
    }
  }

 public:
  /// A pinned, consistent view of the journal window.  Constructing one is
  /// a single atomic increment; while it lives, no chunk it can reach is
  /// freed.  Safe without any object lock (the MIXED timestamp pre-scan).
  class Scan {
   public:
    explicit Scan(const AppliedJournal& j)
        : j_(j) {
      // Pin BEFORE snapshotting: a folder that later observes zero pinned
      // readers can only have done so after ~Scan, and a folder that
      // already freed chunks did so after refreshing head_, which this
      // seq_cst load then cannot miss (see docs/journal.md).
      j.readers_.fetch_add(1, std::memory_order_seq_cst);
      head_ = j.head_.load(std::memory_order_seq_cst);
      begin_ = j.folded_.load(std::memory_order_acquire);
      if (begin_ < head_->base) begin_ = head_->base;  // adopt a racing fold
      end_ = j.reserved_.load(std::memory_order_acquire);
    }
    ~Scan() { j_.readers_.fetch_sub(1, std::memory_order_release); }

    Scan(const Scan&) = delete;
    Scan& operator=(const Scan&) = delete;

    uint64_t begin_pos() const { return begin_; }
    uint64_t end_pos() const { return end_; }

    /// Visits every published entry in [begin_pos, limit) in position
    /// order (aborted entries included — callers filter).  Spins briefly
    /// on reserved-but-unpublished entries: their appenders are a few
    /// stores from publication and hold no locks.  `fn(const Entry&)`
    /// returns false to stop early.
    template <typename Fn>
    void ForEachLive(uint64_t limit, Fn&& fn) const {
      const EntryChunk* c = head_;
      for (uint64_t pos = begin_; pos < limit && pos < end_; ++pos) {
        while (c != nullptr && pos >= c->base + kChunkSize) {
          c = c->next.load(std::memory_order_acquire);
        }
        if (c == nullptr) return;  // racing fold retired the remainder
        const Entry& e = c->entries[pos - c->base];
        WaitReady(e);
        if (!fn(e)) return;
      }
    }

    /// Visits the entries of [begin_pos, limit) whose op id is in `row`
    /// (the caller's conflict row — see Object::ConflictRowFor).  With
    /// `exclusive` set the caller asserts it holds the object's apply
    /// serialisation exclusively; the per-op conflict indices are then
    /// complete (every earlier appender has left the apply critical
    /// section) and the scan visits only candidate entries, unordered.
    /// Without it the scan degrades to the dense ordered walk with a
    /// conflict-row test per entry — always sound.  Uses the index only
    /// when the candidate count undercuts the window.
    template <typename Fn>
    void ForEachConflicting(const std::vector<adt::OpId>& row, uint64_t limit,
                            bool exclusive, Fn&& fn) const {
      const uint64_t hi = limit < end_ ? limit : end_;
      if (hi <= begin_) return;
      if (exclusive && UseIndex(row, hi - begin_)) {
        for (adt::OpId op : row) {
          if (!j_.lists_[op].ForEach(begin_, hi, fn)) return;
        }
        return;
      }
      ForEachLive(hi, [&](const Entry& e) {
        for (adt::OpId op : row) {
          if (e.op_id == op) return fn(e);
        }
        return true;
      });
    }

   private:
    bool UseIndex(const std::vector<adt::OpId>& row, uint64_t window) const {
      uint64_t candidates = 0;
      for (adt::OpId op : row) candidates += j_.lists_[op].LiveCount();
      return candidates < window / 2;
    }

    const AppliedJournal& j_;
    const EntryChunk* head_;
    uint64_t begin_ = 0;
    uint64_t end_ = 0;
  };

  /// The chunks one Fold released from limbo: no reader can reach them any
  /// more, so destroying the handle frees them, on whatever thread and
  /// under whatever latches the owner then holds.  Object::FoldPrefix
  /// keeps it past its exclusive latch, so the frees — each chunk's
  /// entries own blocks allocated on the appending threads — stay off the
  /// step path's critical section.
  class Retired {
   public:
    Retired() = default;
    ~Retired();
    Retired(const Retired&) = delete;
    Retired& operator=(const Retired&) = delete;

   private:
    friend class AppliedJournal;
    EntryChunk* chunks_ = nullptr;   // null-terminated chain
    PosChunk* pos_chunks_ = nullptr;  // null-terminated chain
  };

  // --- exclusive maintenance (caller holds the apply serialisation) -------

  /// Marks every live entry issued by the subtree rooted at
  /// `subtree_root_uid` aborted; returns whether any was.
  bool MarkSubtreeAborted(uint64_t subtree_root_uid);

  /// Visits every live non-aborted entry in order (the rebuild replay).
  template <typename Fn>
  void ReplayLive(Fn&& fn) const {
    const EntryChunk* c = head_.load(std::memory_order_acquire);
    const uint64_t lo = folded_.load(std::memory_order_acquire);
    const uint64_t hi = reserved_.load(std::memory_order_acquire);
    for (uint64_t pos = lo < c->base ? c->base : lo; pos < hi; ++pos) {
      while (pos >= c->base + kChunkSize) {
        c = c->next.load(std::memory_order_acquire);
      }
      const Entry& e = c->entries[pos - c->base];
      if (!e.aborted.load(std::memory_order_relaxed)) fn(e);
    }
  }

  /// Folds the maximal prefix whose top-level serial number (the entries'
  /// top_serial) is below `watermark`: calls `apply` on each non-aborted
  /// folded entry (in order), advances the fold frontier, retires
  /// fully-folded chunks and releases whatever limbo the pinned readers
  /// have let go.  Released chunks move into `*retired` when given (the
  /// caller frees them by destroying it); without one they are freed
  /// before Fold returns.  Returns entries folded.  Takes fold_mu_ once
  /// (counted by JournalMutexAcquisitions) — the journal's only mutex.
  ///
  /// `rearm_base` != 0 arms the adaptive cadence: the next WantsFold firing
  /// is scheduled clamp(growth/2, base/2, 8*base) APPENDS from now, where
  /// growth is the number of appends since the previous fold.  Arming
  /// happens even when nothing folded (stuck watermark) — that is exactly
  /// the case the fixed modulo cadence kept re-locking for.  0 keeps the
  /// legacy behaviour for direct callers (tests, recovery).
  template <typename Fn>
  size_t Fold(uint64_t watermark, Fn&& apply, size_t rearm_base = 0,
              Retired* retired = nullptr) {
    JournalMutexAcquisitions().fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(fold_mu_);
    Retired freed_here;  // destroyed before the guard: frees under fold_mu_
    const uint64_t hi = reserved_.load(std::memory_order_acquire);
    uint64_t pos = folded_.load(std::memory_order_relaxed);
    const EntryChunk* c = head_.load(std::memory_order_relaxed);
    size_t folded = 0;
    while (pos < hi) {
      while (pos >= c->base + kChunkSize) {
        c = c->next.load(std::memory_order_acquire);
      }
      const Entry& e = c->entries[pos - c->base];
      if (e.top_serial >= watermark) break;
      if (!e.aborted.load(std::memory_order_relaxed)) apply(e);
      ++pos;
      ++folded;
    }
    if (folded != 0) AdvanceFolded(pos);
    ReleaseLimbo(retired != nullptr ? *retired : freed_here);
    if (rearm_base != 0) {
      const uint64_t growth = hi - last_fold_reserved_;
      last_fold_reserved_ = hi;
      uint64_t cadence = growth / 2;
      uint64_t lo_clamp = static_cast<uint64_t>(rearm_base) / 2;
      if (lo_clamp == 0) lo_clamp = 1;
      const uint64_t hi_clamp = static_cast<uint64_t>(rearm_base) * 8;
      if (cadence < lo_clamp) cadence = lo_clamp;
      if (cadence > hi_clamp) cadence = hi_clamp;
      next_fold_at_.store(hi + cadence, std::memory_order_relaxed);
    }
    return folded;
  }

  /// Drops everything (between workload runs).  Caller must guarantee full
  /// quiescence: no appender, scanner or folder anywhere.
  void Reset();

  // --- observability (tests, docs/journal.md experiments) -----------------

  uint64_t reserved() const {
    return reserved_.load(std::memory_order_acquire);
  }
  uint64_t folded() const { return folded_.load(std::memory_order_acquire); }
  /// Chunks unlinked but not yet released (readers were pinned).
  size_t LimboChunks() const;
  /// Chunks released from limbo (the retirement path is live).
  uint64_t FreedChunks() const {
    return freed_chunks_.load(std::memory_order_relaxed);
  }
  /// Live entries indexed under `op` (index maintenance probe).
  size_t IndexLiveCount(adt::OpId op) const {
    return lists_[op].LiveCount();
  }

 private:
  /// Chunk lookup/extension for position `pos`, walking forward from the
  /// tail hint.  Lock-free (CAS linking; the loser frees its chunk).
  EntryChunk* ChunkFor(uint64_t pos);
  /// Same for a conflict-index list.
  PosChunk* PosChunkFor(PosList& list, uint64_t idx);

  /// Publishes the fold frontier, unlinks fully-folded chunks (journal and
  /// index) into limbo and refreshes the hints.  Caller holds fold_mu_ and
  /// the object's apply serialisation (no concurrent appenders).
  void AdvanceFolded(uint64_t new_folded);
  /// Moves the limbo chunks into `out` if no reader has been pinned since
  /// they were unlinked.  Caller holds fold_mu_.
  void ReleaseLimbo(Retired& out);
  /// Deletes every chunk, live and limbo (destructor and Reset).
  void FreeAllChunks();

  const size_t num_ops_;
  std::unique_ptr<PosList[]> lists_;  // one per OpId

  std::atomic<uint64_t> reserved_{0};
  std::atomic<uint64_t> folded_{0};
  std::atomic<EntryChunk*> head_;       // oldest linked chunk (seq_cst)
  std::atomic<EntryChunk*> tail_hint_;  // newest known chunk

  mutable std::atomic<uint32_t> readers_{0};  // pinned Scan count

  /// Adaptive fold cadence: the reserved_ value at which WantsFold next
  /// fires (0 = unarmed, fall back to the live-count threshold test).
  /// Written under fold_mu_, read relaxed on the step-path poll.
  std::atomic<uint64_t> next_fold_at_{0};
  uint64_t last_fold_reserved_ = 0;  // guarded by fold_mu_

  /// Fold bookkeeping only — never on the append/scan path.  Counted.
  std::mutex fold_mu_;
  /// Limbo (guarded by fold_mu_): chunks are unlinked strictly from the
  /// head, so the unlinked-but-possibly-still-read ones are exactly the
  /// run from limbo_ to head_ along the untouched next pointers (likewise
  /// PosList::limbo to its list's head).  nullptr = empty; no container,
  /// so a fold allocates nothing.
  EntryChunk* limbo_ = nullptr;
  size_t limbo_chunks_ = 0;  // journal and index chunks in limbo
  std::atomic<uint64_t> freed_chunks_{0};
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_JOURNAL_H_
