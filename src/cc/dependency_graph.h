// Transaction registry with conflict-dependency tracking.
//
// Shared infrastructure for the non-blocking protocols (NTO, CERT, MIXED).
// The paper's model treats Abort as a local operation whose semantics
// require an aborted execution to leave no trace (Section 3, (a)).  With
// immediate updates that forces two mechanisms the registry provides:
//
//   * DOOMING / CASCADE — if transaction T applied a step conflicting-after
//     a step of U and U later aborts (undoing its effects), T's subsequent
//     behaviour may depend on state that never "happened"; T must abort too.
//   * COMMIT DEPENDENCIES — T may only commit once every transaction it
//     conflicted-after has committed (otherwise a later abort of that
//     transaction would have to cascade into a committed T, which is
//     unrecoverable).
//
// Edges U -> T ("T conflicted after U") always point from the earlier step's
// transaction to the later's.  Under NTO they follow timestamp order, so
// waiting always terminates; under CERT cycles are possible and are exactly
// serialisation cycles — ValidateAndWait detects them and vetoes the commit.
//
// Representation (this is the online pipeline's last shared registry, so it
// is built for the per-step hot path — see docs/dependency_graph.md):
//
//   * each active top-level transaction owns a pooled DENSE SLOT; its
//     status and doom bit are packed into one std::atomic word, so the
//     per-step doom poll is a single relaxed load — no mutex, no hashing
//     (the runtime caches the packed DepRef in TxnNode and in every
//     journal entry, so edge sources are addressed directly too);
//   * edges live in per-slot flat vectors behind per-slot (not global)
//     mutexes, with linear-scan dedup — the conflict-free path never
//     touches them;
//   * commit waiting is an outstanding-predecessor atomic counter plus a
//     striped condvar (predecessor finish notifies only the successor's
//     stripe — no global notify_all herd);
//   * finished slots retire incrementally the moment their recorded
//     successors have finished (the old Prune() cadence is gone); slot
//     generations make stale DepRefs inert.
#ifndef OBJECTBASE_CC_DEPENDENCY_GRAPH_H_
#define OBJECTBASE_CC_DEPENDENCY_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/cc/controller.h"

namespace objectbase::cc {

/// Process-wide count of mutex acquisitions inside DependencyGraph (all
/// instances).  Instrumentation for the lock-free acceptance invariant —
/// the conflict-free step path (doom poll, watermark read) must not move
/// it; see DependencyGraphTest.DoomPollAndWatermarkAreMutexFree.
std::atomic<uint64_t>& DepGraphMutexAcquisitions();

/// Packed handle to a registered top-level transaction: a dense slot index
/// (low 32 bits) plus the slot's generation (high 32 bits).  Slots are
/// recycled; the generation makes handles that outlive their transaction
/// harmlessly inert (every operation on a stale ref is a no-op that reads
/// one atomic word).  Raw value 0 is never a live handle.
class DepRef {
 public:
  DepRef() = default;

  bool valid() const { return raw_ != 0; }
  uint64_t raw() const { return raw_; }
  static DepRef FromRaw(uint64_t raw) {
    DepRef r;
    r.raw_ = raw;
    return r;
  }

  bool operator==(const DepRef& o) const { return raw_ == o.raw_; }

 private:
  friend class DependencyGraph;
  DepRef(uint32_t slot, uint32_t gen)
      : raw_((uint64_t{gen} << 32) | slot) {}
  uint32_t slot() const { return static_cast<uint32_t>(raw_); }
  uint32_t gen() const { return static_cast<uint32_t>(raw_ >> 32); }

  uint64_t raw_ = 0;
};

/// Thread-safe registry of top-level transactions and their conflict
/// dependencies.
class DependencyGraph {
 public:
  enum class Status { kFree = 0, kActive, kCommitting, kCommitted, kAborted };

  /// Outcome of a non-blocking commit probe (TryValidate): what
  /// ValidateAndWait would do right now, without blocking or changing
  /// state.  Exposed for the semantic-equivalence tests.
  enum class ProbeResult { kOk, kWouldWait, kDoomedVeto, kCycleVeto };

  DependencyGraph();
  ~DependencyGraph();

  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;

  /// Registers a new active top-level transaction and returns its handle.
  /// `counter` is its environment-issued serial number (the first hts
  /// component); the minimum active counter is the NTO garbage-collection
  /// watermark of Section 5.2.  One pool-mutex hit per transaction
  /// lifetime — never on the step path.
  DepRef Register(uint64_t top_uid, uint64_t counter);

  /// Records "to conflicted after from" (from must precede to in any
  /// serialisation).  Self-edges and stale handles are ignored; a stale
  /// `from` means that transaction finished and retired, which (for the
  /// in-protocol call sites) implies it committed — see the retirement
  /// soundness note in docs/dependency_graph.md.  `to` must be the
  /// caller's own (live) transaction.
  void AddDependency(DepRef from, DepRef to);

  /// True iff `t` has been doomed by a cascading abort.  One relaxed
  /// atomic load; the per-step poll of NTO/CERT/MIXED.  Doom is monotonic
  /// for a live transaction, so a stale false only delays the abort by one
  /// step.
  bool IsDoomed(DepRef t) const;

  /// Explicitly dooms a transaction (fault injection, validation).
  void Doom(DepRef t);

  /// Commit protocol: returns false with *reason set if the transaction is
  /// doomed or participates in a dependency cycle (validation failure).
  /// Otherwise blocks until all predecessors have committed and returns
  /// true.  The caller must then MarkCommitted() or MarkAborted().  A
  /// predecessor abort dooms this transaction (cascade) and surfaces as
  /// kDoomed.  Conflict-free transactions take a mutex-free fast path.
  bool ValidateAndWait(DepRef t, AbortReason* reason);

  /// Non-blocking probe of the commit decision (no state change, may take
  /// per-slot locks for the cycle check).  kWouldWait means ValidateAndWait
  /// would block on an unfinished predecessor.
  ProbeResult TryValidate(DepRef t);

  /// Marks the transaction committed, wakes waiting successors and retires
  /// every slot that became settled.
  void MarkCommitted(DepRef t);

  /// Marks the transaction aborted, dooms every unfinished transaction
  /// that conflicted after it, wakes waiters and retires settled slots.
  void MarkAborted(DepRef t);

  /// Front-runs MarkAborted's cascade: transitively dooms every unfinished
  /// transaction reachable through recorded successor edges, WITHOUT
  /// changing `t`'s status or settling anything.  The rebuild-based
  /// rollback calls this inside the object's apply-exclusive section so it
  /// can exclude doomed transactions' journal entries from the replay —
  /// re-applying a survivor whose outcome depended on the excised prefix
  /// would silently change the state (fuzz-found; see docs/journal.md,
  /// "Rebuild soundness").  Safe to over-approximate: dooming only ever
  /// causes aborts.
  void DoomSuccessorsTransitively(DepRef t);

  /// Top uids of `t`'s recorded predecessors that have not yet finished —
  /// the transactions a ValidateAndWait(t) would block on right now.  A
  /// composing layer (MIXED) feeds these to the lock manager's waits-for
  /// graph before blocking, so lock/commit-wait cycles are detectable.
  /// Per-slot locks only; safe to call from the committing thread (edges
  /// into t are recorded by t's own threads, so the set is stable here).
  std::vector<uint64_t> UnfinishedPredecessorUids(DepRef t) const;

  /// The smallest serial counter among active transactions, or UINT64_MAX
  /// when none are active.  NTO uses this to retire remembered steps.
  /// Lock-free scan of the (dense, peak-concurrency-sized) slot table.
  uint64_t MinActiveCounter() const;

  /// Registered transactions not yet retired (for E8's memory accounting
  /// and the retirement tests).  Lock-free scan.
  size_t TrackedCount() const;

 private:
  // Packed slot-state word: bits 0..2 status, bit 3 doomed, bits 32..63
  // generation.  All transitions are CAS loops (the doom bit can be set
  // concurrently by other transactions' aborts).
  static constexpr uint64_t kStatusMask = 0x7;
  static constexpr uint64_t kDoomBit = 0x8;
  static uint64_t MakeWord(uint32_t gen, Status st, bool doomed) {
    return (uint64_t{gen} << 32) | (doomed ? kDoomBit : 0) |
           static_cast<uint64_t>(st);
  }
  static uint32_t WordGen(uint64_t w) {
    return static_cast<uint32_t>(w >> 32);
  }
  static Status WordStatus(uint64_t w) {
    return static_cast<Status>(w & kStatusMask);
  }
  static bool WordDoomed(uint64_t w) { return (w & kDoomBit) != 0; }
  static bool StatusFinished(Status st) {
    return st == Status::kCommitted || st == Status::kAborted;
  }

  struct Slot {
    std::atomic<uint64_t> word{0};
    std::atomic<uint64_t> counter{UINT64_MAX};
    /// Unfinished predecessors (edges whose source was active/committing
    /// when recorded, minus sources that finished since).
    std::atomic<uint32_t> pending_preds{0};
    /// Guards preds/succs/top_uid and (with the CAS word) linearises
    /// status changes against edge recording.
    std::mutex edge_mu;
    uint64_t top_uid = 0;
    std::vector<uint64_t> preds;  ///< Packed DepRefs; appended only by the
                                  ///< owning transaction's own threads.
    std::vector<uint64_t> succs;  ///< Packed DepRefs; appended by anyone.
  };

  // Slots live in fixed-size chunks behind atomic pointers so lock-free
  // readers can index without coordinating with pool growth.
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // 64 slots
  static constexpr uint32_t kMaxChunks = 4096;  // 262144 concurrent txns
  struct Chunk {
    Slot slots[kChunkSize];
  };

  Slot& SlotAt(uint32_t idx) const {
    return chunks_[idx >> kChunkShift].load(std::memory_order_acquire)
        ->slots[idx & (kChunkSize - 1)];
  }

  struct WaitStripe {
    std::mutex mu;
    std::condition_variable cv;
  };
  static constexpr uint32_t kWaitStripes = 32;
  WaitStripe& StripeFor(uint32_t slot_idx) const {
    return wait_stripes_[slot_idx % kWaitStripes];
  }

  /// Wakes any committer waiting on `slot_idx` (empty lock/unlock of the
  /// stripe mutex orders the wake against the predicate check).
  void NotifySlot(uint32_t slot_idx);

  /// Sets the doom bit if the handle is live; returns true if it was set
  /// (or already set) on the live slot.
  bool DoomIfLive(DepRef t);

  /// True iff a recorded-edge cycle passes through `t`.  Snapshots the
  /// subgraph reachable from `t` (per-slot locks, one at a time) onto a
  /// flat model::Digraph over dense slot ids and DFSes it.
  bool HasCycleThrough(DepRef t) const;

  /// Retires the slot if it is finished and all recorded successors have
  /// finished; recycles it into the free pool under a bumped generation.
  void TryRetire(DepRef t);

  /// Rolls a failed validation back from kCommitting to kActive (keeping
  /// the doom bit); the runtime will abort the transaction next.
  void RevertToActive(DepRef t);

  /// Shared by MarkCommitted/MarkAborted: flips the status word, settles
  /// successors (decrement pending / doom on abort), then retires whatever
  /// became settled (this slot, and predecessors for which it was the last
  /// unfinished successor).
  void FinishInternal(DepRef t, Status final_status);

  mutable std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<uint32_t> slot_count_{0};  ///< Slots ever initialised.
  std::mutex pool_mu_;
  std::vector<uint32_t> free_slots_;
  mutable WaitStripe wait_stripes_[kWaitStripes];
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_DEPENDENCY_GRAPH_H_
