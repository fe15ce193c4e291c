// ShardedController: shard-aware routing over per-shard protocol instances.
//
// Partitioning (docs/sharding.md): objects are assigned to shards by id
// (rt::ShardedBase; a plain rt::ObjectBase is one shard), and each shard
// owns a COMPLETE controller stack — its own protocol instance,
// DependencyGraph, LockManager and (when durability is on) WAL.  The
// Executor always composes its shards under this layer.  A local step
// routes to its object's shard and runs that shard's protocol; nothing a
// single-shard transaction does synchronises across shards.
//
// Soundness under Theorem 5: each shard's controller keeps its own slice
// locally serialisable (condition (a)) — sharding only partitions which
// instance watches which object.  What needs
// new machinery is the INTER-shard order (condition (b) lifted to the
// serialisation graph over top-level transactions):
//
//   * every top registers EAGERLY in every shard's DependencyGraph at
//     OnTopBegin (TxnNode::EnableShardHandles), so each shard's
//     MinActiveCounter watermark — the journal-fold / NTO-GC cadence — is
//     globally correct with no cross-shard protocol at GC time;
//   * a SINGLE-shard top commits through its home shard's controller
//     unchanged; the other shards' registrations are edge-free (no step ran
//     there) and are settled with a trivial MarkCommitted;
//   * a CROSS-shard top serialises via two-phase commit-wait: certify the
//     UNION of its per-shard sibling graphs (condition (b) is a property of
//     the whole transaction), then poll every touched shard's registry
//     (TryValidate) until each shard independently certifies — all
//     predecessors committed, no dependency cycle.  Only when every shard
//     answers kOk does the commit proceed (ValidateAndWait per shard, now
//     non-blocking: the predecessor sets are frozen — edges into a top are
//     recorded only by its own threads, which are done).  A global
//     serialisation cycle always surfaces: its per-shard projection either
//     contains a local cycle (a shard vetoes), or it threads through
//     several shards' edges — then every transaction on it is stuck
//     waiting, and (i) cycles among cross-shard committers are detected
//     structurally by the commit registry below, (ii) anything else trips
//     the bounded poll budget and aborts kCommitTimeout (conservative: a
//     timeout may abort a merely-slow transaction, never commit a cyclic
//     one — hence not kDeadlock, since no cycle was seen).
//
// Cross-shard commit registry: each cross-shard top publishes its
// unfinished-predecessor set before polling.  A cycle restricted to
// registered members (T waits on U, U waits on T, possibly through more
// registered members) is exactly a cross-shard serialisation cycle none of
// the per-shard graphs can see whole; the second registrant detects it and
// aborts, the cascade dooms the rest.  Cycles through SINGLE-shard tops
// need no registry entry: a single-shard top's commit blocks inside its
// home shard's ValidateAndWait, and the cross-shard member of the cycle
// (any cycle spanning shards has one — an edge on shard S needs both
// endpoints to have stepped on S) resolves it via its poll budget.
//
// Aborts and child commits fan out to every shard's controller, which runs
// its protocol's own rule on its own state: locks release and pass to the
// parent per shard (each manager owns only its tables), and rebuild-based
// rollback rebuilds the shard's own objects against ITS registry (journal
// entries carry per-shard DepRefs).  A top-level abort settles the
// registration on every shard.
//
// Wound-wait: under MIXED each shard's lock manager wounds through a hook
// that dooms the victim in EVERY shard's registry — a cross-shard victim may be parked
// in any shard's commit-wait (or in the cross-shard poll), and a doom is
// the one signal all of those observe.
//
// Durability: a cross-shard top stages one commit marker per touched
// shard's log, each carrying the touched-shard bitmask, and MarkCommitted
// is DELAYED until every marker is durable — per-log watermark prefix
// closure then extends to the cross-log atomicity rule (recovery commits a
// masked top only if every named log holds its marker; see
// rt::RecoverShardedWalInto).
#ifndef OBJECTBASE_CC_SHARDED_CONTROLLER_H_
#define OBJECTBASE_CC_SHARDED_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/cc/cert_controller.h"
#include "src/cc/controller.h"
#include "src/cc/dependency_graph.h"
#include "src/cc/lock_manager.h"

namespace objectbase::rt {
class WalWriter;
}  // namespace objectbase::rt

namespace objectbase::cc {

class ShardedController final : public Controller {
 public:
  /// One shard's controller stack.  `controller` owns the instance; the
  /// raw pointers are non-owning views into it (or the Executor's per-shard
  /// WAL), null where the protocol has no such component.
  struct Shard {
    std::unique_ptr<Controller> controller;
    CertController* cert = nullptr;   ///< kCert / kMixed
    DependencyGraph* deps = nullptr;  ///< kNto / kCert / kMixed
    LockManager* locks = nullptr;     ///< kN2pl / kGemstone / kMixed
    rt::WalWriter* wal = nullptr;     ///< durability != kNone
  };

  /// `shards` must be non-empty; every entry must already be bound to its
  /// slot (Controller::BindShardSlot) and, for the locking protocols, share
  /// one waits-for graph (LockManager::ShareWaitsForGraph).  Where a shard
  /// has both a lock manager and a registry (MIXED), the constructor sets
  /// the manager's wound hook to the all-shards doom (see the header note).
  explicit ShardedController(std::vector<Shard> shards);

  const char* name() const override { return shards_[0].controller->name(); }
  bool SupportsPartialAbort() const override {
    return shards_[0].controller->SupportsPartialAbort();
  }
  bool RollbackByRebuild() const override {
    return shards_[0].controller->RollbackByRebuild();
  }

  void OnTopBegin(rt::TxnNode& top) override;
  OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                         const adt::OpDescriptor& op,
                         const Args& args) override;
  void OnChildCommit(rt::TxnNode& child) override;
  bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) override;
  void OnAbort(rt::TxnNode& node) override;
  void OnTopFinished(rt::TxnNode& top) override;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  Shard& shard(uint32_t s) { return shards_[s]; }

  /// Cross-shard commit-wait poll budget (µs); after it, the committer
  /// aborts kCommitTimeout (the conservative multi-hop cycle resolution).
  /// Tests shrink it to keep constructed-cycle runs fast.
  void SetCommitPollBudgetUs(uint64_t us) { poll_budget_us_ = us; }

  // --- observability (bench/tests) -----------------------------------------
  uint64_t cross_shard_commits() const {
    return cross_shard_commits_.load(std::memory_order_relaxed);
  }
  uint64_t cross_shard_cycle_aborts() const {
    return cross_cycle_aborts_.load(std::memory_order_relaxed);
  }
  uint64_t commit_poll_timeouts() const {
    return poll_timeouts_.load(std::memory_order_relaxed);
  }

 private:
  /// The two-phase commit-wait of a top whose footprint spans >1 shard.
  bool CommitCrossShard(rt::TxnNode& top, uint64_t touched,
                        AbortReason* reason);
  /// Settles the edge-free registrations on every shard but `home`.
  void FinishOthers(rt::TxnNode& top, uint32_t home);

  /// Published waits of in-flight cross-shard committers (uid -> unfinished
  /// predecessor top uids).  RegisterAndCheck inserts and then DFSes the
  /// registered members; finding a path back to `uid` is a cross-shard
  /// commit-wait cycle (see the header note) — the caller unregisters and
  /// aborts, and its MarkAborted dooms the cycle's other members via the
  /// normal cascade.  One mutex, held only by cross-shard committers —
  /// never on the single-shard path.
  struct CommitRegistry {
    std::mutex mu;
    std::map<uint64_t, std::vector<uint64_t>> waits;

    bool RegisterAndCheck(uint64_t uid, const std::vector<uint64_t>& preds);
    void Unregister(uint64_t uid);
  };

  std::vector<Shard> shards_;
  CommitRegistry registry_;
  uint64_t poll_budget_us_ = 100'000;
  std::atomic<uint64_t> cross_shard_commits_{0};
  std::atomic<uint64_t> cross_cycle_aborts_{0};
  std::atomic<uint64_t> poll_timeouts_{0};
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_SHARDED_CONTROLLER_H_
