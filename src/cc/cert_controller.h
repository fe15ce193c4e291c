// Optimistic inter-object certification — the Section 6 trade-off point.
//
// "There are techniques that resemble certifiers (or 'optimistic'
// schedulers) in conventional database concurrency control which favour
// (ii) [unrestricted intra-object synchronisation] at the expense of (i)
// [communication] — and the increased danger of scheduling errors
// requiring abortions."
//
// Objects apply operations immediately (serialised per object only by the
// apply mutex) and report every conflict between incomparable executions:
//   * cross-top-level conflicts become edges in the shared DependencyGraph;
//     a commit is certified only if the transaction lies on no dependency
//     cycle (Theorem 2 applied at commit time) and all its predecessors
//     committed;
//   * conflicts between incomparable executions INSIDE one top-level
//     transaction feed the per-top sibling graph, whose acyclicity is
//     Theorem 5's condition (b); a cycle vetoes the commit.
#ifndef OBJECTBASE_CC_CERT_CONTROLLER_H_
#define OBJECTBASE_CC_CERT_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/cc/controller.h"
#include "src/cc/dependency_graph.h"

namespace objectbase::rt {
class Recorder;
}  // namespace objectbase::rt

namespace objectbase::cc {

class WaitsForGraph;

/// Process-wide count of EXCLUSIVE state_mu acquisitions on the certifier's
/// step path (the *MutexAcquisitions invariant-counter style).  Recorded or
/// not, crabbing B-tree point ops must take the SHARED latch — the apply
/// order comes from the journal position reserved at the tree's internal
/// linearization point — so protocol_cert_test pins this counter's delta to
/// zero across such runs.  Exclusive applies (plain specs, exclusive_apply
/// scans) bump it.
std::atomic<uint64_t>& CertStepExclusiveAcquisitions();

class CertController : public Controller {
 public:
  /// `fold_threshold`: journal-GC cadence (fold at threshold, then every
  /// threshold/2 entries); 0 disables folding — tests use it to pin the
  /// zero-journal-mutex steady state.
  /// `journal_hts`: stamp each journal entry with the issuing node's hts
  /// snapshot.  Only MIXED sets it (its kTimestamp admission scan compares
  /// entry timestamps); plain CERT never reads them, so its entries carry
  /// just the top's serial and skip the snapshot's allocations.
  CertController(rt::Recorder& recorder, Granularity granularity,
                 size_t fold_threshold = 64, bool journal_hts = false);

  const char* name() const override { return "CERT"; }

  void OnTopBegin(rt::TxnNode& top) override;
  OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                         const adt::OpDescriptor& op,
                         const Args& args) override;
  void OnChildCommit(rt::TxnNode& child) override;
  bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) override;
  void OnAbort(rt::TxnNode& node) override;
  void OnTopFinished(rt::TxnNode& top) override;

  bool SupportsPartialAbort() const override { return false; }
  bool RollbackByRebuild() const override { return true; }

  DependencyGraph& deps() { return deps_; }

  /// MIXED only: durability commit-waits are declared in the composite
  /// lock manager's waits-for graph (see MixedController::AttachWal), the
  /// same visibility PR 5 gave the certifier's commit-waits.  Standalone
  /// CERT has no lock waits to compose with and leaves this null.
  void SetDurabilityWaitGraph(WaitsForGraph* wfg) { durability_wfg_ = wfg; }

  /// One intra-top conflict observation: the earlier and later execution's
  /// ancestor chains (self first).  Lifted to sibling edges at commit.
  struct SiblingEdge {
    std::vector<uint64_t> from_chain;
    std::vector<uint64_t> to_chain;
  };

  /// Appends `top_uid`'s buffered sibling observations to `out`.  The
  /// sharded commit path uses this to certify the UNION of a cross-shard
  /// top's per-shard sibling graphs (Theorem 5 condition (b) is a property
  /// of the whole transaction, not of any one shard's slice).
  void AppendSiblingEdges(uint64_t top_uid, std::vector<SiblingEdge>& out);

  /// Theorem 5 condition (b): lifts each observation to the pair of
  /// executions just below their least common ancestor and cycle-checks
  /// the resulting sibling graph.  Pure function of the edge list.
  static bool EdgesAcyclic(const std::vector<SiblingEdge>& edges);

 private:
  bool SiblingGraphAcyclic(uint64_t top_uid);

  // The sibling-edge buffer is striped by top uid so the certifier's last
  // global mutex scales with the topology: two tops only contend when they
  // hash to the same stripe, and a top's own appends are uncontended.
  static constexpr size_t kSiblingStripes = 16;
  struct SiblingStripe {
    std::mutex mu;
    std::map<uint64_t, std::vector<SiblingEdge>> edges;  // by top uid
  };
  SiblingStripe& StripeFor(uint64_t top_uid) {
    return sibling_stripes_[top_uid & (kSiblingStripes - 1)];
  }

  rt::Recorder& recorder_;
  Granularity granularity_;
  size_t fold_threshold_;
  bool journal_hts_;
  WaitsForGraph* durability_wfg_ = nullptr;
  DependencyGraph deps_;
  SiblingStripe sibling_stripes_[kSiblingStripes];
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_CERT_CONTROLLER_H_
