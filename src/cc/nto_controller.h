// Nested timestamp ordering (Reed's algorithm) — Section 5.2.
//
// Rule 1: conflicting local steps of incomparable executions must be
// processed in hierarchical-timestamp order — enforced by rejecting (and
// aborting) a step that conflicts with an already-processed step of an
// incomparable execution with a LARGER timestamp.
// Rule 2: ◁-ordered messages of one execution get increasing child
// timestamps — implemented by TxnNode::NextChildCounter().
//
// Granularities mirror Section 5.2's two implementations:
//   * kOperation — per-operation-class conflict tests against remembered
//     steps ("keep the maximum timestamp of any method execution that has
//     issued operation a"; we keep the recent entries rather than only the
//     max so that ancestor/descendant pairs — exempt from rule 1 — can be
//     recognised);
//   * kStep — provisional execution first, then conflict tests that see
//     the return value.
//
// Garbage collection (Section 5.2's "mechanism to forget"): entries whose
// top-level serial number precedes every active transaction's are retired
// (the active-watermark scheme in the text).  A journal fold threshold of 0
// disables it, to measure the memory cost (experiment E8).
//
// Recovery note (DESIGN.md substitution): Reed's system is multiversion;
// with our immediate updates an abort must cascade to transactions that
// conflicted after the aborted one.  The shared DependencyGraph implements
// dooming + commit dependencies; subtree aborts escalate to the top.
#ifndef OBJECTBASE_CC_NTO_CONTROLLER_H_
#define OBJECTBASE_CC_NTO_CONTROLLER_H_

#include "src/cc/controller.h"
#include "src/cc/dependency_graph.h"

namespace objectbase::rt {
class Recorder;
}  // namespace objectbase::rt

namespace objectbase::cc {

class NtoController : public Controller {
 public:
  /// `fold_threshold` is the journal-GC cadence: fold once the journal
  /// reaches it, every threshold/2 entries after.  0 disables folding (the
  /// E8 ablation) — tests also use it to pin the zero-journal-mutex steady
  /// state.
  NtoController(rt::Recorder& recorder, Granularity granularity,
                size_t fold_threshold = 64);

  const char* name() const override { return "NTO"; }

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

  /// Total remembered applied-step entries across `objects` (E8 metric).
  static size_t RememberedEntries(const std::vector<rt::Object*>& objects);

 private:
  rt::Recorder& recorder_;
  Granularity granularity_;
  size_t fold_threshold_;  ///< 0: never fold.
  DependencyGraph deps_;
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_NTO_CONTROLLER_H_
