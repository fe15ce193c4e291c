// The Gemstone-style baseline: the Section 1 conservative reduction.
//
// "First, we shall view each object as a data item.  We shall treat a
// method invocation as a group of read or write operations on those data
// items ... Furthermore, we shall require that only one method execution
// can be active at each object at any one time.  With these restrictions,
// any conventional database concurrency control method ... can be
// employed.  This approach ... is, for example, the approach taken in the
// Gemstone project and product."
//
// Realisation: each top-level transaction takes a whole-object lock (held,
// strict-2PL style, until top-level completion) before touching an object —
// SHARED for a read-only operation, EXCLUSIVE otherwise, exactly the
// read/write item locks a conventional database 2PL scheduler would take
// under the reduction.  A transaction that read an object and later writes
// it upgrades shared -> exclusive (waiting out the other shared holders;
// mutual upgrades deadlock and one side is the victim).  Applications are
// serialised per object, so at most one method execution mutates an object
// at any time.  Deadlocks are detected on the waits-for graph.  This is
// the baseline every experiment compares against (E1, E6) — shared read
// locks keep it honest on read-heavy mixes.
#ifndef OBJECTBASE_CC_GEMSTONE_CONTROLLER_H_
#define OBJECTBASE_CC_GEMSTONE_CONTROLLER_H_

#include "src/cc/controller.h"
#include "src/cc/lock_manager.h"

namespace objectbase::rt {
class Recorder;
}  // namespace objectbase::rt

namespace objectbase::cc {

class GemstoneController : public Controller {
 public:
  explicit GemstoneController(rt::Recorder& recorder);

  const char* name() const override { return "GEMSTONE"; }

  void OnTopBegin(rt::TxnNode& top) override;
  OpOutcome ExecuteLocal(rt::TxnNode& txn, rt::Object& obj,
                         const adt::OpDescriptor& op,
                         const Args& args) override;
  void OnChildCommit(rt::TxnNode& child) override;
  bool OnTopCommit(rt::TxnNode& top, AbortReason* reason) override;
  void OnAbort(rt::TxnNode& node) override;
  void OnTopFinished(rt::TxnNode& top) override;

  /// Whole-object exclusive locks make intra-top visibility of an aborted
  /// sibling's effects possible (siblings never block each other), so child
  /// aborts escalate to the top like the optimistic protocols.
  bool SupportsPartialAbort() const override { return false; }

  LockManager& lock_manager() { return locks_; }

 private:
  rt::Recorder& recorder_;
  LockManager locks_;
};

}  // namespace objectbase::cc

#endif  // OBJECTBASE_CC_GEMSTONE_CONTROLLER_H_
