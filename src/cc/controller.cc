#include "src/cc/controller.h"

#include <algorithm>
#include <vector>

#include "src/cc/dependency_graph.h"
#include "src/runtime/object.h"
#include "src/runtime/txn.h"

namespace objectbase::cc {

uint64_t Controller::DepHandleOf(const rt::TxnNode& top) const {
  return top.dep_handle_for(shard_slot_);
}

void Controller::SetDepHandle(rt::TxnNode& top, uint64_t raw) const {
  top.set_dep_handle_for(shard_slot_, raw);
}

namespace {

void CollectObjects(rt::TxnNode& node, uint32_t shard,
                    std::vector<rt::Object*>& out) {
  for (const rt::UndoRecord& u : node.undo_log()) {
    if (u.object->shard() == shard &&
        std::find(out.begin(), out.end(), u.object) == out.end()) {
      out.push_back(u.object);
    }
  }
  for (auto& child : node.children()) CollectObjects(*child, shard, out);
}

}  // namespace

void Controller::AbortAndRebuild(rt::TxnNode& node,
                                 DependencyGraph& deps) const {
  // Marking precedes MarkAborted, which the lock-free scans' recheck
  // protocol relies on; the rebuild front-runs the doom cascade and
  // excludes doomed transactions' entries (rebuild soundness — see
  // Object::AbortEntriesAndRebuild and docs/journal.md).  Journal entries
  // on this shard's objects carry this shard's DepRefs, so the cascade
  // runs where the successors' edges live.
  std::vector<rt::Object*> touched;
  CollectObjects(node, shard_slot_, touched);
  const DepRef top_ref = DepRef::FromRaw(DepHandleOf(*node.top()));
  for (rt::Object* obj : touched) {
    obj->AbortEntriesAndRebuild(
        node.uid(), [&] { deps.DoomSuccessorsTransitively(top_ref); },
        [&](uint64_t dep_raw) {
          return deps.IsDoomed(DepRef::FromRaw(dep_raw));
        });
  }
  if (node.parent() == nullptr) deps.MarkAborted(top_ref);
}

}  // namespace objectbase::cc
