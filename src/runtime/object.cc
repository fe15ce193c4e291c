#include "src/runtime/object.h"

#include <algorithm>

namespace objectbase::rt {

Object::Object(uint32_t id, std::string name,
               std::shared_ptr<const adt::AdtSpec> spec)
    : id_(id),
      name_(std::move(name)),
      spec_(std::move(spec)),
      state_(spec_->MakeInitialState()),
      base_state_(spec_->MakeInitialState()),
      journal_(std::make_unique<AppliedJournal>(spec_->NumOps())) {
  // Precompute the conflict-matrix rows the journal scans filter with.
  const size_t n = spec_->NumOps();
  conflict_rows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (spec_->OpConflictsById(static_cast<adt::OpId>(i),
                                 static_cast<adt::OpId>(j))) {
        conflict_rows_[i].push_back(static_cast<adt::OpId>(j));
      }
    }
  }
}

Object::~Object() {
  LockTableCacheNode* n = lock_table_cache_.load(std::memory_order_acquire);
  while (n != nullptr) {
    LockTableCacheNode* next = n->next;
    delete n;
    n = next;
  }
}

void Object::CacheLockTable(uint64_t manager_id, void* table) {
  auto* node = new LockTableCacheNode{manager_id, table, nullptr};
  LockTableCacheNode* head = lock_table_cache_.load(std::memory_order_acquire);
  for (;;) {
    // Re-probe under the current head: a racing caller for the same manager
    // may have published already (both would have resolved the same table,
    // but keep the list duplicate-free).
    for (const LockTableCacheNode* n = head; n != nullptr; n = n->next) {
      if (n->manager_id == manager_id) {
        delete node;
        return;
      }
    }
    node->next = head;
    if (lock_table_cache_.compare_exchange_weak(head, node,
                                                std::memory_order_release,
                                                std::memory_order_acquire)) {
      return;
    }
  }
}

void Object::ResetState() {
  state_ = spec_->MakeInitialState();
  base_state_ = spec_->MakeInitialState();
  apply_stamp_.store(0, std::memory_order_relaxed);
  journal_->Reset();
}

void Object::AbortEntriesAndRebuild(
    uint64_t subtree_root_uid, const std::function<void()>& doom_dependents,
    const std::function<bool(uint64_t dep_raw)>& exclude_dep) {
  std::lock_guard<std::shared_mutex> guard(state_mu_);
  if (!journal_->MarkSubtreeAborted(subtree_root_uid)) return;
  // Doom every dependent transaction BEFORE replaying (see the header
  // note): the doom pass runs under this object's exclusive latch, so any
  // step that observed the excised effects has already recorded its edge —
  // and any step after us sees the corrected state.
  if (doom_dependents) doom_dependents();
  // Rebuild: base + surviving journal entries in application order,
  // excluding entries of doomed transactions — a survivor whose outcome
  // depended on the excised prefix is always doomed by the pass above, and
  // re-applying it would not reproduce its recorded step.  Read-only
  // entries are skipped: their apply leaves the state unchanged (the
  // OpDescriptor::read_only contract).
  auto rebuilt = base_state_->Clone();
  journal_->ReplayLive([&](const AppliedJournal::Entry& e) {
    const adt::OpDescriptor& op = spec_->OpAt(e.op_id);
    if (op.read_only || (exclude_dep && exclude_dep(e.dep))) return;
    op.apply(*rebuilt, e.args);
  });
  state_ = std::move(rebuilt);
}

Value Object::ApplyRedo(adt::OpId op, const Args& args) {
  std::lock_guard<std::shared_mutex> guard(state_mu_);
  return spec_->OpAt(op).apply(*state_, args).ret;
}

void Object::SealRecoveredState() {
  std::lock_guard<std::shared_mutex> guard(state_mu_);
  base_state_ = state_->Clone();
  journal_->Reset();
}

size_t Object::FoldPrefix(uint64_t watermark, size_t rearm_base) {
  if (folding_.exchange(true, std::memory_order_acquire)) return 0;
  // Destroyed in reverse order: the latch drops, the released chunks are
  // freed, then the single-flight claim ends.
  class Unclaim {
   public:
    explicit Unclaim(std::atomic<bool>& flag) : flag_(flag) {}
    Unclaim(const Unclaim&) = delete;
    Unclaim& operator=(const Unclaim&) = delete;
    ~Unclaim() { flag_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool>& flag_;
  } unclaim(folding_);
  AppliedJournal::Retired retired;
  std::lock_guard<std::shared_mutex> guard(state_mu_);
  // Folded read-only entries are retired without being applied: they
  // cannot change the base state (the OpDescriptor::read_only contract).
  return journal_->Fold(
      watermark,
      [&](const AppliedJournal::Entry& e) {
        const adt::OpDescriptor& op = spec_->OpAt(e.op_id);
        if (!op.read_only) op.apply(*base_state_, e.args);
      },
      rearm_base, &retired);
}

}  // namespace objectbase::rt
