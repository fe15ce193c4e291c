// ObjectBase: the set of objects (Definition 1).
#ifndef OBJECTBASE_RUNTIME_OBJECT_BASE_H_
#define OBJECTBASE_RUNTIME_OBJECT_BASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/object.h"

namespace objectbase::rt {

/// Resolve-path instrumentation: counts ObjectBase::Find name lookups
/// process-wide (see adt::FindOpCalls; same purpose, object layer).
std::atomic<uint64_t>& ObjectFindCalls();

/// Owns the objects.  Objects are created before execution starts and live
/// for the lifetime of the base; creation is not thread-safe (do it before
/// running transactions).
class ObjectBase {
 public:
  /// Creates an object with a fresh initial state from `spec`.  Names must
  /// be unique.  Returns its dense id.
  uint32_t CreateObject(std::string name,
                        std::shared_ptr<const adt::AdtSpec> spec);

  /// Name lookup — the resolve-once entry point (Executor::Resolve /
  /// FindObject).  Steady-state execution addresses objects by pointer or
  /// dense id, never by name.
  Object* Find(const std::string& name);
  Object& Get(uint32_t id) { return *objects_[id]; }
  const Object& Get(uint32_t id) const { return *objects_[id]; }

  size_t size() const { return objects_.size(); }

  /// Shard count of the partition (1 for a plain, unsharded base).  The
  /// Executor reads this once at construction and builds one controller
  /// per shard.
  uint32_t num_shards() const { return num_shards_; }

  /// Resets every object to its initial state (between benchmark runs).
  void ResetAll();

 protected:
  void set_num_shards(uint32_t n) { num_shards_ = n; }

 private:
  std::vector<std::unique_ptr<Object>> objects_;
  std::unordered_map<std::string, uint32_t> by_name_;  // resolve-time index
  uint32_t num_shards_ = 1;
};

/// ObjectBase partitioned across N shards (docs/sharding.md).  Placement is
/// `id % shards` by default — CreateObject stamps each object's home shard
/// as it is created — with per-object overrides via PinObject (co-locating
/// objects that are usually touched together keeps their transactions off
/// the cross-shard commit path).  Placement is fixed before execution
/// starts; nothing here is thread-safe, matching CreateObject.
class ShardedBase : public ObjectBase {
 public:
  /// `shards` is clamped to [1, kMaxShards].
  static constexpr uint32_t kMaxShards = 64;
  explicit ShardedBase(uint32_t shards) {
    if (shards < 1) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    set_num_shards(shards);
  }

  uint32_t ShardOf(uint32_t id) const { return Get(id).shard(); }

  /// Re-homes one object (before execution starts).
  void PinObject(uint32_t id, uint32_t shard) {
    Get(id).set_shard(shard % num_shards());
  }
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_OBJECT_BASE_H_
