// Executor: runs nested transactions over an ObjectBase under a protocol.
//
// This is the public entry point of the library:
//
//   rt::ObjectBase base;
//   base.CreateObject("acct", adt::MakeBankAccountSpec(100));
//   rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl});
//   auto result = exec.RunTransaction("transfer", [&](rt::MethodCtx& txn) {
//     txn.Invoke("acct", "withdraw", {50});   // message -> method execution
//     return Value();
//   });
//
// Resolve-once / execute-many: the string forms of Invoke/Local above are
// conveniences that resolve names on every call.  Steady-state callers
// (workload generators, servers) resolve interned handles up front —
//
//   rt::MethodRef withdraw = exec.Resolve("acct", "withdraw");
//   ... per transaction: txn.Invoke(withdraw, {50});   // no string maps
//
// — after which the per-step path touches no string map: method dispatch is
// a stable function pointer or a dense OpId, and conflict tests are flat
// table probes (see docs/runtime_pipeline.md).
//
// Model correspondence:
//   * RunTransaction creates a top-level method execution of the
//     environment object (Definition 1);
//   * MethodCtx::Invoke sends a message: a child method execution runs to
//     completion and its value returns to the sender (Section 1);
//   * MethodCtx::InvokeParallel sends several messages simultaneously —
//     internal parallelism (Section 1(c));
//   * MethodCtx::Local issues a local step on the method's own object;
//   * aborts cascade to descendents but not ancestors: under protocols with
//     SupportsPartialAbort() a parent can catch a child's abort via
//     TryInvoke and try an alternative (Section 3).
//
// Every run can be recorded as a model::History and checked against the
// paper's definitions (see Recorder).
#ifndef OBJECTBASE_RUNTIME_EXECUTOR_H_
#define OBJECTBASE_RUNTIME_EXECUTOR_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cc/controller.h"
#include "src/cc/mixed_controller.h"
#include "src/cc/sharded_controller.h"
#include "src/runtime/branch_pool.h"
#include "src/runtime/object_base.h"
#include "src/runtime/recorder.h"
#include "src/runtime/txn.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {

enum class Protocol { kN2pl, kNto, kCert, kGemstone, kMixed };

const char* ProtocolName(Protocol p);

struct ExecutorOptions {
  Protocol protocol = Protocol::kN2pl;
  cc::Granularity granularity = cc::Granularity::kStep;
  /// Record a model::History of every run (tests/examples: on;
  /// benchmarks: off).
  bool record = true;
  /// Top-level retry budget on abort; retries re-run the transaction body
  /// with a fresh timestamp.
  int max_top_retries = 100;
  /// Journal-GC cadence for the optimistic protocols (NTO/CERT/MIXED):
  /// fold the applied journal into the base state once it reaches this
  /// many entries, every threshold/2 entries after.  0 disables folding —
  /// the journal then grows for the run's lifetime (NTO's remembered steps
  /// too: the E8 ablation), and the step path is guaranteed to take zero
  /// journal mutexes (the folds are the only locking the journal ever
  /// does; see rt::JournalMutexAcquisitions).
  size_t journal_fold_threshold = 64;
  /// Blocking-request behaviour for the locking protocols
  /// (N2PL/GEMSTONE/MIXED-kLocal2pl): abort deadlock victims (kDetect) or
  /// wound younger holders (kWoundWait).
  /// See cc::ContentionPolicy.
  cc::ContentionPolicy contention_policy = cc::ContentionPolicy::kDetect;
  /// Write-ahead durability (docs/durability.md).  kGroup requires
  /// `wal_path`: each commit is acked once the pipelined group sync covering
  /// it returns — the writer syncs as soon as a commit is staged, and
  /// commits staged during an fsync share the next one.  A log write or
  /// fsync error aborts the process (fail-stop).  kNone creates no WAL at
  /// all: no redo is staged and commits wait for no sync.
  Durability durability = Durability::kNone;
  /// Redo-log file of shard 0, opened (TRUNCATED) at executor construction;
  /// shard k > 0 logs to ShardWalPath(wal_path, k).  To recover a previous
  /// run's logs, build the executor with a different path (or durability =
  /// kNone) and call Recover(old_path) first.
  std::string wal_path;
};

class MethodCtx;
using MethodFn = std::function<Value(MethodCtx&)>;

/// An interned object handle: resolved once (ObjectBase::Find), then id and
/// spec access are pointer-cheap.  Valid as long as the ObjectBase lives.
class ObjectHandle {
 public:
  ObjectHandle() = default;

  bool valid() const { return obj_ != nullptr; }
  uint32_t id() const { return obj_->id(); }
  const std::string& name() const { return obj_->name(); }
  const adt::AdtSpec& spec() const { return obj_->spec(); }

 private:
  friend class Executor;
  friend class MethodCtx;
  explicit ObjectHandle(Object* obj) : obj_(obj) {}
  Object* obj_ = nullptr;
};

/// An interned (object, method) pair: the resolve-once handle of the
/// execution pipeline.  Produced by Executor::Resolve; stable for the
/// lifetime of the Executor (method bodies live in per-object deques, op
/// descriptors in the immutable spec).  Invoking through a MethodRef
/// touches no string map.
struct MethodRef {
  Object* object = nullptr;
  const MethodFn* fn = nullptr;           ///< Registered body, or
  const adt::OpDescriptor* op = nullptr;  ///< implicit single-step body.
  const std::string* name = nullptr;      ///< Interned method name.

  /// False when the object exists but no body or ADT operation matches;
  /// invoking an invalid ref aborts the child with AbortReason::kUser.
  bool valid() const {
    return object != nullptr && (fn != nullptr || op != nullptr);
  }
};

struct TxnResult {
  bool committed = false;
  Value ret;
  cc::AbortReason last_abort = cc::AbortReason::kNone;
  int attempts = 0;
  /// The environment serial this attempt's top-level hts was built from
  /// (wound-wait's age).  RunTransaction passes it back on the retry of a
  /// WOUNDED attempt: classic wound-wait liveness requires the victim to
  /// keep its original timestamp across restarts, so it ages toward oldest
  /// instead of re-entering ever younger (and ever more woundable —
  /// fresh-stamped retries livelock under a sustained storm).
  uint64_t age_token = 0;
};

class Executor {
 public:
  Executor(ObjectBase& base, ExecutorOptions options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a method body on an object.  Unregistered method names that
  /// match an ADT operation get an implicit body executing that single
  /// local step.  Setup-time API: not thread-safe against running
  /// transactions.  Redefining an already-registered method keeps
  /// previously resolved MethodRefs valid (they see the new body); a ref
  /// resolved while the name was still implicit keeps dispatching the raw
  /// ADT operation — resolve after DefineMethod.  Returns false (and
  /// registers nothing) when the object name is unknown — check it: a
  /// mistyped object name otherwise surfaces only as kUser aborts at
  /// invoke time.  Method tables live in a deque, so registration never
  /// moves tables of other objects (MethodRef::fn stays valid).
  [[nodiscard]] bool DefineMethod(const std::string& object,
                                  const std::string& method, MethodFn fn);

  /// Resolves an object name once; invalid handle if unknown.
  ObjectHandle FindObject(const std::string& name);

  /// Resolves (object, method) once into an interned handle.  Returns a
  /// ref with object == nullptr when the object is unknown, and an
  /// invalid-but-named ref when the method matches neither a registered
  /// body nor an ADT operation.
  MethodRef Resolve(const std::string& object, const std::string& method);
  MethodRef Resolve(ObjectHandle object, const std::string& method);

  /// MIXED only: assigns the object's intra-object policy.  Usually called
  /// at setup time, but safe mid-run (the policy table is atomic — see
  /// MixedController::SetPolicy).  Returns false if the object is unknown
  /// or the protocol is not kMixed.
  bool SetIntraPolicy(const std::string& object, cc::IntraPolicy policy);

  /// Shard 0's MIXED controller, or nullptr for other protocols (read-only
  /// inspection of the current policies).  SetIntraPolicy fans a policy
  /// change out to every shard.
  cc::MixedController* mixed() {
    return mixeds_.empty() ? nullptr : mixeds_[0];
  }

  /// The routing layer over the per-shard controllers; never null.  A
  /// plain ObjectBase is one shard, a rt::ShardedBase has num_shards().
  cc::ShardedController* sharded() { return controller_.get(); }

  /// The pooled branch scheduler (MethodCtx::InvokeParallel and the
  /// workload runner's dedicated worker mode share it).  Owns no threads
  /// until the first parallel batch.
  BranchPool& branch_pool() { return branch_pool_; }

  /// Runs a top-level transaction, retrying on abort up to
  /// `max_top_retries` attempts with a deterministic 20·a² µs backoff
  /// (capped at 1 ms) between them.  Retries after a wound reuse the
  /// first attempt's age (see TxnResult::age_token).  This is the one
  /// retry loop: the workload runners and perfbench all go through it.
  TxnResult RunTransaction(const std::string& name, MethodFn body);

  /// Single attempt, no retry (tests that assert on specific aborts).  A
  /// non-zero `age_token` pins the top's environment serial instead of
  /// drawing a fresh one; pass a previous result's token only when that
  /// attempt was wounded (timestamp-ordering aborts want a FRESH stamp —
  /// an old stamp re-offered to NTO is rejected forever).
  TxnResult RunTransactionOnce(const std::string& name, MethodFn body,
                               uint64_t age_token = 0);

  Recorder& recorder() { return recorder_; }
  /// Clears the recorded history and re-snapshots initial states.
  void ResetRecorder() { recorder_.Reset(base_); }

  cc::Controller& controller() { return *controller_; }
  ObjectBase& base() { return base_; }
  const ExecutorOptions& options() const { return options_; }

  /// Shard 0's write-ahead log (whose path is the configured wal_path), or
  /// nullptr when durability == kNone.
  WalWriter* wal() { return shard_wal(0); }

  /// Shard `s`'s write-ahead log, or nullptr.
  WalWriter* shard_wal(uint32_t s) {
    return s < wals_.size() ? wals_[s].get() : nullptr;
  }

  /// Restart recovery: replays the committed transactions of the logs at
  /// `log_path` into this executor's object base (RecoverShardedWalInto
  /// over its shard count) and re-snapshots the recorder's initial states.
  /// Call on a freshly-constructed, quiescent executor whose own wal_path
  /// differs from `log_path` (the constructor truncates its log file).  The base must be populated
  /// exactly as it was at the start of the crashed run.
  WalRecoveryResult Recover(const std::string& log_path);

  struct Stats {
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> aborted{0};   ///< Top-level aborts (incl. retried).
    std::atomic<uint64_t> retries{0};   ///< Re-attempts after an abort.
    std::array<std::atomic<uint64_t>, cc::kNumAbortReasons> aborts_by_reason{};

    /// Commits by home shard (slot 0 on a plain base), with cross-shard
    /// tops counted in the kCrossShardSlot bucket (the per-shard
    /// throughput the workload runner reports).
    static constexpr size_t kCrossShardSlot = 64;
    std::array<std::atomic<uint64_t>, kCrossShardSlot + 1>
        committed_by_shard{};

    uint64_t AbortsFor(cc::AbortReason r) const {
      return aborts_by_reason[static_cast<size_t>(r)].load();
    }
  };
  Stats& stats() { return stats_; }

 private:
  friend class MethodCtx;

  /// Thrown to unwind an aborting method execution; caught at invocation
  /// boundaries and at the top level.
  struct AbortSignal {
    cc::AbortReason reason;
  };

  /// Per-object dense method table: bodies live in a deque (stable
  /// addresses for MethodRef::fn), the name index is only consulted at
  /// resolve time.  The tables themselves also live in a deque (pre-sized
  /// to the ObjectBase, grown without moving) so late registrations can
  /// never invalidate refs resolved against other objects.
  struct MethodTable {
    std::deque<MethodFn> fns;
    std::map<std::string, uint32_t, std::less<>> index;
  };

  TxnResult RunAttempt(const std::string& name, const MethodFn& body,
                       uint64_t age_token = 0);

  /// Runs the method `m` refers to as a child of `parent`; `po` is the
  /// message's program-order index (shared within a parallel batch).
  /// `restore` is the node to re-register for this thread afterwards
  /// (nullptr on freshly-spawned threads).  Throws AbortSignal on child
  /// abort (including invalid refs: the child records, aborts with kUser).
  Value InvokeChild(TxnNode& parent, const MethodRef& m, Args args,
                    uint32_t po, TxnNode* restore);

  /// Marks the subtree aborted (recorder included), rolls back its effects
  /// and informs the controller.
  void AbortSubtree(TxnNode& node, cc::AbortReason reason);

  MethodRef ResolveOnObject(Object& obj, std::string_view method);

  /// Stable storage for names of methods that resolve to nothing (the
  /// aborting child still needs a name); touched only on that error path.
  const std::string& InternName(std::string_view name);

  void NoteThreadRunning(TxnNode* node);
  void NoteThreadFinished();

  ObjectBase& base_;
  ExecutorOptions options_;
  Recorder recorder_;
  // Locking protocols: the one waits-for graph every shard's lock manager
  // declares into (cross-shard lock cycles are invisible to per-shard
  // graphs), and where the executor registers running threads.  Declared
  // before controller_ so it outlives the managers that point at it.
  std::unique_ptr<cc::WaitsForGraph> shared_wfg_;
  std::unique_ptr<cc::ShardedController> controller_;
  // One WAL per shard, empty iff durability == kNone.  Declared after
  // controller_ (destroyed first): the writers drain and stop while the
  // controllers — which only hold raw pointers — are still alive.
  std::vector<std::unique_ptr<WalWriter>> wals_;
  // Each shard's MIXED controller (empty for other protocols).
  std::vector<cc::MixedController*> mixeds_;
  bool supports_partial_abort_ = false;
  std::atomic<uint64_t> next_uid_{0};
  std::atomic<uint64_t> next_top_counter_{0};
  Stats stats_;
  std::deque<MethodTable> method_tables_;  // indexed by object id
  std::mutex intern_mu_;
  std::set<std::string, std::less<>> interned_names_;
  // Declared LAST (destroyed first): pool workers may still be draining a
  // batch that touches everything above.
  BranchPool branch_pool_;
};

/// Handle passed to method bodies; all interaction with the object base
/// goes through it.
class MethodCtx {
 public:
  struct InvokeOutcome {
    bool ok = false;
    Value ret;
    cc::AbortReason reason = cc::AbortReason::kNone;
  };

  struct Call {
    std::string object;
    std::string method;
    Args args;
  };

  /// A pre-resolved parallel call (the handle-based fast path).
  struct BoundCall {
    MethodRef method;
    Args args;
  };

  // --- handle-based primary path (resolve once, execute many) ---

  /// Sends a message: runs the method `m` refers to as a child execution
  /// and returns its value.  A child abort propagates (aborting this
  /// execution too) — use TryInvoke to survive it.
  Value Invoke(const MethodRef& m, Args args = {});

  /// Like Invoke, but under protocols that support partial aborts a child
  /// abort is reported instead of propagated — the paper's alternative-path
  /// pattern: "If M' fails and aborts, M is not also doomed to failure."
  InvokeOutcome TryInvoke(const MethodRef& m, Args args = {});

  /// Sends several messages simultaneously (internal parallelism); blocks
  /// until all children finish.  Under partial-abort protocols failed calls
  /// are reported in the outcomes; otherwise any failure aborts this
  /// execution after all branches joined.
  std::vector<InvokeOutcome> InvokeParallel(std::vector<BoundCall> calls);

  /// Issues a local operation on this method's own object.  Only valid
  /// inside an object method (not in a top-level environment body).
  Value Local(const adt::OpDescriptor& op, Args args = {});

  /// Resolves a local operation of this method's object once (nullptr if
  /// unknown or in an environment body); pair with Local(const
  /// OpDescriptor&).
  const adt::OpDescriptor* ResolveLocal(std::string_view op) const;

  // --- string conveniences (thin resolve-then-forward wrappers) ---

  Value Invoke(const std::string& object, const std::string& method,
               Args args = {});
  InvokeOutcome TryInvoke(const std::string& object, const std::string& method,
                          Args args = {});
  std::vector<InvokeOutcome> InvokeParallel(std::vector<Call> calls);
  Value Local(const std::string& op, Args args = {});

  /// Application-requested abort of this method execution (Section 3).
  [[noreturn]] void Abort();

  /// Arguments the invoking message carried.
  const Args& args() const { return args_; }

  TxnNode& node() { return node_; }
  Executor& executor() { return exec_; }

 private:
  friend class Executor;
  MethodCtx(Executor& exec, TxnNode& node, Object* object, Args args)
      : exec_(exec), node_(node), object_(object), args_(std::move(args)) {}

  Executor& exec_;
  TxnNode& node_;
  Object* object_;  // nullptr for environment (top-level) bodies
  Args args_;
};

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_EXECUTOR_H_
