// Abstract data types: the objects of the object base.
//
// The paper models an object as (V, M): variables plus methods, where local
// operations are atomic state transformers a = (rho_a, sigma_a) over the
// object's state (Definition 2).  An AdtSpec is the executable form of that:
// it names the local operations of a type of object, provides their state
// transformer (apply) and return-value function, and defines the *conflict
// relation* between steps (Definition 3) at two granularities:
//
//   * operation granularity — conservative: conflict depends only on the
//     operation names (and sometimes arguments are ignored entirely).  This
//     is the "associate locks with operations" implementation of Section 5.1.
//   * step granularity — a step is (operation, arguments, return value);
//     exploiting return values yields strictly fewer conflicts (the
//     Enqueue/Dequeue example of Section 5.1, after Weihl).
//
// Conflict tables must be SOUND over-approximations of Definition 3: if two
// steps can fail to commute on some state, the table must say "conflict".
// tests/adt_commutativity_test.cc validates this empirically by executing
// both orders on sampled states (Definition 3 applied directly).
#ifndef OBJECTBASE_ADT_ADT_H_
#define OBJECTBASE_ADT_ADT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/value.h"

namespace objectbase::adt {

/// Resolve-path instrumentation: counts FindOp name lookups process-wide so
/// tests can assert the post-prepare steady state never resolves by name
/// (the interned-handle pipeline's core invariant).  Negligible cost: one
/// relaxed increment on a resolve-once path.
std::atomic<uint64_t>& FindOpCalls();

/// The mutable state of one object (the paper's "mapping associating values
/// to the variables of an object").  Concrete ADTs subclass this.
class AdtState {
 public:
  virtual ~AdtState() = default;

  /// Deep copy; used to snapshot initial states (the S component of a
  /// history) and for replay-based checking.
  virtual std::unique_ptr<AdtState> Clone() const = 0;

  /// Structural equality; used by history equivalence (Definition 7 requires
  /// identical final states per object).
  virtual bool Equals(const AdtState& other) const = 0;

  virtual std::string ToString() const = 0;
};

/// Reverses the state change of one applied operation.  Used to implement
/// the Abort semantics of Section 3 ("an aborted method execution has no
/// effect on the state").  A no-op for read-only operations.
using UndoFn = std::function<void(AdtState&)>;

/// The result of applying a local operation to a state: the return value
/// rho_a(s) plus an undo closure reversing sigma_a.
struct ApplyResult {
  Value ret;
  UndoFn undo;  // may be empty for read-only operations
};

/// Dense per-spec operation index: the i-th AddOp call gets id i.  The
/// runtime's hot path dispatches and tests conflicts by OpId (flat table
/// lookups); names are only touched at resolve time (FindOp).
using OpId = uint32_t;
inline constexpr OpId kNoOp = static_cast<OpId>(-1);

/// One local operation of an ADT.
struct OpDescriptor {
  std::string name;
  /// Contract: when set, `apply` must leave the state unchanged (it only
  /// computes rho_a).  The runtime relies on it in three places: the
  /// journal fold and the abort rebuild retire read-only entries without
  /// applying them, and GEMSTONE runs read-only steps under a shared lock.
  /// tests/adt_commutativity_test.cc checks it for every shipped spec.
  bool read_only = false;
  /// sigma_a and rho_a fused: mutates `state`, returns rho plus undo.
  /// Must be deterministic.  Thread safety: callers serialise applications
  /// per object unless the spec reports supports_concurrent_apply().
  std::function<ApplyResult(AdtState&, const Args&)> apply;
  /// Dense id within the owning spec (index into OpAt).
  OpId id = kNoOp;
  /// Set on operations of a supports_concurrent_apply() spec that are NOT
  /// linearizable under concurrent applies (e.g. the B-tree's latch-coupled
  /// whole-tree scans, which have no single linearization point at which to
  /// stamp an application order).  The runtime escalates these to the
  /// object's exclusive latch; ignored when the spec serialises anyway.
  bool exclusive_apply = false;
};

/// A fully-identified step for conflict queries: operation name, arguments
/// and (if known) the return value.  `ret` may be missing when a protocol
/// tests conflicts before executing (operation-granularity locking).
/// `op_id` may be missing (kNoOp) for offline callers that only carry the
/// name; the runtime always fills it so conflict tests stay string-free.
struct StepView {
  std::string_view op;
  const Args* args = nullptr;
  const Value* ret = nullptr;  // nullptr = unknown
  OpId op_id = kNoOp;          // kNoOp = resolve via op name
};

/// The behaviour of one type of object: operations + conflict relation.
/// Instances are immutable and shared; per-object initial-state parameters
/// are captured in the factory functions below.
class AdtSpec {
 public:
  virtual ~AdtSpec() = default;

  virtual std::string_view type_name() const = 0;

  /// Fresh initial state for an object of this type.
  virtual std::unique_ptr<AdtState> MakeInitialState() const = 0;

  /// Looks up an operation by name; nullptr if unknown.  This is the
  /// resolve-once entry point — per-step dispatch goes through OpAt().
  virtual const OpDescriptor* FindOp(std::string_view name) const = 0;

  /// Number of operations (OpIds are 0..NumOps()-1).
  virtual size_t NumOps() const = 0;

  /// Dense dispatch: the descriptor with the given id.  `id` must be a
  /// valid OpId of this spec.
  virtual const OpDescriptor& OpAt(OpId id) const = 0;

  /// All operation names (for tests and random workload generation).
  virtual std::vector<std::string_view> OpNames() const = 0;

  /// Operation-granularity conflict: do steps of `a` ever conflict with
  /// steps of `b`, for any arguments and returns?  Must be symmetric-closed
  /// by the caller if needed; implementations here already return the
  /// symmetric closure (a sound choice for locking, see Section 5.1).
  virtual bool OpConflicts(std::string_view a, std::string_view b) const = 0;

  /// Same relation, dense form: one flat-table probe, no string handling.
  /// Both ids must be valid OpIds of this spec.
  virtual bool OpConflictsById(OpId a, OpId b) const = 0;

  /// Step-granularity conflict per Definition 3, ORDER-SENSITIVE: returns
  /// true iff `first` conflicts with `second` assuming `first` executed
  /// before `second` — i.e. there is a state on which first;second is legal
  /// but transposing them is illegal or changes the final state.  The paper
  /// notes conflict is not necessarily symmetric (e.g. a successful Withdraw
  /// commutes with a following Deposit, but not vice versa).
  /// Implementations may fall back to OpConflicts when a return value is
  /// unknown.
  virtual bool StepConflicts(const StepView& first,
                             const StepView& second) const = 0;

  /// True if apply() tolerates concurrent callers (the object provides its
  /// own internal synchronisation, e.g. the latch-crabbing B-tree of
  /// Section 2).  Default: false; the runtime serialises per object.
  virtual bool supports_concurrent_apply() const { return false; }
};

/// Empirically tests Definition 3 on a concrete state: returns true iff
/// executing t1 then t2 on a clone of `state` and t2 then t1 on another
/// clone are both legal with the same returns and produce equal states.
/// (Legality = each op returns the same value as in the original order.)
/// Used by tests to validate conflict tables; not a substitute for them
/// (Definition 3 quantifies over all states).
bool StepsCommuteOnState(const AdtSpec& spec, const AdtState& state,
                         std::string_view op1, const Args& args1,
                         std::string_view op2, const Args& args2);

}  // namespace objectbase::adt

#endif  // OBJECTBASE_ADT_ADT_H_
