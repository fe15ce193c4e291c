// FSM workloads: the one workload runner, for flat mixes and scenarios alike.
//
// A workload is a finite-state machine in the style of MongoDB's FSM
// concurrency-testing framework (SNIPPETS.md Snippet 3): named states — each
// a transaction body factory plus an optional post-commit invariant check —
// connected by a row-stochastic transition table, walked by per-thread
// seeded walkers.  A flat weighted mix (generators.h) is the special case
// whose transition rows are all equal: one state per transaction type, every
// row the normalised weights, so each visit is an independent weighted pick.
//
// The runner provides three execution modes:
//   * serial   — workloads run one after another, each on its own walker
//                set (setup / walkers / teardown per workload in turn);
//   * parallel — every workload's walker set runs simultaneously against
//                the shared ObjectBase;
//   * composed — ONE walker set interleaves ALL workloads: each walker
//                holds an FSM cursor per workload and, per visit, picks a
//                workload and executes that workload's current state, so a
//                single thread's transaction stream mixes every scenario.
//
// Determinism contract: a walker's entire draw stream (workload choice,
// body parameters, the per-visit check-Rng fork, and the next-state draw)
// comes from its own seeded Rng, and every draw happens UNCONDITIONALLY per
// visit — commit/abort outcomes never feed back into the stream.  Hence the
// state-transition trace of a run is a pure function of (workloads, seed,
// mode, walker count), byte-identical across runs even though commit
// outcomes under contention are not (FsmWorkloadTest.DeterministicTraces
// pins this, composed mode included).  State `check` hooks run only after
// COMMITTED visits and receive a pre-forked Rng so they cannot perturb the
// walker stream.
#ifndef OBJECTBASE_WORKLOAD_FSM_H_
#define OBJECTBASE_WORKLOAD_FSM_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/runtime/executor.h"

namespace objectbase::workload {

class FsmCheckCtx;

/// One state of an FSM workload: a transaction body factory (sample the
/// transaction's parameters from the Rng NOW, capture them by value, never
/// reference the Rng from the returned body) plus an optional post-commit
/// invariant check.
struct FsmState {
  std::string name;
  std::function<rt::MethodFn(Rng&)> make;
  /// Run on the walker thread after each COMMITTED visit of this state.
  /// Report violations via FsmCheckCtx::Fail — never via gtest macros, so
  /// workloads stay usable from benches and fuzzers.
  std::function<void(FsmCheckCtx&)> check;
};

/// A workload: states + a row-stochastic transition table.
/// transitions[i][j] is the probability of moving to state j after a visit
/// of state i; each row must be non-negative and sum to 1 (ValidateFsm).
struct FsmWorkload {
  std::string name;
  std::vector<FsmState> states;
  std::vector<std::vector<double>> transitions;
  int start_state = 0;
  /// Walkers in serial/parallel modes (composed mode shares the runner's
  /// walker set across all workloads and ignores this).
  int threads = 4;
  /// State visits per walker (composed mode: this workload's share of the
  /// default composed iteration budget).
  int iterations = 64;
  /// Run once, on the runner's thread, before any walker starts: resolve
  /// MethodRefs, prefill objects, reset any cross-run scratch state.
  std::function<void(rt::Executor&)> setup;
  /// Run once, on the runner's thread, after every walker finished —
  /// whole-workload invariant checks (walker() == -1 in the ctx).
  std::function<void(FsmCheckCtx&)> teardown;
};

/// Structural validation: returns an empty string when `w` is well-formed,
/// otherwise a description of the first problem (no states, a state without
/// a body factory, table/row size mismatch, negative entry, row sum != 1,
/// start state out of range).
std::string ValidateFsm(const FsmWorkload& w);

/// Scales every row of `transitions` to sum to 1 (rows of all zeros are
/// left alone and will fail ValidateFsm).  Scenario builders assemble rows
/// from relative odds and normalise once.
void NormalizeTransitionRows(std::vector<std::vector<double>>& transitions);

enum class FsmMode { kSerial, kParallel, kComposed };
const char* FsmModeName(FsmMode m);

struct FsmRunOptions {
  FsmMode mode = FsmMode::kComposed;
  uint64_t seed = 42;
  /// Walkers in composed mode (serial/parallel take each workload's own
  /// `threads`).
  int composed_threads = 4;
  /// Visits per composed walker; 0 = the sum of the workloads' per-walker
  /// `iterations` (each workload gets roughly its configured share, since
  /// the per-visit workload choice is uniform).
  int composed_iterations = 0;
  /// Record per-walker state-transition traces into FsmRunResult::traces
  /// (the determinism test's byte-comparison surface).
  bool collect_traces = false;
};

/// One visited (workload, state) pair of a walker's trace.  Deliberately
/// excludes the commit outcome: the trace is the deterministic part.
struct FsmTraceEntry {
  uint32_t workload = 0;
  uint32_t state = 0;
};

struct FsmRunResult {
  uint64_t visits = 0;     ///< State executions, committed or not.
  uint64_t committed = 0;  ///< Visits whose transaction committed.
  uint64_t gave_up = 0;    ///< Visits whose transaction exhausted retries.
  uint64_t checks_run = 0; ///< Post-commit state checks executed.
  /// Invariant violations reported by state checks / teardowns, plus any
  /// validation error (in which case nothing was run).  Empty == pass.
  std::vector<std::string> failures;
  /// Per-walker traces (indexed by global walker id); filled only when
  /// FsmRunOptions::collect_traces.
  std::vector<std::vector<FsmTraceEntry>> traces;
  /// Wall clock of the walker batches, each timed from the start latch's
  /// release (every walker ready) to its last walker's final visit: setup,
  /// teardown, walker dispatch and result merging are excluded.
  double seconds = 0;
  /// Per-visit wall time of Executor::RunTransaction (retries included),
  /// one sample per visit, committed or not.
  Histogram latency_ns;

  bool ok() const { return failures.empty(); }
  double VisitsPerSecond() const { return seconds > 0 ? visits / seconds : 0; }
};

/// Handed to state checks and teardowns.  Fail() is thread-safe (checks run
/// concurrently on walker threads).
class FsmCheckCtx {
 public:
  rt::Executor& exec() { return exec_; }
  /// Outcome-independent randomness: forked from the walker's stream
  /// BEFORE the visit ran, so consuming it cannot skew the trace.
  Rng& rng() { return rng_; }
  /// Global walker id, or -1 when called from a teardown.
  int walker() const { return walker_; }
  const std::string& workload() const { return workload_; }
  /// State name, empty in teardowns.
  const std::string& state() const { return state_; }

  /// Records an invariant violation (prefixed "workload/state: ").
  void Fail(const std::string& message);

 private:
  friend class FsmRunner;
  FsmCheckCtx(rt::Executor& exec, Rng& rng, int walker,
              const std::string& workload, const std::string& state,
              std::mutex& mu, std::vector<std::string>& failures)
      : exec_(exec), rng_(rng), walker_(walker), workload_(workload),
        state_(state), mu_(mu), failures_(failures) {}

  rt::Executor& exec_;
  Rng& rng_;
  int walker_;
  const std::string& workload_;
  const std::string& state_;
  std::mutex& mu_;
  std::vector<std::string>& failures_;
};

/// Runs FSM workloads against one executor.  The runner owns no threads of
/// its own: walkers are dispatched on the executor's BranchPool in dedicated
/// mode (one whole-walk task per walker).
class FsmRunner {
 public:
  FsmRunner(rt::Executor& exec, FsmRunOptions opts = {})
      : exec_(exec), opts_(opts) {}

  /// Validates and runs the workloads under the configured mode.  The
  /// workload objects must outlive the call; their setup hooks run (in
  /// listed order) before their walkers, teardowns after.
  FsmRunResult Run(const std::vector<const FsmWorkload*>& workloads);

 private:
  struct WalkerPlan {
    int walker_id = 0;                ///< Global id (seed offset + trace slot).
    std::vector<uint32_t> workloads;  ///< Indices the walker interleaves.
    int iterations = 0;
  };

  void Walk(const std::vector<const FsmWorkload*>& workloads,
            const std::vector<std::vector<std::string>>& txn_names,
            const WalkerPlan& plan, const Stopwatch& clock,
            uint64_t& last_done_ns, FsmRunResult& result,
            std::mutex& result_mu, std::mutex& failure_mu);
  /// Runs one walker per plan and returns the nanoseconds from the start
  /// latch's release to the last walker's completion.
  uint64_t RunWalkerBatch(
      const std::vector<const FsmWorkload*>& workloads,
      const std::vector<std::vector<std::string>>& txn_names,
      const std::vector<WalkerPlan>& plans, FsmRunResult& result,
      std::mutex& result_mu, std::mutex& failure_mu);

  rt::Executor& exec_;
  FsmRunOptions opts_;
};

/// Canonical rendering of a run's traces ("walker N: wl/state ..."), the
/// byte-comparison surface of the determinism test.  `workloads` must be
/// the same list the run was given.
std::string FsmTraceString(const std::vector<const FsmWorkload*>& workloads,
                           const FsmRunResult& result);

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_FSM_H_
