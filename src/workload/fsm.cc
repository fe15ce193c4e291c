#include "src/workload/fsm.h"

#include <cmath>
#include <condition_variable>
#include <utility>

#include "src/runtime/branch_pool.h"

namespace objectbase::workload {

std::string ValidateFsm(const FsmWorkload& w) {
  if (w.states.empty()) return w.name + ": no states";
  for (size_t i = 0; i < w.states.size(); ++i) {
    if (!w.states[i].make) {
      return w.name + ": state '" + w.states[i].name + "' has no body factory";
    }
  }
  if (w.transitions.size() != w.states.size()) {
    return w.name + ": transition table has " +
           std::to_string(w.transitions.size()) + " rows for " +
           std::to_string(w.states.size()) + " states";
  }
  for (size_t i = 0; i < w.transitions.size(); ++i) {
    const std::vector<double>& row = w.transitions[i];
    if (row.size() != w.states.size()) {
      return w.name + ": row '" + w.states[i].name + "' has " +
             std::to_string(row.size()) + " entries for " +
             std::to_string(w.states.size()) + " states";
    }
    double sum = 0;
    for (double p : row) {
      if (p < 0) {
        return w.name + ": row '" + w.states[i].name +
               "' has a negative probability";
      }
      sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-6) {
      return w.name + ": row '" + w.states[i].name + "' sums to " +
             std::to_string(sum) + ", not 1";
    }
  }
  if (w.start_state < 0 ||
      static_cast<size_t>(w.start_state) >= w.states.size()) {
    return w.name + ": start state " + std::to_string(w.start_state) +
           " out of range";
  }
  if (w.threads < 1) return w.name + ": threads < 1";
  if (w.iterations < 1) return w.name + ": iterations < 1";
  return "";
}

void NormalizeTransitionRows(std::vector<std::vector<double>>& transitions) {
  for (std::vector<double>& row : transitions) {
    double sum = 0;
    for (double p : row) sum += p;
    if (sum <= 0) continue;  // left for ValidateFsm to reject
    for (double& p : row) p /= sum;
  }
}

const char* FsmModeName(FsmMode m) {
  switch (m) {
    case FsmMode::kSerial: return "serial";
    case FsmMode::kParallel: return "parallel";
    case FsmMode::kComposed: return "composed";
  }
  return "?";
}

void FsmCheckCtx::Fail(const std::string& message) {
  std::lock_guard<std::mutex> g(mu_);
  std::string where = workload_;
  if (!state_.empty()) where += "/" + state_;
  failures_.push_back(where + ": " + message);
}

void FsmRunner::Walk(const std::vector<const FsmWorkload*>& workloads,
                     const std::vector<std::vector<std::string>>& txn_names,
                     const WalkerPlan& plan, const Stopwatch& clock,
                     uint64_t& last_done_ns, FsmRunResult& result,
                     std::mutex& result_mu, std::mutex& failure_mu) {
  // Reproducible per (seed, walker), independent streams across walkers.
  Rng rng(opts_.seed * 1315423911ull +
          static_cast<uint64_t>(plan.walker_id) * 2654435761ull + 1);
  // One FSM cursor per workload the walker interleaves (indexed by global
  // workload index so composed lookups stay O(1)).
  std::vector<uint32_t> cursor(workloads.size(), 0);
  for (uint32_t wi : plan.workloads) {
    cursor[wi] = static_cast<uint32_t>(workloads[wi]->start_state);
  }

  uint64_t visits = 0, committed = 0, gave_up = 0, checks_run = 0;
  Histogram latency_ns;
  std::vector<FsmTraceEntry> trace;
  if (opts_.collect_traces) {
    trace.reserve(static_cast<size_t>(plan.iterations));
  }

  for (int it = 0; it < plan.iterations; ++it) {
    // Every draw below is unconditional — the stream (and therefore the
    // trace) never depends on commit outcomes.
    const uint32_t wi =
        plan.workloads.size() == 1
            ? plan.workloads[0]
            : plan.workloads[rng.Uniform(plan.workloads.size())];
    const FsmWorkload& w = *workloads[wi];
    const uint32_t si = cursor[wi];
    const FsmState& st = w.states[si];

    Rng check_rng = rng.Fork();  // forked whether or not the visit commits
    rt::MethodFn body = st.make(rng);
    Stopwatch txn_clock;
    rt::TxnResult r = exec_.RunTransaction(txn_names[wi][si], body);
    latency_ns.Record(txn_clock.ElapsedNanos());

    ++visits;
    if (r.committed) {
      ++committed;
      if (st.check) {
        FsmCheckCtx ctx(exec_, check_rng, plan.walker_id, w.name, st.name,
                        failure_mu, result.failures);
        st.check(ctx);
        ++checks_run;
      }
    } else {
      ++gave_up;
    }
    if (opts_.collect_traces) trace.push_back({wi, si});
    cursor[wi] = static_cast<uint32_t>(rng.WeightedIndex(w.transitions[si]));
  }

  // Stamp completion BEFORE waiting for the serialised merge.
  const uint64_t done = clock.ElapsedNanos();
  std::lock_guard<std::mutex> g(result_mu);
  if (done > last_done_ns) last_done_ns = done;
  result.latency_ns.Merge(latency_ns);
  result.visits += visits;
  result.committed += committed;
  result.gave_up += gave_up;
  result.checks_run += checks_run;
  if (opts_.collect_traces) {
    result.traces[static_cast<size_t>(plan.walker_id)] = std::move(trace);
  }
}

uint64_t FsmRunner::RunWalkerBatch(
    const std::vector<const FsmWorkload*>& workloads,
    const std::vector<std::vector<std::string>>& txn_names,
    const std::vector<WalkerPlan>& plans, FsmRunResult& result,
    std::mutex& result_mu, std::mutex& failure_mu) {
  if (plans.empty()) return 0;
  // Start latch: walkers are dispatched first and parked; the clock starts
  // only once every walker is ready, and stops at the LAST walker's final
  // visit, so dispatch and the result merge are not charged to the run.
  // The last walker to arrive releases the latch.
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  size_t ready = 0;
  bool go = false;
  Stopwatch clock;  // Reset just before release, under latch_mu.
  uint64_t last_done_ns = 0;  // Guarded by result_mu.

  // Dedicated mode: each task is a whole walk, so every walker needs a live
  // pool thread (which also lets every task reach the latch) and the
  // dispatcher only waits.
  rt::BranchPool& pool = exec_.branch_pool();
  pool.EnsureWorkers(plans.size());
  rt::BranchPool::Batch batch(pool);
  for (const WalkerPlan& plan : plans) {
    batch.Add(rt::BranchPool::kAnyShard, [&, plan](bool /*on_caller*/) {
      {
        std::unique_lock<std::mutex> l(latch_mu);
        if (++ready == plans.size()) {
          clock.Reset();
          go = true;
          latch_cv.notify_all();
        } else {
          latch_cv.wait(l, [&] { return go; });
        }
      }
      Walk(workloads, txn_names, plan, clock, last_done_ns, result, result_mu,
           failure_mu);
    });
  }
  // Never inline a walker on the dispatching thread: it would park behind
  // the latch with the batch only partially dispatched.
  batch.RunAndWait(/*caller_inline=*/false);
  return last_done_ns;
}

FsmRunResult FsmRunner::Run(
    const std::vector<const FsmWorkload*>& workloads) {
  FsmRunResult result;
  if (workloads.empty()) {
    result.failures.push_back("no workloads");
    return result;
  }
  for (const FsmWorkload* w : workloads) {
    if (std::string err = ValidateFsm(*w); !err.empty()) {
      result.failures.push_back(err);
    }
  }
  if (!result.failures.empty()) return result;

  // Pre-interned transaction names ("workload/state"): the walker hot loop
  // allocates no strings of its own.
  std::vector<std::vector<std::string>> txn_names(workloads.size());
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    for (const FsmState& st : workloads[wi]->states) {
      txn_names[wi].push_back(workloads[wi]->name + "/" + st.name);
    }
  }

  // Walker plans per mode.  Global walker ids are assigned in listed
  // workload order so serial and parallel runs of the same list seed the
  // same per-walker streams.
  std::vector<WalkerPlan> plans;
  int next_id = 0;
  if (opts_.mode == FsmMode::kComposed) {
    int iterations = opts_.composed_iterations;
    if (iterations <= 0) {
      iterations = 0;
      for (const FsmWorkload* w : workloads) iterations += w->iterations;
    }
    std::vector<uint32_t> all;
    for (uint32_t wi = 0; wi < workloads.size(); ++wi) all.push_back(wi);
    const int walkers = opts_.composed_threads < 1 ? 1 : opts_.composed_threads;
    for (int t = 0; t < walkers; ++t) {
      plans.push_back({next_id++, all, iterations});
    }
  } else {
    for (uint32_t wi = 0; wi < workloads.size(); ++wi) {
      for (int t = 0; t < workloads[wi]->threads; ++t) {
        plans.push_back({next_id++, {wi}, workloads[wi]->iterations});
      }
    }
  }
  if (opts_.collect_traces) result.traces.resize(static_cast<size_t>(next_id));

  std::mutex result_mu;
  std::mutex failure_mu;
  uint64_t walk_ns = 0;
  // Teardown randomness: a stream of its own, outside the walker streams.
  Rng teardown_rng(opts_.seed ^ 0x7ead0f5ac1a11edULL);
  static const std::string kNoState;

  auto run_teardown = [&](const FsmWorkload& w) {
    if (!w.teardown) return;
    Rng rng = teardown_rng.Fork();
    FsmCheckCtx ctx(exec_, rng, /*walker=*/-1, w.name, kNoState, failure_mu,
                    result.failures);
    w.teardown(ctx);
  };

  if (opts_.mode == FsmMode::kSerial) {
    // One workload at a time: setup / walkers / teardown, in listed order.
    size_t cursor = 0;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
      if (workloads[wi]->setup) workloads[wi]->setup(exec_);
      std::vector<WalkerPlan> mine;
      while (cursor < plans.size() && plans[cursor].workloads[0] == wi) {
        mine.push_back(plans[cursor++]);
      }
      walk_ns += RunWalkerBatch(workloads, txn_names, mine, result,
                                result_mu, failure_mu);
      run_teardown(*workloads[wi]);
    }
  } else {
    for (const FsmWorkload* w : workloads) {
      if (w->setup) w->setup(exec_);
    }
    walk_ns += RunWalkerBatch(workloads, txn_names, plans, result, result_mu,
                              failure_mu);
    for (const FsmWorkload* w : workloads) run_teardown(*w);
  }
  result.seconds = walk_ns / 1e9;
  return result;
}

std::string FsmTraceString(const std::vector<const FsmWorkload*>& workloads,
                           const FsmRunResult& result) {
  std::string out;
  for (size_t t = 0; t < result.traces.size(); ++t) {
    out += "walker " + std::to_string(t) + ":";
    for (const FsmTraceEntry& e : result.traces[t]) {
      out += " " + workloads[e.workload]->name + "/" +
             workloads[e.workload]->states[e.state].name;
    }
    out += "\n";
  }
  return out;
}

}  // namespace objectbase::workload
