// FSM workload framework tests: spec validation, the three runner modes,
// the determinism contract (byte-identical traces), the acceptance sweep
// (composed-mode run of all three seeded scenarios passing the legality /
// SG-acyclicity / Theorem 5 oracles under every protocol), and the sharded
// follow-on from PR 9 — the pinned cross-shard cycle staying doomed while
// FSM traffic runs around it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/adt/register_adt.h"
#include "src/cc/sharded_controller.h"
#include "src/common/rng.h"
#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialiser.h"
#include "src/runtime/executor.h"
#include "src/workload/fsm.h"
#include "src/workload/fsm_scenarios.h"

namespace objectbase::workload {
namespace {

void VerifyOracles(rt::Executor& exec, const std::string& context) {
  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  EXPECT_TRUE(legal.legal) << context << ": " << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_TRUE(check.serialisable) << context << ": " << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  EXPECT_TRUE(t5.holds) << context << ": " << t5.detail;
}

// Small-parameter versions of the three scenarios so a test run stays in
// the hundreds of transactions.
SecondaryIndexParams SmallSi() {
  SecondaryIndexParams p;
  p.keyspace = 32;
  p.prefill = 8;
  p.threads = 3;
  p.iterations = 30;
  return p;
}

QueuePipelineParams SmallQp() {
  QueuePipelineParams p;
  p.stages = 3;
  p.bound = 4;
  p.threads = 3;
  p.iterations = 30;
  return p;
}

CatalogueParams SmallCat() {
  CatalogueParams p;
  p.keyspace = 64;
  p.prefill = 16;
  p.threads = 3;
  p.iterations = 30;
  return p;
}

struct Scenarios {
  FsmWorkload si, qp, cat;
  std::vector<const FsmWorkload*> all;
};

Scenarios MakeScenarios(rt::ObjectBase& base) {
  Scenarios s;
  SecondaryIndexParams si = SmallSi();
  QueuePipelineParams qp = SmallQp();
  CatalogueParams cat = SmallCat();
  SetupSecondaryIndex(base, si);
  SetupQueuePipeline(base, qp);
  SetupCatalogue(base, cat);
  s.si = MakeSecondaryIndexFsm(si);
  s.qp = MakeQueuePipelineFsm(qp);
  s.cat = MakeCatalogueFsm(cat);
  s.all = {&s.si, &s.qp, &s.cat};
  return s;
}

std::string Joined(const std::vector<std::string>& failures) {
  std::string out;
  for (const std::string& f : failures) out += f + "\n";
  return out;
}

// --- validation --------------------------------------------------------------

TEST(FsmValidation, CatchesMalformedSpecs) {
  FsmWorkload w;
  w.name = "bad";
  EXPECT_NE(ValidateFsm(w), "");  // no states

  FsmState s;
  s.name = "only";
  w.states = {s};
  EXPECT_NE(ValidateFsm(w), "");  // state without a body factory

  w.states[0].make = [](Rng&) -> rt::MethodFn {
    return [](rt::MethodCtx&) { return Value(); };
  };
  EXPECT_NE(ValidateFsm(w), "");  // no transition rows

  w.transitions = {{0.5, 0.5}};
  EXPECT_NE(ValidateFsm(w), "");  // row wider than the state count

  w.transitions = {{0.5}};
  EXPECT_NE(ValidateFsm(w), "");  // row does not sum to 1

  w.transitions = {{1.0}};
  EXPECT_EQ(ValidateFsm(w), "");

  w.start_state = 1;
  EXPECT_NE(ValidateFsm(w), "");  // start state out of range
  w.start_state = 0;

  w.transitions = {{-1.0}};
  EXPECT_NE(ValidateFsm(w), "");  // negative probability

  // NormalizeTransitionRows turns relative odds into a stochastic row.
  w.transitions = {{4.0}};
  NormalizeTransitionRows(w.transitions);
  EXPECT_EQ(ValidateFsm(w), "");
  EXPECT_DOUBLE_EQ(w.transitions[0][0], 1.0);
}

TEST(FsmValidation, SeededScenariosAreWellFormed) {
  EXPECT_EQ(ValidateFsm(MakeSecondaryIndexFsm(SmallSi())), "");
  EXPECT_EQ(ValidateFsm(MakeQueuePipelineFsm(SmallQp())), "");
  EXPECT_EQ(ValidateFsm(MakeCatalogueFsm(SmallCat())), "");
}

// --- runner modes ------------------------------------------------------------

TEST(FsmRunnerTest, SerialModeRunsEachWorkloadInTurn) {
  rt::ObjectBase base;
  Scenarios s = MakeScenarios(base);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl});
  FsmRunner runner(exec, {.mode = FsmMode::kSerial, .seed = 7});
  FsmRunResult res = runner.Run(s.all);
  EXPECT_TRUE(res.ok()) << Joined(res.failures);
  // Every workload ran threads x iterations visits.
  uint64_t expect = 0;
  for (const FsmWorkload* w : s.all) {
    expect += static_cast<uint64_t>(w->threads) * w->iterations;
  }
  EXPECT_EQ(res.visits, expect);
  EXPECT_GT(res.committed, 0u);
  EXPECT_GT(res.checks_run, 0u);
  VerifyOracles(exec, "serial mode");
}

TEST(FsmRunnerTest, ParallelModeRunsAllWorkloadsAtOnce) {
  rt::ObjectBase base;
  Scenarios s = MakeScenarios(base);
  rt::Executor exec(base, {.protocol = rt::Protocol::kNto});
  FsmRunner runner(exec, {.mode = FsmMode::kParallel, .seed = 11});
  FsmRunResult res = runner.Run(s.all);
  EXPECT_TRUE(res.ok()) << Joined(res.failures);
  EXPECT_GT(res.committed, 0u);
  VerifyOracles(exec, "parallel mode");
}

TEST(FsmRunnerTest, ComposedModeInterleavesOnSharedWalkers) {
  rt::ObjectBase base;
  Scenarios s = MakeScenarios(base);
  rt::Executor exec(base, {.protocol = rt::Protocol::kGemstone});
  FsmRunOptions opts;
  opts.mode = FsmMode::kComposed;
  opts.seed = 13;
  opts.composed_threads = 4;
  opts.collect_traces = true;
  FsmRunner runner(exec, opts);
  FsmRunResult res = runner.Run(s.all);
  EXPECT_TRUE(res.ok()) << Joined(res.failures);
  // Each composed walker runs the sum of the workloads' iteration budgets.
  uint64_t per_walker = 0;
  for (const FsmWorkload* w : s.all) per_walker += w->iterations;
  EXPECT_EQ(res.visits, per_walker * opts.composed_threads);
  ASSERT_EQ(res.traces.size(), 4u);
  // Every walker genuinely interleaves: its trace must visit >1 workload.
  for (const auto& trace : res.traces) {
    ASSERT_FALSE(trace.empty());
    uint32_t first = trace[0].workload;
    bool mixed_workloads = false;
    for (const FsmTraceEntry& e : trace) {
      if (e.workload != first) { mixed_workloads = true; break; }
    }
    EXPECT_TRUE(mixed_workloads);
  }
  VerifyOracles(exec, "composed mode");
}

// --- acceptance: composed x every protocol -----------------------------------

TEST(FsmRunnerTest, ComposedScenariosPassOraclesUnderEveryProtocol) {
  for (rt::Protocol protocol :
       {rt::Protocol::kN2pl, rt::Protocol::kNto, rt::Protocol::kCert,
        rt::Protocol::kGemstone, rt::Protocol::kMixed}) {
    SCOPED_TRACE(rt::ProtocolName(protocol));
    rt::ObjectBase base;
    Scenarios s = MakeScenarios(base);
    rt::Executor exec(base, {.protocol = protocol, .max_top_retries = 50});
    if (protocol == rt::Protocol::kMixed) {
      // Every scenario object gets a randomly drawn intra-object policy, so
      // the cross-object invariants hold across policy boundaries too.
      Rng rng(2026);
      const cc::IntraPolicy policies[] = {cc::IntraPolicy::kLocal2pl,
                                          cc::IntraPolicy::kTimestamp,
                                          cc::IntraPolicy::kOptimistic};
      for (const char* name :
           {"si:dict", "si:index", "qp:q0", "qp:q1", "qp:q2", "qp:produced",
            "qp:consumed", "cat:cat", "cat:version"}) {
        ASSERT_TRUE(exec.SetIntraPolicy(name, policies[rng.Uniform(3)]));
      }
    }
    FsmRunner runner(exec,
                     {.mode = FsmMode::kComposed, .seed = 17,
                      .composed_threads = 4});
    FsmRunResult res = runner.Run(s.all);
    EXPECT_TRUE(res.ok()) << Joined(res.failures);
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.checks_run, 0u);
    VerifyOracles(exec, std::string("composed ") + rt::ProtocolName(protocol));
  }
}

// --- determinism -------------------------------------------------------------

// Same (workloads, seed, mode) => byte-identical state-transition traces,
// even though commit outcomes under contention are not deterministic.  A
// fresh base + executor per run keeps the object world identical too.
TEST(FsmRunnerTest, DeterministicTraces) {
  for (FsmMode mode : {FsmMode::kSerial, FsmMode::kComposed}) {
    SCOPED_TRACE(FsmModeName(mode));
    std::string first;
    for (int run = 0; run < 2; ++run) {
      rt::ObjectBase base;
      Scenarios s = MakeScenarios(base);
      rt::Executor exec(base, {.protocol = rt::Protocol::kMixed});
      FsmRunOptions opts;
      opts.mode = mode;
      opts.seed = 99;
      opts.composed_threads = 3;
      opts.collect_traces = true;
      FsmRunner runner(exec, opts);
      FsmRunResult res = runner.Run(s.all);
      EXPECT_TRUE(res.ok()) << Joined(res.failures);
      std::string trace = FsmTraceString(s.all, res);
      ASSERT_FALSE(trace.empty());
      if (run == 0) {
        first = trace;
      } else {
        EXPECT_EQ(first, trace) << "trace diverged across identical runs";
      }
    }
  }
}

// A different seed must actually change the walk (the determinism test
// would pass vacuously if traces ignored the seed).
TEST(FsmRunnerTest, SeedChangesTheWalk) {
  std::vector<std::string> traces;
  for (uint64_t seed : {1u, 2u}) {
    rt::ObjectBase base;
    Scenarios s = MakeScenarios(base);
    rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl});
    FsmRunner runner(exec, {.mode = FsmMode::kComposed, .seed = seed,
                            .composed_threads = 2, .collect_traces = true});
    FsmRunResult res = runner.Run(s.all);
    EXPECT_TRUE(res.ok()) << Joined(res.failures);
    traces.push_back(FsmTraceString(s.all, res));
  }
  EXPECT_NE(traces[0], traces[1]);
}

// --- sharded follow-ons (PR 9) -----------------------------------------------

// The PR 9 pinned regression, now under load: while composed FSM traffic
// runs, two latch-interleaved transactions form a serialisation cycle whose
// edges live on different shards.  Committing both would certify a cyclic
// SG — at least one must stay doomed, FSM noise or not.
TEST(FsmShardedTest, CrossShardCycleStaysDoomedUnderFsmLoad) {
  rt::ShardedBase base(2);
  // Created first: "a" lands on shard 0, "b" on shard 1.
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeRegisterSpec(0));
  Scenarios s = MakeScenarios(base);
  rt::Executor exec(base, {.protocol = rt::Protocol::kCert});
  ASSERT_NE(exec.sharded(), nullptr);
  exec.sharded()->SetCommitPollBudgetUs(200'000);

  std::atomic<int> stage{0};
  auto wait_for = [&stage](int n) {
    while (stage.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  };

  // FSM load runs concurrently with the constructed cycle.
  std::thread load([&] {
    FsmRunner runner(exec, {.mode = FsmMode::kComposed, .seed = 31,
                            .composed_threads = 2});
    FsmRunResult res = runner.Run(s.all);
    EXPECT_TRUE(res.ok()) << Joined(res.failures);
  });

  rt::TxnResult r1, r2;
  std::thread w1([&] {
    r1 = exec.RunTransactionOnce("T1", [&](rt::MethodCtx& txn) {
      txn.Invoke("a", "write", {1});
      stage.fetch_add(1, std::memory_order_acq_rel);
      wait_for(2);
      txn.Invoke("b", "write", {1});
      return Value();
    });
  });
  std::thread w2([&] {
    r2 = exec.RunTransactionOnce("T2", [&](rt::MethodCtx& txn) {
      txn.Invoke("b", "write", {2});
      stage.fetch_add(1, std::memory_order_acq_rel);
      wait_for(2);
      txn.Invoke("a", "write", {2});
      return Value();
    });
  });
  w1.join();
  w2.join();
  load.join();

  EXPECT_FALSE(r1.committed && r2.committed)
      << "cross-shard cycle committed on both sides under FSM load";
  VerifyOracles(exec, "cross-shard cycle under FSM load");
}

}  // namespace
}  // namespace objectbase::workload
