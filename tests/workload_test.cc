// Flat-mix workload tests: the generators build well-formed FSM workloads,
// run under every protocol through FsmRunner's parallel mode, keep their
// teardown invariants, and pick their states by weight.
#include <gtest/gtest.h>

#include "src/adt/counter_adt.h"
#include "src/workload/generators.h"

namespace objectbase::workload {
namespace {

// One flat mix, run the way every bench and example runs it.
FsmRunResult RunFlat(rt::Executor& exec, const FsmWorkload& w,
                     bool collect_traces = false) {
  FsmRunner runner(exec, {.mode = FsmMode::kParallel,
                          .collect_traces = collect_traces});
  return runner.Run({&w});
}

constexpr rt::Protocol kAllProtocols[] = {
    rt::Protocol::kN2pl, rt::Protocol::kNto, rt::Protocol::kCert,
    rt::Protocol::kGemstone, rt::Protocol::kMixed};

std::string Failures(const FsmRunResult& res) {
  std::string out;
  for (const std::string& f : res.failures) out += f + "\n";
  return out;
}

TEST(WorkloadTest, BankingRunsUnderAllProtocols) {
  BankingParams p;
  p.accounts = 8;
  p.branches = 2;
  for (rt::Protocol protocol : kAllProtocols) {
    rt::ObjectBase base;
    SetupBanking(base, p);
    rt::Executor exec(base, {.protocol = protocol, .record = false});
    FsmWorkload w = MakeBankingWorkload(p);
    w.threads = 3;
    w.iterations = 20;
    FsmRunResult res = RunFlat(exec, w);
    // The teardown's conservation audit is part of ok().
    EXPECT_TRUE(res.ok()) << rt::ProtocolName(protocol) << "\n"
                          << Failures(res);
    EXPECT_EQ(res.visits, 60u);
    EXPECT_GT(res.committed, 0u) << rt::ProtocolName(protocol);
    EXPECT_GT(res.VisitsPerSecond(), 0.0);
    EXPECT_EQ(res.latency_ns.count(), res.visits);
    // A plain base is one shard: every commit lands in slot 0.
    const rt::Executor::Stats& s = exec.stats();
    EXPECT_EQ(s.committed_by_shard[0].load(), s.committed.load());
    EXPECT_EQ(s.committed_by_shard[rt::Executor::Stats::kCrossShardSlot].load(),
              0u);
  }
}

TEST(WorkloadTest, BankingConservesMoney) {
  BankingParams p;
  p.accounts = 6;
  p.branches = 2;
  p.audit_weight = 0.0;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl, .record = false});
  FsmWorkload w = MakeBankingWorkload(p);
  ASSERT_EQ(w.states.size(), 1u);  // no audits: transfers only
  w.threads = 4;
  w.iterations = 50;
  FsmRunResult res = RunFlat(exec, w);
  EXPECT_TRUE(res.ok()) << Failures(res);
  EXPECT_GT(res.committed, 0u);

  // The teardown audit bites: money minted before the walk is reported.
  rt::ObjectBase minted;
  SetupBanking(minted, p);
  rt::Executor exec2(minted, {.protocol = rt::Protocol::kN2pl,
                              .record = false});
  FsmWorkload leaky = MakeBankingWorkload(p);
  leaky.threads = 2;
  leaky.iterations = 10;
  leaky.setup = [setup = leaky.setup](rt::Executor& e) {
    setup(e);
    e.RunTransaction("mint", [](rt::MethodCtx& txn) {
      return txn.Invoke("acct:0", "deposit", {int64_t{1}});
    });
  };
  FsmRunResult bad = RunFlat(exec2, leaky);
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_NE(bad.failures[0].find("expected " +
                                 std::to_string(p.initial * p.accounts)),
            std::string::npos)
      << bad.failures[0];
}

// A consumer-only mix cannot refill a queue, so every committed consume
// takes exactly `batch` of the items setup prefilled, as long as no queue
// runs dry (prefill exceeds what all walkers could take from one queue).
TEST(WorkloadTest, QueueSpecPrefillsAndBalances) {
  QueueParams p;
  p.queues = 2;
  p.batch = 3;
  p.prefill = 200;
  p.producer_weight = 0.0;
  rt::ObjectBase base;
  SetupQueues(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .granularity = cc::Granularity::kStep,
                           .record = false});
  FsmWorkload w = MakeQueueWorkload(p);
  ASSERT_EQ(w.states.size(), 1u);  // "consume" only
  w.threads = 2;
  w.iterations = 30;
  ASSERT_LT(w.threads * w.iterations * p.batch, p.prefill);
  FsmRunResult res = RunFlat(exec, w);
  ASSERT_TRUE(res.ok()) << Failures(res);
  EXPECT_GT(res.committed, 0u);

  int64_t length = 0;
  exec.RunTransaction("lengths", [&](rt::MethodCtx& txn) {
    length = 0;
    for (int q = 0; q < p.queues; ++q) {
      length += txn.Invoke("queue:" + std::to_string(q), "length").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(length, p.queues * p.prefill -
                        p.batch * static_cast<int64_t>(res.committed));
}

TEST(WorkloadTest, SemanticSpecCountersVsRegisters) {
  for (bool counters : {true, false}) {
    SemanticParams p;
    p.objects = 4;
    p.use_counters = counters;
    rt::ObjectBase base;
    SetupSemantic(base, p);
    rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                             .record = false});
    FsmWorkload w = MakeSemanticWorkload(p);
    w.threads = 2;
    w.iterations = 25;
    FsmRunResult res = RunFlat(exec, w);
    EXPECT_TRUE(res.ok()) << Failures(res);
    EXPECT_GT(res.committed, 0u);
  }
}

TEST(WorkloadTest, FanoutSpecSplitsWork) {
  FanoutParams p;
  p.fanout = 3;
  p.work_per_child = 4;
  p.shards_per_thread = 2;
  rt::ObjectBase base;
  SetupFanout(base, p, /*max_threads=*/2);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .record = false});
  FsmWorkload w = MakeFanoutWorkload(p);
  w.threads = 2;
  w.iterations = 5;
  FsmRunResult res = RunFlat(exec, w);
  EXPECT_TRUE(res.ok()) << Failures(res);
  EXPECT_EQ(res.committed, 10u);
}

TEST(WorkloadTest, DictionarySpecMaintainsCountInvariant) {
  DictionaryParams p;
  p.dicts = 2;
  p.keyspace = 64;
  for (rt::Protocol protocol : kAllProtocols) {
    rt::ObjectBase base;
    SetupDictionary(base, p);
    rt::Executor exec(base, {.protocol = protocol, .record = false});
    FsmWorkload w = MakeDictionaryWorkload(p);
    w.threads = 3;
    w.iterations = 30;
    // The teardown checks "dict-total" against the dictionaries' counts.
    FsmRunResult res = RunFlat(exec, w);
    EXPECT_TRUE(res.ok()) << rt::ProtocolName(protocol) << "\n"
                          << Failures(res);
    EXPECT_GT(res.committed, 0u) << rt::ProtocolName(protocol);
  }
}

// A flat mix picks each state by weight on every visit: banking with 20%
// audits is a two-state mix weighted 0.8/0.2.
TEST(WorkloadTest, FlatMixVisitsStatesByWeight) {
  BankingParams p;
  p.audit_weight = 0.2;
  p.audit_scan = 1;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl, .record = false});
  FsmWorkload w = MakeBankingWorkload(p);
  ASSERT_EQ(w.states.size(), 2u);
  ASSERT_EQ(w.states[0].name, "transfer");
  w.threads = 4;
  w.iterations = 500;
  FsmRunResult res = RunFlat(exec, w, /*collect_traces=*/true);
  ASSERT_TRUE(res.ok()) << Failures(res);

  uint64_t visits = 0;
  uint64_t transfers = 0;
  for (const std::vector<FsmTraceEntry>& trace : res.traces) {
    for (const FsmTraceEntry& e : trace) {
      ++visits;
      if (e.state == 0) ++transfers;
    }
  }
  ASSERT_GE(visits, 2000u);
  EXPECT_EQ(visits, res.visits);
  EXPECT_NEAR(static_cast<double>(transfers) / visits, 0.8, 0.05);
  EXPECT_EQ(res.latency_ns.count(), res.visits);
}

TEST(WorkloadTest, MetricsExposeAbortBreakdown) {
  BankingParams p;
  p.accounts = 2;  // maximal contention
  p.branches = 1;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kNto, .record = false});
  FsmWorkload w = MakeBankingWorkload(p);
  w.threads = 4;
  w.iterations = 40;
  FsmRunResult res = RunFlat(exec, w);
  EXPECT_TRUE(res.ok()) << Failures(res);
  // Every abort is accounted to a reason NTO can give: wound-wait and the
  // cross-shard commit timeout belong to other protocols and setups.
  const rt::Executor::Stats& s = exec.stats();
  using cc::AbortReason;
  EXPECT_EQ(s.aborted.load(),
            s.AbortsFor(AbortReason::kDeadlock) +
                s.AbortsFor(AbortReason::kTimestampOrder) +
                s.AbortsFor(AbortReason::kValidation) +
                s.AbortsFor(AbortReason::kCascade) +
                s.AbortsFor(AbortReason::kDoomed) +
                s.AbortsFor(AbortReason::kUser) +
                s.AbortsFor(AbortReason::kInjected) +
                s.AbortsFor(AbortReason::kNone));
}

// An abort storm (every attempt user-aborts): each visit uses exactly the
// executor's retry budget and is reported as given up — the budget and the
// retry count live in Executor::RunTransaction alone.
TEST(WorkloadTest, AbortStormUsesTheExecutorRetryBudget) {
  const int kThreads = 2;
  const int kTxns = 25;
  const int kBudget = 3;  // attempts per transaction (1 + 2 retries)
  rt::ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .record = false,
                           .max_top_retries = kBudget});
  FsmWorkload w;
  w.name = "abort-storm";
  w.threads = kThreads;
  w.iterations = kTxns;
  FsmState storm;
  storm.name = "always-abort";
  storm.make = [](Rng&) -> rt::MethodFn {
    return [](rt::MethodCtx& txn) -> Value {
      txn.Abort();
    };
  };
  w.states = {std::move(storm)};
  w.transitions = {{1.0}};

  FsmRunResult res = RunFlat(exec, w);
  const uint64_t total = kThreads * kTxns;
  EXPECT_EQ(res.committed, 0u);
  EXPECT_EQ(res.gave_up, total);
  EXPECT_EQ(exec.stats().retries.load(), total * (kBudget - 1));
  EXPECT_EQ(exec.stats().aborted.load(), total * kBudget);
}

}  // namespace
}  // namespace objectbase::workload
