// Workload generator and runner tests: specs are well-formed, run under
// every protocol, and the runner's metrics add up.
#include <gtest/gtest.h>

#include "src/adt/counter_adt.h"
#include "src/workload/generators.h"
#include "src/workload/runner.h"

namespace objectbase::workload {
namespace {

TEST(WorkloadTest, BankingRunsUnderAllProtocols) {
  BankingParams p;
  p.accounts = 8;
  p.branches = 2;
  for (rt::Protocol protocol :
       {rt::Protocol::kN2pl, rt::Protocol::kNto, rt::Protocol::kCert,
        rt::Protocol::kGemstone, rt::Protocol::kMixed}) {
    rt::ObjectBase base;
    SetupBanking(base, p);
    rt::Executor exec(base, {.protocol = protocol, .record = false});
    WorkloadSpec spec = MakeBankingSpec(p);
    spec.threads = 3;
    spec.txns_per_thread = 20;
    RunMetrics m = RunWorkload(exec, spec);
    EXPECT_GT(m.committed, 0u) << rt::ProtocolName(protocol);
    EXPECT_GT(m.Throughput(), 0.0);
    EXPECT_EQ(m.latency_ns.count(),
              static_cast<uint64_t>(spec.threads) * spec.txns_per_thread);
    // A plain base is one shard: every commit lands in slot 0.
    ASSERT_EQ(m.committed_by_shard.size(), 1u);
    EXPECT_EQ(m.committed_by_shard[0], m.committed);
    EXPECT_EQ(m.cross_shard_committed, 0u);
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
  WorkloadSpec spec = MakeBankingSpec(p);
  spec.threads = 4;
  spec.txns_per_thread = 50;
  RunWorkload(exec, spec);
  // Accounts plus branch counters must sum to the initial endowment (each
  // transfer debits one account, credits another, and moves the delta
  // through the branch counters with net zero).
  int64_t total = 0;
  exec.RunTransaction("audit", [&](rt::MethodCtx& txn) {
    for (int i = 0; i < p.accounts; ++i) {
      total += txn.Invoke("acct:" + std::to_string(i), "balance").AsInt();
    }
    for (int i = 0; i < p.branches; ++i) {
      total += txn.Invoke("branch:" + std::to_string(i), "get").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total, p.initial * p.accounts);
}

TEST(WorkloadTest, QueueSpecPrefillsAndBalances) {
  QueueParams p;
  p.queues = 2;
  p.batch = 3;
  rt::ObjectBase base;
  SetupQueues(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .granularity = cc::Granularity::kStep,
                           .record = false});
  WorkloadSpec spec = MakeQueueSpec(p);
  spec.threads = 2;
  spec.txns_per_thread = 30;
  RunMetrics m = RunWorkload(exec, spec);
  EXPECT_GT(m.committed, 0u);
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
    WorkloadSpec spec = MakeSemanticSpec(p);
    spec.threads = 2;
    spec.txns_per_thread = 25;
    RunMetrics m = RunWorkload(exec, spec);
    EXPECT_GT(m.committed, 0u);
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
  WorkloadSpec spec = MakeFanoutSpec(p);
  spec.threads = 2;
  spec.txns_per_thread = 5;
  RunMetrics m = RunWorkload(exec, spec);
  EXPECT_EQ(m.committed, 10u);
}

TEST(WorkloadTest, DictionarySpecMaintainsCountInvariant) {
  DictionaryParams p;
  p.dicts = 2;
  p.keyspace = 64;
  rt::ObjectBase base;
  SetupDictionary(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kMixed,
                           .record = false});
  WorkloadSpec spec = MakeDictionarySpec(p);
  spec.threads = 3;
  spec.txns_per_thread = 30;
  RunWorkload(exec, spec);
  // "dict-total" tracks the total number of entries across dictionaries.
  int64_t total_counter = 0;
  int64_t actual = 0;
  exec.RunTransaction("audit", [&](rt::MethodCtx& txn) {
    total_counter = txn.Invoke("dict-total", "get").AsInt();
    for (int i = 0; i < p.dicts; ++i) {
      actual += txn.Invoke("dict:" + std::to_string(i), "count").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total_counter, actual);
}

TEST(WorkloadTest, MetricsExposeAbortBreakdown) {
  BankingParams p;
  p.accounts = 2;  // maximal contention
  p.branches = 1;
  rt::ObjectBase base;
  SetupBanking(base, p);
  rt::Executor exec(base, {.protocol = rt::Protocol::kNto, .record = false});
  WorkloadSpec spec = MakeBankingSpec(p);
  spec.threads = 4;
  spec.txns_per_thread = 40;
  RunMetrics m = RunWorkload(exec, spec);
  // Under hot contention NTO must see some timestamp rejections, and every
  // abort must be accounted to a reason.
  EXPECT_EQ(m.aborted_attempts,
            m.deadlocks + m.ts_rejects + m.validation_fails + m.cascades +
                exec.stats().AbortsFor(cc::AbortReason::kUser) +
                exec.stats().AbortsFor(cc::AbortReason::kInjected) +
                exec.stats().AbortsFor(cc::AbortReason::kNone));
}

// An abort storm (every attempt user-aborts) through RunWorkload: each
// transaction uses exactly the executor's retry budget and is reported as
// given up, and the runner's retry count is the executor's own — the
// budget and the count live in Executor::RunTransaction alone.
TEST(WorkloadTest, AbortStormUsesTheExecutorRetryBudget) {
  const int kThreads = 2;
  const uint64_t kTxns = 25;
  const int kBudget = 3;  // attempts per transaction (1 + 2 retries)
  rt::ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  rt::Executor exec(base, {.protocol = rt::Protocol::kN2pl,
                           .record = false,
                           .max_top_retries = kBudget});
  WorkloadSpec spec;
  spec.name = "abort-storm";
  spec.threads = kThreads;
  spec.txns_per_thread = kTxns;
  TxnTemplate storm;
  storm.name = "always-abort";
  storm.make = [](Rng&) -> rt::MethodFn {
    return [](rt::MethodCtx& txn) -> Value {
      txn.Abort();
    };
  };
  spec.mix.push_back(std::move(storm));

  RunMetrics m = RunWorkload(exec, spec);
  const uint64_t total = kThreads * kTxns;
  EXPECT_EQ(m.committed, 0u);
  EXPECT_EQ(m.gave_up, total);
  EXPECT_EQ(m.retries, total * (kBudget - 1));
  EXPECT_EQ(m.aborted_attempts, total * kBudget);
  EXPECT_EQ(m.retries, exec.stats().retries.load());
}

}  // namespace
}  // namespace objectbase::workload
