// N2PL end-to-end correctness (Theorem 3 made executable): every recorded
// history under nested two-phase locking must be legal and serialisable.
#include <gtest/gtest.h>

#include "src/cc/lock_manager.h"
#include "src/cc/sharded_controller.h"
#include "tests/protocol_harness.h"

namespace objectbase::rt {
namespace {

constexpr Protocol kP = Protocol::kN2pl;

TEST(N2plProtocolTest, BankingOperationGranularity) {
  RunBankingScenario(kP, cc::Granularity::kOperation, /*threads=*/4,
                     /*txns_per_thread=*/40, /*accounts=*/4, /*seed=*/1);
}

TEST(N2plProtocolTest, BankingStepGranularity) {
  RunBankingScenario(kP, cc::Granularity::kStep, 4, 40, 4, 2);
}

TEST(N2plProtocolTest, BankingWithParallelDeposit) {
  RunBankingScenario(kP, cc::Granularity::kStep, 3, 25, 4, 3,
                     /*parallel_deposit=*/true);
}

TEST(N2plProtocolTest, HotCounter) {
  RunCounterScenario(kP, cc::Granularity::kStep, 6, 60, 4);
}

TEST(N2plProtocolTest, HotCounterOperationMode) {
  RunCounterScenario(kP, cc::Granularity::kOperation, 6, 60, 5);
}

TEST(N2plProtocolTest, QueueStepMode) {
  RunQueueScenario(kP, cc::Granularity::kStep, 4, 50, 6);
}

TEST(N2plProtocolTest, QueueOperationMode) {
  RunQueueScenario(kP, cc::Granularity::kOperation, 4, 50, 7);
}

TEST(N2plProtocolTest, MixedStress) {
  RunMixedStressScenario(kP, cc::Granularity::kStep, 4, 40, 8);
}

TEST(N2plProtocolTest, DeadlocksAreResolvedByAbort) {
  // Two accounts, transfers in both directions with operation locks: the
  // classic lock-order deadlock.  The waits-for detector must resolve all
  // of them (the run terminates) and the result must still be serialisable.
  ObjectBase base;
  base.CreateObject("a", adt::MakeBankAccountSpec(1000));
  base.CreateObject("b", adt::MakeBankAccountSpec(1000));
  Executor exec(base, {.protocol = kP,
                       .granularity = cc::Granularity::kOperation});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      const std::string first = t % 2 == 0 ? "a" : "b";
      const std::string second = t % 2 == 0 ? "b" : "a";
      for (int i = 0; i < 30; ++i) {
        exec.RunTransaction("transfer", [&](MethodCtx& txn) -> Value {
          Value ok = txn.Invoke(first, "withdraw", {1});
          if (ok.AsBool()) txn.Invoke(second, "deposit", {1});
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  exec.RunTransaction("audit", [&](MethodCtx& txn) {
    total = txn.Invoke("a", "balance").AsInt() +
            txn.Invoke("b", "balance").AsInt();
    return Value();
  });
  EXPECT_EQ(total, 2000);
  VerifyHistory(exec, "N2PL deadlock scenario");
}

TEST(N2plProtocolTest, LocksFullyReleasedAfterRun) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  for (int i = 0; i < 10; ++i) {
    exec.RunTransaction("t", [](MethodCtx& txn) {
      txn.Invoke("c", "add", {1});
      return Value();
    });
  }
  cc::LockManager* locks = exec.sharded()->shard(0).locks;
  ASSERT_NE(locks, nullptr);
  EXPECT_EQ(locks->LockCount(), 0u);
}

}  // namespace
}  // namespace objectbase::rt
