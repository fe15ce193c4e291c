// GEMSTONE baseline end-to-end correctness: the Section 1 conservative
// reduction is correct (exclusive whole-object strict 2PL), just slow.
#include <gtest/gtest.h>

#include "src/cc/lock_manager.h"
#include "src/cc/sharded_controller.h"
#include "tests/protocol_harness.h"

namespace objectbase::rt {
namespace {

constexpr Protocol kP = Protocol::kGemstone;

TEST(GemstoneProtocolTest, Banking) {
  RunBankingScenario(kP, cc::Granularity::kOperation, 4, 40, 4, 31);
}

TEST(GemstoneProtocolTest, HotCounter) {
  RunCounterScenario(kP, cc::Granularity::kOperation, 6, 60, 32);
}

TEST(GemstoneProtocolTest, Queue) {
  RunQueueScenario(kP, cc::Granularity::kOperation, 4, 50, 33);
}

TEST(GemstoneProtocolTest, MixedStress) {
  RunMixedStressScenario(kP, cc::Granularity::kOperation, 4, 40, 34);
}

TEST(GemstoneProtocolTest, WholeObjectLockSerialisesEvenCommutingOps) {
  // The conservative reduction's cost: two concurrent transactions doing
  // COMMUTING counter adds still exclude each other on the whole object.
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        exec.RunTransaction("add", [&](MethodCtx& txn) {
          txn.Invoke("c", "add", {1});
          if (inside.exchange(true)) overlaps.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          inside.store(false);
          txn.Invoke("c", "add", {1});
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  // Between the two adds the transaction still holds the object lock, so
  // no other transaction can be between ITS two adds at the same time.
  EXPECT_EQ(overlaps.load(), 0);
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    return txn.Invoke("c", "get");
  });
  EXPECT_EQ(check.ret, Value(200));
  VerifyHistory(exec, "GEMSTONE exclusion scenario");
}

// Runs transaction A invoking `first_op` (whose lock it then holds until
// completion), and once A is inside its transaction, transaction B on a
// second thread invoking `second_op`.  A waits up to `wait_ms` for B to
// complete.  Returns true iff B completed WHILE A still held its lock —
// i.e. the two whole-object lock modes admitted each other.
bool SecondTxnCompletesInsideFirst(Executor& exec, const char* first_op,
                                   Args first_args, const char* second_op,
                                   int wait_ms) {
  std::atomic<bool> a_in_txn{false};
  std::atomic<bool> b_done{false};
  std::atomic<bool> b_done_inside_a{false};
  std::thread first([&]() {
    exec.RunTransaction("first", [&](MethodCtx& txn) -> Value {
      txn.Invoke("acct", first_op, first_args);  // lock held to completion
      a_in_txn.store(true);
      for (int i = 0; i < wait_ms / 5 && !b_done.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      b_done_inside_a.store(b_done.load());
      return Value();
    });
  });
  std::thread second([&]() {
    while (!a_in_txn.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    exec.RunTransaction("second", [&](MethodCtx& txn) -> Value {
      return txn.Invoke("acct", second_op);
    });
    b_done.store(true);
  });
  first.join();
  second.join();
  return b_done_inside_a.load();
}

TEST(GemstoneProtocolTest, SharedReadsRunConcurrently) {
  // The honest baseline: read-only methods take SHARED whole-object locks,
  // so a reader transaction completes while another reader still holds the
  // object — under the old exclusive-only locks reader B would block until
  // reader A's top-level completion.
  ObjectBase base;
  base.CreateObject("acct", adt::MakeBankAccountSpec(100));
  Executor exec(base, {.protocol = kP});
  EXPECT_TRUE(SecondTxnCompletesInsideFirst(exec, "balance", {}, "balance",
                                            /*wait_ms=*/2000))
      << "a read-only transaction could not complete while another reader "
         "held its shared lock";
  VerifyHistory(exec, "GEMSTONE shared readers");
}

TEST(GemstoneProtocolTest, WritersStillExcludeReaders) {
  // The dual direction: while a writer holds its exclusive lock, a reader
  // cannot complete.
  ObjectBase base;
  base.CreateObject("acct", adt::MakeBankAccountSpec(100));
  Executor exec(base, {.protocol = kP});
  EXPECT_FALSE(SecondTxnCompletesInsideFirst(exec, "deposit", {5}, "balance",
                                             /*wait_ms=*/150))
      << "a reader completed while a writer held its exclusive lock";
  VerifyHistory(exec, "GEMSTONE writer exclusion");
}

TEST(GemstoneProtocolTest, LocksReleasedAtTopCompletion) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  exec.RunTransaction("t", [](MethodCtx& txn) {
    txn.Invoke("c", "add", {1});
    return Value();
  });
  cc::LockManager* locks = exec.sharded()->shard(0).locks;
  ASSERT_NE(locks, nullptr);
  EXPECT_EQ(locks->LockCount(), 0u);
}

}  // namespace
}  // namespace objectbase::rt
