// NTO end-to-end correctness (Theorem 4 made executable) plus the
// timestamp-specific behaviours: rule-1 rejections, watermark GC.
#include <gtest/gtest.h>

#include "src/cc/nto_controller.h"
#include "tests/protocol_harness.h"

namespace objectbase::rt {
namespace {

constexpr Protocol kP = Protocol::kNto;

TEST(NtoProtocolTest, BankingOperationGranularity) {
  RunBankingScenario(kP, cc::Granularity::kOperation, 4, 40, 4, 11);
}

TEST(NtoProtocolTest, BankingStepGranularity) {
  RunBankingScenario(kP, cc::Granularity::kStep, 4, 40, 4, 12);
}

TEST(NtoProtocolTest, BankingWithParallelDeposit) {
  RunBankingScenario(kP, cc::Granularity::kStep, 3, 25, 4, 13,
                     /*parallel_deposit=*/true);
}

TEST(NtoProtocolTest, HotCounter) {
  RunCounterScenario(kP, cc::Granularity::kStep, 6, 60, 14);
}

TEST(NtoProtocolTest, QueueStepMode) {
  RunQueueScenario(kP, cc::Granularity::kStep, 4, 50, 15);
}

TEST(NtoProtocolTest, QueueOperationMode) {
  RunQueueScenario(kP, cc::Granularity::kOperation, 4, 50, 16);
}

TEST(NtoProtocolTest, MixedStress) {
  RunMixedStressScenario(kP, cc::Granularity::kStep, 4, 40, 17);
}

TEST(NtoProtocolTest, LateConflictingStepIsRejected) {
  // Deterministic rule-1 rejection: T_late is created first (smaller hts)
  // but issues its conflicting step after T_early's: NTO must abort the
  // attempt and the retry (fresh, larger timestamp) must succeed.
  ObjectBase base;
  base.CreateObject("r", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .granularity = cc::Granularity::kOperation});
  std::atomic<int> phase{0};
  std::thread late([&]() {
    exec.RunTransaction("late", [&](MethodCtx& txn) -> Value {
      // First attempt: wait until the other transaction has written.
      if (phase.load() == 0) {
        phase.store(1);
        while (phase.load() != 2) std::this_thread::yield();
      }
      txn.Invoke("r", "write", {1});
      return Value();
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  exec.RunTransaction("early", [&](MethodCtx& txn) -> Value {
    txn.Invoke("r", "write", {2});
    return Value();
  });
  phase.store(2);
  late.join();
  EXPECT_GE(exec.stats().AbortsFor(cc::AbortReason::kTimestampOrder), 1u);
  VerifyHistory(exec, "NTO late-step scenario");
}

TEST(NtoProtocolTest, WatermarkGcBoundsRememberedSteps) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP, .record = false});
  for (int i = 0; i < 2000; ++i) {
    exec.RunTransaction("t", [](MethodCtx& txn) {
      txn.Invoke("c", "add", {1});
      return Value();
    });
  }
  std::vector<Object*> objects{base.Find("c")};
  size_t remembered = cc::NtoController::RememberedEntries(objects);
  // Without GC this would be ~4000 entries (one per local step: the add
  // plus nothing else) — with the watermark it stays small.
  EXPECT_LT(remembered, 512u);
}

TEST(NtoProtocolTest, WithoutGcRememberedStepsGrow) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .record = false,
                       .journal_fold_threshold = 0});
  for (int i = 0; i < 500; ++i) {
    exec.RunTransaction("t", [](MethodCtx& txn) {
      txn.Invoke("c", "add", {1});
      return Value();
    });
  }
  std::vector<Object*> objects{base.Find("c")};
  EXPECT_GE(cc::NtoController::RememberedEntries(objects), 500u);
}

// The registry acceptance invariant, end-to-end through the executor: a
// steady-state conflict-free step performs ZERO mutex acquisitions in the
// DependencyGraph — the per-step doom poll is one atomic load, and the GC
// cadence poll is an atomic journal-length read.  Registry locking is a
// small constant per TRANSACTION (register + commit + retire), asserted by
// running transactions whose step count dwarfs that constant.
TEST(NtoProtocolTest, RegistryStepPathIsMutexFree) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP, .record = false});
  constexpr int kSteps = 100;
  ASSERT_TRUE(exec.DefineMethod("c", "bump_many", [](MethodCtx& m) -> Value {
    const adt::OpDescriptor* add = m.ResolveLocal("add");
    for (int i = 0; i < kSteps; ++i) m.Local(*add, {1});
    return Value();
  }));
  MethodRef bump = exec.Resolve("c", "bump_many");
  constexpr int kTxns = 20;
  const uint64_t before = cc::DepGraphMutexAcquisitions().load();
  for (int i = 0; i < kTxns; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      return txn.Invoke(bump);
    });
    ASSERT_TRUE(r.committed);
  }
  const uint64_t locks = cc::DepGraphMutexAcquisitions().load() - before;
  EXPECT_LE(locks, kTxns * 8u)
      << "registry locking scales with steps, not transactions";
}

// The journal acceptance invariant, end-to-end through the executor: the
// steady-state step path — append, conflict scan, GC cadence poll —
// performs ZERO mutex acquisitions in the applied journal.  The journal's
// only mutex guards fold/GC bookkeeping, so with folding disabled the
// count must not move at all, across thousands of steps and multiple
// chunk allocations (chunk growth is CAS-linked, not locked) — the PR-4
// SteadyStateAcquireTakesNoGlobalLock pattern applied to the journal.
TEST(NtoProtocolTest, StepPathTakesNoJournalMutex) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .record = false,
                       .journal_fold_threshold = 0});
  constexpr int kSteps = 200;
  ASSERT_TRUE(exec.DefineMethod("c", "bump_many", [](MethodCtx& m) -> Value {
    const adt::OpDescriptor* add = m.ResolveLocal("add");
    for (int i = 0; i < kSteps; ++i) m.Local(*add, {1});
    return Value();
  }));
  MethodRef bump = exec.Resolve("c", "bump_many");
  // Warm up one transaction (first-touch paths), then measure.
  ASSERT_TRUE(exec.RunTransaction("warm", [&](MethodCtx& txn) {
    return txn.Invoke(bump);
  }).committed);
  const uint64_t before = JournalMutexAcquisitions().load();
  for (int i = 0; i < 20; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      return txn.Invoke(bump);
    });
    ASSERT_TRUE(r.committed);
  }
  EXPECT_EQ(JournalMutexAcquisitions().load() - before, 0u)
      << "the NTO step path took a journal mutex";
}

// With folding enabled, journal locking is bounded by the folds (one
// acquisition each), never by the steps.
TEST(NtoProtocolTest, JournalLockingScalesWithFoldsNotSteps) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP, .record = false});
  const uint64_t before = JournalMutexAcquisitions().load();
  constexpr int kTxns = 500;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(exec.RunTransaction("t", [](MethodCtx& txn) {
      txn.Invoke("c", "add", {1});
      txn.Invoke("c", "add", {1});
      return Value();
    }).committed);
  }
  const uint64_t locks = JournalMutexAcquisitions().load() - before;
  // 1000 steps; folds fire every threshold/2 = 32 entries past 64.
  EXPECT_LE(locks, 1000u / 32u + 2u)
      << "journal locking scales with steps, not folds";
}

TEST(NtoProtocolTest, SequentialSiblingsNeverSelfAbort) {
  // Rule 2 gives ◁-ordered messages increasing timestamps, so a purely
  // sequential nested transaction conflicts only in timestamp order with
  // itself — and kin are exempt from rule 1 anyway.  No aborts expected.
  ObjectBase base;
  base.CreateObject("r", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP});
  ASSERT_TRUE(exec.DefineMethod("r", "write_twice", [](MethodCtx& m) -> Value {
    m.Local("write", {1});
    m.Local("write", {2});
    m.Invoke("r", "write", {3});  // nested sibling-of-self message
    return Value();
  }));
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    txn.Invoke("r", "write_twice");
    return txn.Invoke("r", "read");
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.ret, Value(3));
}

}  // namespace
}  // namespace objectbase::rt
