// MIXED (per-object intra-object policies + global certifier, Theorem 5)
// end-to-end correctness, including the B-tree crabbing object.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>

#include "src/adt/btree_dictionary_adt.h"
#include "tests/protocol_harness.h"

namespace objectbase::rt {
namespace {

constexpr Protocol kP = Protocol::kMixed;

TEST(MixedProtocolTest, Banking) {
  RunBankingScenario(kP, cc::Granularity::kStep, 4, 40, 4, 41);
}

TEST(MixedProtocolTest, HotCounter) {
  RunCounterScenario(kP, cc::Granularity::kStep, 6, 60, 42);
}

TEST(MixedProtocolTest, QueueStepMode) {
  RunQueueScenario(kP, cc::Granularity::kStep, 4, 50, 43);
}

TEST(MixedProtocolTest, MixedStress) {
  RunMixedStressScenario(kP, cc::Granularity::kStep, 4, 40, 44);
}

// Regression for a cross-layer deadlock found by the cross-protocol fuzz
// (CrossProtocolFuzz in serialisability_property_test): T1 conflicts-after
// T2 on an OPTIMISTIC object (dependency edge T2 -> T1), takes a strict
// local-2pl lock, and commit-waits for T2 — still holding the lock.  T2
// then requests that very lock.  The lock manager's waits-for graph saw
// only T2's lock wait, the certifier's cycle veto saw only the dependency
// edge; the composite cycle hung both threads forever.  The fix registers
// MIXED commit-waits in the waits-for graph (MixedController::OnTopCommit)
// so whichever side blocks second detects the cycle and aborts.
TEST(MixedProtocolTest, LockCommitWaitCrossLayerDeadlockIsDetected) {
  ObjectBase base;
  base.CreateObject("opt", adt::MakeRegisterSpec(0));
  base.CreateObject("locked", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP});
  ASSERT_TRUE(exec.SetIntraPolicy("opt", cc::IntraPolicy::kOptimistic));
  ASSERT_TRUE(exec.SetIntraPolicy("locked", cc::IntraPolicy::kLocal2pl));

  std::atomic<int> phase{0};
  std::thread t2_thread([&]() {
    exec.RunTransaction("T2", [&](MethodCtx& txn) -> Value {
      txn.Invoke("opt", "write", {2});
      if (phase.load() == 0) {
        // First attempt only: let T1 conflict-after us, lock "locked" and
        // enter its commit-wait before we request the lock.
        phase.store(1);
        while (phase.load() != 2) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      txn.Invoke("locked", "write", {2});
      return Value();
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  TxnResult t1 = exec.RunTransaction("T1", [&](MethodCtx& txn) -> Value {
    txn.Invoke("opt", "write", {1});      // edge T2 -> T1
    txn.Invoke("locked", "write", {1});   // strict lock, held to finish
    phase.store(2);                       // T2 may now chase the lock
    return Value();
  });
  t2_thread.join();
  // Without the fix this test HANGS.  With it, one side aborts (deadlock
  // victim or its cascade), both retry, and both eventually commit.
  EXPECT_TRUE(t1.committed);
  EXPECT_GE(exec.stats().AbortsFor(cc::AbortReason::kDeadlock) +
                exec.stats().AbortsFor(cc::AbortReason::kDoomed) +
                exec.stats().AbortsFor(cc::AbortReason::kCascade),
            1u);
  VerifyHistory(exec, "MIXED cross-layer deadlock scenario");
}

TEST(MixedProtocolTest, PerObjectPoliciesCoexist) {
  // One object per intra-object policy, all in one workload (the Section 2
  // pitch: each object runs its most suitable algorithm, the inter-object
  // layer keeps them compatible).
  ObjectBase base;
  base.CreateObject("locked", adt::MakeCounterSpec(0));
  base.CreateObject("timestamped", adt::MakeCounterSpec(0));
  base.CreateObject("optimistic", adt::MakeCounterSpec(0));
  base.CreateObject("tree", adt::MakeBTreeDictionarySpec(8));
  Executor exec(base, {.protocol = kP});
  exec.SetIntraPolicy("locked", cc::IntraPolicy::kLocal2pl);
  exec.SetIntraPolicy("timestamped", cc::IntraPolicy::kTimestamp);
  exec.SetIntraPolicy("optimistic", cc::IntraPolicy::kOptimistic);
  // "tree" defaults to kCrabbing via supports_concurrent_apply.

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(4242 + t);
      for (int i = 0; i < 40; ++i) {
        int64_t key = rng.Range(0, 63);
        exec.RunTransaction("mixed", [&, key](MethodCtx& txn) -> Value {
          txn.Invoke("locked", "add", {1});
          txn.Invoke("timestamped", "add", {1});
          txn.Invoke("optimistic", "add", {1});
          txn.Invoke("tree", "put", {key, key * 2});
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t committed = exec.stats().committed.load();
  EXPECT_GT(committed, 0u);
  exec.RunTransaction("check", [&](MethodCtx& txn) {
    // Every committed transaction bumped all three counters exactly once.
    EXPECT_EQ(txn.Invoke("locked", "get").AsInt(),
              static_cast<int64_t>(committed));
    EXPECT_EQ(txn.Invoke("timestamped", "get").AsInt(),
              static_cast<int64_t>(committed));
    EXPECT_EQ(txn.Invoke("optimistic", "get").AsInt(),
              static_cast<int64_t>(committed));
    return Value();
  });
  VerifyHistory(exec, "MIXED coexisting policies");
}

TEST(MixedProtocolTest, BTreeObjectUnderContention) {
  ObjectBase base;
  base.CreateObject("tree", adt::MakeBTreeDictionarySpec(8));
  base.CreateObject("total", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(999 + t);
      for (int i = 0; i < 50; ++i) {
        int64_t key = rng.Range(0, 31);
        bool put = rng.Bernoulli(0.6);
        exec.RunTransaction("dict", [&, key, put](MethodCtx& txn) -> Value {
          int64_t delta = 0;
          if (put) {
            if (txn.Invoke("tree", "put", {key, key}).is_none()) delta = 1;
          } else {
            if (txn.Invoke("tree", "del", {key}).AsBool()) delta = -1;
          }
          if (delta != 0) txn.Invoke("total", "add", {delta});
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  // Inter-object constraint: the counter tracks the tree's cardinality.
  exec.RunTransaction("check", [&](MethodCtx& txn) {
    EXPECT_EQ(txn.Invoke("tree", "count"), txn.Invoke("total", "get"));
    return Value();
  });
  VerifyHistory(exec, "MIXED btree scenario");
}

TEST(MixedProtocolTest, PolicyFlipMidRunIsRaceFreeAndSerialisable) {
  // Regression for the SetPolicy/PolicyFor data race: the policy table used
  // to be a plain vector that SetPolicy resized while concurrent
  // ExecuteLocal calls read it lock-free.  Now slots are atomic and sized
  // once, so flipping a policy mid-run is safe: in-flight steps keep the
  // admission they passed, new steps see the new policy, and the delegated
  // certifier keeps the mix serialisable either way.  The TSan CI job runs
  // this test.
  ObjectBase base;
  base.CreateObject("hot", adt::MakeCounterSpec(0));
  base.CreateObject("side", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(515 + t);
      for (int i = 0; i < 120; ++i) {
        exec.RunTransaction("bump", [&](MethodCtx& txn) -> Value {
          txn.Invoke("hot", "add", {1});
          txn.Invoke("side", "add", {1});
          return Value();
        });
      }
    });
  }
  std::thread flipper([&]() {
    const cc::IntraPolicy policies[] = {
        cc::IntraPolicy::kLocal2pl, cc::IntraPolicy::kOptimistic,
        cc::IntraPolicy::kTimestamp};
    int i = 0;
    while (!stop.load()) {
      EXPECT_TRUE(exec.SetIntraPolicy("hot", policies[i++ % 3]));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  flipper.join();
  const int64_t committed =
      static_cast<int64_t>(exec.stats().committed.load());
  EXPECT_GT(committed, 0);
  exec.RunTransaction("check", [&](MethodCtx& txn) {
    EXPECT_EQ(txn.Invoke("hot", "get").AsInt(), committed);
    EXPECT_EQ(txn.Invoke("side", "get").AsInt(), committed);
    return Value();
  });
  VerifyHistory(exec, "MIXED policy flip mid-run");
}

TEST(MixedProtocolTest, SetPolicyRejectsUnknownObjects) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  EXPECT_TRUE(exec.SetIntraPolicy("c", cc::IntraPolicy::kLocal2pl));
  EXPECT_FALSE(exec.SetIntraPolicy("nope", cc::IntraPolicy::kLocal2pl));
}

TEST(MixedProtocolTest, PolicyNamesExposed) {
  EXPECT_STREQ(cc::IntraPolicyName(cc::IntraPolicy::kLocal2pl), "local-2pl");
  EXPECT_STREQ(cc::IntraPolicyName(cc::IntraPolicy::kCrabbing), "crabbing");
}

// MIXED's certifier keeps the hts snapshot on its journal entries (plain
// CERT drops it): the kTimestamp admission scan compares them, so NTO's
// rule 1 must still abort an older writer behind a younger remembered one.
TEST(MixedProtocolTest, TimestampPolicyKeepsEntryHtsAndRule1Aborts) {
  ObjectBase base;
  base.CreateObject("r", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .record = false,
                       .journal_fold_threshold = 0});
  ASSERT_TRUE(exec.SetIntraPolicy("r", cc::IntraPolicy::kTimestamp));
  std::map<uint64_t, uint64_t> serial_of;  // top uid -> top serial
  std::atomic<int> phase{0};
  TxnResult older;
  std::thread older_thread([&] {
    older = exec.RunTransactionOnce("older", [&](MethodCtx& txn) -> Value {
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
      // A younger transaction's write to r is remembered by now.
      return txn.Invoke("r", "write", {1});
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  TxnResult younger = exec.RunTransaction("younger", [&](MethodCtx& txn) {
    serial_of[txn.node().uid()] = txn.node().hts().top_component();
    return txn.Invoke("r", "write", {2});
  });
  ASSERT_TRUE(younger.committed);
  phase.store(2);
  older_thread.join();
  EXPECT_FALSE(older.committed);
  EXPECT_EQ(older.last_abort, cc::AbortReason::kTimestampOrder)
      << cc::AbortReasonName(older.last_abort);

  size_t entries = 0;
  AppliedJournal::Scan scan(base.Find("r")->journal());
  scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
    ++entries;
    EXPECT_NE(e.hts, nullptr) << "entry at " << e.pos;
    if (e.hts != nullptr) {
      EXPECT_EQ(e.hts->top_component(), e.top_serial);
    }
    auto it = serial_of.find(e.top_uid);
    EXPECT_TRUE(it != serial_of.end()) << "unknown top " << e.top_uid;
    if (it != serial_of.end()) {
      EXPECT_EQ(e.top_serial, it->second);
    }
    return true;
  });
  EXPECT_EQ(entries, 1u);  // the younger write; the older one never applied
}

}  // namespace
}  // namespace objectbase::rt
