// CERT (optimistic inter-object certification, Section 6) end-to-end
// correctness, plus validation-specific behaviours.
#include <gtest/gtest.h>

#include <map>

#include "src/adt/btree_dictionary_adt.h"
#include "src/cc/cert_controller.h"
#include "src/common/stats.h"
#include "tests/protocol_harness.h"

namespace objectbase::rt {
namespace {

constexpr Protocol kP = Protocol::kCert;

TEST(CertProtocolTest, BankingStepGranularity) {
  RunBankingScenario(kP, cc::Granularity::kStep, 4, 40, 4, 21);
}

TEST(CertProtocolTest, BankingOperationGranularity) {
  RunBankingScenario(kP, cc::Granularity::kOperation, 4, 40, 4, 22);
}

TEST(CertProtocolTest, BankingWithParallelDeposit) {
  RunBankingScenario(kP, cc::Granularity::kStep, 3, 25, 4, 23,
                     /*parallel_deposit=*/true);
}

TEST(CertProtocolTest, HotCounter) {
  RunCounterScenario(kP, cc::Granularity::kStep, 6, 60, 24);
}

TEST(CertProtocolTest, QueueStepMode) {
  RunQueueScenario(kP, cc::Granularity::kStep, 4, 50, 25);
}

TEST(CertProtocolTest, MixedStress) {
  RunMixedStressScenario(kP, cc::Granularity::kStep, 4, 40, 26);
}

TEST(CertProtocolTest, CrossObjectCycleIsAborted) {
  // Force the Section 2 cycle: T1 and T2 each touch registers A and B in
  // opposite orders with a rendezvous in between.  The certifier must
  // abort at least one of the first attempts, and the final history must
  // be serialisable.
  ObjectBase base;
  base.CreateObject("A", adt::MakeRegisterSpec(0));
  base.CreateObject("B", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::atomic<int> rendezvous{0};
  auto crossing = [&](const std::string& first, const std::string& second,
                      int64_t tag) {
    bool first_attempt = true;
    exec.RunTransaction("cross", [&, tag](MethodCtx& txn) -> Value {
      txn.Invoke(first, "write", {tag});
      if (first_attempt) {
        first_attempt = false;
        rendezvous.fetch_add(1);
        // Wait for the other transaction to have written its first object.
        Stopwatch timeout;
        while (rendezvous.load() < 2 && timeout.ElapsedSeconds() < 2.0) {
          std::this_thread::yield();
        }
      }
      txn.Invoke(second, "write", {tag});
      return Value();
    });
  };
  std::thread t1([&]() { crossing("A", "B", 1); });
  std::thread t2([&]() { crossing("B", "A", 2); });
  t1.join();
  t2.join();
  uint64_t serialisation_aborts =
      exec.stats().AbortsFor(cc::AbortReason::kValidation) +
      exec.stats().AbortsFor(cc::AbortReason::kDoomed) +
      exec.stats().AbortsFor(cc::AbortReason::kCascade);
  EXPECT_GE(serialisation_aborts, 1u);
  VerifyHistory(exec, "CERT crossing scenario");
}

TEST(CertProtocolTest, ReadFromAbortedCascades) {
  // T1 writes and then aborts; T2 read the written value in between.  The
  // dependency graph must doom T2's attempt (it observed undone state).
  ObjectBase base;
  base.CreateObject("r", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::atomic<int> phase{0};
  std::thread writer([&]() {
    exec.RunTransactionOnce("writer", [&](MethodCtx& txn) -> Value {
      txn.Invoke("r", "write", {42});
      phase.store(1);
      Stopwatch timeout;
      while (phase.load() != 2 && timeout.ElapsedSeconds() < 2.0) {
        std::this_thread::yield();
      }
      txn.Abort();  // user abort AFTER the reader observed the write
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  TxnResult reader = exec.RunTransactionOnce("reader", [&](MethodCtx& txn) {
    Value v = txn.Invoke("r", "read");
    phase.store(2);
    // Give the writer a moment to abort before we try to commit.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return v;
  });
  writer.join();
  EXPECT_FALSE(reader.committed);
  EXPECT_TRUE(reader.last_abort == cc::AbortReason::kCascade ||
              reader.last_abort == cc::AbortReason::kDoomed)
      << cc::AbortReasonName(reader.last_abort);
  // State rolled back completely.
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    return txn.Invoke("r", "read");
  });
  EXPECT_EQ(check.ret, Value(0));
  VerifyHistory(exec, "CERT cascade scenario");
}

TEST(CertProtocolTest, CommutingConcurrencyCommitsWithoutAborts) {
  // Counter adds commute at step granularity: the certifier records
  // dependencies only for conflicting steps, so pure-add traffic commits
  // without serialisation aborts.
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        exec.RunTransaction("add", [](MethodCtx& txn) {
          txn.Invoke("c", "add", {1});
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(exec.stats().AbortsFor(cc::AbortReason::kValidation), 0u);
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    return txn.Invoke("c", "get");
  });
  EXPECT_EQ(check.ret, Value(200));
  VerifyHistory(exec, "CERT commuting scenario");
}

// The registry acceptance invariant, end-to-end through the executor: a
// steady-state conflict-free step performs ZERO mutex acquisitions in the
// DependencyGraph (the doom poll is one atomic load; the GC cadence poll
// reads an atomic journal length).  Registry locking is a small constant
// per TRANSACTION, asserted by making steps dwarf transactions.
// The journal acceptance invariant for the certifier: with folding
// disabled, a steady-state step (apply + publish + lock-free conflict
// scan + GC poll) acquires no journal mutex — see the NTO twin and
// docs/journal.md.
TEST(CertProtocolTest, StepPathTakesNoJournalMutex) {
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
  ASSERT_TRUE(exec.RunTransaction("warm", [&](MethodCtx& txn) {
    return txn.Invoke(bump);
  }).committed);
  const uint64_t before = rt::JournalMutexAcquisitions().load();
  for (int i = 0; i < 20; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      return txn.Invoke(bump);
    });
    ASSERT_TRUE(r.committed);
  }
  EXPECT_EQ(rt::JournalMutexAcquisitions().load() - before, 0u)
      << "the CERT step path took a journal mutex";
}

TEST(CertProtocolTest, RegistryStepPathIsMutexFree) {
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

// Regression for a rebuild-soundness bug found by the cross-protocol fuzz
// (CrossProtocolFuzz): T_r erases key 0 (successfully) and aborts; D's
// erase(0) ran meanwhile against the dirty state and recorded `false`
// (non-mutating).  T_r's abort-rebuild used to RE-APPLY D's surviving
// entry on the corrected state — where the erase suddenly SUCCEEDED,
// silently removing 0 — and because D's recorded return was non-mutating,
// later transactions found no conflict to doom themselves on and could
// commit divergent observations.  The fix dooms dependents transitively
// inside the rebuild's critical section and excludes doomed transactions'
// entries from the replay, so the rebuilt state keeps 0 and D dies the
// cascade death it always deserved.
TEST(CertProtocolTest, RebuildExcludesDoomedDependentsEntries) {
  ObjectBase base;
  base.CreateObject("set", adt::MakeSetSpec());
  Executor exec(base, {.protocol = kP});
  ASSERT_TRUE(exec.RunTransaction("setup", [](MethodCtx& txn) {
    return txn.Invoke("set", "insert", {0});
  }).committed);

  std::atomic<int> phase{0};
  TxnResult d_result;
  std::thread d_thread([&]() {
    d_result = exec.RunTransactionOnce("D", [&](MethodCtx& txn) -> Value {
      while (phase.load() != 1) std::this_thread::yield();
      // Dirty read: T_r's (soon-excised) erase already removed 0.
      Value v = txn.Invoke("set", "erase", {0});
      EXPECT_EQ(v, Value(false));
      phase.store(2);
      while (phase.load() != 3) std::this_thread::yield();
      return Value();
    });
  });
  std::thread tr_thread([&]() {
    exec.RunTransactionOnce("T_r", [&](MethodCtx& txn) -> Value {
      EXPECT_EQ(txn.Invoke("set", "erase", {0}), Value(true));
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
      txn.Abort();  // excises the erase; rebuild must restore 0
      return Value();
    });
  });
  tr_thread.join();
  // T_r has aborted and rebuilt; D is still mid-flight (doomed).  A fresh
  // reader must see 0 restored — its contains(0) commutes with D's
  // recorded non-mutating erase, so it commits without waiting on D.
  TxnResult probe = exec.RunTransaction("probe", [](MethodCtx& txn) {
    return txn.Invoke("set", "contains", {0});
  });
  ASSERT_TRUE(probe.committed);
  EXPECT_EQ(probe.ret, Value(true))
      << "abort-rebuild lost a committed insert (doomed survivor re-applied)";
  phase.store(3);
  d_thread.join();
  EXPECT_FALSE(d_result.committed);
  EXPECT_TRUE(d_result.last_abort == cc::AbortReason::kDoomed ||
              d_result.last_abort == cc::AbortReason::kCascade)
      << cc::AbortReasonName(d_result.last_abort);
  VerifyHistory(exec, "CERT rebuild-soundness scenario");
}

// Recording exclusivity is gone: recorded point ops on a concurrent-apply
// B-tree must run under the SHARED apply latch (the apply-order hook, not
// an exclusive state_mu, supplies the application order).  Pinned by the
// exclusive-step counter: zero exclusive acquisitions across recorded
// crabbing put/get/del traffic.
TEST(CertProtocolTest, RecordedCrabbingTakesSharedLatch) {
  ObjectBase base;
  base.CreateObject("d", adt::MakeBTreeDictionarySpec(4));
  Executor exec(base, {.protocol = kP,
                       .record = true,
                       .journal_fold_threshold = 0});
  MethodRef put = exec.Resolve("d", "put");
  MethodRef get = exec.Resolve("d", "get");
  MethodRef del = exec.Resolve("d", "del");
  ASSERT_TRUE(put.valid() && get.valid() && del.valid());
  const uint64_t before = cc::CertStepExclusiveAcquisitions().load();
  for (int i = 0; i < 40; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      txn.Invoke(put, {int64_t{i % 16}, int64_t{i}});
      txn.Invoke(get, {int64_t{(i + 3) % 16}});
      if (i % 4 == 0) txn.Invoke(del, {int64_t{(i + 7) % 16}});
      return Value();
    });
    ASSERT_TRUE(r.committed);
  }
  EXPECT_EQ(cc::CertStepExclusiveAcquisitions().load() - before, 0u)
      << "recorded crabbing steps escalated to the exclusive latch";
  VerifyHistory(exec, "CERT recorded crabbing point ops");
}

// The escalation counterpart: non-linearizable B-tree scans (count /
// range_count are latch-coupled whole-tree walks with no single internal
// linearization point) and steps on exclusive-apply objects must still
// take the exclusive latch.
TEST(CertProtocolTest, NonLinearizableScansEscalateToExclusive) {
  ObjectBase base;
  base.CreateObject("d", adt::MakeBTreeDictionarySpec(4));
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .record = true,
                       .journal_fold_threshold = 0});
  MethodRef put = exec.Resolve("d", "put");
  MethodRef count = exec.Resolve("d", "count");
  MethodRef add = exec.Resolve("c", "add");
  ASSERT_TRUE(put.valid() && count.valid() && add.valid());
  uint64_t before = cc::CertStepExclusiveAcquisitions().load();
  ASSERT_TRUE(exec.RunTransaction("t", [&](MethodCtx& txn) {
    txn.Invoke(put, {int64_t{1}, int64_t{2}});
    return Value();
  }).committed);
  EXPECT_EQ(cc::CertStepExclusiveAcquisitions().load() - before, 0u);
  before = cc::CertStepExclusiveAcquisitions().load();
  ASSERT_TRUE(exec.RunTransaction("t", [&](MethodCtx& txn) {
    txn.Invoke(count, {});
    txn.Invoke(add, {int64_t{1}});  // counters are not concurrent-apply
    return Value();
  }).committed);
  EXPECT_EQ(cc::CertStepExclusiveAcquisitions().load() - before, 2u)
      << "count and the counter step must both take the exclusive latch";
}

// Journal entry shape under plain CERT: each entry carries its top's
// serial inline (the fold key) and no hts snapshot — nothing in the
// certifier reads one, so none is allocated.  Folding is off, so every
// entry stays to be inspected, nested steps included.
TEST(CertProtocolTest, JournalEntriesCarryTopSerialAndNoHts) {
  ObjectBase base;
  base.CreateObject("d", adt::MakeBTreeDictionarySpec(4));
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = kP,
                       .record = false,
                       .journal_fold_threshold = 0});
  ASSERT_TRUE(exec.DefineMethod("c", "add_and_put", [](MethodCtx& m) {
    m.Local("add", {1});
    return m.Invoke("d", "put", {m.args().at(0), m.args().at(0)});
  }));
  MethodRef get = exec.Resolve("d", "get");
  MethodRef add_and_put = exec.Resolve("c", "add_and_put");
  std::map<uint64_t, uint64_t> serial_of;  // top uid -> top serial
  constexpr int kTxns = 12;
  for (int i = 0; i < kTxns; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      serial_of[txn.node().uid()] = txn.node().hts().top_component();
      txn.Invoke(add_and_put, {int64_t{i}});
      return txn.Invoke(get, {int64_t{i / 2}});
    });
    ASSERT_TRUE(r.committed);
  }
  size_t entries = 0;
  for (const char* name : {"d", "c"}) {
    AppliedJournal::Scan scan(base.Find(name)->journal());
    scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
      ++entries;
      EXPECT_EQ(e.hts, nullptr) << name << " entry at " << e.pos;
      auto it = serial_of.find(e.top_uid);
      EXPECT_TRUE(it != serial_of.end()) << "unknown top " << e.top_uid;
      if (it != serial_of.end()) {
      EXPECT_EQ(e.top_serial, it->second);
    }
      return true;
    });
  }
  EXPECT_EQ(entries, 3u * kTxns);  // add + put + get per transaction
}

}  // namespace
}  // namespace objectbase::rt
