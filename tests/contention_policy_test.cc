// Contention management: the wound–wait lock policy, the O(1)
// packed-stamp kin test and the adaptive fold cadence.
//
// The deterministic scenarios build the canonical two-holder shapes by
// hand (phase gates instead of sleeps-and-hope), so the wound path — older
// top wounds younger holder, victim aborts with kWounded, older commits
// without ever being chosen as a deadlock victim — is pinned as behaviour,
// not just exercised as load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/adt/counter_adt.h"
#include "src/adt/register_adt.h"
#include "src/cc/hts.h"
#include "src/cc/lock_manager.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/runtime/journal.h"

namespace objectbase::rt {
namespace {

void SpinUntil(const std::atomic<int>& phase, int want) {
  while (phase.load(std::memory_order_acquire) < want) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// --- wound–wait -------------------------------------------------------------

// The canonical two-holder cycle under N2PL: OLD holds X and wants Y,
// YOUNG holds Y and wants X.  Wound–wait must resolve it by age: OLD
// wounds YOUNG, YOUNG aborts with kWounded, OLD commits — never the other
// way around, and never via a deadlock-detection abort of OLD.
TEST(WoundWait, OlderTopWoundsYoungerHolderDeterministically) {
  ObjectBase base;
  base.CreateObject("x", adt::MakeRegisterSpec(0));
  base.CreateObject("y", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl,
                       .granularity = cc::Granularity::kOperation,
                       .max_top_retries = 1,
                       .contention_policy = cc::ContentionPolicy::kWoundWait});
  const uint64_t wounds_before =
      cc::WoundsIssued().load(std::memory_order_relaxed);

  std::atomic<int> phase{0};
  TxnResult old_r, young_r;
  std::thread older([&] {
    old_r = exec.RunTransactionOnce("old", [&](MethodCtx& txn) -> Value {
      txn.Invoke("x", "write", {1});  // hold X
      phase.store(1, std::memory_order_release);
      SpinUntil(phase, 2);  // YOUNG holds Y (and is headed for X)
      txn.Invoke("y", "write", {1});  // wounds YOUNG, then waits it out
      return Value();
    });
  });
  std::thread younger([&] {
    SpinUntil(phase, 1);  // begin strictly after OLD so the HTS age orders
    young_r = exec.RunTransactionOnce("young", [&](MethodCtx& txn) -> Value {
      txn.Invoke("y", "write", {2});  // hold Y
      phase.store(2, std::memory_order_release);
      txn.Invoke("x", "write", {2});  // blocks on X / observes the wound
      return Value();
    });
  });
  older.join();
  younger.join();

  EXPECT_TRUE(old_r.committed) << "the older transaction must never lose";
  EXPECT_FALSE(young_r.committed);
  EXPECT_EQ(young_r.last_abort, cc::AbortReason::kWounded);
  EXPECT_GE(cc::WoundsIssued().load(std::memory_order_relaxed),
            wounds_before + 1);
  EXPECT_EQ(exec.stats().AbortsFor(cc::AbortReason::kDeadlock), 0u)
      << "wound–wait resolved by age, not by the detection safety net";
  EXPECT_GE(exec.stats().AbortsFor(cc::AbortReason::kWounded), 1u);
}

// Same shape under GEMSTONE (whole-object locks owned by the top): the
// PR-4 faster-admission regression made exactly this cycle a detection
// abort storm.  Under wound_wait both transactions finish, the victim is
// chosen by age, and NO deadlock-detection abort fires.
TEST(WoundWait, GemstoneTwoHolderCycleResolvesWithoutDetectionAborts) {
  ObjectBase base;
  base.CreateObject("x", adt::MakeCounterSpec(0));
  base.CreateObject("y", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kGemstone,
                       .max_top_retries = 10,
                       .contention_policy = cc::ContentionPolicy::kWoundWait});
  const uint64_t wounds_before =
      cc::WoundsIssued().load(std::memory_order_relaxed);

  std::atomic<int> phase{0};
  TxnResult old_r, young_r;
  std::thread older([&] {
    old_r = exec.RunTransaction("old", [&](MethodCtx& txn) -> Value {
      txn.Invoke("x", "add", {1});
      if (phase.load(std::memory_order_acquire) == 0) {
        phase.store(1, std::memory_order_release);
        SpinUntil(phase, 2);
      }
      txn.Invoke("y", "add", {1});
      return Value();
    });
  });
  std::thread younger([&] {
    SpinUntil(phase, 1);
    young_r = exec.RunTransaction("young", [&](MethodCtx& txn) -> Value {
      txn.Invoke("y", "add", {1});
      if (phase.load(std::memory_order_acquire) == 1) {
        phase.store(2, std::memory_order_release);
      }
      txn.Invoke("x", "add", {1});
      return Value();
    });
  });
  older.join();
  younger.join();

  EXPECT_TRUE(old_r.committed);
  EXPECT_TRUE(young_r.committed) << "the victim retries and commits";
  EXPECT_GE(cc::WoundsIssued().load(std::memory_order_relaxed),
            wounds_before + 1);
  EXPECT_GE(exec.stats().AbortsFor(cc::AbortReason::kWounded), 1u);
  EXPECT_EQ(exec.stats().AbortsFor(cc::AbortReason::kDeadlock), 0u)
      << "the E1d abort cliff is detection aborts; wound–wait must not "
         "produce any in the canonical cycle";
  // Both adds landed exactly once per commit.
  TxnResult check = exec.RunTransaction("check", [](MethodCtx& txn) {
    return Value(txn.Invoke("x", "get").AsInt() +
                 txn.Invoke("y", "get").AsInt());
  });
  EXPECT_EQ(check.ret.AsInt(), 4);
}

// Classic wound-wait liveness requires the victim to RESTART WITH ITS
// ORIGINAL TIMESTAMP, so it ages toward oldest instead of re-entering
// ever younger (fresh-stamped retries livelock under a sustained storm —
// the E4 GEMSTONE storm found exactly that).  TxnResult::age_token is the
// carrier: a wounded attempt's token passed back pins the retry's age.
TEST(WoundWait, WoundedRetryKeepsItsAgeToken) {
  ObjectBase base;
  base.CreateObject("x", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl,
                       .granularity = cc::Granularity::kOperation,
                       .max_top_retries = 1,
                       .contention_policy = cc::ContentionPolicy::kWoundWait});
  auto noop = [](MethodCtx& txn) -> Value {
    txn.Invoke("x", "read");
    return Value();
  };
  // Fresh attempts draw strictly increasing environment serials...
  TxnResult a = exec.RunTransactionOnce("a", noop);
  TxnResult b = exec.RunTransactionOnce("b", noop);
  ASSERT_TRUE(a.committed);
  ASSERT_TRUE(b.committed);
  EXPECT_GT(a.age_token, 0u);
  EXPECT_GT(b.age_token, a.age_token);
  // ...and a pinned token is honoured verbatim: the retry runs at the
  // original age even though younger serials have been handed out since.
  TxnResult a_retry = exec.RunTransactionOnce("a", noop, a.age_token);
  ASSERT_TRUE(a_retry.committed);
  EXPECT_EQ(a_retry.age_token, a.age_token);
}

// --- O(1) kin test ----------------------------------------------------------

// The O(depth) reference for Entry::IncomparableWith: the executions are
// comparable iff one's uid appears in the other's ancestor chain (two
// std::find walks).
bool IncomparableByChainWalk(const AppliedJournal::Entry& e,
                             const std::vector<uint64_t>& other_chain) {
  if (std::find(other_chain.begin(), other_chain.end(), e.exec_uid) !=
      other_chain.end()) {
    return false;
  }
  return other_chain.empty() ||
         std::find(e.chain->begin(), e.chain->end(), other_chain.front()) ==
             e.chain->end();
}

// Differential: the packed-stamp fast path agrees with the chain-walk
// reference on randomly generated execution forests (shared tops, shared
// ancestor prefixes, comparable and incomparable pairs, varying depths).
TEST(JournalKinTest, FastPathMatchesChainWalkOnRandomForests) {
  Rng rng(20260808);
  using Chain = std::vector<uint64_t>;
  uint64_t next_uid = 1;
  std::vector<Chain> pool;
  // Grow a forest of 6 tops; each new execution is either a fresh top or a
  // child of an existing execution (its chain = parent's chain with the
  // new uid prepended — chains run self..top).
  for (int i = 0; i < 120; ++i) {
    if (pool.empty() || rng.Bernoulli(0.15)) {
      pool.push_back({next_uid++});
    } else {
      Chain parent = pool[rng.Uniform(pool.size())];
      Chain child;
      child.push_back(next_uid++);
      child.insert(child.end(), parent.begin(), parent.end());
      pool.push_back(std::move(child));
    }
  }
  int comparable_pairs = 0;
  for (const Chain& a : pool) {
    AppliedJournal::Entry e;
    e.exec_uid = a.front();
    e.top_uid = a.back();
    e.chain = std::make_shared<const Chain>(a);
    for (const Chain& b : pool) {
      const bool fast = e.IncomparableWith(b);
      const bool walk = IncomparableByChainWalk(e, b);
      ASSERT_EQ(fast, walk)
          << "entry chain size " << a.size() << " vs other size " << b.size();
      if (!fast) ++comparable_pairs;
    }
  }
  // The forest must actually contain kin pairs or the test is vacuous.
  EXPECT_GT(comparable_pairs, 120);  // at least every self-pair plus some
}

// --- adaptive fold cadence --------------------------------------------------

namespace {

std::shared_ptr<const std::vector<uint64_t>> ChainOf(uint64_t uid) {
  return std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{uid});
}

void AppendOne(AppliedJournal& j, uint64_t top_counter) {
  JournalRecord r;
  r.seq = top_counter;
  r.exec_uid = top_counter;
  r.top_uid = top_counter;
  r.top_serial = top_counter;
  r.chain = ChainOf(top_counter);
  r.hts = std::make_shared<const cc::Hts>(cc::Hts::TopLevel(top_counter));
  r.op_id = 0;
  j.Append(std::move(r));
}

}  // namespace

TEST(AdaptiveFold, CadenceScalesWithGrowthAndArmsOnStuckWatermark) {
  AppliedJournal j(1);
  size_t applied = 0;
  auto apply = [&](const AppliedJournal::Entry&) { ++applied; };

  for (uint64_t i = 1; i <= 7; ++i) AppendOne(j, i);
  EXPECT_FALSE(j.WantsFold(8));
  AppendOne(j, 8);
  EXPECT_TRUE(j.WantsFold(8)) << "first firing: live count reaches base";

  // Everything folds (watermark above every top): growth=8 → cadence
  // clamp(4, 4, 64)=4 → armed at reserved 12.
  EXPECT_EQ(j.Fold(100, apply, /*rearm_base=*/8), 8u);
  EXPECT_EQ(j.NextFoldAt(), 12u);
  EXPECT_FALSE(j.WantsFold(8));
  for (uint64_t i = 9; i <= 11; ++i) AppendOne(j, i);
  EXPECT_FALSE(j.WantsFold(8));
  AppendOne(j, 12);
  EXPECT_TRUE(j.WantsFold(8))
      << "adaptive firing at the armed append target, not the live count";

  // Stuck watermark: nothing folds, but the trigger re-arms anyway — the
  // poll must NOT keep firing (the old modulo cadence re-locked forever).
  EXPECT_EQ(j.Fold(0, apply, /*rearm_base=*/8), 0u);
  EXPECT_GT(j.NextFoldAt(), j.reserved());
  EXPECT_FALSE(j.WantsFold(8));

  // A growth burst scales the cadence up, clamped at 8×base.
  for (uint64_t i = 0; i < 400; ++i) AppendOne(j, 13 + i);
  EXPECT_GT(j.Fold(100000, apply, /*rearm_base=*/8), 0u);
  EXPECT_LE(j.NextFoldAt(), j.reserved() + 8 * 8)
      << "cadence must clamp at 8×base";
  EXPECT_GE(j.NextFoldAt(), j.reserved() + 4) << "and never below base/2";
}

TEST(AdaptiveFold, DisabledFoldingTakesZeroJournalMutexes) {
  ObjectBase base;
  base.CreateObject("reg", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kNto,
                       .granularity = cc::Granularity::kStep,
                       .journal_fold_threshold = 0});
  const uint64_t locks_before =
      JournalMutexAcquisitions().load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    exec.RunTransaction("w", [&](MethodCtx& txn) -> Value {
      txn.Invoke("reg", "write", {i});
      return Value();
    });
  }
  EXPECT_EQ(exec.stats().committed.load(), 200u);
  EXPECT_EQ(JournalMutexAcquisitions().load(std::memory_order_relaxed),
            locks_before)
      << "fold=0 must keep the step path free of journal mutexes, "
         "telemetry included";
}

}  // namespace
}  // namespace objectbase::rt
