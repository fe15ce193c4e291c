// Per-shard WAL recovery: a sharded topology logs into one redo log per
// shard, and a cross-shard commit is durable only when EVERY touched
// shard's log holds its masked marker (the cross-log atomicity rule of
// RecoverShardedWalInto).  These tests drive the executor end-to-end and
// then damage individual shard logs to prove the rule:
//
//   * a clean sharded run recovers exactly on a fresh identically-built
//     base (single-shard and cross-shard commits both replayed);
//   * losing ONE shard's log excises a cross-shard transaction from EVERY
//     shard — the surviving marker (mask present in the intact log) must
//     not surface a partial commit;
//   * single-shard commits of the intact shard still recover;
//   * a partial abort inside a durable cross-shard top excises the aborted
//     subtree's redos from all per-shard logs (StageAbort fan-out).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/adt/counter_adt.h"
#include "src/adt/register_adt.h"
#include "src/runtime/executor.h"
#include "src/runtime/object_base.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {
namespace {

std::string TmpPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

void TruncateFile(const std::string& path, long keep_bytes) {
  FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(::ftruncate(::fileno(f), keep_bytes), 0);
  std::fclose(f);
}

void BuildTwoCounters(ObjectBase& base) {
  base.CreateObject("a", adt::MakeCounterSpec(0));  // shard 0
  base.CreateObject("b", adt::MakeCounterSpec(0));  // shard 1
}

int64_t ReadCounter(Executor& exec, const char* name) {
  return exec.RunTransaction("read", [name](MethodCtx& txn) {
               return txn.Invoke(name, "get");
             }).ret.AsInt();
}

TEST(ShardedRecovery, CleanShardedRunRecoversOnFreshBase) {
  const std::string wal = TmpPath("sharded_clean.wal");
  {
    ShardedBase base(2);
    BuildTwoCounters(base);
    Executor exec(base, {.protocol = Protocol::kNto,
                         .record = false,
                         .durability = Durability::kGroup,
                         .wal_path = wal});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(exec.RunTransaction("ta", [](MethodCtx& txn) {
                        txn.Invoke("a", "add", {1});
                        return Value();
                      }).committed);
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(exec.RunTransaction("tb", [](MethodCtx& txn) {
                        txn.Invoke("b", "add", {1});
                        return Value();
                      }).committed);
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(exec.RunTransaction("tx", [](MethodCtx& txn) {
                        txn.Invoke("a", "add", {10});
                        txn.Invoke("b", "add", {10});
                        return Value();
                      }).committed);
    }
  }  // executor destruction drains and syncs both logs

  ShardedBase base(2);
  BuildTwoCounters(base);
  Executor exec(base, {.protocol = Protocol::kNto, .record = false});
  WalRecoveryResult r = exec.Recover(wal);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.committed_tops, 10u);
  EXPECT_EQ(r.ret_mismatches, 0u);
  EXPECT_EQ(r.skipped_uncommitted, 0u);
  EXPECT_EQ(ReadCounter(exec, "a"), 3 + 2 * 10);
  EXPECT_EQ(ReadCounter(exec, "b"), 5 + 2 * 10);
  std::remove(wal.c_str());
  std::remove(ShardWalPath(wal, 1).c_str());
}

TEST(ShardedRecovery, LostShardLogExcisesCrossShardTopFromEveryShard) {
  // T_A (single-shard, shard 0) commits, then T_X (cross-shard) commits.
  // Shard 1's log is then lost.  T_X's marker in shard 0's log names both
  // shards in its mask, and shard 1 cannot produce its marker — so T_X
  // must not be recovered on EITHER shard: a must show only T_A's write,
  // b must be untouched.  Recovering T_X's shard-0 half would be exactly
  // the partial cross-shard commit the mask rule exists to prevent.
  const std::string wal = TmpPath("sharded_lost.wal");
  {
    ShardedBase base(2);
    base.CreateObject("a", adt::MakeRegisterSpec(0));  // shard 0
    base.CreateObject("b", adt::MakeRegisterSpec(0));  // shard 1
    Executor exec(base, {.protocol = Protocol::kNto,
                         .record = false,
                         .durability = Durability::kGroup,
                         .wal_path = wal});
    ASSERT_TRUE(exec.RunTransaction("T_A", [](MethodCtx& txn) {
                      txn.Invoke("a", "write", {1});
                      return Value();
                    }).committed);
    ASSERT_TRUE(exec.RunTransaction("T_B", [](MethodCtx& txn) {
                      txn.Invoke("b", "write", {5});
                      return Value();
                    }).committed);
    ASSERT_TRUE(exec.RunTransaction("T_X", [](MethodCtx& txn) {
                      txn.Invoke("a", "write", {2});
                      txn.Invoke("b", "write", {2});
                      return Value();
                    }).committed);
  }
  // Lose shard 1's entire log (crash before any of it reached disk).
  TruncateFile(ShardWalPath(wal, 1), 0);

  ShardedBase base(2);
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kNto, .record = false});
  WalRecoveryResult r = exec.Recover(wal);
  ASSERT_TRUE(r.ok);
  // Only T_A survives: T_B and T_X lived (wholly or partly) in the lost
  // log.  T_X's shard-0 redos are skipped as uncommitted.
  EXPECT_EQ(r.committed_tops, 1u);
  EXPECT_GT(r.skipped_uncommitted, 0u);
  const int64_t a = exec.RunTransaction("read", [](MethodCtx& txn) {
                          return txn.Invoke("a", "read");
                        }).ret.AsInt();
  const int64_t b = exec.RunTransaction("read", [](MethodCtx& txn) {
                          return txn.Invoke("b", "read");
                        }).ret.AsInt();
  EXPECT_EQ(a, 1) << "cross-shard top partially recovered on shard 0";
  EXPECT_EQ(b, 0) << "lost log resurrected shard 1 state";
  std::remove(wal.c_str());
  std::remove(ShardWalPath(wal, 1).c_str());
}

TEST(ShardedRecovery, PartialAbortExcisesSubtreeFromAllShardLogs) {
  // A durable N2PL top: its child writes on BOTH shards then aborts
  // (partial abort — the top still commits its own writes).  The abort
  // marker is staged on every shard's log, so recovery must drop the
  // child's redos on both shards.
  const std::string wal = TmpPath("sharded_partial.wal");
  {
    ShardedBase base(2);
    BuildTwoCounters(base);
    Executor exec(base, {.protocol = Protocol::kN2pl,
                         .record = false,
                         .durability = Durability::kGroup,
                         .wal_path = wal});
    ASSERT_TRUE(exec.DefineMethod("a", "span_then_abort",
                                  [](MethodCtx& txn) {
                                    txn.Local("add", {100});
                                    txn.Invoke("b", "add", {100});
                                    txn.Abort();
                                    return Value();
                                  }));
    TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
      txn.Invoke("a", "add", {1});
      auto out = txn.TryInvoke("a", "span_then_abort", {});
      EXPECT_FALSE(out.ok);
      txn.Invoke("b", "add", {10});
      return Value();
    });
    ASSERT_TRUE(r.committed);
  }

  ShardedBase base(2);
  BuildTwoCounters(base);
  Executor exec(base, {.protocol = Protocol::kN2pl, .record = false});
  WalRecoveryResult r = exec.Recover(wal);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_mismatches, 0u);
  EXPECT_GT(r.skipped_aborted, 0u);
  EXPECT_EQ(ReadCounter(exec, "a"), 1)
      << "aborted child's shard-0 redo replayed";
  EXPECT_EQ(ReadCounter(exec, "b"), 10)
      << "aborted child's shard-1 redo replayed";
  std::remove(wal.c_str());
  std::remove(ShardWalPath(wal, 1).c_str());
}

TEST(ShardedRecovery, GroupCommitCrossShardRunStaysConsistent) {
  // Group durability across shards: the commit gate waits for EVERY
  // touched shard's watermark, so an acknowledged cross-shard transfer is
  // durable on both logs.  Recover and check conservation.
  const std::string wal = TmpPath("sharded_group.wal");
  constexpr int64_t kInitial = 100;
  {
    ShardedBase base(2);
    base.CreateObject("a", adt::MakeCounterSpec(kInitial));
    base.CreateObject("b", adt::MakeCounterSpec(kInitial));
    Executor exec(base, {.protocol = Protocol::kMixed,
                         .record = false,
                         .durability = Durability::kGroup,
                         .wal_path = wal});
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(exec.RunTransaction("move", [](MethodCtx& txn) {
                        txn.Invoke("a", "add", {-1});
                        txn.Invoke("b", "add", {1});
                        return Value();
                      }).committed);
    }
  }
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeCounterSpec(kInitial));
  base.CreateObject("b", adt::MakeCounterSpec(kInitial));
  Executor exec(base, {.protocol = Protocol::kMixed, .record = false});
  WalRecoveryResult r = exec.Recover(wal);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_mismatches, 0u);
  const int64_t a = ReadCounter(exec, "a");
  const int64_t b = ReadCounter(exec, "b");
  EXPECT_EQ(a + b, 2 * kInitial) << "cross-shard transfer torn by recovery";
  EXPECT_EQ(a, kInitial - 20);
  EXPECT_EQ(b, kInitial + 20);
  std::remove(wal.c_str());
  std::remove(ShardWalPath(wal, 1).c_str());
}

}  // namespace
}  // namespace objectbase::rt
