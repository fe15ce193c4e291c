// Write-ahead durability tests (src/runtime/wal.{h,cc}).
//
// Covers the full redo pipeline: frame codec round-trips, executor-driven
// logging under every protocol with recovery-equality against the live
// final state, uncommitted/aborted-subtree excision, the table-driven
// torn-write sweep (truncation AND single-byte corruption at EVERY byte
// offset of a multi-frame log — clean truncation, no crash, no phantom
// commits), the demand-driven writer (redo-only work never syncs, ring-full
// backpressure drains, concurrent commit waiters never hang), fail-stop on
// a log write error, and the step-path mutex-freedom invariant with the WAL
// hook attached.
#include "src/runtime/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/adt/bank_account_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/set_adt.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/runtime/journal.h"
#include "src/runtime/object_base.h"

namespace objectbase::rt {
namespace {

// The pid keeps concurrent runs of this binary (ctest -j, --repeat) off
// each other's logs.
std::string TmpPath(const std::string& tag) {
  return ::testing::TempDir() + "/objectbase_wal_" + tag + "." +
         std::to_string(::getpid()) + ".log";
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(WalCodecTest, Crc32KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(WalCrc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(WalCodecTest, MissingAndEmptyLogs) {
  WalScanResult missing = ScanWal(TmpPath("definitely_missing"));
  EXPECT_FALSE(missing.ok);

  const std::string path = TmpPath("empty");
  WriteFileBytes(path, {});
  WalScanResult empty = ScanWal(path);
  EXPECT_TRUE(empty.ok);
  EXPECT_FALSE(empty.torn);
  EXPECT_EQ(empty.frames, 0u);
  EXPECT_TRUE(empty.records.empty());
  std::remove(path.c_str());
}

TEST(WalCodecTest, RecordRoundTrip) {
  const std::string path = TmpPath("roundtrip");
  {
    WalOptions opts;
    opts.path = path;
    opts.ring_capacity = 1 << 6;
    WalWriter w(opts);
    ASSERT_TRUE(w.ok());
    auto chain = std::make_shared<const std::vector<uint64_t>>(
        std::vector<uint64_t>{7, 3, 1});
    w.StageRedo(/*object_id=*/4, /*order_key=*/11, /*top_uid=*/1,
                /*exec_uid=*/7, chain, /*op_id=*/2,
                {Value(int64_t{42}), Value(std::string("key")), Value(true)},
                Value(std::string("ret")));
    w.StageAbort(/*subtree_root_uid=*/3);
    const uint64_t pos = w.StageCommit(/*top_uid=*/1);
    w.WaitDurable(pos);
    EXPECT_GE(w.syncs(), 1u);
  }  // dtor drains + syncs the rest
  WalScanResult scan = ScanWal(path);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 3u);
  const WalRecord& redo = scan.records[0];
  EXPECT_EQ(redo.kind, WalRecordKind::kRedo);
  EXPECT_EQ(redo.object_id, 4u);
  EXPECT_EQ(redo.order_key, 11u);
  EXPECT_EQ(redo.top_uid, 1u);
  EXPECT_EQ(redo.exec_uid, 7u);
  EXPECT_EQ(redo.op_id, 2u);
  EXPECT_EQ(redo.chain, (std::vector<uint64_t>{7, 3, 1}));
  ASSERT_EQ(redo.args.size(), 3u);
  EXPECT_EQ(redo.args[0], Value(int64_t{42}));
  EXPECT_EQ(redo.args[1], Value(std::string("key")));
  EXPECT_EQ(redo.args[2], Value(true));
  EXPECT_EQ(redo.ret, Value(std::string("ret")));
  EXPECT_EQ(scan.records[1].kind, WalRecordKind::kAbort);
  EXPECT_EQ(scan.records[1].exec_uid, 3u);
  EXPECT_EQ(scan.records[2].kind, WalRecordKind::kCommit);
  EXPECT_EQ(scan.records[2].top_uid, 1u);
  ASSERT_EQ(scan.committed_tops.size(), 1u);
  EXPECT_EQ(scan.committed_tops[0], 1u);
  ASSERT_EQ(scan.aborted_subtrees.size(), 1u);
  EXPECT_EQ(scan.aborted_subtrees[0], 3u);
  std::remove(path.c_str());
}

// --- executor-driven logging + recovery equality ---------------------------

constexpr int kAccounts = 4;
constexpr int64_t kInitial = 1000;

void BuildBankBase(ObjectBase& base) {
  for (int i = 0; i < kAccounts; ++i) {
    base.CreateObject("acct:" + std::to_string(i),
                      adt::MakeBankAccountSpec(kInitial));
  }
  base.CreateObject("tags", adt::MakeSetSpec());
}

/// Runs a contended transfer mix under `protocol` with the WAL on, then
/// recovers the log into a fresh identically-initialised base and asserts
/// state equality object-by-object.
void RunLogRecoverEquality(Protocol protocol, const std::string& tag) {
  const std::string path = TmpPath(tag);
  ObjectBase base;
  BuildBankBase(base);
  uint64_t committed = 0;
  {
    ExecutorOptions opts;
    opts.protocol = protocol;
    opts.record = false;
    opts.durability = Durability::kGroup;
    opts.wal_path = path;
    Executor exec(base, opts);
    ASSERT_NE(exec.wal(), nullptr);
    ASSERT_TRUE(exec.wal()->ok());
    constexpr int kThreads = 3;
    constexpr int kTxns = 40;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t]() {
        Rng rng(1234 + t * 7919);
        for (int i = 0; i < kTxns; ++i) {
          int from = static_cast<int>(rng.Uniform(kAccounts));
          int to = static_cast<int>(rng.Uniform(kAccounts));
          if (to == from) to = (to + 1) % kAccounts;
          int64_t amount = rng.Range(1, 50);
          int64_t tag_id = t * 1000 + i;
          std::string from_name = "acct:" + std::to_string(from);
          std::string to_name = "acct:" + std::to_string(to);
          exec.RunTransaction(
              "transfer", [&, amount, tag_id](MethodCtx& txn) -> Value {
                Value ok = txn.Invoke(from_name, "withdraw", {amount});
                if (!ok.AsBool()) return Value(false);
                txn.Invoke(to_name, "deposit", {amount});
                txn.Invoke("tags", "insert", {tag_id});
                return Value(true);
              });
        }
      });
    }
    for (auto& w : workers) w.join();
    committed = exec.stats().committed.load();
    // Everything acknowledged must already be on disk before destruction.
    EXPECT_GE(exec.wal()->syncs(), 1u);
  }  // executor dtor drains and closes the log

  ASSERT_GT(committed, 0u);
  WalScanResult scan = ScanWal(path);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.committed_tops.size(), committed);

  ObjectBase fresh;
  BuildBankBase(fresh);
  ExecutorOptions ropts;
  ropts.protocol = protocol;
  Executor recovered(fresh, ropts);  // durability=none: no log of its own
  WalRecoveryResult r = recovered.Recover(path);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.committed_tops, committed);
  EXPECT_GT(r.applied, 0u);
  EXPECT_EQ(r.ret_mismatches, 0u) << "replay disagreed with a recorded ret";
  EXPECT_EQ(r.unknown_objects, 0u);
  for (uint32_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(fresh.Get(i).state().Equals(base.Get(i).state()))
        << "object " << base.Get(i).name() << " diverged after recovery: "
        << fresh.Get(i).state().ToString() << " vs live "
        << base.Get(i).state().ToString();
  }
  // Conservation holds on the recovered state too.
  int64_t total = 0;
  recovered.RunTransaction("audit", [&](MethodCtx& txn) {
    for (int i = 0; i < kAccounts; ++i) {
      total += txn.Invoke("acct:" + std::to_string(i), "balance").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total, kInitial * kAccounts);
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, GroupCommitN2pl) {
  RunLogRecoverEquality(Protocol::kN2pl, "eq_n2pl");
}
TEST(WalRecoveryTest, GroupCommitNto) {
  RunLogRecoverEquality(Protocol::kNto, "eq_nto");
}
TEST(WalRecoveryTest, GroupCommitCert) {
  RunLogRecoverEquality(Protocol::kCert, "eq_cert");
}
TEST(WalRecoveryTest, GroupCommitGemstone) {
  RunLogRecoverEquality(Protocol::kGemstone, "eq_gemstone");
}
TEST(WalRecoveryTest, GroupCommitMixed) {
  RunLogRecoverEquality(Protocol::kMixed, "eq_mixed");
}

// Redo records of tops without a durable commit marker are skipped.
TEST(WalRecoveryTest, DropsUncommittedTops) {
  const std::string path = TmpPath("uncommitted");
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  const adt::OpDescriptor* add = base.Get(0).spec().FindOp("add");
  ASSERT_NE(add, nullptr);
  {
    WalOptions opts;
    opts.path = path;
    WalWriter w(opts);
    ASSERT_TRUE(w.ok());
    auto chain1 = std::make_shared<const std::vector<uint64_t>>(
        std::vector<uint64_t>{1});
    auto chain2 = std::make_shared<const std::vector<uint64_t>>(
        std::vector<uint64_t>{2});
    w.StageRedo(0, WalWriter::kOrderByStagePos, 1, 1, chain1, add->id,
                {Value(int64_t{5})}, Value::None());
    w.StageCommit(1);
    // Top 2 crashed before its commit marker.
    w.StageRedo(0, WalWriter::kOrderByStagePos, 2, 2, chain2, add->id,
                {Value(int64_t{7})}, Value::None());
  }
  WalRecoveryResult r = RecoverShardedWalInto(path, 1, base);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(r.skipped_uncommitted, 1u);
  EXPECT_EQ(r.ret_mismatches, 0u);
  Executor exec(base, {});
  TxnResult got = exec.RunTransaction("get", [](MethodCtx& txn) {
    return txn.Invoke("c", "get");
  });
  EXPECT_EQ(got.ret, Value(int64_t{5}));
  std::remove(path.c_str());
}

// A partial abort (child aborted under a top that commits) excises exactly
// the subtree's redo records: the kAbort marker carries the subtree root
// uid and recovery drops every redo whose ancestor chain contains it.
TEST(WalRecoveryTest, AbortedSubtreeIsExcised) {
  const std::string path = TmpPath("excision");
  ObjectBase base;
  base.CreateObject("tags", adt::MakeSetSpec());
  {
    ExecutorOptions opts;
    opts.protocol = Protocol::kN2pl;  // supports partial abort
    opts.durability = Durability::kGroup;
    opts.wal_path = path;
    Executor exec(base, opts);
    ASSERT_TRUE(exec.DefineMethod(
        "tags", "insert_then_abort", [](MethodCtx& m) -> Value {
          m.Local("insert", {Value(int64_t{99})});
          m.Abort();
        }));
    MethodRef doomed = exec.Resolve("tags", "insert_then_abort");
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) -> Value {
      txn.Invoke("tags", "insert", {Value(int64_t{1})});
      MethodCtx::InvokeOutcome out = txn.TryInvoke(doomed);
      EXPECT_FALSE(out.ok);  // the child aborted; the top survives
      txn.Invoke("tags", "insert", {Value(int64_t{2})});
      return Value();
    });
    ASSERT_TRUE(r.committed);
  }
  WalScanResult scan = ScanWal(path);
  ASSERT_TRUE(scan.ok);
  EXPECT_EQ(scan.aborted_subtrees.size(), 1u);

  ObjectBase fresh;
  fresh.CreateObject("tags", adt::MakeSetSpec());
  WalRecoveryResult r = RecoverShardedWalInto(path, 1, fresh);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.skipped_aborted, 1u) << "the aborted insert(99) must be excised";
  EXPECT_EQ(r.ret_mismatches, 0u);
  Executor exec(fresh, {});
  auto contains = [&](int64_t k) {
    return exec
        .RunTransaction("q", [&](MethodCtx& txn) {
          return txn.Invoke("tags", "contains", {Value(k)});
        })
        .ret.AsBool();
  };
  EXPECT_TRUE(contains(1));
  EXPECT_TRUE(contains(2));
  EXPECT_FALSE(contains(99)) << "phantom effect of an aborted subtree";
  std::remove(path.c_str());
}

// --- the torn-write table ---------------------------------------------------
//
// Builds a log of F frames where frame k holds exactly "add(1<<k) by top k;
// commit top k" (WaitDurable between stagings forces the frame boundary).
// Then, for EVERY byte offset of the file:
//   * truncate the file to that length — scanning and recovering must not
//     crash, must truncate at a frame boundary, and must recover exactly
//     the tops whose frames survive intact (no phantom commits);
//   * flip that byte — the containing frame and everything after it must be
//     dropped (CRC32 catches every single-byte corruption), with the same
//     no-phantom guarantee.

struct FrameMap {
  std::vector<uint64_t> starts;  ///< Byte offset where frame k begins.
  uint64_t total = 0;

  /// Frames wholly contained in [0, len).
  size_t IntactUpTo(uint64_t len) const {
    size_t n = 0;
    while (n + 1 < starts.size() && starts[n + 1] <= len) ++n;
    if (n + 1 == starts.size() && total <= len) ++n;
    return n;
  }
  /// Index of the frame containing byte `off`.
  size_t FrameOf(uint64_t off) const {
    size_t f = 0;
    while (f + 1 < starts.size() && starts[f + 1] <= off) ++f;
    return f;
  }
};

FrameMap MapFrames(const std::vector<uint8_t>& bytes) {
  // Walk the (intact) file by headers: [4B magic][u32 len][u32 crc][payload].
  FrameMap map;
  uint64_t off = 0;
  while (off + 12 <= bytes.size()) {
    map.starts.push_back(off);
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off + 4, 4);
    off += 12 + len;
  }
  map.total = off;
  return map;
}

TEST(WalTornWriteTest, EveryTruncationAndCorruptionOffset) {
  const std::string path = TmpPath("torn_master");
  constexpr int kFrames = 6;
  ObjectBase proto_base;
  proto_base.CreateObject("c", adt::MakeCounterSpec(0));
  const adt::OpDescriptor* add = proto_base.Get(0).spec().FindOp("add");
  ASSERT_NE(add, nullptr);
  {
    WalOptions opts;
    opts.path = path;
    WalWriter w(opts);
    ASSERT_TRUE(w.ok());
    for (int k = 0; k < kFrames; ++k) {
      auto chain = std::make_shared<const std::vector<uint64_t>>(
          std::vector<uint64_t>{static_cast<uint64_t>(k + 1)});
      w.StageRedo(0, WalWriter::kOrderByStagePos, k + 1, k + 1, chain,
                  add->id, {Value(int64_t{1} << k)}, Value::None());
      const uint64_t pos = w.StageCommit(k + 1);
      // Forcing durability here closes the current batch: the next staging
      // round lands in a NEW frame.
      w.WaitDurable(pos);
    }
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  ASSERT_FALSE(bytes.empty());
  const FrameMap map = MapFrames(bytes);
  ASSERT_EQ(map.starts.size(), static_cast<size_t>(kFrames));
  ASSERT_EQ(map.total, bytes.size());

  const std::string victim = TmpPath("torn_victim");
  auto check_recovers_prefix = [&](size_t intact_frames,
                                   const char* what, uint64_t off) {
    SCOPED_TRACE(std::string(what) + " at offset " + std::to_string(off));
    WalScanResult scan = ScanWal(victim);  // must not crash on any input
    ASSERT_TRUE(scan.ok);
    EXPECT_EQ(scan.valid_bytes,
              intact_frames < map.starts.size() ? map.starts[intact_frames]
                                                : map.total)
        << "truncation not at a frame boundary";
    ASSERT_EQ(scan.committed_tops.size(), intact_frames)
        << "phantom or lost commit";
    for (size_t k = 0; k < intact_frames; ++k) {
      EXPECT_EQ(scan.committed_tops[k], k + 1);  // contiguous prefix
    }
    ObjectBase fresh;
    fresh.CreateObject("c", adt::MakeCounterSpec(0));
    WalRecoveryResult r = RecoverShardedWalInto(victim, 1, fresh);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ret_mismatches, 0u);
    EXPECT_EQ(r.committed_tops, intact_frames);
    // Counter value == sum of 1<<k over recovered tops: bit k set iff
    // frame k survived.  Any other value is a phantom or lost effect.
    Executor exec(fresh, {});
    TxnResult got = exec.RunTransaction("get", [](MethodCtx& txn) {
      return txn.Invoke("c", "get");
    });
    EXPECT_EQ(got.ret, Value((int64_t{1} << intact_frames) - 1));
  };

  // Truncation at every length [0, size).
  for (uint64_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    WriteFileBytes(victim, cut);
    check_recovers_prefix(map.IntactUpTo(len), "truncate", len);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // Single-byte corruption at every offset: drops the containing frame and
  // everything after it.
  for (uint64_t off = 0; off < bytes.size(); ++off) {
    std::vector<uint8_t> bad = bytes;
    bad[off] ^= 0xFF;
    WriteFileBytes(victim, bad);
    check_recovers_prefix(map.FrameOf(off), "corrupt", off);
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::remove(victim.c_str());
}

// --- the demand-driven writer ----------------------------------------------
//
// The writer waits without a timeout and wakes only on a request: a staged
// commit marker (sync) or a full ring (drain).  A lost wakeup therefore
// hangs these tests (ctest's timeout reports it) instead of costing a poll
// period.

std::shared_ptr<const std::vector<uint64_t>> Chain(uint64_t uid) {
  return std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{uid});
}

// Redo records alone never trigger an fsync: they become durable with the
// first commit marker staged after them.
TEST(WalWriterTest, RedoOnlyWorkNeverSyncs) {
  const std::string path = TmpPath("redo_only");
  {
    WalWriter w(WalOptions{path});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 64; ++i) {
      w.StageRedo(0, WalWriter::kOrderByStagePos, 1, 1, Chain(1), 0,
                  {Value(int64_t{i})}, Value::None());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(w.syncs(), 0u);
    EXPECT_EQ(w.DurableWatermark(), 0u);
  }
  std::remove(path.c_str());
}

// A transaction staging far more redos than the ring holds: each producer
// that finds the ring full requests a drain (a write, no fsync), so staging
// never deadlocks and the commit costs exactly one sync.
TEST(WalWriterTest, RingFullDrainsWithoutDeadlock) {
  const std::string path = TmpPath("ring_full");
  constexpr int kRedos = 1000;
  {
    WalOptions opts;
    opts.path = path;
    opts.ring_capacity = 4;
    WalWriter w(opts);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < kRedos; ++i) {
      w.StageRedo(0, WalWriter::kOrderByStagePos, 1, 1, Chain(1), 0,
                  {Value(int64_t{i})}, Value::None());
    }
    const uint64_t pos = w.StageCommit(1);
    w.WaitDurable(pos);
    EXPECT_EQ(w.DurableWatermark(), w.staged());
    EXPECT_EQ(w.staged(), static_cast<uint64_t>(kRedos + 1));
    EXPECT_EQ(w.syncs(), 1u);
    EXPECT_GT(w.frames(), 1u);
  }
  WalScanResult scan = ScanWal(path);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records.size(), static_cast<size_t>(kRedos + 1));
  EXPECT_EQ(scan.committed_tops, std::vector<uint64_t>{1});
  std::remove(path.c_str());
}

// Many threads each committing and waiting in lockstep: every wait must
// return (a lost wakeup hangs here) and cover its own marker.
TEST(WalWriterTest, ConcurrentCommitWaitersNeverHang) {
  const std::string path = TmpPath("waiters");
  constexpr int kThreads = 4;
  constexpr int kCommits = 2000;
  {
    WalWriter w(WalOptions{path});
    ASSERT_TRUE(w.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCommits; ++i) {
          const uint64_t pos = w.StageCommit(t * kCommits + i + 1);
          w.WaitDurable(pos);
          EXPECT_GT(w.DurableWatermark(), pos);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(w.staged(), static_cast<uint64_t>(kThreads * kCommits));
    EXPECT_EQ(w.DurableWatermark(), w.staged());
  }
  std::remove(path.c_str());
}

// Fail-stop: a failed log write must never ack a commit.  /dev/full accepts
// the open and fails every write with ENOSPC; the writer must report the
// path and errno and abort before the watermark moves.
TEST(WalWriterDeathTest, FailedWriteAbortsBeforeAck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WalWriter w(WalOptions{"/dev/full"});
        w.WaitDurable(w.StageCommit(1));
        std::exit(0);  // acked a commit that is not on disk
      },
      "write failed on /dev/full: No space left on device");
}

// --- zero-overhead / mutex-freedom invariants ------------------------------

TEST(WalInvariantTest, DurabilityNoneCreatesNoWal) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {});
  EXPECT_EQ(exec.wal(), nullptr);
}

// The PR-5 journal acceptance invariant survives the WAL hook: with
// folding disabled, a steady-state NTO step (apply + publish + scan +
// lock-free WAL staging) still acquires zero journal mutexes even with
// durability=group attached.
TEST(WalInvariantTest, StepPathStaysJournalMutexFreeWithWal) {
  const std::string path = TmpPath("mutexfree");
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  ExecutorOptions opts;
  opts.protocol = Protocol::kNto;
  opts.record = false;
  opts.journal_fold_threshold = 0;
  opts.durability = Durability::kGroup;
  opts.wal_path = path;
  Executor exec(base, opts);
  ASSERT_NE(exec.wal(), nullptr);
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
  const uint64_t before = JournalMutexAcquisitions().load();
  for (int i = 0; i < 20; ++i) {
    TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
      return txn.Invoke(bump);
    });
    ASSERT_TRUE(r.committed);
  }
  EXPECT_EQ(JournalMutexAcquisitions().load() - before, 0u)
      << "the WAL staging hook put a journal mutex on the step path";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace objectbase::rt
