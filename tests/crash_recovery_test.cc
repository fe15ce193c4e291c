// Crash-injection harness for the write-ahead durability subsystem.
//
// Each round forks a child process that runs a contended durable banking
// workload (transfers + a unique tag inserted per successful transfer,
// durability=group, protocol rotated across all five).  The
// child appends each ACKNOWLEDGED transfer's tag to a per-thread ack file
// with a raw write() AFTER RunTransaction returns committed — i.e. after
// the commit gate's WaitDurable.  The parent SIGKILLs the child at a
// randomised point (spreads from ~2ms to ~64ms, covering "no log yet",
// "mid-frame", and "finished"), then recovers the log into an identically
// initialised base and asserts the durability contract:
//
//   * every acknowledged transfer survives (its tag is in the recovered
//     set) — acked ⊆ recovered;
//   * the recovered state is consistent: money is conserved exactly;
//   * the replay is step-level LEGAL: every recorded return value matches
//     the value produced by re-applying the redo (ret_mismatches == 0);
//   * the recovered committed set is SERIALISABLE: the serialisation
//     graph induced by the per-object replay orders over surviving
//     conflicting steps is acyclic;
//   * a torn tail is truncated cleanly (scan/recovery never crash and
//     agree on the committed set).
//
// Tunables (the house fuzz idiom):
//   OBJECTBASE_CRASH_ROUNDS — rounds per run (default 100);
//   OBJECTBASE_CRASH_SEED   — base seed; DEFAULTS TO RANDOM, printed at
//                             the start — copy it into the env to
//                             reproduce a failure.
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/adt/bank_account_adt.h"
#include "src/adt/set_adt.h"
#include "src/common/rng.h"
#include "src/model/serialisation_graph.h"
#include "src/runtime/executor.h"
#include "src/runtime/object_base.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {
namespace {

int CrashRounds() {
  const char* s = std::getenv("OBJECTBASE_CRASH_ROUNDS");
  if (s == nullptr) return 100;
  const int v = std::atoi(s);
  return v > 0 ? v : 100;
}

uint64_t CrashBaseSeed() {
  const char* s = std::getenv("OBJECTBASE_CRASH_SEED");
  if (s != nullptr) return std::strtoull(s, nullptr, 0);
  return std::random_device{}();
}

constexpr int kAccounts = 4;
constexpr int64_t kInitial = 1000;
constexpr int kChildThreads = 3;
constexpr int kTxnsPerThread = 500;

void BuildBase(ObjectBase& base) {
  for (int i = 0; i < kAccounts; ++i) {
    base.CreateObject("acct:" + std::to_string(i),
                      adt::MakeBankAccountSpec(kInitial));
  }
  base.CreateObject("tags", adt::MakeSetSpec());
}

struct RoundConfig {
  Protocol protocol = Protocol::kNto;
  uint64_t child_seed = 0;
};

/// Runs in the forked child.  No gtest, no stdio, no exceptions escaping:
/// plain work then _exit.  Ack protocol: tag appended (raw write, one line)
/// only AFTER the committed acknowledgement returned — so by the durability
/// contract the tag's transaction is already on disk when the ack is.
void ChildWorkload(const std::string& wal_path, const std::string& ack_prefix,
                   const RoundConfig& cfg) {
  ObjectBase base;
  BuildBase(base);
  ExecutorOptions opts;
  opts.protocol = cfg.protocol;
  opts.record = false;
  opts.durability = Durability::kGroup;
  opts.wal_path = wal_path;
  Executor exec(base, opts);
  std::vector<std::thread> workers;
  for (int t = 0; t < kChildThreads; ++t) {
    workers.emplace_back([&, t]() {
      const std::string ack_path = ack_prefix + "." + std::to_string(t);
      const int ack_fd =
          ::open(ack_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      Rng rng(cfg.child_seed + t * 7919);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        int from = static_cast<int>(rng.Uniform(kAccounts));
        int to = static_cast<int>(rng.Uniform(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        int64_t amount = rng.Range(1, 50);
        int64_t tag = t * 1000000 + i;
        std::string from_name = "acct:" + std::to_string(from);
        std::string to_name = "acct:" + std::to_string(to);
        TxnResult r = exec.RunTransaction(
            "transfer", [&, amount, tag](MethodCtx& txn) -> Value {
              Value ok = txn.Invoke(from_name, "withdraw", {amount});
              if (!ok.AsBool()) return Value(false);
              txn.Invoke(to_name, "deposit", {amount});
              txn.Invoke("tags", "insert", {tag});
              return Value(true);
            });
        if (r.committed && r.ret.AsBool() && ack_fd >= 0) {
          char line[32];
          const int n =
              std::snprintf(line, sizeof line, "%lld\n",
                            static_cast<long long>(tag));
          // One small write per ack; if the kill lands mid-write the
          // parent drops the torn last line.
          (void)::write(ack_fd, line, static_cast<size_t>(n));
        }
      }
      if (ack_fd >= 0) ::close(ack_fd);
    });
  }
  for (auto& w : workers) w.join();
}

/// Acked tags = complete lines of the per-thread ack files (a torn trailing
/// line without '\n' is discarded — its ack never fully happened).
std::vector<int64_t> ReadAckedTags(const std::string& ack_prefix) {
  std::vector<int64_t> tags;
  for (int t = 0; t < kChildThreads; ++t) {
    std::ifstream in(ack_prefix + "." + std::to_string(t), std::ios::binary);
    if (!in) continue;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t start = 0;
    while (true) {
      const size_t nl = data.find('\n', start);
      if (nl == std::string::npos) break;  // torn tail dropped
      tags.push_back(std::strtoll(data.c_str() + start, nullptr, 10));
      start = nl + 1;
    }
  }
  return tags;
}

/// SG-acyclicity oracle over the recovered records: per object, surviving
/// redos in replay (order_key) order induce edges between distinct tops on
/// step-level conflicts; the graph over committed tops must be acyclic.
/// Per-object record count is capped (the subgraph of an acyclic graph is
/// acyclic, so a capped check is sound — just weaker on huge logs).
void CheckRecoveredSerialisable(const WalScanResult& scan,
                                const ObjectBase& base) {
  constexpr size_t kPerObjectCap = 300;
  std::unordered_set<uint64_t> committed(scan.committed_tops.begin(),
                                         scan.committed_tops.end());
  std::unordered_set<uint64_t> aborted(scan.aborted_subtrees.begin(),
                                       scan.aborted_subtrees.end());
  std::unordered_map<uint32_t, std::vector<const WalRecord*>> by_obj;
  for (const WalRecord& r : scan.records) {
    if (r.kind != WalRecordKind::kRedo) continue;
    if (committed.find(r.top_uid) == committed.end()) continue;
    bool excised = false;
    for (uint64_t u : r.chain) {
      if (aborted.find(u) != aborted.end()) {
        excised = true;
        break;
      }
    }
    if (excised) continue;
    by_obj[r.object_id].push_back(&r);
  }
  std::unordered_map<uint64_t, uint32_t> top_index;
  for (uint64_t t : scan.committed_tops) {
    top_index.emplace(t, static_cast<uint32_t>(top_index.size()));
  }
  model::Digraph graph(top_index.size());
  for (auto& [object_id, recs] : by_obj) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const WalRecord* a, const WalRecord* b) {
                       return a->order_key < b->order_key;
                     });
    if (recs.size() > kPerObjectCap) recs.resize(kPerObjectCap);
    const adt::AdtSpec& spec = base.Get(object_id).spec();
    for (size_t i = 0; i < recs.size(); ++i) {
      for (size_t j = i + 1; j < recs.size(); ++j) {
        if (recs[i]->top_uid == recs[j]->top_uid) continue;
        adt::StepView first{spec.OpAt(recs[i]->op_id).name, &recs[i]->args,
                            &recs[i]->ret, recs[i]->op_id};
        adt::StepView second{spec.OpAt(recs[j]->op_id).name, &recs[j]->args,
                             &recs[j]->ret, recs[j]->op_id};
        if (!spec.StepConflicts(first, second)) continue;
        graph.AddEdge(top_index[recs[i]->top_uid],
                      top_index[recs[j]->top_uid]);
      }
    }
  }
  EXPECT_TRUE(graph.IsAcyclic())
      << "recovered committed set is not serialisable";
}

struct HarnessTotals {
  uint64_t rounds_with_log = 0;
  uint64_t acked = 0;
  uint64_t recovered_commits = 0;
  uint64_t torn_tails = 0;
};

void RunCrashRound(uint64_t seed, int round, HarnessTotals& totals) {
  Rng rng(seed);
  // The pid in the names keeps concurrent runs of this binary (the default
  // and the long registration under ctest -j) off each other's files.
  const std::string dir = ::testing::TempDir();
  const std::string tag =
      std::to_string(::getpid()) + "_" + std::to_string(round);
  const std::string wal_path = dir + "/crash_wal_" + tag + ".log";
  const std::string ack_prefix = dir + "/crash_ack_" + tag;
  std::remove(wal_path.c_str());
  for (int t = 0; t < kChildThreads; ++t) {
    std::remove((ack_prefix + "." + std::to_string(t)).c_str());
  }

  const Protocol protocols[] = {Protocol::kN2pl, Protocol::kNto,
                                Protocol::kCert, Protocol::kGemstone,
                                Protocol::kMixed};
  RoundConfig cfg;
  cfg.protocol = protocols[rng.Uniform(5)];
  cfg.child_seed = rng.NextU64();
  // Kill spreads from ~2ms to ~64ms: early kills exercise "no/short log",
  // late ones "deep log / finished child".
  const uint64_t spread_us = uint64_t{2000} << rng.Uniform(6);
  const uint64_t kill_after_us = 200 + rng.Uniform(spread_us);
  SCOPED_TRACE("round=" + std::to_string(round) +
               " protocol=" + ProtocolName(cfg.protocol) +
               " kill_after_us=" + std::to_string(kill_after_us));

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    // Child: run the workload, then exit without touching gtest/atexit.
    ChildWorkload(wal_path, ack_prefix, cfg);
    ::_exit(0);
  }
  std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // Either we killed it mid-run or it finished first; both are valid
  // crash points (the second exercises full-log recovery).

  const std::vector<int64_t> acked = ReadAckedTags(ack_prefix);
  if (::access(wal_path.c_str(), F_OK) != 0) {
    // Killed before the executor opened the log — nothing can be acked.
    EXPECT_TRUE(acked.empty());
    return;
  }

  WalScanResult scan = ScanWal(wal_path);
  ASSERT_TRUE(scan.ok);
  ++totals.rounds_with_log;
  totals.acked += acked.size();
  totals.recovered_commits += scan.committed_tops.size();
  if (scan.torn) ++totals.torn_tails;

  ObjectBase fresh;
  BuildBase(fresh);
  ExecutorOptions ropts;
  ropts.protocol = cfg.protocol;
  Executor recovered(fresh, ropts);
  WalRecoveryResult r = recovered.Recover(wal_path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.torn, scan.torn);
  EXPECT_EQ(r.committed_tops, scan.committed_tops.size());
  // Step-level legality of the replay: every recorded return value was
  // reproduced exactly.
  EXPECT_EQ(r.ret_mismatches, 0u) << "replay disagreed with a recorded ret";
  EXPECT_EQ(r.unknown_objects, 0u);

  // Every acknowledged transfer survived the crash.
  std::vector<int64_t> missing;
  recovered.RunTransaction("check_acked", [&](MethodCtx& txn) {
    for (int64_t tag : acked) {
      if (!txn.Invoke("tags", "contains", {Value(tag)}).AsBool()) {
        missing.push_back(tag);
      }
    }
    return Value();
  });
  EXPECT_TRUE(missing.empty())
      << missing.size() << " acked transfers lost (first: "
      << (missing.empty() ? 0 : missing[0]) << "), acked=" << acked.size()
      << " recovered_commits=" << scan.committed_tops.size();

  // Consistency: transfers are atomic, so money is conserved exactly.
  int64_t total = 0;
  recovered.RunTransaction("audit", [&](MethodCtx& txn) {
    for (int i = 0; i < kAccounts; ++i) {
      total += txn.Invoke("acct:" + std::to_string(i), "balance").AsInt();
    }
    return Value();
  });
  EXPECT_EQ(total, kInitial * kAccounts)
      << "recovered state lost or created money";

  CheckRecoveredSerialisable(scan, fresh);

  std::remove(wal_path.c_str());
  for (int t = 0; t < kChildThreads; ++t) {
    std::remove((ack_prefix + "." + std::to_string(t)).c_str());
  }
}

TEST(CrashRecoveryTest, AckedTransactionsSurviveRandomKills) {
  const int rounds = CrashRounds();
  const uint64_t base_seed = CrashBaseSeed();
  std::printf(
      "[crash] OBJECTBASE_CRASH_SEED=%llu OBJECTBASE_CRASH_ROUNDS=%d\n",
      static_cast<unsigned long long>(base_seed), rounds);
  std::fflush(stdout);
  HarnessTotals totals;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + uint64_t{1000003} * round;
    RunCrashRound(seed, round, totals);
    if (::testing::Test::HasFailure()) break;
  }
  std::printf("[crash] rounds_with_log=%llu acked=%llu recovered_commits=%llu "
              "torn_tails=%llu\n",
              static_cast<unsigned long long>(totals.rounds_with_log),
              static_cast<unsigned long long>(totals.acked),
              static_cast<unsigned long long>(totals.recovered_commits),
              static_cast<unsigned long long>(totals.torn_tails));
  // The harness is only meaningful if kills actually interrupt real work:
  // over a full run some rounds must have acknowledged commits on disk.
  if (rounds >= 20) {
    EXPECT_GT(totals.acked, 0u);
    EXPECT_GE(totals.recovered_commits, totals.acked);
  }
}

}  // namespace
}  // namespace objectbase::rt
