// Sharded topology tests: a plain base as one shard, routing, cross-shard
// two-phase commit-wait, the pinned cross-shard cycle, partial-abort unwind
// across shards, wound-wait fan-out, and the pooled branch scheduler.
//
// The headline pinned regression is CrossShardCycleDoomedNotCommitted: two
// transactions are forced (by an interleaving latch) into a serialisation
// cycle whose two edges live on DIFFERENT shards — invisible to either
// per-shard DependencyGraph alone.  The cross-shard commit registry must
// detect it (or the poll budget must time it out); committing both would be
// a Theorem 5 violation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/adt/bank_account_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/adt/set_adt.h"
#include "src/cc/sharded_controller.h"
#include "src/common/rng.h"
#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialiser.h"
#include "src/runtime/executor.h"
#include "src/runtime/object_base.h"
#include "src/runtime/wal.h"

namespace objectbase::rt {
namespace {

void VerifyOracles(Executor& exec, const char* context) {
  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  EXPECT_TRUE(legal.legal) << context << ": " << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_TRUE(check.serialisable) << context << ": " << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  EXPECT_TRUE(t5.holds) << context << ": " << t5.detail;
}

// --- wiring ------------------------------------------------------------------

TEST(ShardedExecutor, PlainBaseIsOneShard) {
  // A plain ObjectBase runs the same wiring as a ShardedBase: one
  // controller stack under the routing layer, one log, at wal_path.
  const std::string wal = ::testing::TempDir() + "/plain_base_one_shard." +
                          std::to_string(::getpid()) + ".wal";
  {
    ObjectBase base;
    base.CreateObject("c", adt::MakeCounterSpec(0));
    Executor exec(base, {.protocol = Protocol::kMixed,
                         .durability = Durability::kGroup,
                         .wal_path = wal});
    ASSERT_NE(exec.sharded(), nullptr);
    EXPECT_EQ(exec.sharded()->num_shards(), 1u);
    EXPECT_NE(exec.mixed(), nullptr);
    EXPECT_EQ(exec.wal(), exec.shard_wal(0));
    EXPECT_EQ(exec.shard_wal(1), nullptr);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(exec.RunTransaction("t", [](MethodCtx& txn) {
                        txn.Invoke("c", "add", {1});
                        return Value();
                      }).committed);
    }
    EXPECT_EQ(exec.stats().committed_by_shard[0].load(), 4u);
  }
  EXPECT_EQ(::access(ShardWalPath(wal, 1).c_str(), F_OK), -1)
      << "a one-shard base must write exactly one log";

  ObjectBase fresh;
  fresh.CreateObject("c", adt::MakeCounterSpec(0));
  Executor reader(fresh, {.protocol = Protocol::kMixed});
  WalRecoveryResult r = reader.Recover(wal);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.committed_tops, 4u);
  EXPECT_EQ(r.ret_mismatches, 0u);
  EXPECT_EQ(reader.RunTransaction("get", [](MethodCtx& txn) {
                    return txn.Invoke("c", "get");
                  }).ret,
            Value(int64_t{4}));
  std::remove(wal.c_str());
}

TEST(ShardedExecutor, ObjectsArePartitionedRoundRobin) {
  ShardedBase base(4);
  for (int i = 0; i < 10; ++i) {
    base.CreateObject("o" + std::to_string(i), adt::MakeCounterSpec(0));
  }
  for (uint32_t id = 0; id < 10; ++id) {
    EXPECT_EQ(base.ShardOf(id), id % 4);
  }
  base.PinObject(2, 3);
  EXPECT_EQ(base.ShardOf(2), 3u);
}

TEST(ShardedExecutor, ShardedWiringIsBuiltForEveryProtocol) {
  // 8 shards exceed TxnNode's inline registry-handle slots, so each top
  // spills its handle table to the heap.
  for (uint32_t shards : {4u, 8u}) {
    for (Protocol p : {Protocol::kN2pl, Protocol::kNto, Protocol::kCert,
                       Protocol::kGemstone, Protocol::kMixed}) {
      ShardedBase base(shards);
      base.CreateObject("a", adt::MakeCounterSpec(0));
      base.CreateObject("b", adt::MakeCounterSpec(0));
      Executor exec(base, {.protocol = p});
      ASSERT_NE(exec.sharded(), nullptr) << ProtocolName(p);
      EXPECT_EQ(exec.sharded()->num_shards(), shards) << ProtocolName(p);
      // The routing layer is transparent: it reports the inner protocol.
      EXPECT_STREQ(exec.controller().name(), ProtocolName(p));
      EXPECT_TRUE(exec.RunTransaction("ab", [](MethodCtx& txn) {
                        txn.Invoke("a", "add", {1});
                        txn.Invoke("b", "add", {1});
                        return Value();
                      }).committed)
          << ProtocolName(p) << " shards=" << shards;
      EXPECT_EQ(exec.sharded()->cross_shard_commits(), 1u) << ProtocolName(p);
      VerifyOracles(exec, ProtocolName(p));
    }
  }
}

// --- single-shard and cross-shard commits ------------------------------------

TEST(ShardedExecutor, SingleShardTopsCommitOnHomeShard) {
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeCounterSpec(0));  // shard 0
  base.CreateObject("b", adt::MakeCounterSpec(0));  // shard 1
  Executor exec(base, {.protocol = Protocol::kNto});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(exec.RunTransaction("t0", [](MethodCtx& txn) {
                      txn.Invoke("a", "add", {1});
                      return Value();
                    }).committed);
    EXPECT_TRUE(exec.RunTransaction("t1", [](MethodCtx& txn) {
                      txn.Invoke("b", "add", {1});
                      return Value();
                    }).committed);
  }
  EXPECT_EQ(exec.sharded()->cross_shard_commits(), 0u);
  EXPECT_EQ(exec.stats().committed_by_shard[0].load(), 5u);
  EXPECT_EQ(exec.stats().committed_by_shard[1].load(), 5u);
  EXPECT_EQ(
      exec.stats().committed_by_shard[Executor::Stats::kCrossShardSlot].load(),
      0u);
  VerifyOracles(exec, "single-shard tops");
}

TEST(ShardedExecutor, CrossShardTopsCommitThroughCommitWait) {
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeCounterSpec(0));
  base.CreateObject("b", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kCert});
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(exec.RunTransaction("x", [](MethodCtx& txn) {
                      txn.Invoke("a", "add", {1});
                      txn.Invoke("b", "add", {1});
                      return Value();
                    }).committed);
  }
  EXPECT_EQ(exec.sharded()->cross_shard_commits(), 8u);
  EXPECT_EQ(
      exec.stats().committed_by_shard[Executor::Stats::kCrossShardSlot].load(),
      8u);
  // Both counters saw every increment.
  Value a = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("a", "get");
                }).ret;
  Value b = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("b", "get");
                }).ret;
  EXPECT_EQ(a.AsInt(), 8);
  EXPECT_EQ(b.AsInt(), 8);
  VerifyOracles(exec, "cross-shard tops");
}

// --- the pinned cross-shard cycle -------------------------------------------

TEST(ShardedExecutor, CrossShardCycleDoomedNotCommitted) {
  // a lives on shard 0, b on shard 1.  The latch forces
  //   on a: T1's write applied before T2's  (edge T1 -> T2 on shard 0)
  //   on b: T2's write applied before T1's  (edge T2 -> T1 on shard 1)
  // — a two-edge serialisation cycle with NO edge visible whole to either
  // shard.  Under the optimistic certifier both transactions reach their
  // cross-shard commit-wait; the commit registry (or, conservatively, the
  // poll budget) must abort at least one.  Committing both is the bug this
  // test pins against.
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kCert});
  ASSERT_NE(exec.sharded(), nullptr);
  exec.sharded()->SetCommitPollBudgetUs(200'000);  // fast fallback if needed

  std::atomic<int> stage{0};
  auto wait_for = [&stage](int n) {
    while (stage.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  };

  TxnResult r1, r2;
  std::thread w1([&] {
    r1 = exec.RunTransactionOnce("T1", [&](MethodCtx& txn) {
      txn.Invoke("a", "write", {1});
      stage.fetch_add(1, std::memory_order_acq_rel);
      wait_for(2);
      txn.Invoke("b", "write", {1});
      return Value();
    });
  });
  std::thread w2([&] {
    r2 = exec.RunTransactionOnce("T2", [&](MethodCtx& txn) {
      txn.Invoke("b", "write", {2});
      stage.fetch_add(1, std::memory_order_acq_rel);
      wait_for(2);
      txn.Invoke("a", "write", {2});
      return Value();
    });
  });
  w1.join();
  w2.join();

  // Committing BOTH would certify a cyclic serialisation graph.
  EXPECT_FALSE(r1.committed && r2.committed)
      << "cross-shard cycle committed on both sides";
  // The cycle was resolved by detection (registry / per-shard veto) or by
  // the conservative poll timeout — either way at least one abort happened.
  EXPECT_GE(exec.stats().aborted.load(), 1u);
  VerifyOracles(exec, "pinned cross-shard cycle");
}

// --- abort paths across shards ----------------------------------------------

TEST(ShardedExecutor, PartialAbortUnwindsEveryTouchedShard) {
  // N2PL supports partial aborts: a child that wrote on BOTH shards aborts
  // (undo must run on both), while the surviving parent commits its own
  // writes.  A missed per-shard unwind would leave key 7's effects behind.
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeCounterSpec(0));  // shard 0
  base.CreateObject("b", adt::MakeCounterSpec(0));  // shard 1
  Executor exec(base, {.protocol = Protocol::kN2pl});
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) {
    txn.Invoke("a", "add", {1});
    auto out = txn.TryInvoke("doomed", "child", {});  // unknown object
    EXPECT_FALSE(out.ok);
    auto out2 = txn.TryInvoke("a", "poison", {});  // unknown method: kUser
    EXPECT_FALSE(out2.ok);
    txn.Invoke("b", "add", {10});
    return Value();
  });
  ASSERT_TRUE(r.committed);

  // A child that touched both shards, then aborted.
  TxnResult r2 = exec.RunTransaction("t2", [&exec](MethodCtx& txn) {
    auto out = txn.TryInvoke("spanning", "child", {});
    (void)out;
    return Value();
  });
  ASSERT_TRUE(r2.committed);

  // Register a genuinely spanning child body and abort it mid-flight.
  ASSERT_TRUE(exec.DefineMethod("a", "span_then_abort", [](MethodCtx& txn) {
    txn.Local("add", {100});
    txn.Invoke("b", "add", {100});
    txn.Abort();
    return Value();
  }));
  TxnResult r3 = exec.RunTransaction("t3", [](MethodCtx& txn) {
    auto out = txn.TryInvoke("a", "span_then_abort", {});
    EXPECT_FALSE(out.ok);  // child aborted...
    return Value();        // ...parent survives and commits
  });
  ASSERT_TRUE(r3.committed);

  Value a = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("a", "get");
                }).ret;
  Value b = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("b", "get");
                }).ret;
  EXPECT_EQ(a.AsInt(), 1) << "aborted child's shard-0 effect survived";
  EXPECT_EQ(b.AsInt(), 10) << "aborted child's shard-1 effect survived";
  VerifyOracles(exec, "partial abort across shards");
}

TEST(ShardedExecutor, RebuildProtocolEscalatedAbortUnwindsBothShards) {
  // CERT escalates a child abort to the top (the pinned
  // NonStrictProtocolsEscalateChildAborts semantics) — here the escalated
  // TOP abort must unwind by per-shard journal REBUILD on every shard the
  // subtree touched, not just the child's home shard.
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeCounterSpec(0));
  base.CreateObject("b", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kCert, .max_top_retries = 1});
  // Committed baseline the rebuilds must preserve.
  ASSERT_TRUE(exec.RunTransaction("seed", [](MethodCtx& txn) {
                    txn.Invoke("a", "add", {1});
                    txn.Invoke("b", "add", {10});
                    return Value();
                  }).committed);
  ASSERT_TRUE(exec.DefineMethod("a", "span_then_abort", [](MethodCtx& txn) {
    txn.Local("add", {100});
    txn.Invoke("b", "add", {100});
    txn.Abort();
    return Value();
  }));
  TxnResult r = exec.RunTransaction("t", [](MethodCtx& txn) -> Value {
    txn.Invoke("a", "add", {7});           // top's own shard-0 effect
    txn.Invoke("a", "span_then_abort", {});  // child spans both shards
    return Value();
  });
  EXPECT_FALSE(r.committed);  // escalated, as on a one-shard base
  Value a = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("a", "get");
                }).ret;
  Value b = exec.RunTransaction("read", [](MethodCtx& txn) {
                  return txn.Invoke("b", "get");
                }).ret;
  EXPECT_EQ(a.AsInt(), 1) << "shard-0 rebuild kept the aborted top's writes";
  EXPECT_EQ(b.AsInt(), 10) << "shard-1 rebuild kept the aborted child's write";
  VerifyOracles(exec, "rebuild escalated abort across shards");
}

TEST(ShardedExecutor, WoundWaitAcrossShardsStaysSerialisable) {
  // MIXED + wound-wait on 2 shards: transfers span shards, so wounds cross
  // them (the all-shards doom hook).  The oracles certify no wound ever
  // half-unwound a victim.
  ShardedBase base(2);
  const int accounts = 4;
  for (int i = 0; i < accounts; ++i) {
    base.CreateObject("acct:" + std::to_string(i),
                      adt::MakeBankAccountSpec(1000));
  }
  Executor exec(base, {.protocol = Protocol::kMixed,
                       .contention_policy = cc::ContentionPolicy::kWoundWait});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(991 + t * 7919);
      for (int i = 0; i < 40; ++i) {
        int from = static_cast<int>(rng.Uniform(accounts));
        int to = static_cast<int>(rng.Uniform(accounts));
        if (to == from) to = (to + 1) % accounts;
        const int64_t amount = rng.Range(1, 50);
        std::string from_name = "acct:" + std::to_string(from);
        std::string to_name = "acct:" + std::to_string(to);
        exec.RunTransaction("transfer", [&, amount](MethodCtx& txn) -> Value {
          if (!txn.Invoke(from_name, "withdraw", {amount}).AsBool()) {
            return Value(false);
          }
          txn.Invoke(to_name, "deposit", {amount});
          return Value(true);
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  for (int i = 0; i < accounts; ++i) {
    total += exec.RunTransaction("read", [&, i](MethodCtx& txn) {
                   return txn.Invoke("acct:" + std::to_string(i), "balance");
                 }).ret.AsInt();
  }
  EXPECT_EQ(total, accounts * 1000) << "money not conserved across shards";
  VerifyOracles(exec, "wound-wait across shards");
}

// --- contended multi-shard sweep --------------------------------------------

TEST(ShardedExecutor, ContendedFourShardSweepAllProtocols) {
  for (Protocol p : {Protocol::kN2pl, Protocol::kNto, Protocol::kCert,
                     Protocol::kGemstone, Protocol::kMixed}) {
    ShardedBase base(4);
    base.CreateObject("r0", adt::MakeRegisterSpec(0));
    base.CreateObject("ctr", adt::MakeCounterSpec(0));
    base.CreateObject("set", adt::MakeSetSpec());
    base.CreateObject("q", adt::MakeQueueSpec());
    Executor exec(base, {.protocol = p, .max_top_retries = 50});
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(31 + t);
        for (int i = 0; i < 25; ++i) {
          const int64_t key = rng.Range(0, 5);
          exec.RunTransaction("mix", [&, key](MethodCtx& txn) {
            switch (rng.Uniform(4)) {
              case 0: txn.Invoke("r0", "write", {key}); break;
              case 1:
                txn.Invoke("ctr", "add", {1});
                txn.Invoke("set", "insert", {key});
                break;
              case 2:
                txn.InvokeParallel({{"q", "enqueue", {key}},
                                    {"ctr", "add", {1}}});
                break;
              default:
                txn.Invoke("r0", "read");
                txn.Invoke("q", "length");
                break;
            }
            return Value();
          });
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_GT(exec.stats().committed.load(), 0u) << ProtocolName(p);
    VerifyOracles(exec, ProtocolName(p));
  }
}

// --- commit-wait poll timeout ------------------------------------------------

TEST(ShardedExecutor, PollBudgetExpiryAbortsAsCommitTimeoutNotDeadlock) {
  // a lives on shard 0, b on shard 1.  A single-shard top writes a and
  // parks before committing; a cross-shard top then writes a (an edge from
  // the parked top on shard 0) and b, and its commit-wait polls shard 0
  // until the budget runs out.  There is no cycle, so the abort must be
  // reported as a timeout, not as a deadlock.
  ShardedBase base(2);
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kCert});
  ASSERT_NE(exec.sharded(), nullptr);
  exec.sharded()->SetCommitPollBudgetUs(2000);

  std::atomic<bool> written{false};
  std::atomic<bool> release{false};
  TxnResult parked;
  std::thread holder([&] {
    parked = exec.RunTransaction("parked", [&](MethodCtx& txn) {
      txn.Invoke("a", "write", {1});
      written.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      return Value();
    });
  });
  while (!written.load()) std::this_thread::yield();

  const MethodFn cross = [](MethodCtx& txn) {
    txn.Invoke("a", "write", {2});
    txn.Invoke("b", "write", {2});
    return Value();
  };
  TxnResult first = exec.RunTransactionOnce("cross", cross);
  EXPECT_FALSE(first.committed);
  EXPECT_EQ(first.last_abort, cc::AbortReason::kCommitTimeout);
  EXPECT_EQ(exec.sharded()->commit_poll_timeouts(), 1u);
  EXPECT_EQ(exec.sharded()->cross_shard_cycle_aborts(), 0u);
  EXPECT_EQ(exec.stats().AbortsFor(cc::AbortReason::kDeadlock), 0u);

  release.store(true);
  holder.join();
  ASSERT_TRUE(parked.committed);
  TxnResult retry = exec.RunTransactionOnce("cross", cross);
  EXPECT_TRUE(retry.committed);
  EXPECT_EQ(exec.sharded()->commit_poll_timeouts(), 1u);
  VerifyOracles(exec, "commit-wait poll timeout");
}

// --- branch pool -------------------------------------------------------------

TEST(ShardedExecutor, BranchPoolRunsWideAndNestedBatches) {
  // More branches than the pool's per-batch worker request, plus a nested
  // parallel batch inside a branch: the caller-inline drain guarantees
  // progress regardless of worker availability.
  ShardedBase base(2);
  base.CreateObject("ctr", adt::MakeCounterSpec(0));
  base.CreateObject("q", adt::MakeQueueSpec());
  Executor exec(base, {.protocol = Protocol::kNto});
  ASSERT_TRUE(exec.DefineMethod("ctr", "fan", [](MethodCtx& txn) {
    txn.Local("add", {1});
    txn.InvokeParallel({{"q", "enqueue", {1}}, {"q", "enqueue", {2}}});
    return Value();
  }));
  TxnResult r = exec.RunTransaction("wide", [](MethodCtx& txn) {
    std::vector<MethodCtx::Call> calls;
    for (int i = 0; i < 24; ++i) calls.push_back({"ctr", "fan", {}});
    auto outcomes = txn.InvokeParallel(std::move(calls));
    for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
    return Value();
  });
  ASSERT_TRUE(r.committed);
  EXPECT_GT(exec.branch_pool().workers(), 0u);
  Value ctr = exec.RunTransaction("read", [](MethodCtx& txn) {
                    return txn.Invoke("ctr", "get");
                  }).ret;
  EXPECT_EQ(ctr.AsInt(), 24);
  VerifyOracles(exec, "wide nested pool batches");
}

}  // namespace
}  // namespace objectbase::rt
