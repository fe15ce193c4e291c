// The headline property test: FOR EVERY protocol, granularity and seed,
// every history the runtime produces under contention is legal (Definition
// 6), has an acyclic serialisation graph whose serial replay is equivalent
// (Theorem 2 / Definition 7) and satisfies Theorem 5's conditions.
//
// This is the executable form of Theorems 3 and 4 (and of the certifier's
// correctness): a bug in any lock rule, timestamp check, undo path or
// cascade would surface here as a cyclic SG, a replay divergence or an
// illegal committed projection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>

#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/adt/set_adt.h"
#include "src/common/rng.h"
#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialiser.h"
#include "src/runtime/executor.h"
#include "src/workload/fsm.h"
#include "src/workload/fsm_scenarios.h"

namespace objectbase::rt {
namespace {

struct Config {
  Protocol protocol;
  cc::Granularity granularity;
  uint64_t seed;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return std::string(ProtocolName(info.param.protocol)) +
         (info.param.granularity == cc::Granularity::kStep ? "_step" : "_op") +
         "_s" + std::to_string(info.param.seed);
}

class SerialisabilityPropertyTest : public ::testing::TestWithParam<Config> {};

TEST_P(SerialisabilityPropertyTest, RandomContendedRunsAreSerialisable) {
  const Config cfg = GetParam();
  ObjectBase base;
  base.CreateObject("r0", adt::MakeRegisterSpec(0));
  base.CreateObject("r1", adt::MakeRegisterSpec(0));
  base.CreateObject("ctr", adt::MakeCounterSpec(0));
  base.CreateObject("set", adt::MakeSetSpec());
  base.CreateObject("q", adt::MakeQueueSpec());
  base.CreateObject("acct", adt::MakeBankAccountSpec(500));
  Executor exec(base, {.protocol = cfg.protocol,
                       .granularity = cfg.granularity,
                       .max_top_retries = 50});

  const int threads = 4;
  const int txns = 30;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(cfg.seed * 101 + t);
      for (int i = 0; i < txns; ++i) {
        // Random transaction shape: 1-4 operations over random objects,
        // with nesting and occasional parallel batches and user aborts.
        int n_ops = 1 + static_cast<int>(rng.Uniform(4));
        std::vector<int> kinds;
        std::vector<int64_t> keys;
        for (int k = 0; k < n_ops; ++k) {
          kinds.push_back(static_cast<int>(rng.Uniform(7)));
          keys.push_back(rng.Range(0, 5));
        }
        bool user_abort = rng.Bernoulli(0.08);
        exec.RunTransaction("rand", [&, kinds, keys,
                            user_abort](MethodCtx& txn) -> Value {
          for (size_t k = 0; k < kinds.size(); ++k) {
            int64_t key = keys[k];
            switch (kinds[k]) {
              case 0: txn.Invoke("r0", "write", {key}); break;
              case 1: txn.Invoke("r1", "read"); break;
              case 2: txn.Invoke("ctr", "add", {key + 1}); break;
              case 3: txn.Invoke("set", "insert", {key}); break;
              case 4: txn.Invoke("set", "erase", {key}); break;
              case 5:
                if (txn.Invoke("acct", "withdraw", {key + 1}).AsBool()) {
                  txn.Invoke("ctr", "add", {1});
                }
                break;
              default:
                txn.InvokeParallel({{"q", "enqueue", {key}},
                                    {"ctr", "add", {1}}});
                break;
            }
          }
          if (user_abort) txn.Abort();
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  ASSERT_TRUE(legal.legal) << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  ASSERT_TRUE(check.serialisable) << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  ASSERT_TRUE(t5.holds) << t5.detail;
  EXPECT_GT(exec.stats().committed.load(), 0u);
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (Protocol p : {Protocol::kN2pl, Protocol::kNto, Protocol::kCert,
                     Protocol::kGemstone, Protocol::kMixed}) {
    for (cc::Granularity g :
         {cc::Granularity::kOperation, cc::Granularity::kStep}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        configs.push_back({p, g, seed});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerialisabilityPropertyTest,
                         ::testing::ValuesIn(AllConfigs()), ConfigName);

// --- cross-protocol randomized fuzz ----------------------------------------
//
// A standing stress oracle for step-path rewrites: every round randomises
// the WHOLE configuration — protocol (all five plus MIXED with random
// per-object intra policies), granularity, thread count, object mix
// (including the latch-crabbing B-tree), journal-GC cadence (including
// "fold eagerly", which hammers chunk retirement, and "never", which grows
// long scan windows) — then asserts the recorded history is legal, its
// serialisation graph acyclic with an equivalent serial replay, and
// Theorem 5's conditions hold.
//
// CI smoke runs a few rounds; `ctest -L fuzz` runs the long registration
// (see CMakeLists.txt).  Tunables:
//   OBJECTBASE_FUZZ_ROUNDS — rounds per run (default 3);
//   OBJECTBASE_FUZZ_SEED   — base seed; DEFAULTS TO RANDOM, and is printed
//                            at the start of the run — copy it into the
//                            env to reproduce a failure.
//   OBJECTBASE_FUZZ_BTREE  — "1" forces the crabbing B-tree dictionary
//                            into every round and widens the op mix with
//                            dict get/del: recorded shared-latch appends
//                            (the apply-order hook path) in every round
//                            (the nightly recorded-crabbing pass).

int FuzzRounds() {
  const char* s = std::getenv("OBJECTBASE_FUZZ_ROUNDS");
  if (s == nullptr) return 3;
  const int v = std::atoi(s);
  return v > 0 ? v : 3;
}

uint64_t FuzzBaseSeed() {
  const char* s = std::getenv("OBJECTBASE_FUZZ_SEED");
  if (s != nullptr) return std::strtoull(s, nullptr, 0);
  return std::random_device{}();
}

bool FuzzForceBtree() {
  const char* s = std::getenv("OBJECTBASE_FUZZ_BTREE");
  return s != nullptr && s[0] == '1';
}

void RunFuzzRound(uint64_t seed) {
  Rng rng(seed);
  const Protocol protocols[] = {Protocol::kN2pl, Protocol::kNto,
                                Protocol::kCert, Protocol::kGemstone,
                                Protocol::kMixed};
  const Protocol protocol = protocols[rng.Uniform(5)];
  const cc::Granularity granularity = rng.Bernoulli(0.5)
                                          ? cc::Granularity::kStep
                                          : cc::Granularity::kOperation;
  const int threads = 2 + static_cast<int>(rng.Uniform(4));   // 2..5
  const int txns = 10 + static_cast<int>(rng.Uniform(25));    // 10..34
  // Journal-GC cadence: eager folding stresses chunk retirement under
  // racing scans; 0 stresses long lock-free windows.
  const size_t fold_thresholds[] = {0, 8, 64};
  const size_t fold_threshold = fold_thresholds[rng.Uniform(3)];
  // The draw always happens so pinned seeds replay identically whether or
  // not the btree override is set.
  const bool with_btree = rng.Bernoulli(0.5) || FuzzForceBtree();
  (void)rng.Bernoulli(0.5);  // retired draw, kept so pinned seeds replay
  // Sharding draws (all unconditional, same replay rule): shard count —
  // 1 is a one-shard base, >1 adds eager registration on several shards
  // and the cross-shard commit-wait; cross_ratio biases how often
  // a transaction's footprint spans objects (and thus shards).
  const uint32_t shard_counts[] = {1, 2, 4, 8};
  const uint32_t nshards = shard_counts[rng.Uniform(4)];
  const double cross_ratios[] = {0.0, 0.5, 1.0};
  const double cross_ratio = cross_ratios[rng.Uniform(3)];
  (void)rng.Uniform(4);  // retired draw, kept so pinned seeds replay

  ShardedBase base(nshards);
  base.CreateObject("r0", adt::MakeRegisterSpec(0));
  base.CreateObject("ctr", adt::MakeCounterSpec(0));
  base.CreateObject("set", adt::MakeSetSpec());
  base.CreateObject("q", adt::MakeQueueSpec());
  base.CreateObject("acct", adt::MakeBankAccountSpec(500));
  if (with_btree) base.CreateObject("dict", adt::MakeBTreeDictionarySpec(8));
  (void)rng.Bernoulli(0.8);  // retired draw, kept so pinned seeds replay
  Executor exec(base, {.protocol = protocol,
                       .granularity = granularity,
                       .max_top_retries = 50,
                       .journal_fold_threshold = fold_threshold});
  if (protocol == Protocol::kMixed) {
    const cc::IntraPolicy policies[] = {cc::IntraPolicy::kLocal2pl,
                                        cc::IntraPolicy::kTimestamp,
                                        cc::IntraPolicy::kOptimistic};
    for (const char* name : {"r0", "ctr", "set", "q", "acct"}) {
      ASSERT_TRUE(exec.SetIntraPolicy(name, policies[rng.Uniform(3)]));
    }
    // The B-tree keeps its default (crabbing) policy when present.
  }
  std::printf(
      "[fuzz]   %s %s threads=%d txns=%d fold=%zu btree=%d "
      "shards=%u xratio=%.1f\n",
      ProtocolName(protocol),
      granularity == cc::Granularity::kStep ? "step" : "op", threads, txns,
      fold_threshold, with_btree ? 1 : 0, nshards, cross_ratio);
  std::fflush(stdout);

  // Forced-btree rounds widen the mix with dict get/del (kinds 8/9) so
  // most steps ride the shared-latch crabbing path; the default mix is
  // unchanged so pinned seeds replay identically.
  const int kinds = with_btree ? (FuzzForceBtree() ? 10 : 8) : 7;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng trng(seed * 101 + t);
      for (int i = 0; i < txns; ++i) {
        const int n_ops = 1 + static_cast<int>(trng.Uniform(4));
        // Footprint shape: a spanning transaction draws from the whole op
        // mix (multi-object kinds included — under sharding its footprint
        // usually crosses shards); a confined one repeats a single-object
        // kind, staying on one object and therefore one shard.
        const bool spanning = trng.Bernoulli(cross_ratio);
        const int confined_kind = static_cast<int>(trng.Uniform(5));
        std::vector<int> ops;
        std::vector<int64_t> keys;
        for (int k = 0; k < n_ops; ++k) {
          ops.push_back(spanning ? static_cast<int>(trng.Uniform(kinds))
                                 : confined_kind);
          keys.push_back(trng.Range(0, 7));
        }
        const bool user_abort = trng.Bernoulli(0.08);
        exec.RunTransaction("fuzz", [&, ops, keys,
                            user_abort](MethodCtx& txn) -> Value {
          for (size_t k = 0; k < ops.size(); ++k) {
            const int64_t key = keys[k];
            switch (ops[k]) {
              case 0: txn.Invoke("r0", "write", {key}); break;
              case 1: txn.Invoke("r0", "read"); break;
              case 2: txn.Invoke("ctr", "add", {key + 1}); break;
              case 3: txn.Invoke("set", "insert", {key}); break;
              case 4: txn.Invoke("set", "erase", {key}); break;
              case 5:
                if (txn.Invoke("acct", "withdraw", {key + 1}).AsBool()) {
                  txn.Invoke("ctr", "add", {1});
                }
                break;
              case 6:
                txn.InvokeParallel({{"q", "enqueue", {key}},
                                    {"ctr", "add", {1}}});
                break;
              case 7:
                if (txn.Invoke("dict", "put", {key, key}).is_none()) {
                  txn.Invoke("ctr", "add", {1});
                }
                break;
              case 8: txn.Invoke("dict", "get", {key}); break;
              default: txn.Invoke("dict", "del", {key}); break;
            }
          }
          if (user_abort) txn.Abort();
          return Value();
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  if (!legal.legal) {
    // Reproduction aid: dump every object's applied order with abort
    // marks before failing (the seed is already in the trace).
    for (model::ObjectId o = 0; o < h.object_order.size(); ++o) {
      std::printf("[fuzz] object %s applied order:\n",
                  h.object_names[o].c_str());
      for (model::StepId sid : h.object_order[o]) {
        const model::Step& s = h.steps[sid];
        std::string args;
        for (const Value& a : s.args) args += a.ToString() + ",";
        std::printf("  seq=%llu exec=%u top=%u %s(%s)=%s%s\n",
                    static_cast<unsigned long long>(s.end_seq), s.exec,
                    h.TopAncestor(s.exec), s.op.c_str(), args.c_str(),
                    s.ret.ToString().c_str(),
                    h.EffectivelyAborted(s.exec) ? " [aborted]" : "");
      }
    }
    std::fflush(stdout);
  }
  ASSERT_TRUE(legal.legal) << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  ASSERT_TRUE(check.serialisable) << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  ASSERT_TRUE(t5.holds) << t5.detail;
  EXPECT_GT(exec.stats().committed.load(), 0u);
}

TEST(CrossProtocolFuzz, RandomisedRunsAreSerialisable) {
  const int rounds = FuzzRounds();
  const uint64_t base_seed = FuzzBaseSeed();
  std::printf("[fuzz] OBJECTBASE_FUZZ_SEED=%llu OBJECTBASE_FUZZ_ROUNDS=%d\n",
              static_cast<unsigned long long>(base_seed), rounds);
  std::fflush(stdout);
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + uint64_t{1000003} * round;
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " seed=" + std::to_string(seed));
    RunFuzzRound(seed);
    if (::testing::Test::HasFailure()) break;
  }
}

// --- FSM-scenario fuzz -------------------------------------------------------
//
// The same oracle block, fed by the FSM workload framework instead of the
// flat op mix: every round randomises protocol, granularity, shard count,
// runner mode (serial / parallel / composed) and MIXED policies, then
// runs ALL THREE seeded scenarios (secondary-index maintenance, bounded
// queue pipeline, read-mostly catalogue) through an FsmRunner.  Each
// scenario carries its own cross-object invariants (checked post-commit at
// fresh serialisation points), so a round asserts BOTH the scenario
// invariants (res.failures empty) and the model oracles over the recorded
// history.  Tunables: OBJECTBASE_FSM_FUZZ_ROUNDS (default 2) and the shared
// OBJECTBASE_FUZZ_SEED.

int FsmFuzzRounds() {
  const char* s = std::getenv("OBJECTBASE_FSM_FUZZ_ROUNDS");
  if (s == nullptr) return 2;
  const int v = std::atoi(s);
  return v > 0 ? v : 2;
}

void RunFsmFuzzRound(uint64_t seed) {
  Rng rng(seed);
  const Protocol protocols[] = {Protocol::kN2pl, Protocol::kNto,
                                Protocol::kCert, Protocol::kGemstone,
                                Protocol::kMixed};
  const Protocol protocol = protocols[rng.Uniform(5)];
  const cc::Granularity granularity = rng.Bernoulli(0.5)
                                          ? cc::Granularity::kStep
                                          : cc::Granularity::kOperation;
  const workload::FsmMode modes[] = {workload::FsmMode::kSerial,
                                     workload::FsmMode::kParallel,
                                     workload::FsmMode::kComposed};
  const workload::FsmMode mode = modes[rng.Uniform(3)];
  const uint32_t shard_counts[] = {1, 2, 4};
  const uint32_t nshards = shard_counts[rng.Uniform(3)];
  const size_t fold_thresholds[] = {0, 8, 64};
  const size_t fold_threshold = fold_thresholds[rng.Uniform(3)];
  const int composed_threads = 2 + static_cast<int>(rng.Uniform(3));  // 2..4
  const int iterations = 15 + static_cast<int>(rng.Uniform(16));      // 15..30
  // Per-object policy draws are ALWAYS performed (replay determinism: a
  // pinned seed replays identically whatever the protocol draw was); only
  // MIXED rounds consume them.
  (void)rng.Bernoulli(0.5);  // retired draws, kept so pinned seeds replay
  (void)rng.Uniform(4);
  const cc::IntraPolicy intra_policies[] = {cc::IntraPolicy::kLocal2pl,
                                            cc::IntraPolicy::kTimestamp,
                                            cc::IntraPolicy::kOptimistic};
  const char* objects[] = {"si:dict", "si:index",   "qp:q0",
                           "qp:q1",   "qp:q2",      "qp:produced",
                           "qp:consumed", "cat:cat", "cat:version"};
  cc::IntraPolicy drawn[9];
  for (size_t i = 0; i < 9; ++i) drawn[i] = intra_policies[rng.Uniform(3)];

  workload::SecondaryIndexParams si;
  si.keyspace = 32;
  si.prefill = 8;
  si.threads = 2;
  si.iterations = iterations;
  workload::QueuePipelineParams qp;
  qp.stages = 3;
  qp.bound = 4;
  qp.threads = 2;
  qp.iterations = iterations;
  workload::CatalogueParams cat;
  cat.keyspace = 64;
  cat.prefill = 16;
  cat.threads = 2;
  cat.iterations = iterations;

  ShardedBase base(nshards);
  workload::SetupSecondaryIndex(base, si);
  workload::SetupQueuePipeline(base, qp);
  workload::SetupCatalogue(base, cat);
  workload::FsmWorkload w_si = workload::MakeSecondaryIndexFsm(si);
  workload::FsmWorkload w_qp = workload::MakeQueuePipelineFsm(qp);
  workload::FsmWorkload w_cat = workload::MakeCatalogueFsm(cat);
  const std::vector<const workload::FsmWorkload*> all = {&w_si, &w_qp, &w_cat};

  Executor exec(base, {.protocol = protocol,
                       .granularity = granularity,
                       .max_top_retries = 50,
                       .journal_fold_threshold = fold_threshold});
  if (protocol == Protocol::kMixed) {
    for (size_t i = 0; i < 9; ++i) {
      ASSERT_TRUE(exec.SetIntraPolicy(objects[i], drawn[i])) << objects[i];
    }
  }
  std::printf("[fsm-fuzz] %s %s mode=%s shards=%u fold=%zu walkers=%d "
              "iters=%d\n",
              ProtocolName(protocol),
              granularity == cc::Granularity::kStep ? "step" : "op",
              workload::FsmModeName(mode), nshards, fold_threshold,
              composed_threads, iterations);
  std::fflush(stdout);

  workload::FsmRunner runner(exec, {.mode = mode, .seed = seed,
                                    .composed_threads = composed_threads});
  workload::FsmRunResult res = runner.Run(all);

  std::string failures;
  for (const std::string& f : res.failures) failures += f + "\n";
  ASSERT_TRUE(res.failures.empty()) << failures;
  EXPECT_GT(res.committed, 0u);

  model::History h = exec.recorder().Snapshot();
  model::LegalityResult legal = model::CheckLegal(h, /*committed_only=*/true);
  ASSERT_TRUE(legal.legal) << legal.error;
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  ASSERT_TRUE(check.serialisable) << check.detail;
  model::Theorem5Result t5 = model::CheckTheorem5(h);
  ASSERT_TRUE(t5.holds) << t5.detail;
}

TEST(FsmFuzz, ScenarioRoundsAreSerialisable) {
  const int rounds = FsmFuzzRounds();
  const uint64_t base_seed = FuzzBaseSeed();
  std::printf(
      "[fsm-fuzz] OBJECTBASE_FUZZ_SEED=%llu OBJECTBASE_FSM_FUZZ_ROUNDS=%d\n",
      static_cast<unsigned long long>(base_seed), rounds);
  std::fflush(stdout);
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + uint64_t{1000033} * round;
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " seed=" + std::to_string(seed));
    RunFsmFuzzRound(seed);
    if (::testing::Test::HasFailure()) break;
  }
}

// A negative control: the oracle is not vacuous.  Running the same
// contended workload with NO concurrency control (a deliberately broken
// "controller" emulated by direct state access) must be flagged — here we
// emulate it by building a history with a known cycle and checking the
// oracle rejects it (the Section 2 example lives in
// serialisation_graph_test; this guards the end-to-end path).
TEST(SerialisabilityOracleControl, OracleRejectsKnownBadHistory) {
  // Build via the runtime with CERT but forge the history afterwards:
  // swap two conflicting steps' application order to fabricate a cycle.
  ObjectBase base;
  base.CreateObject("a", adt::MakeRegisterSpec(0));
  base.CreateObject("b", adt::MakeRegisterSpec(0));
  Executor exec(base, {.protocol = Protocol::kCert});
  exec.RunTransaction("T1", [](MethodCtx& txn) {
    txn.Invoke("a", "write", {1});
    txn.Invoke("b", "write", {1});
    return Value();
  });
  exec.RunTransaction("T2", [](MethodCtx& txn) {
    txn.Invoke("a", "write", {2});
    txn.Invoke("b", "write", {2});
    return Value();
  });
  model::History h = exec.recorder().Snapshot();
  ASSERT_TRUE(model::CheckSerialisable(h).serialisable);
  // Forge: reverse B's application order (T2's write before T1's) => the
  // serialisation orders at A and B now disagree.
  model::ObjectId b_id = 1;
  ASSERT_EQ(h.object_names[b_id], "b");
  std::swap(h.object_order[b_id][0], h.object_order[b_id][1]);
  model::SerialisabilityCheck check = model::CheckSerialisable(h);
  EXPECT_FALSE(check.serialisable);
}

}  // namespace
}  // namespace objectbase::rt
