// Targeted races on the lock-free AppliedJournal, meant to run under
// ThreadSanitizer (the CI tsan job includes this suite):
//
//   * readers racing Fold across chunk boundaries — a pinned Scan must
//     keep dereferencing valid memory while the folder unlinks the chunks
//     under it (epoch retirement: unlink != free);
//   * 8-thread append/scan churn under the production latch discipline
//     (appenders shared, folders exclusive, scanners lock-free);
//   * chunk-retirement use-after-free probes: hold a pinned Scan across a
//     fold that retires multiple chunks, walk the stale window afterwards,
//     then release the pin and verify a later fold actually frees limbo
//     (the retirement path is live, not a leak);
//   * single-flight folds: a step that finds a fold in flight on its object
//     skips GC instead of queueing on the exclusive latch, and chunks the
//     fold released are freed after that latch while other threads append
//     and scan (CERT over a crabbing B-tree at a tiny fold threshold).
#include "src/runtime/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/spec_base.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/runtime/object.h"

namespace objectbase::rt {
namespace {

constexpr size_t kNumOps = 3;

JournalRecord MakeRecord(uint64_t uid, uint64_t counter, adt::OpId op,
                         int64_t arg) {
  JournalRecord r;
  r.seq = uid;
  r.exec_uid = uid;
  r.top_uid = uid;
  r.dep = uid;
  r.top_serial = counter;
  r.chain = std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{uid});
  r.hts = std::make_shared<const cc::Hts>(cc::Hts::TopLevel(counter));
  r.op_id = op;
  r.args = {Value(arg)};
  r.ret = Value(arg);
  return r;
}

TEST(JournalMtTest, ReadersRaceFoldAcrossChunkBoundaries) {
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> appended{0};
  std::atomic<bool> stop{false};

  std::thread appender([&]() {
    // ~20 chunks of entries, counters ascending so folds always make
    // progress right behind the appender.
    for (uint64_t i = 1; i <= 20 * AppliedJournal::kChunkSize; ++i) {
      std::shared_lock<std::shared_mutex> g(state_mu);
      journal.Append(MakeRecord(i, i, static_cast<adt::OpId>(i % kNumOps),
                                static_cast<int64_t>(i)));
      appended.store(i, std::memory_order_release);
    }
  });
  std::thread folder([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t mark = appended.load(std::memory_order_acquire);
      if (mark < AppliedJournal::kChunkSize) continue;
      std::lock_guard<std::shared_mutex> g(state_mu);
      // Fold right up to the appender's heels: retires whole chunks while
      // the reader threads below are mid-walk.
      journal.Fold(mark, [](const AppliedJournal::Entry&) {});
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t prev_pos = 0;
        bool first = true;
        uint64_t visited = 0;
        AppliedJournal::Scan scan(journal);
        scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
          // Entry fields must be fully published and positions ascending
          // even while chunks retire underneath the walk.
          if (e.args.size() != 1 || e.args[0] != e.ret) {
            ADD_FAILURE() << "torn entry at pos " << e.pos;
            return false;
          }
          if (!first && e.pos <= prev_pos) {
            ADD_FAILURE() << "order regressed at pos " << e.pos;
            return false;
          }
          first = false;
          prev_pos = e.pos;
          ++visited;
          return true;
        });
        (void)visited;
      }
    });
  }
  appender.join();
  stop.store(true, std::memory_order_relaxed);
  folder.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(journal.reserved(), 20 * AppliedJournal::kChunkSize);
}

TEST(JournalMtTest, EightThreadAppendScanChurn) {
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> next_uid{0};
  constexpr int kPerThread = 2000;

  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(911 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t uid = next_uid.fetch_add(1) + 1;
        {
          std::shared_lock<std::shared_mutex> g(state_mu);
          journal.Append(MakeRecord(uid, uid,
                                    static_cast<adt::OpId>(rng.Uniform(kNumOps)),
                                    static_cast<int64_t>(uid)));
        }
        if (rng.Bernoulli(0.2)) {
          // Lock-free conflict scan against the window below our append —
          // the publish-then-scan shape of the CERT shared path.
          std::vector<adt::OpId> row{static_cast<adt::OpId>(0),
                                     static_cast<adt::OpId>(1)};
          std::vector<uint64_t> chain{uid};
          AppliedJournal::Scan scan(journal);
          scan.ForEachConflicting(row, scan.end_pos(), /*exclusive=*/false,
                                  [&](const AppliedJournal::Entry& e) {
                                    if (e.args.size() != 1 ||
                                        e.args[0] != e.ret) {
                                      ADD_FAILURE()
                                          << "torn entry at pos " << e.pos;
                                      return false;
                                    }
                                    return true;
                                  });
        }
        if (rng.Bernoulli(0.02)) {
          std::lock_guard<std::shared_mutex> g(state_mu);
          journal.Fold(next_uid.load() / 2,
                       [](const AppliedJournal::Entry&) {});
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(journal.reserved(), 8u * kPerThread);
  // Everything folds once no transaction is active.
  journal.Fold(UINT64_MAX, [](const AppliedJournal::Entry&) {});
  EXPECT_EQ(journal.LiveCount(), 0u);
}

TEST(JournalMtTest, PinnedScanSurvivesRetirementAndLimboDrains) {
  AppliedJournal journal(kNumOps);
  // Fill five chunks.
  const uint64_t total = 5 * AppliedJournal::kChunkSize;
  for (uint64_t i = 1; i <= total; ++i) {
    journal.Append(MakeRecord(i, i, static_cast<adt::OpId>(i % kNumOps),
                              static_cast<int64_t>(i)));
  }
  {
    // Pin a scan over the whole window, then fold four chunks away under
    // it.  The pinned walk must still see every pre-fold entry intact —
    // its view is "the scan ran before the fold".
    AppliedJournal::Scan scan(journal);
    size_t folded = journal.Fold(4 * AppliedJournal::kChunkSize + 1,
                                 [](const AppliedJournal::Entry&) {});
    EXPECT_EQ(folded, 4 * AppliedJournal::kChunkSize);
    // The retired chunks must be parked, not freed: a reader is pinned.
    EXPECT_GT(journal.LimboChunks(), 0u);
    uint64_t sum = 0;
    scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
      // Use-after-free probe: touch every field of the stale window (TSan
      // or ASan would flag freed memory; the value check flags recycling).
      if (e.args[0] != e.ret) {
        ADD_FAILURE() << "recycled entry at pos " << e.pos;
        return false;
      }
      sum += static_cast<uint64_t>(e.args[0].AsInt());
      return true;
    });
    EXPECT_EQ(sum, total * (total + 1) / 2);  // saw every pre-fold entry
  }
  // Pin released: the next fold's limbo sweep frees the parked chunks.
  const uint64_t freed_before = journal.FreedChunks();
  journal.Fold(UINT64_MAX, [](const AppliedJournal::Entry&) {});
  EXPECT_EQ(journal.LiveCount(), 0u);
  EXPECT_GT(journal.FreedChunks(), freed_before);
  EXPECT_EQ(journal.LimboChunks(), 0u);
}

TEST(JournalMtTest, ConcurrentAppendersPublishDensely) {
  // The crabbing-object shape: concurrent appenders under the shared
  // latch; a racing scanner bounded by a position it read AFTER an append
  // must see every smaller position published (the publish-then-scan
  // guarantee the CERT shared path relies on).
  AppliedJournal journal(kNumOps);
  std::shared_mutex state_mu;
  std::atomic<uint64_t> next_uid{0};
  constexpr int kPerThread = 3000;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t uid = next_uid.fetch_add(1) + 1;
        uint64_t my_pos;
        {
          std::shared_lock<std::shared_mutex> g(state_mu);
          my_pos = journal.Append(MakeRecord(
              uid, uid, static_cast<adt::OpId>(uid % kNumOps),
              static_cast<int64_t>(uid)));
        }
        // Scan the window below our own entry: every position must be
        // present (the spin on reserved-but-unpublished entries resolves).
        uint64_t expect = 0;
        bool dense = true;
        AppliedJournal::Scan scan(journal);
        scan.ForEachLive(my_pos, [&](const AppliedJournal::Entry& e) {
          if (e.pos != expect) {
            dense = false;
            return false;
          }
          ++expect;
          return true;
        });
        if (!dense || expect != my_pos) {
          ADD_FAILURE() << "hole below position " << my_pos << " (reached "
                        << expect << ")";
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(journal.reserved(), 4u * kPerThread);
}

// --- single-flight folds ---------------------------------------------------

/// Holds a fold inside its apply callback until the test releases it.
struct FoldGate {
  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

class GatedCounterState : public adt::AdtState {
 public:
  std::unique_ptr<adt::AdtState> Clone() const override {
    auto c = std::make_unique<GatedCounterState>();
    c->value = value;
    return c;
  }
  bool Equals(const adt::AdtState& other) const override {
    auto* o = dynamic_cast<const GatedCounterState*>(&other);
    return o != nullptr && o->value == value;
  }
  std::string ToString() const override { return std::to_string(value); }

  int64_t value = 0;
};

/// A counter whose state-changing `add` blocks while the gate is armed.
/// The test appends journal entries directly, so `add` only ever runs when
/// a fold applies an entry to the base state (or a rebuild replays one).
class GatedCounterSpec : public adt::SpecBase {
 public:
  explicit GatedCounterSpec(FoldGate* gate) {
    AddOp("add", /*read_only=*/false,
          [gate](adt::AdtState& s, const Args& args) {
            if (gate->armed.load()) {
              gate->entered.store(true);
              while (!gate->release.load()) std::this_thread::yield();
            }
            static_cast<GatedCounterState&>(s).value += args.at(0).AsInt();
            return adt::ApplyResult{Value::None(), adt::UndoFn()};
          });
  }
  std::string_view type_name() const override { return "gated_counter"; }
  std::unique_ptr<adt::AdtState> MakeInitialState() const override {
    return std::make_unique<GatedCounterState>();
  }
};

TEST(JournalMtTest, ConcurrentFoldPrefixSkipsWhileAFoldRuns) {
  FoldGate gate;
  Object obj(0, "c", std::make_shared<GatedCounterSpec>(&gate));
  constexpr uint64_t kEntries = 3 * AppliedJournal::kChunkSize;
  {
    std::shared_lock<std::shared_mutex> g(obj.state_mu());
    for (uint64_t i = 1; i <= kEntries; ++i) {
      obj.journal().Append(MakeRecord(i, i, /*op=*/0, /*arg=*/1));
    }
  }
  // Excise one entry first (gate disarmed: its rebuild replays the rest),
  // so the committed effects are kEntries - 1 increments.
  obj.AbortEntriesAndRebuild(/*subtree_root_uid=*/7, nullptr, nullptr);
  const uint64_t folds_before = JournalMutexAcquisitions().load();

  gate.armed.store(true);
  std::future<size_t> a = std::async(std::launch::async, [&] {
    return obj.FoldPrefix(UINT64_MAX);
  });
  while (!gate.entered.load()) std::this_thread::yield();
  // Thread A now holds the fold (and the exclusive latch).  Thread B must
  // come back empty-handed at once rather than queue behind it.
  std::future<size_t> b = std::async(std::launch::async, [&] {
    return obj.FoldPrefix(UINT64_MAX);
  });
  const bool b_returned =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const bool a_still_held = !gate.release.load();
  gate.release.store(true);
  ASSERT_TRUE(b_returned) << "a second FoldPrefix waited for the running one";
  EXPECT_TRUE(a_still_held);
  EXPECT_EQ(b.get(), 0u);
  EXPECT_EQ(a.get(), kEntries);
  EXPECT_EQ(JournalMutexAcquisitions().load() - folds_before, 1u)
      << "the skipped fold must not touch the journal mutex";
  EXPECT_EQ(obj.journal().LiveCount(), 0u);
  EXPECT_EQ(obj.journal().LimboChunks(), 0u);

  // The fold is released: the next one runs again.  Append one more entry
  // and excise it: the rebuild restores state := base, exposing the base
  // the held fold produced.
  gate.armed.store(false);
  {
    std::shared_lock<std::shared_mutex> g(obj.state_mu());
    obj.journal().Append(MakeRecord(kEntries + 1, kEntries + 1, 0, 1));
  }
  obj.AbortEntriesAndRebuild(kEntries + 1, nullptr, nullptr);
  EXPECT_EQ(static_cast<const GatedCounterState&>(obj.state()).value,
            static_cast<int64_t>(kEntries - 1))
      << "the base state is not the journal's committed effects";
  EXPECT_EQ(obj.FoldPrefix(UINT64_MAX), 1u);
}

// CERT over a crabbing B-tree with a fold threshold of 4: folds fire every
// few steps, and each frees its released chunks after dropping the
// exclusive latch — while the other threads append under the shared latch
// and scan lock-free.  TSan/ASan check the reclaim; the final contents
// check that no committed write was lost.
TEST(JournalMtTest, CertBTreeReclaimRacesAppendsAndScans) {
  ObjectBase base;
  base.CreateObject("d", adt::MakeBTreeDictionarySpec(4));
  Executor exec(base, {.protocol = Protocol::kCert,
                       .record = false,
                       .journal_fold_threshold = 4});
  MethodRef put = exec.Resolve("d", "put");
  MethodRef get = exec.Resolve("d", "get");
  ASSERT_TRUE(put.valid() && get.valid());
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 16;
  constexpr int kTxns = 1000;
  // Each thread writes only its own keys, so a key's final value is the
  // value of its thread's last COMMITTED put to it.
  std::vector<std::vector<int64_t>> expected(
      kThreads, std::vector<int64_t>(kKeysPerThread, -1));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(5150 + t);
      for (int i = 0; i < kTxns; ++i) {
        const int slot = static_cast<int>(rng.Uniform(kKeysPerThread));
        const int64_t key = t * kKeysPerThread + slot;
        const int64_t value = i;
        const TxnResult r = exec.RunTransaction("rw", [&](MethodCtx& txn) {
          for (int k = 0; k < 3; ++k) {
            txn.Invoke(get, {static_cast<int64_t>(
                                rng.Uniform(kThreads * kKeysPerThread))});
          }
          txn.Invoke(put, {key, value});
          return Value();
        });
        if (r.committed) expected[t][slot] = value;
      }
    });
  }
  for (auto& w : workers) w.join();
  Object& obj = *base.Find("d");
  EXPECT_GT(obj.journal().FreedChunks(), 0u) << "no chunk was reclaimed";
  const TxnResult check = exec.RunTransaction("check", [&](MethodCtx& txn) {
    for (int t = 0; t < kThreads; ++t) {
      for (int s = 0; s < kKeysPerThread; ++s) {
        const Value v = txn.Invoke(get, {int64_t{t * kKeysPerThread + s}});
        const Value want = expected[t][s] < 0 ? Value::None()
                                              : Value(expected[t][s]);
        EXPECT_EQ(v, want) << "key " << t * kKeysPerThread + s;
      }
    }
    return Value();
  });
  EXPECT_TRUE(check.committed);
}

}  // namespace
}  // namespace objectbase::rt
