// Semantic equivalence of the lock-free AppliedJournal against the
// retained locked-deque reference: randomized append/scan/fold/abort
// scripts replayed through both must produce identical conflict-scan
// results, identical dense-walk orders, identical fold counts and folded
// (base-apply) streams, and identical GC-visible lengths — single-threaded
// scripts compare after every step; multi-threaded rounds run the real
// journal under the production locking discipline (appends under a shared
// latch, folds exclusive, scans lock-free) and compare the linearized
// outcome (appends in position order + folds in their serialisation
// order) against the reference.
//
// This is the PR-3 reference_dependency_graph.h pattern applied to the
// journal (see that header's note on why the reference is retained).
#include "src/runtime/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "tests/reference_journal.h"

namespace objectbase::rt {
namespace {

constexpr size_t kNumOps = 5;

// A randomized symmetric op-conflict matrix (the spec layer's contract is
// symmetry; the journal itself only ever sees rows).
struct ConflictMatrix {
  bool bits[kNumOps][kNumOps] = {};
  std::vector<adt::OpId> rows[kNumOps];

  explicit ConflictMatrix(Rng& rng) {
    for (size_t i = 0; i < kNumOps; ++i) {
      for (size_t j = i; j < kNumOps; ++j) {
        bits[i][j] = bits[j][i] = rng.Bernoulli(0.4);
      }
    }
    for (size_t i = 0; i < kNumOps; ++i) {
      for (size_t j = 0; j < kNumOps; ++j) {
        if (bits[i][j]) rows[i].push_back(static_cast<adt::OpId>(j));
      }
    }
  }
};

// A simulated issuing execution: a top-level transaction or one child
// below it (enough nesting to exercise the incomparability filter).
struct SimTxn {
  uint64_t top_uid;
  uint64_t counter;  // environment serial (the hts top component)
  std::shared_ptr<const std::vector<uint64_t>> top_chain;
  std::shared_ptr<const cc::Hts> top_hts;
  bool finished = false;
};

class ScriptDriver {
 public:
  explicit ScriptDriver(uint64_t seed)
      : rng_(seed), matrix_(rng_), journal_(kNumOps) {}

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      const int kind = static_cast<int>(rng_.Uniform(20));
      if (kind < 10 || txns_.empty()) {
        Append();
      } else if (kind < 14) {
        CompareConflictScan();
      } else if (kind < 16) {
        AbortRandomSubtree();
      } else if (kind < 18) {
        Fold();
      } else {
        FinishRandom();
      }
      CompareVisibleState(i);
    }
    // Drain: finish everything, fold to the end, compare once more.
    for (SimTxn& t : txns_) t.finished = true;
    Fold();
    CompareVisibleState(steps);
  }

 private:
  SimTxn& NewTxn() {
    SimTxn t;
    t.top_uid = next_uid_++;
    t.counter = next_counter_++;
    t.top_chain =
        std::make_shared<const std::vector<uint64_t>>(
            std::vector<uint64_t>{t.top_uid});
    t.top_hts = std::make_shared<const cc::Hts>(cc::Hts::TopLevel(t.counter));
    txns_.push_back(std::move(t));
    return txns_.back();
  }

  SimTxn* RandomUnfinished() {
    std::vector<size_t> idx;
    for (size_t i = 0; i < txns_.size(); ++i) {
      if (!txns_[i].finished) idx.push_back(i);
    }
    if (idx.empty()) return nullptr;
    return &txns_[idx[rng_.Uniform(idx.size())]];
  }

  JournalRecord MakeRecord(SimTxn& t) {
    JournalRecord r;
    r.seq = next_seq_++;
    r.top_uid = t.top_uid;
    r.dep = t.top_uid;  // opaque to the journal; any stable stamp works
    // The production fold key; the reference folds on the hts instead, so
    // the differential check also pins that the two agree.
    r.top_serial = t.top_hts->top_component();
    if (rng_.Bernoulli(0.3)) {
      // A child execution: chain {child, top}, child hts.
      const uint64_t child = next_uid_++;
      r.exec_uid = child;
      r.chain = std::make_shared<const std::vector<uint64_t>>(
          std::vector<uint64_t>{child, t.top_uid});
      r.hts = std::make_shared<const cc::Hts>(
          t.top_hts->Child(rng_.Uniform(4) + 1));
    } else {
      r.exec_uid = t.top_uid;
      r.chain = t.top_chain;
      r.hts = t.top_hts;
    }
    r.op_id = static_cast<adt::OpId>(rng_.Uniform(kNumOps));
    r.args = {Value(static_cast<int64_t>(rng_.Uniform(100)))};
    r.ret = Value(static_cast<int64_t>(rng_.Uniform(100)));
    return r;
  }

  void Append() {
    SimTxn* t = RandomUnfinished();
    if (t == nullptr || rng_.Bernoulli(0.15)) t = &NewTxn();
    JournalRecord r = MakeRecord(*t);
    journal_.Append(JournalRecord(r));  // copy: reference gets the twin
    reference_.Append(std::move(r));
  }

  // The production conflict scan shape, both through the index-capable
  // exclusive path and through the dense fallback — results must match
  // the reference's deque filter exactly (as sets; the index visits
  // candidates unordered).
  void CompareConflictScan() {
    const adt::OpId op = static_cast<adt::OpId>(rng_.Uniform(kNumOps));
    SimTxn* t = RandomUnfinished();
    const std::vector<uint64_t> chain =
        t == nullptr ? std::vector<uint64_t>{next_uid_++}
                     : *t->top_chain;
    std::vector<uint64_t> expected = reference_.ConflictScan(
        matrix_.rows[op], chain);
    std::sort(expected.begin(), expected.end());
    for (bool exclusive : {true, false}) {
      std::vector<uint64_t> got;
      AppliedJournal::Scan scan(journal_);
      scan.ForEachConflicting(
          matrix_.rows[op], scan.end_pos(), exclusive,
          [&](const AppliedJournal::Entry& e) {
            if (e.IsAborted()) return true;
            if (!e.IncomparableWith(chain)) return true;
            got.push_back(e.seq);
            return true;
          });
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << (exclusive ? "indexed" : "dense") << " conflict scan diverged "
          << "for op " << op;
    }
  }

  void AbortRandomSubtree() {
    SimTxn* t = RandomUnfinished();
    if (t == nullptr) return;
    const bool a = journal_.MarkSubtreeAborted(t->top_uid);
    const bool b = reference_.MarkSubtreeAborted(t->top_uid);
    EXPECT_EQ(a, b) << "abort-marking any-flag diverged for top "
                    << t->top_uid;
    t->finished = true;  // an aborted top issues nothing further
  }

  void FinishRandom() {
    SimTxn* t = RandomUnfinished();
    if (t != nullptr) t->finished = true;
  }

  uint64_t Watermark() const {
    uint64_t min = UINT64_MAX;
    for (const SimTxn& t : txns_) {
      if (!t.finished && t.counter < min) min = t.counter;
    }
    return min;
  }

  void Fold() {
    const uint64_t w = Watermark();
    std::vector<uint64_t> applied;
    const size_t folded = journal_.Fold(
        w, [&](const AppliedJournal::Entry& e) { applied.push_back(e.seq); });
    std::vector<uint64_t> ref_applied;
    const size_t ref_folded = reference_.Fold(w, &ref_applied);
    EXPECT_EQ(folded, ref_folded) << "fold count diverged at watermark " << w;
    EXPECT_EQ(applied, ref_applied)
        << "folded base-apply stream diverged at watermark " << w;
  }

  void CompareVisibleState(int step) {
    EXPECT_EQ(journal_.LiveCount(), reference_.LiveCount())
        << "GC-visible length diverged at step " << step;
    std::vector<uint64_t> live;
    {
      AppliedJournal::Scan scan(journal_);
      scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
        live.push_back(e.seq);
        return true;
      });
    }
    EXPECT_EQ(live, reference_.LiveSeqs())
        << "dense-walk order diverged at step " << step;
    std::vector<uint64_t> replay;
    journal_.ReplayLive(
        [&](const AppliedJournal::Entry& e) { replay.push_back(e.seq); });
    EXPECT_EQ(replay, reference_.ReplaySeqs())
        << "rebuild replay diverged at step " << step;
  }

  Rng rng_;
  ConflictMatrix matrix_;
  AppliedJournal journal_;
  ReferenceJournal reference_;
  std::vector<SimTxn> txns_;
  uint64_t next_uid_ = 1;
  uint64_t next_counter_ = 1;
  uint64_t next_seq_ = 1;
};

TEST(JournalEquivalenceTest, RandomScriptsAgree) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScriptDriver driver(seed * 7919);
    driver.Run(300);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(JournalEquivalenceTest, LongScriptAgrees) {
  ScriptDriver driver(0xdecaf);
  driver.Run(5000);
}

// --- multi-threaded rounds -------------------------------------------------
//
// The real journal runs under the production discipline: appenders hold a
// shared latch (the stand-in for Object::state_mu), folders hold it
// exclusively, scanners hold nothing.  Every append archives its record
// and returned position; every fold archives its watermark and applied
// stream (folds are serialised, so their order is well defined).  The
// reference then replays the linearization — appends in position order,
// folds in fold order — and must reproduce the fold streams, the final
// live window and the final length.  (Why the linearization is faithful:
// positions are monotone, so the prefix a real fold consumed is a prefix
// of the final position order, and every entry appended after a fold
// carries a top counter at or above that fold's watermark.)
class MtDriver {
 public:
  MtDriver(uint64_t seed, int threads, int appends_per_thread)
      : threads_(threads),
        appends_per_thread_(appends_per_thread),
        seed_(seed),
        journal_(kNumOps) {
    counters_.resize(threads);
    for (auto& c : counters_) {
      c = std::make_unique<std::atomic<uint64_t>>(UINT64_MAX);
    }
  }

  struct Archived {
    uint64_t pos;
    JournalRecord record;
  };

  void Run() {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t]() { Worker(t); });
    }
    // Two lock-free scanner threads churn concurrently, checking the
    // snapshot invariants (published entries, ascending positions).
    std::atomic<bool> stop{false};
    std::vector<std::thread> scanners;
    for (int s = 0; s < 2; ++s) {
      scanners.emplace_back([this, &stop]() {
        while (!stop.load(std::memory_order_relaxed)) {
          uint64_t prev = 0;
          bool first = true;
          AppliedJournal::Scan scan(journal_);
          scan.ForEachLive(scan.end_pos(),
                           [&](const AppliedJournal::Entry& e) {
                             if (!first && e.pos <= prev) {
                               ADD_FAILURE() << "scan order regressed: "
                                             << e.pos << " after " << prev;
                               return false;
                             }
                             first = false;
                             prev = e.pos;
                             return true;
                           });
        }
      });
    }
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& s : scanners) s.join();
    Check();
  }

 private:
  void Worker(int tid) {
    Rng rng(seed_ * 31 + tid);
    std::vector<Archived> local;
    uint64_t folds_done = 0;
    for (int i = 0; i < appends_per_thread_; ++i) {
      // Each "transaction" is 1-4 appends under one counter.  Publish a
      // LOWER BOUND of the upcoming counter before reserving it, so a
      // racing fold can never compute a watermark above a counter this
      // thread is about to append under (the property the linearized
      // reference replay relies on).
      counters_[tid]->store(
          next_counter_.load(std::memory_order_seq_cst) + 1,
          std::memory_order_seq_cst);
      const uint64_t counter =
          next_counter_.fetch_add(1, std::memory_order_seq_cst) + 1;
      counters_[tid]->store(counter, std::memory_order_seq_cst);
      const uint64_t top_uid =
          next_uid_.fetch_add(1, std::memory_order_relaxed) + 1;
      auto chain = std::make_shared<const std::vector<uint64_t>>(
          std::vector<uint64_t>{top_uid});
      auto hts =
          std::make_shared<const cc::Hts>(cc::Hts::TopLevel(counter));
      const int ops = 1 + static_cast<int>(rng.Uniform(4));
      for (int k = 0; k < ops; ++k) {
        JournalRecord r;
        r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        r.exec_uid = top_uid;
        r.top_uid = top_uid;
        r.dep = top_uid;
        r.top_serial = counter;
        r.chain = chain;
        r.hts = hts;
        r.op_id = static_cast<adt::OpId>(rng.Uniform(kNumOps));
        r.args = {Value(static_cast<int64_t>(rng.Uniform(100)))};
        r.ret = Value(static_cast<int64_t>(rng.Uniform(100)));
        JournalRecord copy = r;
        uint64_t pos;
        {
          std::shared_lock<std::shared_mutex> apply_latch(state_mu_);
          pos = journal_.Append(std::move(copy));
        }
        local.push_back(Archived{pos, std::move(r)});
      }
      counters_[tid]->store(UINT64_MAX, std::memory_order_seq_cst);
      if (rng.Bernoulli(0.1)) {
        // Fold with the live watermark, under the exclusive latch (the
        // production FoldPrefix discipline).
        std::lock_guard<std::shared_mutex> fold_latch(state_mu_);
        FoldRecord f;
        f.watermark = Watermark();
        f.count = journal_.Fold(f.watermark,
                                [&](const AppliedJournal::Entry& e) {
                                  f.applied.push_back(e.seq);
                                });
        folds_.push_back(std::move(f));
        ++folds_done;
      }
    }
    std::lock_guard<std::shared_mutex> g(state_mu_);
    archived_.insert(archived_.end(),
                     std::make_move_iterator(local.begin()),
                     std::make_move_iterator(local.end()));
    (void)folds_done;
  }

  uint64_t Watermark() const {
    uint64_t min = UINT64_MAX;
    for (const auto& c : counters_) {
      min = std::min(min, c->load(std::memory_order_seq_cst));
    }
    return min == UINT64_MAX
               ? next_counter_.load(std::memory_order_relaxed) + 1
               : min;
  }

  void Check() {
    std::sort(archived_.begin(), archived_.end(),
              [](const Archived& a, const Archived& b) {
                return a.pos < b.pos;
              });
    ReferenceJournal reference;
    for (Archived& a : archived_) reference.Append(std::move(a.record));
    size_t total_ref_folded = 0;
    std::vector<uint64_t> ref_stream;
    std::vector<uint64_t> real_stream;
    size_t total_real_folded = 0;
    for (const FoldRecord& f : folds_) {
      total_real_folded += f.count;
      real_stream.insert(real_stream.end(), f.applied.begin(),
                         f.applied.end());
    }
    // Replay the folds: each consumed the maximal prefix below its
    // watermark, and prefixes compose, so replaying them in order against
    // the fully-appended reference reproduces the same cumulative stream.
    for (const FoldRecord& f : folds_) {
      total_ref_folded += reference.Fold(f.watermark, &ref_stream);
    }
    EXPECT_EQ(total_real_folded, total_ref_folded)
        << "cumulative fold count diverged";
    EXPECT_EQ(real_stream, ref_stream) << "cumulative fold stream diverged";
    EXPECT_EQ(journal_.LiveCount(), reference.LiveCount())
        << "final GC-visible length diverged";
    std::vector<uint64_t> live;
    {
      AppliedJournal::Scan scan(journal_);
      scan.ForEachLive(scan.end_pos(), [&](const AppliedJournal::Entry& e) {
        live.push_back(e.seq);
        return true;
      });
    }
    EXPECT_EQ(live, reference.LiveSeqs()) << "final live window diverged";
  }

  struct FoldRecord {
    uint64_t watermark = 0;
    size_t count = 0;
    std::vector<uint64_t> applied;
  };

  const int threads_;
  const int appends_per_thread_;
  const uint64_t seed_;
  AppliedJournal journal_;
  std::shared_mutex state_mu_;  // the production append/fold exclusion
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> counters_;
  std::atomic<uint64_t> next_uid_{0};
  std::atomic<uint64_t> next_counter_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::vector<Archived> archived_;   // under exclusive state_mu_
  std::vector<FoldRecord> folds_;    // folds are serialised
};

TEST(JournalEquivalenceTest, MultiThreadedRoundsAgree) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MtDriver driver(seed * 104729, /*threads=*/4, /*appends_per_thread=*/250);
    driver.Run();
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(JournalEquivalenceTest, EightThreadRoundAgrees) {
  MtDriver driver(0xabcdef, /*threads=*/8, /*appends_per_thread=*/150);
  driver.Run();
}

}  // namespace
}  // namespace objectbase::rt
