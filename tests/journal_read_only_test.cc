// Fold and rebuild apply only state-changing journal entries.
//
// A read-only operation's apply leaves the state unchanged (the
// OpDescriptor::read_only contract), so Object::FoldPrefix and
// Object::AbortEntriesAndRebuild retire read-only entries without applying
// them.  A probe spec counts every call of its read op's apply; each run
// forces folds and then an abort rebuild over a window full of other
// transactions' reads, and checks that the read was applied exactly once
// per executed step — by the step itself, never again by the fold or the
// rebuild.  Runs under every journaled protocol (NTO, CERT, MIXED).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "src/adt/spec_base.h"
#include "src/runtime/executor.h"
#include "src/runtime/object_base.h"

namespace objectbase::rt {
namespace {

class ProbeState : public adt::AdtState {
 public:
  std::unique_ptr<adt::AdtState> Clone() const override {
    auto s = std::make_unique<ProbeState>();
    s->value = value;
    return s;
  }
  bool Equals(const adt::AdtState& other) const override {
    auto* o = dynamic_cast<const ProbeState*>(&other);
    return o != nullptr && o->value == value;
  }
  std::string ToString() const override {
    return "probe{" + std::to_string(value) + "}";
  }

  int64_t value = 0;
};

/// A register whose read op counts its apply calls in `*reads`.
class ProbeSpec : public adt::SpecBase {
 public:
  explicit ProbeSpec(std::shared_ptr<std::atomic<uint64_t>> reads) {
    AddOp("read", /*read_only=*/true,
          [reads](adt::AdtState& s, const Args&) {
            reads->fetch_add(1, std::memory_order_relaxed);
            return adt::ApplyResult{
                Value(static_cast<ProbeState&>(s).value), adt::UndoFn()};
          });
    AddOp("write", /*read_only=*/false, [](adt::AdtState& s, const Args& a) {
      auto& st = static_cast<ProbeState&>(s);
      const int64_t old = st.value;
      st.value = a.at(0).AsInt();
      return adt::ApplyResult{Value::None(), [old](adt::AdtState& u) {
                                static_cast<ProbeState&>(u).value = old;
                              }};
    });
    Conflict("read", "write");
    Conflict("write", "write");
  }

  std::string_view type_name() const override { return "probe"; }
  std::unique_ptr<adt::AdtState> MakeInitialState() const override {
    return std::make_unique<ProbeState>();
  }
};

class ReadOnlyReplayTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ReadOnlyReplayTest, FoldAndRebuildNeverReapplyReads) {
  auto reads = std::make_shared<std::atomic<uint64_t>>(0);
  ObjectBase base;
  base.CreateObject("p", std::make_shared<ProbeSpec>(reads));
  ExecutorOptions options;
  options.protocol = GetParam();
  options.max_top_retries = 1;
  options.journal_fold_threshold = 4;
  Executor exec(base, options);
  ASSERT_TRUE(exec.DefineMethod(
      "p", "write_then_abort", [](MethodCtx& m) -> Value {
        m.Local("write", {1});
        m.Abort();
      }));
  const AppliedJournal& journal = base.Find("p")->journal();
  uint64_t steps = 0;  // read steps executed
  auto read_txn = [&] {
    TxnResult r = exec.RunTransaction(
        "reader", [](MethodCtx& txn) { return txn.Invoke("p", "read"); });
    ASSERT_TRUE(r.committed);
    ++steps;
  };

  // Folds: sequential readers finish, so the watermark passes them and
  // the cadence folds their entries.
  for (int i = 0; i < 64; ++i) read_txn();
  EXPECT_GT(journal.folded(), 0u) << "no fold ran";
  EXPECT_EQ(reads->load(), steps) << "a fold re-applied read entries";

  // Rebuild: an open reader pins the watermark, so later readers' entries
  // stay live; then a transaction writes and aborts, and the rebuild
  // replays that window.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  TxnResult held;
  std::thread holder([&] {
    held = exec.RunTransaction("holder", [&](MethodCtx& txn) -> Value {
      txn.Invoke("p", "read");
      started.set_value();
      released.wait();
      return Value();
    });
  });
  started.get_future().wait();
  ++steps;
  for (int i = 0; i < 16; ++i) read_txn();
  EXPECT_GE(journal.LiveCount(), 17u)
      << "the open reader did not keep the window live";
  TxnResult aborted = exec.RunTransaction("aborter", [](MethodCtx& txn) {
    txn.Invoke("p", "read");
    return txn.Invoke("p", "write_then_abort");
  });
  EXPECT_FALSE(aborted.committed);
  ++steps;
  EXPECT_EQ(reads->load(), steps) << "the rebuild re-applied read entries";

  // Unpin and fold the window the rebuild replayed.
  const uint64_t window_end = journal.reserved();
  release.set_value();
  holder.join();
  EXPECT_TRUE(held.committed);
  for (int i = 0; i < 64; ++i) read_txn();
  EXPECT_GE(journal.folded(), window_end) << "the window was not folded";
  EXPECT_EQ(reads->load(), steps) << "a fold re-applied read entries";

  // The aborted write left no trace.
  TxnResult check = exec.RunTransaction(
      "check", [](MethodCtx& txn) { return txn.Invoke("p", "read"); });
  ASSERT_TRUE(check.committed);
  EXPECT_EQ(check.ret, Value(0));
}

INSTANTIATE_TEST_SUITE_P(
    JournaledProtocols, ReadOnlyReplayTest,
    ::testing::Values(Protocol::kNto, Protocol::kCert, Protocol::kMixed),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      return ProtocolName(info.param);
    });

}  // namespace
}  // namespace objectbase::rt
