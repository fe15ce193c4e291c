// Interned-handle API tests: resolve-once semantics, equivalence with the
// string convenience path, and the dense OpId dispatch/conflict tables.
#include <gtest/gtest.h>

#include "src/adt/bag_adt.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/directory_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/adt/set_adt.h"
#include "src/runtime/executor.h"
#include "src/workload/generators.h"

namespace objectbase::rt {
namespace {

TEST(HandlesTest, ResolveImplicitOpAndUnknowns) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl});

  MethodRef add = exec.Resolve("c", "add");
  ASSERT_TRUE(add.valid());
  EXPECT_EQ(add.fn, nullptr);           // implicit: dispatches via the op
  ASSERT_NE(add.op, nullptr);
  EXPECT_EQ(add.op->name, "add");
  EXPECT_EQ(*add.name, "add");

  MethodRef unknown_method = exec.Resolve("c", "no-such-op");
  EXPECT_FALSE(unknown_method.valid());
  ASSERT_NE(unknown_method.object, nullptr);  // object resolved, method not
  EXPECT_EQ(*unknown_method.name, "no-such-op");

  MethodRef unknown_object = exec.Resolve("nope", "add");
  EXPECT_FALSE(unknown_object.valid());
  EXPECT_EQ(unknown_object.object, nullptr);

  ObjectHandle h = exec.FindObject("c");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.name(), "c");
  EXPECT_TRUE(exec.Resolve(h, "get").valid());
  EXPECT_FALSE(exec.FindObject("nope").valid());
}

TEST(HandlesTest, HandleAndStringPathsAgree) {
  ObjectBase base;
  base.CreateObject("acct", adt::MakeBankAccountSpec(100));
  Executor exec(base, {.protocol = Protocol::kN2pl});
  MethodRef withdraw = exec.Resolve("acct", "withdraw");
  MethodRef balance = exec.Resolve("acct", "balance");

  TxnResult by_handle = exec.RunTransaction("h", [&](MethodCtx& txn) {
    txn.Invoke(withdraw, {int64_t{30}});
    return txn.Invoke(balance);
  });
  TxnResult by_string = exec.RunTransaction("s", [&](MethodCtx& txn) {
    txn.Invoke("acct", "withdraw", {int64_t{30}});
    return txn.Invoke("acct", "balance");
  });
  ASSERT_TRUE(by_handle.committed);
  ASSERT_TRUE(by_string.committed);
  EXPECT_EQ(by_handle.ret, Value(int64_t{70}));
  EXPECT_EQ(by_string.ret, Value(int64_t{40}));
}

TEST(HandlesTest, InvokingInvalidRefAbortsWithUser) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl});
  MethodRef bogus = exec.Resolve("c", "no-such-op");
  TxnResult r = exec.RunTransactionOnce("t", [&](MethodCtx& txn) {
    txn.Invoke(bogus);
    return Value();
  });
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.last_abort, cc::AbortReason::kUser);

  // TryInvoke on an unknown OBJECT reports instead of throwing.
  TxnResult r2 = exec.RunTransaction("t2", [&](MethodCtx& txn) {
    MethodCtx::InvokeOutcome o = txn.TryInvoke(MethodRef{});
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.reason, cc::AbortReason::kUser);
    return Value();
  });
  EXPECT_TRUE(r2.committed);
}

TEST(HandlesTest, DefineMethodReportsUnknownObject) {
  // DefineMethod used to silently no-op on an unknown object name, turning
  // a setup typo into kUser aborts at invoke time.  It now reports.
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl});
  EXPECT_FALSE(exec.DefineMethod("no-such-object", "m",
                                 [](MethodCtx&) -> Value { return Value(); }));
  EXPECT_TRUE(exec.DefineMethod("c", "m",
                                [](MethodCtx&) -> Value { return Value(); }));
}

TEST(HandlesTest, LateRegistrationKeepsEarlierRefsValid) {
  // Method tables live in a deque pre-sized to the base: registering
  // methods on many objects AFTER resolving a ref must leave the earlier
  // ref's function pointer intact (a vector resize used to be able to move
  // the tables out from under it).
  ObjectBase base;
  base.CreateObject("first", adt::MakeCounterSpec(0));
  for (int i = 0; i < 80; ++i) {
    base.CreateObject("c" + std::to_string(i), adt::MakeCounterSpec(0));
  }
  Executor exec(base, {.protocol = Protocol::kN2pl});
  ASSERT_TRUE(exec.DefineMethod("first", "bump", [](MethodCtx& m) -> Value {
    m.Local("add", {int64_t{1}});
    return Value();
  }));
  MethodRef bump = exec.Resolve("first", "bump");
  ASSERT_TRUE(bump.valid());
  const MethodFn* fn_before = bump.fn;
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(exec.DefineMethod("c" + std::to_string(i), "noop",
                                  [](MethodCtx&) -> Value { return Value(); }));
  }
  EXPECT_EQ(bump.fn, fn_before);
  ASSERT_TRUE(exec.RunTransaction("t", [&](MethodCtx& txn) {
    txn.Invoke(bump);
    return Value();
  }).committed);
  EXPECT_EQ(exec.RunTransaction("g", [&](MethodCtx& t) {
    return t.Invoke("first", "get");
  }).ret, Value(int64_t{1}));
}

TEST(HandlesTest, RedefinitionKeepsResolvedRefsValid) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl});
  ASSERT_TRUE(exec.DefineMethod("c", "bump", [](MethodCtx& m) -> Value {
    m.Local("add", {int64_t{1}});
    return Value(int64_t{1});
  }));
  MethodRef bump = exec.Resolve("c", "bump");
  ASSERT_TRUE(bump.valid());
  ASSERT_NE(bump.fn, nullptr);
  // Redefine AFTER resolving: the ref must see the new body.
  ASSERT_TRUE(exec.DefineMethod("c", "bump", [](MethodCtx& m) -> Value {
    m.Local("add", {int64_t{10}});
    return Value(int64_t{10});
  }));
  TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
    return txn.Invoke(bump);
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.ret, Value(int64_t{10}));
  TxnResult check = exec.RunTransaction("check", [&](MethodCtx& txn) {
    return txn.Invoke("c", "get");
  });
  EXPECT_EQ(check.ret, Value(int64_t{10}));
}

TEST(HandlesTest, LocalByDescriptorInsideMethodBody) {
  ObjectBase base;
  base.CreateObject("c", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kNto});
  const adt::OpDescriptor* add = base.Find("c")->spec().FindOp("add");
  ASSERT_NE(add, nullptr);
  ASSERT_TRUE(exec.DefineMethod("c", "bump3", [add](MethodCtx& m) -> Value {
    EXPECT_EQ(m.ResolveLocal("add"), add);
    for (int i = 0; i < 3; ++i) m.Local(*add, {int64_t{2}});
    return Value();
  }));
  MethodRef bump3 = exec.Resolve("c", "bump3");
  ASSERT_TRUE(exec.RunTransaction("t", [&](MethodCtx& txn) {
    txn.Invoke(bump3);
    return Value();
  }).committed);
  TxnResult check = exec.RunTransaction("check", [&](MethodCtx& txn) {
    return txn.Invoke("c", "get");
  });
  EXPECT_EQ(check.ret, Value(int64_t{6}));
}

TEST(HandlesTest, ParallelBoundCalls) {
  ObjectBase base;
  base.CreateObject("a", adt::MakeCounterSpec(0));
  base.CreateObject("b", adt::MakeCounterSpec(0));
  Executor exec(base, {.protocol = Protocol::kN2pl});
  MethodRef add_a = exec.Resolve("a", "add");
  MethodRef add_b = exec.Resolve("b", "add");
  TxnResult r = exec.RunTransaction("t", [&](MethodCtx& txn) {
    auto outcomes = txn.InvokeParallel(std::vector<MethodCtx::BoundCall>{
        {add_a, {int64_t{3}}}, {add_b, {int64_t{4}}}});
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[1].ok);
    return Value();
  });
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(exec.RunTransaction("ga", [&](MethodCtx& t) {
    return t.Invoke("a", "get");
  }).ret, Value(int64_t{3}));
  EXPECT_EQ(exec.RunTransaction("gb", [&](MethodCtx& t) {
    return t.Invoke("b", "get");
  }).ret, Value(int64_t{4}));
}

// --- the acceptance invariant ---------------------------------------------

// After `setup`, the per-step path of the offered workload performs NO
// name lookups at all: neither ObjectBase::Find nor AdtSpec::FindOp fires
// while the runner's walkers (and the teardown audit) execute through
// interned handles.  This is the assertion form of the "string-free steady
// state" acceptance criterion.
void RunLookupFreeSteadyState(Protocol protocol) {
  workload::BankingParams p;
  p.accounts = 8;
  p.branches = 2;
  p.theta = 0.0;
  p.audit_weight = 0.3;
  p.audit_scan = 2;
  ObjectBase base;
  workload::SetupBanking(base, p);
  Executor exec(base, {.protocol = protocol, .record = true});
  workload::FsmWorkload w = workload::MakeBankingWorkload(p);
  ASSERT_TRUE(static_cast<bool>(w.setup));
  w.setup(exec);  // resolve-once: all handle resolution happens here
  w.setup = nullptr;
  w.threads = 2;
  w.iterations = 40;

  const uint64_t find_before = ObjectFindCalls().load();
  const uint64_t op_before = adt::FindOpCalls().load();
  workload::FsmRunner runner(exec, {.mode = workload::FsmMode::kParallel});
  workload::FsmRunResult res = runner.Run({&w});
  EXPECT_TRUE(res.ok());
  EXPECT_GT(res.committed, 0u);
  EXPECT_EQ(ObjectFindCalls().load(), find_before)
      << ProtocolName(protocol) << " resolved an object by name per step";
  EXPECT_EQ(adt::FindOpCalls().load(), op_before)
      << ProtocolName(protocol) << " resolved an op by name per step";
}

TEST(HandlesTest, SteadyStateIsLookupFreeN2pl) {
  RunLookupFreeSteadyState(Protocol::kN2pl);
}
TEST(HandlesTest, SteadyStateIsLookupFreeNto) {
  RunLookupFreeSteadyState(Protocol::kNto);
}
TEST(HandlesTest, SteadyStateIsLookupFreeCert) {
  RunLookupFreeSteadyState(Protocol::kCert);
}

// --- dense dispatch tables -------------------------------------------------

TEST(DenseDispatchTest, OpIdsAreDenseAndConsistent) {
  std::vector<std::shared_ptr<const adt::AdtSpec>> specs = {
      adt::MakeCounterSpec(0),      adt::MakeRegisterSpec(0),
      adt::MakeBankAccountSpec(10), adt::MakeQueueSpec(),
      adt::MakeSetSpec(),           adt::MakeBagSpec(),
      adt::MakeDirectorySpec(),     adt::MakeBTreeDictionarySpec()};
  for (const auto& spec : specs) {
    SCOPED_TRACE(std::string(spec->type_name()));
    auto names = spec->OpNames();
    ASSERT_EQ(spec->NumOps(), names.size());
    for (adt::OpId i = 0; i < spec->NumOps(); ++i) {
      const adt::OpDescriptor& d = spec->OpAt(i);
      EXPECT_EQ(d.id, i);
      // FindOp is the resolve-once inverse of OpAt.
      EXPECT_EQ(spec->FindOp(d.name), &d);
    }
    // The dense conflict matrix agrees with the name-based relation and is
    // symmetric (operation-granularity tables are symmetric closures).
    for (adt::OpId i = 0; i < spec->NumOps(); ++i) {
      for (adt::OpId j = 0; j < spec->NumOps(); ++j) {
        EXPECT_EQ(spec->OpConflictsById(i, j),
                  spec->OpConflicts(spec->OpAt(i).name, spec->OpAt(j).name));
        EXPECT_EQ(spec->OpConflictsById(i, j), spec->OpConflictsById(j, i));
      }
    }
  }
}

TEST(DenseDispatchTest, StepViewsWithAndWithoutIdsAgree) {
  auto spec = adt::MakeQueueSpec();
  const adt::OpDescriptor* enq = spec->FindOp("enqueue");
  const adt::OpDescriptor* deq = spec->FindOp("dequeue");
  Args enq_args{Value(int64_t{7})};
  Args none{};
  Value enq_ret = Value::None();
  Value deq_hit(int64_t{7});
  Value deq_miss(int64_t{9});
  for (const Value* deq_ret : {&deq_hit, &deq_miss}) {
    adt::StepView with_a{enq->name, &enq_args, &enq_ret, enq->id};
    adt::StepView with_b{deq->name, &none, deq_ret, deq->id};
    adt::StepView without_a{"enqueue", &enq_args, &enq_ret};
    adt::StepView without_b{"dequeue", &none, deq_ret};
    EXPECT_EQ(spec->StepConflicts(with_a, with_b),
              spec->StepConflicts(without_a, without_b));
  }
  // And the known rule itself: a dequeue returning the enqueued value
  // conflicts, another value does not.
  adt::StepView a{enq->name, &enq_args, &enq_ret, enq->id};
  adt::StepView hit{deq->name, &none, &deq_hit, deq->id};
  adt::StepView miss{deq->name, &none, &deq_miss, deq->id};
  EXPECT_TRUE(spec->StepConflicts(a, hit));
  EXPECT_FALSE(spec->StepConflicts(a, miss));
}

}  // namespace
}  // namespace objectbase::rt
