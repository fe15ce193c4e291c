// Property test: conflict tables are SOUND over-approximations of
// Definition 3.  For random states s and random step pairs (t1, t2), if the
// table says t1 does NOT conflict with t2 (given t1's and t2's actual
// return values on s), then executing t2;t1 must be legal on s with the
// same returns and the same final state — Definition 3 applied literally.
//
// The converse (completeness) is intentionally not asserted: tables may be
// conservative (e.g. vacuously-commuting pairs marked conflicting).
#include <gtest/gtest.h>

#include <memory>

#include "src/adt/adt.h"
#include "src/adt/bag_adt.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/directory_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"
#include "src/adt/set_adt.h"
#include "src/common/rng.h"

namespace objectbase::adt {
namespace {

struct AdtCase {
  std::string name;
  std::function<std::shared_ptr<const AdtSpec>()> make_spec;
  // Samples arguments for the named operation.  Small domains maximise
  // collision probability, which is where conflicts live.
  std::function<Args(std::string_view, Rng&)> make_args;
  int warmup_ops = 12;  // random ops applied to build a random state
};

Args KeyArg(Rng& rng) { return {Value(rng.Range(0, 3))}; }

std::vector<AdtCase> Cases() {
  return {
      {"register", [] { return MakeRegisterSpec(5); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "read") return {};
         return {Value(rng.Range(-3, 3))};
       },
       8},
      {"counter", [] { return MakeCounterSpec(0); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "get") return {};
         return {Value(rng.Range(-3, 3))};
       },
       8},
      {"set", [] { return MakeSetSpec(); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "size") return {};
         return KeyArg(rng);
       },
       12},
      {"queue", [] { return MakeQueueSpec(); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "enqueue") return {Value(rng.Range(0, 3))};
         return {};
       },
       10},
      {"bank_account", [] { return MakeBankAccountSpec(10); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "balance") return {};
         return {Value(rng.Range(1, 8))};
       },
       10},
      {"btree_dictionary", [] { return MakeBTreeDictionarySpec(4); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "count") return {};
         if (op == "put") return {Value(rng.Range(0, 3)), Value(rng.Range(0, 9))};
         if (op == "range_count") {
           int64_t lo = rng.Range(0, 3);
           return {Value(lo), Value(lo + rng.Range(0, 2))};
         }
         return KeyArg(rng);
       },
       12},
      {"bag", [] { return MakeBagSpec(); },
       [](std::string_view op, Rng& rng) -> Args {
         if (op == "total") return {};
         return KeyArg(rng);
       },
       10},
      {"directory", [] { return MakeDirectorySpec(); },
       [](std::string_view op, Rng& rng) -> Args {
         static const char* kNames[] = {"a", "b", "c"};
         std::string name = kNames[rng.Uniform(3)];
         if (op == "entries") return {};
         if (op == "bind" || op == "rebind") {
           return {Value(name), Value(std::to_string(rng.Range(0, 4)))};
         }
         return {Value(name)};
       },
       10},
  };
}

class CommutativityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CommutativityTest, TablesAreSound) {
  AdtCase c = Cases()[GetParam()];
  auto spec = c.make_spec();
  Rng rng(0xC0FFEE + GetParam());
  auto op_names = spec->OpNames();
  int checked_commuting = 0;

  for (int trial = 0; trial < 4000; ++trial) {
    // Random state.
    auto state = spec->MakeInitialState();
    int warm = static_cast<int>(rng.Uniform(c.warmup_ops + 1));
    for (int i = 0; i < warm; ++i) {
      std::string_view op = op_names[rng.Uniform(op_names.size())];
      spec->FindOp(op)->apply(*state, c.make_args(op, rng));
    }
    // Random step pair.
    std::string op1(op_names[rng.Uniform(op_names.size())]);
    std::string op2(op_names[rng.Uniform(op_names.size())]);
    Args args1 = c.make_args(op1, rng);
    Args args2 = c.make_args(op2, rng);

    // Execute t1;t2 on a clone to learn the actual return values.
    auto probe = state->Clone();
    Value r1 = spec->FindOp(op1)->apply(*probe, args1).ret;
    Value r2 = spec->FindOp(op2)->apply(*probe, args2).ret;

    adt::StepView t1{op1, &args1, &r1};
    adt::StepView t2{op2, &args2, &r2};
    if (spec->StepConflicts(t1, t2)) continue;  // table is allowed to say so
    ++checked_commuting;
    EXPECT_TRUE(StepsCommuteOnState(*spec, *state, op1, args1, op2, args2))
        << c.name << ": table says " << op1 << ArgsToString(args1) << "->"
        << r1.ToString() << " commutes with " << op2 << ArgsToString(args2)
        << "->" << r2.ToString() << " but it does not on state "
        << state->ToString();
    if (HasFailure()) break;
  }
  // The sweep must actually exercise commuting pairs, or it proves nothing.
  EXPECT_GT(checked_commuting, 100) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllAdts, CommutativityTest,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Cases()[info.param].name;
                         });

// Operation-granularity tables must dominate step-granularity ones: if two
// operations never conflict at op level, no step pair of theirs may
// conflict either (otherwise operation locking would be UNSOUND, not just
// conservative).
class OpDominatesStepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OpDominatesStepTest, OpTableDominates) {
  AdtCase c = Cases()[GetParam()];
  auto spec = c.make_spec();
  Rng rng(0xBEEF + GetParam());
  auto op_names = spec->OpNames();
  for (int trial = 0; trial < 4000; ++trial) {
    auto state = spec->MakeInitialState();
    for (int i = 0; i < 6; ++i) {
      std::string_view op = op_names[rng.Uniform(op_names.size())];
      spec->FindOp(op)->apply(*state, c.make_args(op, rng));
    }
    std::string op1(op_names[rng.Uniform(op_names.size())]);
    std::string op2(op_names[rng.Uniform(op_names.size())]);
    if (spec->OpConflicts(op1, op2)) continue;
    Args args1 = c.make_args(op1, rng);
    Args args2 = c.make_args(op2, rng);
    auto probe = state->Clone();
    Value r1 = spec->FindOp(op1)->apply(*probe, args1).ret;
    Value r2 = spec->FindOp(op2)->apply(*probe, args2).ret;
    adt::StepView t1{op1, &args1, &r1};
    adt::StepView t2{op2, &args2, &r2};
    EXPECT_FALSE(spec->StepConflicts(t1, t2))
        << c.name << ": " << op1 << "/" << op2
        << " commute at op level but conflict at step level";
    if (HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAdts, OpDominatesStepTest,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Cases()[info.param].name;
                         });

// The OpDescriptor::read_only contract: applying a read-only operation
// leaves the state unchanged.  The journal fold and the abort rebuild
// retire read-only entries without applying them, and GEMSTONE grants
// read-only steps a shared lock; both are unsound for an op that breaks it.
class ReadOnlyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ReadOnlyTest, ApplyLeavesStateUnchanged) {
  AdtCase c = Cases()[GetParam()];
  auto spec = c.make_spec();
  Rng rng(0xF01D + GetParam());
  auto op_names = spec->OpNames();
  std::vector<const OpDescriptor*> reads;
  for (std::string_view name : op_names) {
    const OpDescriptor* op = spec->FindOp(name);
    if (op->read_only) reads.push_back(op);
  }
  ASSERT_FALSE(reads.empty()) << c.name << " has no read-only operation";
  for (int trial = 0; trial < 2000; ++trial) {
    auto state = spec->MakeInitialState();
    int warm = static_cast<int>(rng.Uniform(c.warmup_ops + 1));
    for (int i = 0; i < warm; ++i) {
      std::string_view op = op_names[rng.Uniform(op_names.size())];
      spec->FindOp(op)->apply(*state, c.make_args(op, rng));
    }
    const OpDescriptor& op = *reads[rng.Uniform(reads.size())];
    Args args = c.make_args(op.name, rng);
    auto before = state->Clone();
    op.apply(*state, args);
    EXPECT_TRUE(state->Equals(*before))
        << c.name << ": read-only " << op.name << ArgsToString(args)
        << " changed " << before->ToString() << " into "
        << state->ToString();
    if (HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAdts, ReadOnlyTest,
                         ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Cases()[info.param].name;
                         });

}  // namespace
}  // namespace objectbase::adt
