#include "src/adt/bank_account_adt.h"

#include "src/adt/spec_base.h"

namespace objectbase::adt {
namespace {

class BankAccountState : public AdtState {
 public:
  explicit BankAccountState(int64_t b) : balance(b) {}

  std::unique_ptr<AdtState> Clone() const override {
    return std::make_unique<BankAccountState>(balance);
  }
  bool Equals(const AdtState& other) const override {
    auto* o = dynamic_cast<const BankAccountState*>(&other);
    return o != nullptr && o->balance == balance;
  }
  std::string ToString() const override {
    return "account{" + std::to_string(balance) + "}";
  }

  int64_t balance;
};

// Classifies a step for the conflict table.
enum class Kind { kBalance, kDeposit, kWithdrawOk, kWithdrawFail, kWithdrawUnknown };

class BankAccountSpec : public SpecBase {
 public:
  explicit BankAccountSpec(int64_t initial) : initial_(initial) {
    balance_ = AddOp("balance", /*read_only=*/true, [](AdtState& s, const Args&) {
      return ApplyResult{Value(static_cast<BankAccountState&>(s).balance),
                         UndoFn()};
    });
    deposit_ = AddOp("deposit", /*read_only=*/false, [](AdtState& s, const Args& args) {
      auto& st = static_cast<BankAccountState&>(s);
      int64_t a = args.at(0).AsInt();
      st.balance += a;
      return ApplyResult{Value::None(), [a](AdtState& u) {
                           static_cast<BankAccountState&>(u).balance -= a;
                         }};
    });
    withdraw_ = AddOp("withdraw", /*read_only=*/false, [](AdtState& s, const Args& args) {
      auto& st = static_cast<BankAccountState&>(s);
      int64_t a = args.at(0).AsInt();
      if (st.balance < a) return ApplyResult{Value(false), UndoFn()};
      st.balance -= a;
      return ApplyResult{Value(true), [a](AdtState& u) {
                           static_cast<BankAccountState&>(u).balance += a;
                         }};
    });
    // Operation granularity: deposits commute with deposits and balance
    // reads with balance reads; everything else conflicts.
    Conflict("balance", "deposit");
    Conflict("balance", "withdraw");
    Conflict("deposit", "withdraw");
    Conflict("withdraw", "withdraw");
  }

  std::string_view type_name() const override { return "bank_account"; }

  std::unique_ptr<AdtState> MakeInitialState() const override {
    return std::make_unique<BankAccountState>(initial_);
  }

  bool StepConflicts(const StepView& first,
                     const StepView& second) const override {
    const OpId a = ViewId(first);
    const OpId b = ViewId(second);
    if (a == kNoOp || b == kNoOp) return false;
    Kind k1 = ClassifyStep(first, a);
    Kind k2 = ClassifyStep(second, b);
    auto is_withdraw_unknown = [](Kind k) { return k == Kind::kWithdrawUnknown; };
    if (is_withdraw_unknown(k1) || is_withdraw_unknown(k2)) {
      return OpConflictsById(a, b);
    }
    switch (k1) {
      case Kind::kBalance:
        // balance;deposit and balance;withdraw-ok transpose to a different
        // balance return.  balance;withdraw-fail commutes (no state change
        // either way).
        return k2 == Kind::kDeposit || k2 == Kind::kWithdrawOk;
      case Kind::kDeposit:
        // deposit;deposit commutes.  deposit;balance changes the read.
        // deposit;withdraw-ok conflicts: the withdrawal may have needed the
        // deposited funds.  deposit;withdraw-fail conflicts: moving the
        // failed withdrawal before the deposit could make it succeed?  No —
        // moving it EARLIER only reduces funds available... transposing
        // deposit;withdraw-fail yields withdraw on a smaller balance, which
        // still fails; and deposit is unaffected.  Commutes.
        return k2 == Kind::kBalance || k2 == Kind::kWithdrawOk;
      case Kind::kWithdrawOk:
        // withdraw-ok;deposit commutes (the asymmetric case): adding funds
        // after a successful withdrawal transposes safely — the withdrawal
        // still succeeds with more money available.
        // withdraw-ok;withdraw-ok commutes: if both succeeded in sequence,
        // the balance covered their sum, so either order succeeds with the
        // same final balance.
        // withdraw-ok;withdraw-fail conflicts: with the first withdrawal
        // undone, the second might have succeeded.
        // withdraw-ok;balance conflicts.
        return k2 == Kind::kBalance || k2 == Kind::kWithdrawFail;
      case Kind::kWithdrawFail:
        // withdraw-fail;deposit conflicts: transposing the deposit earlier
        // could make the withdrawal succeed (different return value).
        // withdraw-fail;withdraw-ok commutes: transposing keeps the ok one
        // succeeding (the failed one freed nothing) and the failed one
        // failing (the ok one only removed funds).  withdraw-fail;balance
        // and withdraw-fail;withdraw-fail change nothing.
        return k2 == Kind::kDeposit;
      case Kind::kWithdrawUnknown:
        break;
    }
    return true;
  }

 private:
  Kind ClassifyStep(const StepView& t, OpId id) const {
    if (id == balance_) return Kind::kBalance;
    if (id == deposit_) return Kind::kDeposit;
    if (id != withdraw_ || t.ret == nullptr) return Kind::kWithdrawUnknown;
    return t.ret->AsBool() ? Kind::kWithdrawOk : Kind::kWithdrawFail;
  }

  int64_t initial_;
  OpId balance_ = kNoOp;
  OpId deposit_ = kNoOp;
  OpId withdraw_ = kNoOp;
};

}  // namespace

std::shared_ptr<const AdtSpec> MakeBankAccountSpec(int64_t initial) {
  return std::make_shared<BankAccountSpec>(initial);
}

}  // namespace objectbase::adt
