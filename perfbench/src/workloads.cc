// The three benchmark workloads.  See perfbench/README.md for why each was
// chosen and which layers it loads.
#include <sys/stat.h>

#include <array>
#include <cstdio>
#include <unordered_set>

#include "perfbench/src/workload.h"
#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/cc/sharded_controller.h"
#include "src/runtime/wal.h"

namespace perfbench {

namespace {

namespace adt = objectbase::adt;
namespace cc = objectbase::cc;

/// Per-client bookkeeping, written only by its client's thread.
template <typename T>
struct alignas(64) Padded {
  T v;
};

const adt::OpDescriptor* OpOf(rt::Executor& exec, const std::string& object,
                              const std::string& op) {
  const rt::MethodRef ref = exec.Resolve(object, op);
  if (ref.op == nullptr) {
    std::fprintf(stderr, "perfbench: %s has no operation %s\n", object.c_str(),
                 op.c_str());
    std::exit(2);
  }
  return ref.op;
}

void Define(rt::Executor& exec, const std::string& object,
            const std::string& method, rt::MethodFn fn) {
  if (!exec.DefineMethod(object, method, std::move(fn))) {
    std::fprintf(stderr, "perfbench: unknown object %s\n", object.c_str());
    std::exit(2);
  }
}

/// Invokes an implicit single-operation method, traced as one step.
Value Step(rt::MethodCtx& m, const rt::MethodRef& ref, Args args, bool read) {
  Scope s(read ? SpanKind::kStepRead : SpanKind::kStepWrite);
  return m.Invoke(ref, std::move(args));
}

Value LocalStep(rt::MethodCtx& m, const adt::OpDescriptor& op, Args args) {
  Scope s(op.read_only ? SpanKind::kStepRead : SpanKind::kStepWrite);
  return m.Local(op, std::move(args));
}

/// Invokes a defined method, passing the trace arguments.
Value InvokeDefined(rt::MethodCtx& m, const rt::MethodRef& ref, Args args) {
  Scope s(SpanKind::kInvoke);
  AppendTraceArgs(args, s.id());
  return m.Invoke(ref, std::move(args));
}

// --- catalogue_cert -------------------------------------------------------
//
// Read-mostly point lookups on 16 B-tree dictionaries under CERT.  Every key
// k in [0, universe) with k % 17 != 0 is prefilled; the rest start absent.
// Keys are drawn zipf(0.6) by rank and scattered over the key space.  A
// stored value is `key | tag << 20`, so any value a get returns can be
// checked against its key.
class Catalogue final : public Workload {
 public:
  static constexpr int kDicts = 16;
  static constexpr int kReads = 8;
  static constexpr uint32_t kHoleEvery = 17;
  static constexpr double kTheta = 0.6;
  static constexpr double kWriteShare = 0.10;
  static constexpr int64_t kKeyMask = (1 << 20) - 1;

  explicit Catalogue(const WorkloadConfig& cfg)
      : cfg_(cfg),
        universe_(cfg.recorded ? 4 * kHoleEvery : 1024 * kHoleEvery),
        zipf_(universe_, kTheta),
        clients_(cfg.clients) {}

  void Setup() override {
    base_ = std::make_unique<rt::ObjectBase>();
    for (int d = 0; d < kDicts; ++d) {
      base_->CreateObject(DictName(d), adt::MakeBTreeDictionarySpec());
    }
    base_->CreateObject("version", adt::MakeCounterSpec(0));
    rt::ExecutorOptions opt;
    opt.protocol = rt::Protocol::kCert;
    opt.granularity = cc::Granularity::kStep;
    opt.record = cfg_.recorded;
    exec_ = std::make_unique<rt::Executor>(*base_, opt);
    for (int d = 0; d < kDicts; ++d) {
      const adt::OpDescriptor* put = OpOf(*exec_, DictName(d), "put");
      // put_pair(k1, v1, k2, v2): two puts; returns how many keys were new,
      // or -1 if a replaced value does not belong to its key.
      Define(*exec_, DictName(d), "put_pair", [put](rt::MethodCtx& m) {
        MethodScope scope(m.args());
        const Args& a = m.args();
        int64_t added = 0;
        for (int i = 0; i < 2; ++i) {
          const Value prev = LocalStep(m, *put, {a[2 * i], a[2 * i + 1]});
          if (prev.is_none()) {
            ++added;
          } else if (!prev.is_int() ||
                     (prev.AsInt() & kKeyMask) != a[2 * i].AsInt()) {
            return Value(int64_t{-1});
          }
        }
        return Value(added);
      });
      get_[d] = exec_->Resolve(DictName(d), "get");
      put_[d] = exec_->Resolve(DictName(d), "put");
      count_[d] = exec_->Resolve(DictName(d), "count");
      put_pair_[d] = exec_->Resolve(DictName(d), "put_pair");
    }
    version_add_ = exec_->Resolve("version", "add");
    version_get_ = exec_->Resolve("version", "get");
    Prefill();
    if (cfg_.recorded) exec_->ResetRecorder();
  }

  void RunOne(Client& c) override {
    if (c.rng.Unit() < kWriteShare) {
      Write(c);
    } else {
      Read(c);
    }
  }

  void Check(Gate& gate) override {
    std::array<int64_t, kDicts> counts{};
    int64_t version = -1;
    const rt::TxnResult r =
        exec_->RunTransaction("audit", [&](rt::MethodCtx& m) {
          for (int d = 0; d < kDicts; ++d) {
            counts[d] = m.Invoke(count_[d]).AsInt();
          }
          version = m.Invoke(version_get_).AsInt();
          return Value();
        });
    gate.Expect(r.committed, "catalogue audit did not commit");
    int64_t inserted = 0;
    for (const auto& pc : clients_) inserted += pc.v.inserted;
    int64_t total = 0;
    for (int64_t n : counts) total += n;
    gate.Expect(total == prefilled_ + inserted,
                "dictionaries hold %lld entries, bookkeeping says %lld",
                static_cast<long long>(total),
                static_cast<long long>(prefilled_ + inserted));
    gate.Expect(version == inserted,
                "version counter %lld != committed inserts %lld",
                static_cast<long long>(version),
                static_cast<long long>(inserted));
  }

  rt::Executor& exec() override { return *exec_; }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"protocol\":\"CERT\",\"granularity\":\"step\","
                  "\"durability\":\"none\",\"shards\":1,\"dicts\":%d,"
                  "\"prefilled_keys\":%lld,\"zipf_theta\":%.2f,"
                  "\"write_share\":%.2f",
                  kDicts, static_cast<long long>(prefilled_), kTheta,
                  kWriteShare);
    return buf;
  }

 private:
  struct PerClient {
    int64_t inserted = 0;  ///< Keys new to a dictionary, committed.
    int64_t tag = 0;
  };

  static std::string DictName(int d) { return "dict" + std::to_string(d); }
  static bool Prefilled(uint32_t key) { return key % kHoleEvery != 0; }
  uint32_t KeyOf(uint32_t rank) const {
    return static_cast<uint32_t>(uint64_t{rank} * 40503 % universe_);
  }
  static bool GoodValue(uint32_t key, const Value& v) {
    if (v.is_none()) return !Prefilled(key);
    return v.is_int() && (v.AsInt() & kKeyMask) == key;
  }

  void Prefill() {
    prefilled_ = 0;
    constexpr uint32_t kChunk = 512;
    for (int d = 0; d < kDicts; ++d) {
      for (uint32_t lo = 0; lo < universe_; lo += kChunk) {
        const uint32_t hi = std::min(universe_, lo + kChunk);
        const rt::TxnResult r =
            exec_->RunTransaction("prefill", [&](rt::MethodCtx& m) {
              for (uint32_t k = lo; k < hi; ++k) {
                if (Prefilled(k)) m.Invoke(put_[d], {int64_t{k}, int64_t{k}});
              }
              return Value();
            });
        if (!r.committed) {
          std::fprintf(stderr, "perfbench: prefill did not commit\n");
          std::exit(2);
        }
        for (uint32_t k = lo; k < hi; ++k) prefilled_ += Prefilled(k);
      }
    }
  }

  void Read(Client& c) {
    struct Get {
      int d;
      uint32_t key;
    };
    std::array<Get, kReads> gets;
    for (Get& g : gets) {
      g.d = static_cast<int>(c.rng.Below(kDicts));
      g.key = KeyOf(zipf_.Sample(c.rng));
    }
    uint64_t bad = 0;
    const rt::TxnResult r = c.Run(*exec_, read_name_, [&](rt::MethodCtx& m) {
      for (const Get& g : gets) {
        const Value v = Step(m, get_[g.d], {int64_t{g.key}}, /*read=*/true);
        if (!GoodValue(g.key, v)) ++bad;
      }
      return Value();
    });
    c.bad_outputs += bad;
    c.Finish(r.committed && bad == 0);
  }

  void Write(Client& c) {
    PerClient& pc = clients_[c.index].v;
    const int d = static_cast<int>(c.rng.Below(kDicts));
    const uint32_t k1 = KeyOf(zipf_.Sample(c.rng));
    const uint32_t k2 = KeyOf(zipf_.Sample(c.rng));
    const int64_t tag = ++pc.tag * 64 + c.index;
    const Value v1(int64_t{k1} | tag << 20);
    const Value v2(int64_t{k2} | tag << 20);
    const rt::TxnResult r = c.Run(*exec_, write_name_, [&](rt::MethodCtx& m) {
      const Value added = InvokeDefined(m, put_pair_[d],
                                        {int64_t{k1}, v1, int64_t{k2}, v2});
      Step(m, version_add_, {added}, /*read=*/false);
      return added;
    });
    const bool good = !r.committed || r.ret.AsInt() >= 0;
    if (!good) ++c.bad_outputs;
    if (r.committed && good) pc.inserted += r.ret.AsInt();
    c.Finish(r.committed && good);
  }

  const WorkloadConfig cfg_;
  const uint32_t universe_;
  const Zipf zipf_;
  const std::string read_name_ = "lookup";
  const std::string write_name_ = "update";
  std::vector<Padded<PerClient>> clients_;
  int64_t prefilled_ = 0;
  std::unique_ptr<rt::ObjectBase> base_;
  std::unique_ptr<rt::Executor> exec_;
  std::array<rt::MethodRef, kDicts> get_, put_, count_, put_pair_;
  rt::MethodRef version_add_, version_get_;
};

// --- queue_longmethod_n2pl ------------------------------------------------
//
// The paper's scenario: two queues, each transaction calls two long defined
// methods (a produce and a consume on one queue, in either order).  Each
// method spins, then issues one local enqueue or dequeue; step locks are
// held to the top's commit.  Items are unique: prefill items are
// `q << 32 | i`, client items `(client + 1) << 40 | n`.
class QueueLongMethod final : public Workload {
 public:
  static constexpr int kQueues = 2;

  explicit QueueLongMethod(const WorkloadConfig& cfg)
      : cfg_(cfg),
        prefill_(cfg.recorded ? 16 : 512),
        spin_min_us_(cfg.recorded ? 1 : 20),
        spin_max_us_(cfg.recorded ? 3 : 50),
        clients_(cfg.clients) {}

  void Setup() override {
    base_ = std::make_unique<rt::ObjectBase>();
    for (int q = 0; q < kQueues; ++q) {
      base_->CreateObject(QueueName(q), adt::MakeQueueSpec());
    }
    rt::ExecutorOptions opt;
    opt.protocol = rt::Protocol::kN2pl;
    opt.granularity = cc::Granularity::kStep;
    opt.contention_policy = cc::ContentionPolicy::kDetect;
    opt.record = cfg_.recorded;
    exec_ = std::make_unique<rt::Executor>(*base_, opt);
    for (int q = 0; q < kQueues; ++q) {
      const adt::OpDescriptor* enq = OpOf(*exec_, QueueName(q), "enqueue");
      const adt::OpDescriptor* deq = OpOf(*exec_, QueueName(q), "dequeue");
      // produce(spin_us, item), consume(spin_us) -> dequeued item or none.
      Define(*exec_, QueueName(q), "produce", [enq](rt::MethodCtx& m) {
        MethodScope scope(m.args());
        Spin(m.args()[0].AsInt());
        LocalStep(m, *enq, {m.args()[1]});
        return Value();
      });
      Define(*exec_, QueueName(q), "consume", [deq](rt::MethodCtx& m) {
        MethodScope scope(m.args());
        Spin(m.args()[0].AsInt());
        return LocalStep(m, *deq, {});
      });
      enqueue_[q] = exec_->Resolve(QueueName(q), "enqueue");
      length_[q] = exec_->Resolve(QueueName(q), "length");
      produce_[q] = exec_->Resolve(QueueName(q), "produce");
      consume_[q] = exec_->Resolve(QueueName(q), "consume");
    }
    for (int q = 0; q < kQueues; ++q) {
      const rt::TxnResult r =
          exec_->RunTransaction("prefill", [&](rt::MethodCtx& m) {
            for (int64_t i = 0; i < prefill_; ++i) {
              m.Invoke(enqueue_[q], {PrefillItem(q, i)});
            }
            return Value();
          });
      if (!r.committed) {
        std::fprintf(stderr, "perfbench: prefill did not commit\n");
        std::exit(2);
      }
    }
    if (cfg_.recorded) exec_->ResetRecorder();
  }

  void RunOne(Client& c) override {
    PerClient& pc = clients_[c.index].v;
    const int q = static_cast<int>(c.rng.Below(kQueues));
    const bool produce_first = c.rng.Below(2) == 0;
    const int64_t span = spin_max_us_ - spin_min_us_ + 1;
    const int64_t spin_p = spin_min_us_ + c.rng.Below(span);
    const int64_t spin_c = spin_min_us_ + c.rng.Below(span);
    const int64_t item = int64_t{c.index + 1} << 40 | ++pc.next_item;
    const rt::TxnResult r = c.Run(*exec_, name_, [&](rt::MethodCtx& m) {
      Value got;
      if (produce_first) {
        InvokeDefined(m, produce_[q], {spin_p, item});
        got = InvokeDefined(m, consume_[q], {spin_c});
      } else {
        got = InvokeDefined(m, consume_[q], {spin_c});
        InvokeDefined(m, produce_[q], {spin_p, item});
      }
      return got;
    });
    const bool good = !r.committed || r.ret.is_none() || r.ret.is_int();
    if (!good) ++c.bad_outputs;
    if (r.committed && good) {
      pc.enqueued[q].push_back(item);
      if (!r.ret.is_none()) pc.dequeued[q].push_back(r.ret.AsInt());
    }
    c.Finish(r.committed && good);
  }

  void Check(Gate& gate) override {
    std::array<int64_t, kQueues> len{};
    const rt::TxnResult r =
        exec_->RunTransaction("audit", [&](rt::MethodCtx& m) {
          for (int q = 0; q < kQueues; ++q) {
            len[q] = m.Invoke(length_[q]).AsInt();
          }
          return Value();
        });
    gate.Expect(r.committed, "queue audit did not commit");
    std::unordered_set<int64_t> seen;
    for (int q = 0; q < kQueues; ++q) {
      std::unordered_set<int64_t> put_in;
      for (int64_t i = 0; i < prefill_; ++i) put_in.insert(PrefillItem(q, i));
      int64_t enq = 0, deq = 0;
      for (const auto& pc : clients_) {
        enq += static_cast<int64_t>(pc.v.enqueued[q].size());
        put_in.insert(pc.v.enqueued[q].begin(), pc.v.enqueued[q].end());
      }
      for (const auto& pc : clients_) {
        for (int64_t item : pc.v.dequeued[q]) {
          ++deq;
          gate.Expect(seen.insert(item).second, "item %lld dequeued twice",
                      static_cast<long long>(item));
          gate.Expect(put_in.count(item) == 1,
                      "queue %d returned item %lld never enqueued there", q,
                      static_cast<long long>(item));
        }
      }
      gate.Expect(len[q] == prefill_ + enq - deq,
                  "queue %d holds %lld items, bookkeeping says %lld", q,
                  static_cast<long long>(len[q]),
                  static_cast<long long>(prefill_ + enq - deq));
    }
  }

  rt::Executor& exec() override { return *exec_; }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"protocol\":\"N2PL\",\"granularity\":\"step\","
                  "\"contention\":\"detect\",\"durability\":\"none\","
                  "\"shards\":1,\"queues\":%d,\"prefill_per_queue\":%lld,"
                  "\"method_spin_us\":[%lld,%lld]",
                  kQueues, static_cast<long long>(prefill_),
                  static_cast<long long>(spin_min_us_),
                  static_cast<long long>(spin_max_us_));
    return buf;
  }

 private:
  struct PerClient {
    int64_t next_item = 0;
    std::array<std::vector<int64_t>, kQueues> enqueued, dequeued;
  };

  static std::string QueueName(int q) { return "q" + std::to_string(q); }
  static int64_t PrefillItem(int q, int64_t i) {
    return int64_t{q} << 32 | i;
  }

  const WorkloadConfig cfg_;
  const int64_t prefill_;
  const int64_t spin_min_us_, spin_max_us_;
  const std::string name_ = "move";
  std::vector<Padded<PerClient>> clients_;
  std::unique_ptr<rt::ObjectBase> base_;
  std::unique_ptr<rt::Executor> exec_;
  std::array<rt::MethodRef, kQueues> enqueue_, length_, produce_, consume_;
};

// --- transfer_durable_sharded ---------------------------------------------
//
// Write-only transfers over 64 accounts and 4 branch counters on a
// ShardedBase(4) under CERT with group-commit durability.  Account i lives
// on shard i % 4 with its branch counter (ids 64..67 land on shards 0..3).
// A transfer withdraws from its source, then credits the destination and
// posts -amount/+amount to both branch counters in one InvokeParallel.
// About a quarter of transfers go to an account on another shard.
class TransferDurable final : public Workload {
 public:
  static constexpr uint32_t kShards = 4;
  static constexpr double kCrossShare = 0.25;
  static constexpr int64_t kOpening = 1000000;

  explicit TransferDurable(const WorkloadConfig& cfg)
      : cfg_(cfg),
        accounts_(cfg.recorded ? 16 : 64),
        wal_path_(cfg.log_dir + (cfg.recorded ? "/transfer-recorded.wal"
                                              : "/transfer.wal")),
        clients_(cfg.clients) {}

  ~TransferDurable() override {
    exec_.reset();
    RemoveLogs();
  }

  void Setup() override {
    base_ = std::make_unique<rt::ShardedBase>(kShards);
    CreateObjects(*base_);
    rt::ExecutorOptions opt;
    opt.protocol = rt::Protocol::kCert;
    opt.granularity = cc::Granularity::kStep;
    opt.record = cfg_.recorded;
    opt.durability = rt::Durability::kGroup;
    opt.wal_path = wal_path_;
    exec_ = std::make_unique<rt::Executor>(*base_, opt);
    if (exec_->sharded() == nullptr) {
      std::fprintf(stderr, "perfbench: expected a sharded executor\n");
      std::exit(2);
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      if (exec_->shard_wal(s) == nullptr || !exec_->shard_wal(s)->ok()) {
        std::fprintf(stderr, "perfbench: cannot open %s\n",
                     rt::ShardWalPath(wal_path_, s).c_str());
        std::exit(2);
      }
    }
    withdraw_.resize(accounts_);
    credit_.resize(accounts_);
    for (uint32_t i = 0; i < accounts_; ++i) {
      const adt::OpDescriptor* deposit =
          OpOf(*exec_, AccountName(i), "deposit");
      Define(*exec_, AccountName(i), "credit", [deposit](rt::MethodCtx& m) {
        MethodScope scope(m.args());
        return LocalStep(m, *deposit, {m.args()[0]});
      });
      withdraw_[i] = exec_->Resolve(AccountName(i), "withdraw");
      credit_[i] = exec_->Resolve(AccountName(i), "credit");
    }
    for (uint32_t b = 0; b < kShards; ++b) {
      const adt::OpDescriptor* add = OpOf(*exec_, BranchName(b), "add");
      Define(*exec_, BranchName(b), "post", [add](rt::MethodCtx& m) {
        MethodScope scope(m.args());
        return LocalStep(m, *add, {m.args()[0]});
      });
      post_[b] = exec_->Resolve(BranchName(b), "post");
    }
  }

  void RunOne(Client& c) override {
    PerClient& pc = clients_[c.index].v;
    const uint32_t per_shard = accounts_ / kShards;
    const uint32_t src = c.rng.Below(accounts_);
    const uint32_t home = src % kShards;
    const bool cross = c.rng.Unit() < kCrossShare;
    uint32_t dst;
    if (cross) {
      const uint32_t shard = (home + 1 + c.rng.Below(kShards - 1)) % kShards;
      dst = shard + kShards * c.rng.Below(per_shard);
    } else {
      const uint32_t slot = c.rng.Below(per_shard - 1);
      dst = home + kShards * (slot >= src / kShards ? slot + 1 : slot);
    }
    const int64_t amount = 1 + c.rng.Below(100);
    const rt::TxnResult r = c.Run(
        *exec_, name_,
        [&](rt::MethodCtx& m) {
          if (!Step(m, withdraw_[src], {amount}, /*read=*/false).AsBool()) {
            return Value(false);
          }
          Scope batch(SpanKind::kBatch);
          std::vector<rt::MethodCtx::BoundCall> calls(3);
          calls[0] = {credit_[dst], {amount}};
          calls[1] = {post_[home], {-amount}};
          calls[2] = {post_[dst % kShards], {amount}};
          for (auto& call : calls) AppendTraceArgs(call.args, batch.id());
          for (const auto& out : m.InvokeParallel(std::move(calls))) {
            if (!out.ok) m.Abort();
          }
          return Value(true);
        },
        cross);
    const bool good = !r.committed || r.ret.is_bool();
    if (!good) ++c.bad_outputs;
    if (r.committed && good) {
      ++pc.transfers;
      if (!r.ret.AsBool()) ++pc.declined;
    }
    c.Finish(r.committed && good);
  }

  void Check(Gate& gate) override {
    live_ = ReadState(*exec_);
    gate.Expect(live_.ok, "transfer audit did not commit");
    CheckMoney(gate, live_, "live");
    int64_t declined = 0;
    for (const auto& pc : clients_) declined += pc.v.declined;
    gate.Expect(declined == 0, "%lld transfers found an account short",
                static_cast<long long>(declined));
  }

  void Recover(Gate& gate, RecoveryStats* out) override {
    exec_.reset();  // drains and closes the logs
    out->ran = true;
    out->log_bytes = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      struct stat st{};
      if (::stat(rt::ShardWalPath(wal_path_, s).c_str(), &st) == 0) {
        out->log_bytes += static_cast<uint64_t>(st.st_size);
      }
    }
    int64_t t0 = NowNs();
    for (uint32_t s = 0; s < kShards; ++s) {
      const rt::WalScanResult scan =
          rt::ScanWal(rt::ShardWalPath(wal_path_, s));
      gate.Expect(scan.ok && !scan.torn, "shard %u log scan failed", s);
    }
    out->scan_s = (NowNs() - t0) * 1e-9;

    rt::ShardedBase fresh(kShards);
    CreateObjects(fresh);
    t0 = NowNs();
    const rt::WalRecoveryResult rec =
        rt::RecoverShardedWalInto(wal_path_, kShards, fresh);
    out->recover_s = (NowNs() - t0) * 1e-9;
    gate.Expect(rec.ok && !rec.torn, "recovery failed or found a torn log");
    gate.Expect(rec.ret_mismatches == 0, "recovery: %zu return mismatches",
                rec.ret_mismatches);
    gate.Expect(rec.unknown_objects == 0, "recovery: %zu unknown objects",
                rec.unknown_objects);

    rt::ExecutorOptions opt;
    opt.protocol = rt::Protocol::kCert;
    opt.record = false;
    rt::Executor reader(fresh, opt);
    const State recovered = ReadState(reader);
    gate.Expect(recovered.ok, "audit of the recovered base did not commit");
    CheckMoney(gate, recovered, "recovered");
    gate.Expect(recovered.balances == live_.balances &&
                    recovered.branches == live_.branches,
                "recovered base differs from the live base");
    RemoveLogs();
  }

  rt::Executor& exec() override { return *exec_; }

  std::string Describe() const override {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "\"protocol\":\"CERT\",\"granularity\":\"step\",\"shards\":%u,"
        "\"accounts\":%u,\"cross_shard_share\":%.2f,\"durability\":\"group\","
        "\"group_window_us\":100,\"flush_policy\":\"one write+fsync per "
        "group batch per shard log; commit acked after its batch syncs\"",
        kShards, accounts_, kCrossShare);
    return buf;
  }

 private:
  struct PerClient {
    int64_t transfers = 0;
    int64_t declined = 0;
  };
  struct State {
    bool ok = false;
    std::vector<int64_t> balances;
    std::array<int64_t, kShards> branches{};
  };

  static std::string AccountName(uint32_t i) {
    return "acct" + std::to_string(i);
  }
  static std::string BranchName(uint32_t b) {
    return "branch" + std::to_string(b);
  }

  void CreateObjects(rt::ShardedBase& base) const {
    for (uint32_t i = 0; i < accounts_; ++i) {
      base.CreateObject(AccountName(i), adt::MakeBankAccountSpec(kOpening));
    }
    for (uint32_t b = 0; b < kShards; ++b) {
      base.CreateObject(BranchName(b), adt::MakeCounterSpec(
                                           kOpening * (accounts_ / kShards)));
    }
  }

  State ReadState(rt::Executor& exec) const {
    State s;
    s.balances.resize(accounts_);
    std::vector<rt::MethodRef> bal(accounts_);
    std::array<rt::MethodRef, kShards> br;
    for (uint32_t i = 0; i < accounts_; ++i) {
      bal[i] = exec.Resolve(AccountName(i), "balance");
    }
    for (uint32_t b = 0; b < kShards; ++b) {
      br[b] = exec.Resolve(BranchName(b), "get");
    }
    const rt::TxnResult r = exec.RunTransaction("audit", [&](rt::MethodCtx& m) {
      for (uint32_t i = 0; i < accounts_; ++i) {
        s.balances[i] = m.Invoke(bal[i]).AsInt();
      }
      for (uint32_t b = 0; b < kShards; ++b) {
        s.branches[b] = m.Invoke(br[b]).AsInt();
      }
      return Value();
    });
    s.ok = r.committed;
    return s;
  }

  void CheckMoney(Gate& gate, const State& s, const char* which) const {
    int64_t total = 0;
    std::array<int64_t, kShards> per_branch{};
    for (uint32_t i = 0; i < accounts_; ++i) {
      total += s.balances[i];
      per_branch[i % kShards] += s.balances[i];
    }
    gate.Expect(total == kOpening * accounts_,
                "%s: accounts hold %lld, opened with %lld", which,
                static_cast<long long>(total),
                static_cast<long long>(kOpening * accounts_));
    for (uint32_t b = 0; b < kShards; ++b) {
      gate.Expect(s.branches[b] == per_branch[b],
                  "%s: branch %u counter %lld != its accounts' %lld", which, b,
                  static_cast<long long>(s.branches[b]),
                  static_cast<long long>(per_branch[b]));
    }
  }

  void RemoveLogs() const {
    for (uint32_t s = 0; s < kShards; ++s) {
      std::remove(rt::ShardWalPath(wal_path_, s).c_str());
    }
  }

  const WorkloadConfig cfg_;
  const uint32_t accounts_;
  const std::string wal_path_;
  const std::string name_ = "transfer";
  std::vector<Padded<PerClient>> clients_;
  State live_;
  std::unique_ptr<rt::ShardedBase> base_;
  std::unique_ptr<rt::Executor> exec_;
  std::vector<rt::MethodRef> withdraw_, credit_;
  std::array<rt::MethodRef, kShards> post_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "catalogue_cert", "queue_longmethod_n2pl", "transfer_durable_sharded"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& cfg) {
  if (name == "catalogue_cert") return std::make_unique<Catalogue>(cfg);
  if (name == "queue_longmethod_n2pl") {
    return std::make_unique<QueueLongMethod>(cfg);
  }
  if (name == "transfer_durable_sharded") {
    return std::make_unique<TransferDurable>(cfg);
  }
  return nullptr;
}

}  // namespace perfbench
