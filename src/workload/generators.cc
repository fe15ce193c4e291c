#include "src/workload/generators.h"

#include <atomic>
#include <memory>
#include <utility>

#include "src/adt/bank_account_adt.h"
#include "src/adt/btree_dictionary_adt.h"
#include "src/adt/counter_adt.h"
#include "src/adt/queue_adt.h"
#include "src/adt/register_adt.h"

// Every generator follows the resolve-once/execute-many discipline: the
// workload's `setup` hook (run once per run, before the walkers start)
// resolves the MethodRefs the transaction bodies will use, so the per-step
// hot path of the offered load touches no string maps — names only appear
// at setup time.

namespace objectbase::workload {

void SpinWork(int iters) {
  volatile uint64_t sink = 0;
  for (int i = 0; i < iters; ++i) sink = sink + i;
}

namespace {

std::string AccountName(int i) { return "acct:" + std::to_string(i); }
std::string BranchName(int i) { return "branch:" + std::to_string(i); }
std::string QueueName(int i) { return "queue:" + std::to_string(i); }
std::string ObjName(const char* prefix, int i) {
  return std::string(prefix) + ":" + std::to_string(i);
}

// Makes `w` a flat mix: states[i] is picked with probability proportional
// to weights[i] on every visit, whatever state the walker is in.  States of
// weight zero are dropped, since a walk always starts in state 0.
void SetFlatRows(FsmWorkload& w, const std::vector<double>& weights) {
  std::vector<FsmState> states;
  std::vector<double> row;
  for (size_t i = 0; i < w.states.size(); ++i) {
    if (weights[i] <= 0) continue;
    states.push_back(std::move(w.states[i]));
    row.push_back(weights[i]);
  }
  w.states = std::move(states);
  w.transitions.assign(w.states.size(), row);
  NormalizeTransitionRows(w.transitions);
}

}  // namespace

// --- Banking ---------------------------------------------------------------

void SetupBanking(rt::ObjectBase& base, const BankingParams& p) {
  for (int i = 0; i < p.accounts; ++i) {
    base.CreateObject(AccountName(i), adt::MakeBankAccountSpec(p.initial));
  }
  for (int i = 0; i < p.branches; ++i) {
    base.CreateObject(BranchName(i), adt::MakeCounterSpec(0));
  }
}

namespace {
struct BankingHandles {
  std::vector<rt::MethodRef> withdraw;
  std::vector<rt::MethodRef> deposit;
  std::vector<rt::MethodRef> balance;
  std::vector<rt::MethodRef> branch_add;
  std::vector<rt::MethodRef> branch_get;
};
}  // namespace

FsmWorkload MakeBankingWorkload(const BankingParams& p) {
  FsmWorkload w;
  w.name = "banking";
  auto zipf = std::make_shared<ZipfGenerator>(p.accounts, p.theta);
  const BankingParams params = p;
  auto handles = std::make_shared<BankingHandles>();

  w.setup = [params, handles](rt::Executor& exec) {
    handles->withdraw.clear();
    handles->deposit.clear();
    handles->balance.clear();
    handles->branch_add.clear();
    handles->branch_get.clear();
    for (int i = 0; i < params.accounts; ++i) {
      rt::ObjectHandle acct = exec.FindObject(AccountName(i));
      handles->withdraw.push_back(exec.Resolve(acct, "withdraw"));
      handles->deposit.push_back(exec.Resolve(acct, "deposit"));
      handles->balance.push_back(exec.Resolve(acct, "balance"));
    }
    for (int i = 0; i < params.branches; ++i) {
      rt::ObjectHandle branch = exec.FindObject(BranchName(i));
      handles->branch_add.push_back(exec.Resolve(branch, "add"));
      handles->branch_get.push_back(exec.Resolve(branch, "get"));
    }
  };

  FsmState transfer;
  transfer.name = "transfer";
  transfer.make = [params, zipf, handles](Rng& rng) -> rt::MethodFn {
    int from = static_cast<int>(zipf->Next(rng));
    int to = static_cast<int>(zipf->Next(rng));
    if (to == from) to = (to + 1) % static_cast<int>(zipf->n());
    int64_t amount = rng.Range(1, 20);
    int branch_from = from % params.branches;
    int branch_to = to % params.branches;
    return [params, handles, from, to, amount, branch_from,
            branch_to](rt::MethodCtx& txn) -> Value {
      Value ok = txn.Invoke(handles->withdraw[from], {amount});
      SpinWork(params.spin_per_op);
      if (!ok.AsBool()) return Value(false);  // insufficient funds: no-op txn
      txn.Invoke(handles->deposit[to], {amount});
      SpinWork(params.spin_per_op);
      txn.Invoke(handles->branch_add[branch_from], {-amount});
      txn.Invoke(handles->branch_add[branch_to], {amount});
      SpinWork(params.spin_per_op);
      return Value(true);
    };
  };

  FsmState audit;
  audit.name = "audit";
  audit.make = [params, zipf, handles](Rng& rng) -> rt::MethodFn {
    std::vector<int> targets;
    for (int i = 0; i < params.audit_scan; ++i) {
      targets.push_back(static_cast<int>(zipf->Next(rng)));
    }
    return [params, handles, targets](rt::MethodCtx& txn) -> Value {
      int64_t sum = 0;
      for (int t : targets) {
        sum += txn.Invoke(handles->balance[t]).AsInt();
        SpinWork(params.spin_per_op);
      }
      return Value(sum);
    };
  };

  w.states = {std::move(transfer), std::move(audit)};
  SetFlatRows(w, {1.0 - p.audit_weight, p.audit_weight});

  // Money is conserved: each transfer debits one account, credits another
  // and moves the amount through the branch counters with net zero.
  w.teardown = [params, handles](FsmCheckCtx& ctx) {
    rt::TxnResult r = ctx.exec().RunTransaction(
        "banking/conservation", [handles](rt::MethodCtx& txn) -> Value {
          int64_t total = 0;
          for (const rt::MethodRef& m : handles->balance) {
            total += txn.Invoke(m).AsInt();
          }
          for (const rt::MethodRef& m : handles->branch_get) {
            total += txn.Invoke(m).AsInt();
          }
          return Value(total);
        });
    const int64_t expected = params.initial * params.accounts;
    if (!r.committed) {
      ctx.Fail("conservation audit did not commit");
    } else if (r.ret.AsInt() != expected) {
      ctx.Fail("accounts + branches sum to " + std::to_string(r.ret.AsInt()) +
               ", expected " + std::to_string(expected));
    }
  };
  return w;
}

// --- Queue pipeline ----------------------------------------------------------

void SetupQueues(rt::ObjectBase& base, const QueueParams& p) {
  for (int i = 0; i < p.queues; ++i) {
    base.CreateObject(QueueName(i), adt::MakeQueueSpec());
  }
}

namespace {
struct QueueHandles {
  std::vector<rt::MethodRef> enqueue;
  std::vector<rt::MethodRef> dequeue;
};
}  // namespace

FsmWorkload MakeQueueWorkload(const QueueParams& p) {
  FsmWorkload w;
  w.name = "queue-pipeline";
  const QueueParams params = p;
  // A global tag source keeps enqueued values distinct, which is what lets
  // step-granularity conflict tests tell items apart.
  auto tag = std::make_shared<std::atomic<int64_t>>(1'000'000);
  auto handles = std::make_shared<QueueHandles>();

  w.setup = [params, handles](rt::Executor& exec) {
    handles->enqueue.clear();
    handles->dequeue.clear();
    for (int i = 0; i < params.queues; ++i) {
      rt::ObjectHandle q = exec.FindObject(QueueName(i));
      handles->enqueue.push_back(exec.Resolve(q, "enqueue"));
      handles->dequeue.push_back(exec.Resolve(q, "dequeue"));
    }
    // Prefill every queue (an empty-queue dequeue conflicts with every
    // enqueue even at step granularity).  Prefilled items are negative, so
    // they never collide with the producers' tags.
    for (const rt::MethodRef& enqueue : handles->enqueue) {
      exec.RunTransaction("queue-pipeline/prefill",
                          [params, enqueue](rt::MethodCtx& txn) -> Value {
                            for (int64_t i = 0; i < params.prefill; ++i) {
                              txn.Invoke(enqueue, {-1 - i});
                            }
                            return Value();
                          });
    }
  };

  FsmState producer;
  producer.name = "produce";
  producer.make = [params, tag, handles](Rng& rng) -> rt::MethodFn {
    int q = static_cast<int>(rng.Uniform(params.queues));
    int64_t base_tag = tag->fetch_add(params.batch);
    return [params, handles, q, base_tag](rt::MethodCtx& txn) -> Value {
      for (int i = 0; i < params.batch; ++i) {
        txn.Invoke(handles->enqueue[q], {base_tag + i});
        SpinWork(params.spin_per_op);
      }
      return Value(static_cast<int64_t>(params.batch));
    };
  };

  FsmState consumer;
  consumer.name = "consume";
  consumer.make = [params, handles](Rng& rng) -> rt::MethodFn {
    int q = static_cast<int>(rng.Uniform(params.queues));
    return [params, handles, q](rt::MethodCtx& txn) -> Value {
      int64_t got = 0;
      for (int i = 0; i < params.batch; ++i) {
        Value v = txn.Invoke(handles->dequeue[q]);
        SpinWork(params.spin_per_op);
        if (!v.is_none()) ++got;
      }
      return Value(got);
    };
  };

  w.states = {std::move(producer), std::move(consumer)};
  SetFlatRows(w, {p.producer_weight, p.consumer_weight});
  return w;
}

// --- Semantic ADTs -------------------------------------------------------------

void SetupSemantic(rt::ObjectBase& base, const SemanticParams& p) {
  for (int i = 0; i < p.objects; ++i) {
    if (p.use_counters) {
      base.CreateObject(ObjName("ctr", i), adt::MakeCounterSpec(0));
    } else {
      base.CreateObject(ObjName("ctr", i), adt::MakeRegisterSpec(0));
    }
  }
}

namespace {
struct SemanticHandles {
  std::vector<rt::MethodRef> update;  // add (counters) / write (registers)
  std::vector<rt::MethodRef> read;    // get (counters) / read (registers)
};
}  // namespace

FsmWorkload MakeSemanticWorkload(const SemanticParams& p) {
  FsmWorkload w;
  w.name = p.use_counters ? "semantic-counters" : "rw-registers";
  const SemanticParams params = p;
  auto handles = std::make_shared<SemanticHandles>();

  w.setup = [params, handles](rt::Executor& exec) {
    handles->update.clear();
    handles->read.clear();
    for (int i = 0; i < params.objects; ++i) {
      rt::ObjectHandle obj = exec.FindObject(ObjName("ctr", i));
      handles->update.push_back(
          exec.Resolve(obj, params.use_counters ? "add" : "write"));
      handles->read.push_back(
          exec.Resolve(obj, params.use_counters ? "get" : "read"));
    }
  };

  FsmState update;
  update.name = "bump";
  update.make = [params, handles](Rng& rng) -> rt::MethodFn {
    std::vector<std::pair<int, int64_t>> ops;
    for (int i = 0; i < params.ops_per_txn; ++i) {
      ops.emplace_back(static_cast<int>(rng.Uniform(params.objects)),
                       rng.Range(1, 5));
    }
    return [params, handles, ops](rt::MethodCtx& txn) -> Value {
      for (const auto& [obj, d] : ops) {
        if (params.use_counters) {
          // Semantic: a single commuting add.
          txn.Invoke(handles->update[obj], {d});
        } else {
          // Classical: read-modify-write, the only way to bump a value
          // with read/write operations — and it conflicts with every
          // concurrent bump.
          int64_t v = txn.Invoke(handles->read[obj]).AsInt();
          txn.Invoke(handles->update[obj], {v + d});
        }
        SpinWork(params.spin_per_op);
      }
      return Value();
    };
  };

  FsmState read;
  read.name = "read";
  read.make = [params, handles](Rng& rng) -> rt::MethodFn {
    int obj = static_cast<int>(rng.Uniform(params.objects));
    return [handles, obj](rt::MethodCtx& txn) -> Value {
      return txn.Invoke(handles->read[obj]);
    };
  };

  w.states = {std::move(update), std::move(read)};
  SetFlatRows(w, {1.0 - p.read_fraction, p.read_fraction});
  return w;
}

// --- Nested fan-out -------------------------------------------------------------

void SetupFanout(rt::ObjectBase& base, const FanoutParams& p,
                 int max_threads) {
  int shards = p.shards_per_thread * max_threads;
  for (int i = 0; i < shards * p.fanout; ++i) {
    base.CreateObject(ObjName("shard", i), adt::MakeCounterSpec(0));
  }
}

namespace {
struct FanoutHandles {
  std::vector<rt::MethodRef> heavy;  // per shard
};
}  // namespace

FsmWorkload MakeFanoutWorkload(const FanoutParams& p) {
  FsmWorkload w;
  w.name = "nested-fanout";
  const FanoutParams params = p;
  auto handles = std::make_shared<FanoutHandles>();

  // Register a "heavy" method on every shard: work_per_child local adds
  // interleaved with spin (a long-running method body, Section 1(b)).  The
  // add operation is resolved to its descriptor once, outside the body.
  w.setup = [params, handles](rt::Executor& exec) {
    handles->heavy.clear();
    // Every shard object Setup created gets a body and a handle (the old
    // fixed 64-thread cap could leave high shards uncovered when
    // fanout/thread counts exceeded it).
    for (int i = 0;; ++i) {
      std::string name = ObjName("shard", i);
      rt::Object* obj = exec.base().Find(name);
      if (obj == nullptr) break;
      const adt::OpDescriptor* add = obj->spec().FindOp("add");
      const bool defined =
          exec.DefineMethod(name, "heavy",
                            [params, add](rt::MethodCtx& m) -> Value {
                              for (int k = 0; k < params.work_per_child; ++k) {
                                m.Local(*add, {int64_t{1}});
                                SpinWork(params.spin_per_op);
                              }
                              return Value();
                            });
      if (!defined) break;  // object vanished mid-setup: stop registering
      handles->heavy.push_back(exec.Resolve(name, "heavy"));
    }
  };

  FsmState txn;
  txn.name = "fanout";
  txn.make = [params, handles](Rng& rng) -> rt::MethodFn {
    // Each branch works on its own shard: no contention, pure parallelism.
    int64_t shard_base = static_cast<int64_t>(
        rng.Uniform(params.shards_per_thread)) * params.fanout;
    return [params, handles, shard_base](rt::MethodCtx& t) -> Value {
      // One parallel batch of `fanout` long-running child methods
      // (Section 1(c): a method sends several messages simultaneously).
      std::vector<rt::MethodCtx::BoundCall> calls;
      for (int b = 0; b < params.fanout; ++b) {
        const size_t idx = static_cast<size_t>(shard_base) + b;
        // Out-of-range shards (mis-sized setup) degrade to an invalid ref,
        // which aborts the child with kUser — the old by-name behaviour.
        calls.push_back({idx < handles->heavy.size() ? handles->heavy[idx]
                                                     : rt::MethodRef{},
                         {}});
      }
      t.InvokeParallel(std::move(calls));
      return Value();
    };
  };
  w.states = {std::move(txn)};
  SetFlatRows(w, {1.0});
  return w;
}

// --- Dictionary mix ---------------------------------------------------------------

void SetupDictionary(rt::ObjectBase& base, const DictionaryParams& p) {
  for (int i = 0; i < p.dicts; ++i) {
    base.CreateObject(ObjName("dict", i), adt::MakeBTreeDictionarySpec());
  }
  base.CreateObject("dict-total", adt::MakeCounterSpec(0));
}

namespace {
struct DictionaryHandles {
  std::vector<rt::MethodRef> get;
  std::vector<rt::MethodRef> put;
  std::vector<rt::MethodRef> del;
  std::vector<rt::MethodRef> count;
  rt::MethodRef total_add;
  rt::MethodRef total_get;
};
}  // namespace

FsmWorkload MakeDictionaryWorkload(const DictionaryParams& p) {
  FsmWorkload w;
  w.name = "dictionary-mix";
  const DictionaryParams params = p;
  auto zipf = std::make_shared<ZipfGenerator>(p.keyspace, p.theta);
  double total =
      params.get_weight + params.put_weight + params.del_weight;
  auto handles = std::make_shared<DictionaryHandles>();

  w.setup = [params, handles](rt::Executor& exec) {
    handles->get.clear();
    handles->put.clear();
    handles->del.clear();
    handles->count.clear();
    for (int i = 0; i < params.dicts; ++i) {
      rt::ObjectHandle dict = exec.FindObject(ObjName("dict", i));
      handles->get.push_back(exec.Resolve(dict, "get"));
      handles->put.push_back(exec.Resolve(dict, "put"));
      handles->del.push_back(exec.Resolve(dict, "del"));
      handles->count.push_back(exec.Resolve(dict, "count"));
    }
    rt::ObjectHandle dict_total = exec.FindObject("dict-total");
    handles->total_add = exec.Resolve(dict_total, "add");
    handles->total_get = exec.Resolve(dict_total, "get");
  };

  FsmState mixed;
  mixed.name = "dict-ops";
  mixed.make = [params, zipf, total, handles](Rng& rng) -> rt::MethodFn {
    struct Op {
      int dict;
      int kind;  // 0 get, 1 put, 2 del
      int64_t key;
      int64_t val;
    };
    std::vector<Op> ops;
    for (int i = 0; i < params.ops_per_txn; ++i) {
      double x = rng.NextDouble() * total;
      int kind = x < params.get_weight
                     ? 0
                     : (x < params.get_weight + params.put_weight ? 1 : 2);
      ops.push_back(Op{static_cast<int>(rng.Uniform(params.dicts)), kind,
                       static_cast<int64_t>(zipf->Next(rng)),
                       rng.Range(1, 1'000'000)});
    }
    return [params, handles, ops](rt::MethodCtx& txn) -> Value {
      int64_t delta = 0;
      for (const Op& op : ops) {
        SpinWork(params.spin_per_op);
        if (op.kind == 0) {
          txn.Invoke(handles->get[op.dict], {op.key});
        } else if (op.kind == 1) {
          Value old = txn.Invoke(handles->put[op.dict], {op.key, op.val});
          if (old.is_none()) ++delta;
        } else {
          Value was = txn.Invoke(handles->del[op.dict], {op.key});
          if (was.AsBool()) --delta;
        }
      }
      if (delta != 0) txn.Invoke(handles->total_add, {delta});
      return Value();
    };
  };
  w.states = {std::move(mixed)};
  SetFlatRows(w, {1.0});

  // "dict-total" tracks the number of entries across the dictionaries.
  w.teardown = [handles](FsmCheckCtx& ctx) {
    int64_t counted = 0;
    int64_t entries = 0;
    rt::TxnResult r = ctx.exec().RunTransaction(
        "dictionary-mix/total", [&](rt::MethodCtx& txn) -> Value {
          counted = txn.Invoke(handles->total_get).AsInt();
          entries = 0;
          for (const rt::MethodRef& m : handles->count) {
            entries += txn.Invoke(m).AsInt();
          }
          return Value();
        });
    if (!r.committed) {
      ctx.Fail("total audit did not commit");
    } else if (counted != entries) {
      ctx.Fail("dict-total reads " + std::to_string(counted) + " but the " +
               "dictionaries hold " + std::to_string(entries) + " entries");
    }
  };
  return w;
}

}  // namespace objectbase::workload
