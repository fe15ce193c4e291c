// Allocation pin for the CERT step path: a global operator new that counts
// every call, around steady-state transactions shaped like the
// `catalogue_cert` benchmark's reads (8 B-tree `get`s on one dictionary,
// each an implicit child method, single-threaded so the count is exact).
//
// Every allocation on the step path is also a free somewhere — often on
// another thread, at journal reclaim — so the count is a cost in its own
// right.  The bound below may only ratchet DOWN: a change that lowers the
// count lowers the bound with it; a change that needs more allocations per
// transaction has to argue for it here.
//
// Not part of the sanitizer jobs: ASan and TSan interpose the allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/adt/btree_dictionary_adt.h"
#include "src/runtime/executor.h"

namespace {

std::atomic<uint64_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace objectbase::rt {
namespace {

// Allocations per committed 8-`get` CERT transaction, folds and chunk
// growth amortised in (measured 73.25 in a Release build).  Ratchet only
// downwards (see the file comment).
constexpr double kMaxAllocsPerTxn = 74.0;

TEST(StepAllocTest, CertEightGetTransactionAllocationBound) {
  constexpr int64_t kKeys = 1024;
  constexpr int kReads = 8;
  ObjectBase base;
  base.CreateObject("d", adt::MakeBTreeDictionarySpec());
  Executor exec(base, {.protocol = Protocol::kCert,
                       .granularity = cc::Granularity::kStep,
                       .record = false});
  MethodRef put = exec.Resolve("d", "put");
  MethodRef get = exec.Resolve("d", "get");
  ASSERT_TRUE(put.valid() && get.valid());
  for (int64_t k = 0; k < kKeys; k += 64) {
    ASSERT_TRUE(exec.RunTransaction("fill", [&](MethodCtx& txn) {
      for (int64_t i = k; i < k + 64; ++i) txn.Invoke(put, {i, i});
      return Value();
    }).committed);
  }
  int64_t next_key = 0;
  auto run = [&](int txns) {
    for (int t = 0; t < txns; ++t) {
      TxnResult r = exec.RunTransaction("read", [&](MethodCtx& txn) {
        for (int i = 0; i < kReads; ++i) {
          next_key = (next_key + 389) % kKeys;
          txn.Invoke(get, {next_key});
        }
        return Value();
      });
      ASSERT_TRUE(r.committed);
    }
  };
  // Warm up past several folds and chunk turnovers, so leases, caches and
  // the journal's cadence are all in their steady state.
  run(2000);
  constexpr int kMeasured = 4000;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  run(kMeasured);
  const uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  const double per_txn = static_cast<double>(news) / kMeasured;
  EXPECT_LE(per_txn, kMaxAllocsPerTxn)
      << news << " allocations over " << kMeasured << " transactions";
  std::printf("allocations per 8-get CERT transaction: %.2f (bound %.0f)\n",
              per_txn, kMaxAllocsPerTxn);
}

}  // namespace
}  // namespace objectbase::rt
