// The benchmark's workload interface and the closed-loop client.
//
// A workload owns an object base and an executor, and drives them only
// through the library's public API (ObjectBase/ShardedBase, Executor,
// MethodCtx, the WalWriter accessors and the WAL scan/recovery functions).
// Inputs come from the client's seeded generator; the library sees only
// the generated arguments.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/runtime/executor.h"

namespace perfbench {

namespace rt = objectbase::rt;
using objectbase::Args;
using objectbase::Value;

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t r = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, n).
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>(((Next() >> 32) * n) >> 32);
  }
  /// Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Zipf-distributed ranks in [0, n) (Gray et al.'s generator, as in YCSB).
class Zipf {
 public:
  Zipf(uint32_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint32_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_ = 1.0 + std::pow(0.5, theta);
  }
  uint32_t Sample(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_) return 1;
    const auto r = static_cast<uint32_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint32_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_ = 0;
};

/// Busy-waits `us` microseconds: the simulated length of a method body.
inline void Spin(int64_t us) {
  const int64_t until = NowNs() + us * 1000;
  while (NowNs() < until) {
  }
}

/// Correctness gate: failed checks, each with a message.
struct Gate {
  std::vector<std::string> failures;

  void Expect(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4))) {
    if (ok) return;
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    failures.emplace_back(buf);
  }
};

/// Outcomes and a latency sample of the transactions that ended in one
/// window of the measured interval, for one client.  The sample buffer is
/// allocated and touched up front, so the benchmark's own memory does not
/// grow with throughput.
struct WindowAcc {
  static constexpr size_t kMaxSamples = 16384;

  uint64_t attempted = 0;
  uint64_t ok = 0;  ///< Committed, with every output as expected.
  size_t samples = 0;
  std::vector<uint32_t> latency_ns = std::vector<uint32_t>(kMaxSamples);
};

/// One closed-loop client thread's state.  Only its own thread touches it
/// while a phase runs.
struct alignas(64) Client {
  Client(uint32_t index, uint64_t seed) : index(index), rng(seed) {}

  /// Runs one top-level transaction through RunTransaction, timing it and,
  /// when this transaction is sampled for tracing, recording its spans.
  /// `cross_shard` only labels the trace.
  rt::TxnResult Run(rt::Executor& exec, const std::string& name,
                    const std::function<Value(rt::MethodCtx&)>& body,
                    bool cross_shard = false);

  /// Books the outcome of the transaction Run just timed into the current
  /// window (nothing outside the measured interval).
  void Finish(bool ok);

  uint32_t index;
  Rng rng;  ///< Workload inputs only.
  /// Index of the measured window now running, -1 outside the interval.
  const std::atomic<int>* window = nullptr;
  std::vector<WindowAcc> windows;
  uint32_t trace_stride = 0;    ///< Trace every n-th transaction; 0 = off.
  uint64_t seq = 0;             ///< Transactions started by this client.
  uint32_t traced = 0;          ///< Transactions traced so far.
  uint64_t bad_outputs = 0;     ///< Wrong values seen by bodies.
  int64_t last_latency_ns = 0;
  Rng sampler{index};           ///< Reservoir sampling of latencies.
};

/// Counters read from the library's public accessors at phase boundaries.
struct Counters {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t aborts_by_reason[objectbase::cc::kNumAbortReasons] = {};
  uint64_t wal_syncs = 0, wal_staged = 0;
  uint64_t cross_commits = 0, cycle_aborts = 0, poll_timeouts = 0;

  static Counters Read(rt::Executor& exec);
  Counters Minus(const Counters& o) const;
};

/// After-run WAL figures (transfer_durable_sharded only).
struct RecoveryStats {
  bool ran = false;
  uint64_t log_bytes = 0;
  double scan_s = 0;
  double recover_s = 0;
};

struct WorkloadConfig {
  uint32_t clients = 4;
  /// The short recorded pass: a small instance with history recording on,
  /// checked against the paper's oracles.
  bool recorded = false;
  std::string log_dir;  ///< Where durable workloads put their logs.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the object base, prefills it, constructs the executor and
  /// resolves handles (everything setup_s times).
  virtual void Setup() = 0;
  /// Runs one closed-loop transaction for `c` (Client::Run + Finish).
  virtual void RunOne(Client& c) = 0;
  /// Checks the live state against the clients' bookkeeping.
  virtual void Check(Gate& gate) = 0;
  /// Durable workloads: replays the logs into a fresh base and compares.
  /// Ends the executor's life.
  virtual void Recover(Gate& /*gate*/, RecoveryStats* /*out*/) {}
  virtual rt::Executor& exec() = 0;
  /// Workload-specific facts for the run stamp.
  virtual std::string Describe() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& cfg);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
