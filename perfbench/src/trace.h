// Span recording for the traced run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into the library's public API: the transaction (RunTransaction),
// each attempt (the transaction body), the gaps between them, each Invoke of
// a defined method and that method's body, each call that issues one ADT
// operation (a "step"), each InvokeParallel batch, and the commit tail.
//
// Every span carries the id of its transaction, its own id and its parent's
// id.  Spans go to a per-thread buffer (no lock on the record path) and are
// collected once the traced phase has ended.  A thread takes part in a
// transaction's trace only while its thread context names that transaction:
// the client thread sets it around RunTransaction, and a defined method's
// body sets it from the two trailing arguments every traced call carries
// (transaction id, parent span id), which is how spans of InvokeParallel
// branches running on BranchPool workers join their transaction.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/value.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kTxn,         ///< RunTransaction call to return (the client's latency).
  kBegin,       ///< RunTransaction entry to the first body entry.
  kAttempt,     ///< One run of the transaction body.
  kRetryGap,    ///< Aborted attempt exit to the next body entry.
  kCommitTail,  ///< Last body exit to RunTransaction return.
  kInvoke,      ///< MethodCtx::Invoke of a defined method.
  kMethod,      ///< A defined method's body.
  kStepRead,    ///< One read-only ADT operation (Invoke or Local).
  kStepWrite,   ///< One mutating ADT operation (Invoke or Local).
  kBatch,       ///< MethodCtx::InvokeParallel.
};

const char* SpanKindName(SpanKind k);

/// Flags on a kTxn span.
inline constexpr uint8_t kTxnCommitted = 1;
inline constexpr uint8_t kTxnCrossShard = 2;

struct Span {
  uint32_t txn = 0;     ///< Shared by every span of one transaction.
  uint32_t id = 0;      ///< Unique within one traced phase.
  uint32_t parent = 0;  ///< 0 for the kTxn span.
  SpanKind kind = SpanKind::kTxn;
  uint8_t flags = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer;

struct SpanBuffer {
  uint32_t index = 0;  ///< High byte of every id this buffer issues.
  uint32_t next = 1;   ///< Low 24 bits of the next id.
  std::vector<Span> spans;
};

/// Per-thread tracing state.  `txn == 0` means this thread is outside any
/// traced transaction and every scope below is a no-op (no clock read).
struct ThreadTrace {
  Tracer* owner = nullptr;  ///< Tracer `buf` belongs to.
  SpanBuffer* buf = nullptr;
  uint32_t txn = 0;
  uint32_t parent = 0;
  // Client-thread only: boundaries of the transaction in flight.
  uint32_t txn_span = 0;
  int64_t txn_start = 0;
  int64_t last_exit = 0;  ///< 0 until the first attempt has exited.
};

inline thread_local ThreadTrace tls_trace;

/// Owns the per-thread span buffers of one traced phase.  Activate() before
/// the phase starts, Deactivate() after every thread using it has stopped,
/// then Collect().
class Tracer {
 public:
  explicit Tracer(size_t max_spans_per_thread)
      : max_spans_(max_spans_per_thread) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer* active() { return active_.load(std::memory_order_acquire); }
  void Activate() { active_.store(this, std::memory_order_release); }
  void Deactivate() { active_.store(nullptr, std::memory_order_release); }

  /// Allocates a span id on this thread, or 0 when the buffer is full.
  static uint32_t NewId();
  /// Appends a finished span to this thread's buffer.
  static void Record(const Span& s);

  /// Every recorded span, in no particular order.
  std::vector<Span> Collect() const;
  /// Spans not recorded because a buffer was full.
  uint64_t dropped() const { return dropped_.load(); }

 private:
  static SpanBuffer* ThreadBuffer();

  static std::atomic<Tracer*> active_;
  const size_t max_spans_;
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // buffer registration and Collect only
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// A span around one call: opened on construction, recorded on destruction
/// (also when an abort unwinds through it).  Children opened meanwhile on
/// this thread take it as parent.
class Scope {
 public:
  explicit Scope(SpanKind kind);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id, or 0 when the thread is not tracing.
  uint32_t id() const { return id_; }

 private:
  SpanKind kind_;
  uint32_t id_ = 0;
  uint32_t saved_parent_ = 0;
  int64_t start_ = 0;
};

/// Opened first thing in a transaction body.  Records the begin span (first
/// attempt) or the retry gap (later attempts) up to now, then the attempt.
class AttemptScope {
 public:
  AttemptScope();
  ~AttemptScope();
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

 private:
  uint32_t id_ = 0;
  int64_t start_ = 0;
};

/// Opened first thing in a defined method's body.  Joins the transaction
/// named by the call's two trailing arguments (see AppendTraceArgs),
/// records the body as a kMethod span, and restores the thread's context
/// afterwards.
class MethodScope {
 public:
  explicit MethodScope(const objectbase::Args& args);
  ~MethodScope();
  MethodScope(const MethodScope&) = delete;
  MethodScope& operator=(const MethodScope&) = delete;

 private:
  uint32_t saved_txn_ = 0;
  uint32_t saved_parent_ = 0;
  uint32_t parent_ = 0;
  uint32_t id_ = 0;
  int64_t start_ = 0;
};

/// The two trailing arguments of a call to a defined method: the current
/// transaction id and `parent` (the Invoke or batch span the call runs
/// under).  Both are 0 outside a traced transaction.
inline void AppendTraceArgs(objectbase::Args& args, uint32_t parent) {
  args.emplace_back(static_cast<int64_t>(tls_trace.txn));
  args.emplace_back(static_cast<int64_t>(parent));
}

/// Client side of one traced transaction: sets the thread context before
/// RunTransaction and records the tail and transaction spans after it.
/// With `txn == 0` it does nothing.
class TxnTrace {
 public:
  TxnTrace(uint32_t txn, int64_t start_ns);
  /// Records the commit tail (or, for a transaction that never committed,
  /// its final abort handling) and the transaction span, then clears the
  /// thread context.
  void Finish(int64_t end_ns, uint8_t flags);

 private:
  bool active_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
