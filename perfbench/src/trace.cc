#include "perfbench/src/trace.h"

namespace perfbench {

namespace {
constexpr uint32_t kLocalIdBits = 24;
constexpr uint32_t kLocalIdLimit = 1u << kLocalIdBits;
}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kBegin: return "begin";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kRetryGap: return "retry_gap";
    case SpanKind::kCommitTail: return "commit_tail";
    case SpanKind::kInvoke: return "invoke";
    case SpanKind::kMethod: return "method";
    case SpanKind::kStepRead: return "step_read";
    case SpanKind::kStepWrite: return "step_write";
    case SpanKind::kBatch: return "batch";
  }
  return "?";
}

SpanBuffer* Tracer::ThreadBuffer() {
  ThreadTrace& t = tls_trace;
  Tracer* tracer = active();
  if (tracer == nullptr) return nullptr;
  if (t.owner != tracer) {
    std::lock_guard<std::mutex> lock(tracer->mu_);
    auto buf = std::make_unique<SpanBuffer>();
    buf->index = static_cast<uint32_t>(tracer->buffers_.size()) + 1;
    buf->spans.reserve(1024);
    t.buf = buf.get();
    t.owner = tracer;
    tracer->buffers_.push_back(std::move(buf));
  }
  return t.buf;
}

uint32_t Tracer::NewId() {
  SpanBuffer* b = ThreadBuffer();
  if (b == nullptr || b->index > 0xff || b->next >= kLocalIdLimit) return 0;
  return (b->index << kLocalIdBits) | b->next++;
}

void Tracer::Record(const Span& s) {
  SpanBuffer* b = ThreadBuffer();
  if (b == nullptr) return;
  Tracer* tracer = tls_trace.owner;
  if (b->spans.size() >= tracer->max_spans_) {
    tracer->dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->spans.push_back(s);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  std::vector<Span> all;
  all.reserve(n);
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

Scope::Scope(SpanKind kind) : kind_(kind) {
  ThreadTrace& t = tls_trace;
  if (t.txn == 0) return;
  id_ = Tracer::NewId();
  if (id_ == 0) return;
  saved_parent_ = t.parent;
  t.parent = id_;
  start_ = NowNs();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const int64_t end = NowNs();
  ThreadTrace& t = tls_trace;
  t.parent = saved_parent_;
  Tracer::Record(Span{t.txn, id_, saved_parent_, kind_, 0, start_, end});
}

AttemptScope::AttemptScope() {
  ThreadTrace& t = tls_trace;
  if (t.txn == 0) return;
  start_ = NowNs();
  const bool first = t.last_exit == 0;
  const uint32_t gap = Tracer::NewId();
  if (gap != 0) {
    Tracer::Record(Span{t.txn, gap, t.txn_span,
                        first ? SpanKind::kBegin : SpanKind::kRetryGap, 0,
                        first ? t.txn_start : t.last_exit, start_});
  }
  id_ = Tracer::NewId();
  t.parent = id_;
}

AttemptScope::~AttemptScope() {
  ThreadTrace& t = tls_trace;
  if (t.txn == 0) return;
  const int64_t end = NowNs();
  t.last_exit = end;
  t.parent = t.txn_span;
  if (id_ != 0) {
    Tracer::Record(
        Span{t.txn, id_, t.txn_span, SpanKind::kAttempt, 0, start_, end});
  }
}

MethodScope::MethodScope(const objectbase::Args& args) {
  ThreadTrace& t = tls_trace;
  saved_txn_ = t.txn;
  saved_parent_ = t.parent;
  const size_t n = args.size();
  t.txn = static_cast<uint32_t>(args[n - 2].AsInt());
  t.parent = parent_ = static_cast<uint32_t>(args[n - 1].AsInt());
  if (t.txn == 0) return;
  id_ = Tracer::NewId();
  if (id_ == 0) return;
  t.parent = id_;
  start_ = NowNs();
}

MethodScope::~MethodScope() {
  ThreadTrace& t = tls_trace;
  if (id_ != 0) {
    const int64_t end = NowNs();
    Tracer::Record(
        Span{t.txn, id_, parent_, SpanKind::kMethod, 0, start_, end});
  }
  t.txn = saved_txn_;
  t.parent = saved_parent_;
}

TxnTrace::TxnTrace(uint32_t txn, int64_t start_ns) {
  if (txn == 0) return;
  ThreadTrace& t = tls_trace;
  const uint32_t span = Tracer::NewId();
  if (span == 0) return;
  active_ = true;
  t.txn = txn;
  t.txn_span = span;
  t.parent = span;
  t.txn_start = start_ns;
  t.last_exit = 0;
}

void TxnTrace::Finish(int64_t end_ns, uint8_t flags) {
  if (!active_) return;
  ThreadTrace& t = tls_trace;
  const uint32_t tail = Tracer::NewId();
  if (tail != 0 && t.last_exit != 0) {
    const SpanKind kind = (flags & kTxnCommitted) != 0 ? SpanKind::kCommitTail
                                                        : SpanKind::kRetryGap;
    Tracer::Record(
        Span{t.txn, tail, t.txn_span, kind, 0, t.last_exit, end_ns});
  }
  Tracer::Record(
      Span{t.txn, t.txn_span, 0, SpanKind::kTxn, flags, t.txn_start, end_ns});
  t = ThreadTrace{t.owner, t.buf};
}

}  // namespace perfbench
