#include "perfbench/src/breakdown.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char* LayerName(int layer) {
  switch (layer) {
    case kLayerExecutor: return "executor";
    case kLayerBody: return "body";
    case kLayerCcStep: return "cc_step";
    case kLayerCcCommit: return "cc_commit";
    case kLayerBranchPool: return "branch_pool";
  }
  return "?";
}

namespace {

int64_t Dur(const Span& s) { return s.end_ns - s.start_ns; }

bool IsStep(SpanKind k) {
  return k == SpanKind::kStepRead || k == SpanKind::kStepWrite;
}

/// One transaction's spans, with children indexed by parent.
class TxnTree {
 public:
  TxnTree(const Span* spans, size_t n, Breakdown& out)
      : spans_(spans), n_(n), out_(out), children_(n) {}

  void Run() {
    // Spans arrive sorted by (txn, start); index them by id.
    std::vector<std::pair<uint32_t, uint32_t>> by_id(n_);
    for (size_t i = 0; i < n_; ++i) by_id[i] = {spans_[i].id, uint32_t(i)};
    std::sort(by_id.begin(), by_id.end());
    int root = -1;
    for (size_t i = 0; i < n_; ++i) {
      const Span& s = spans_[i];
      if (s.kind == SpanKind::kTxn) {
        root = static_cast<int>(i);
        continue;
      }
      auto it = std::lower_bound(
          by_id.begin(), by_id.end(), std::make_pair(s.parent, uint32_t{0}));
      if (it == by_id.end() || it->first != s.parent) {
        Violation("span %s has no parent", SpanKindName(s.kind));
        return;
      }
      children_[it->second].push_back(static_cast<uint32_t>(i));
    }
    if (root < 0) {
      ++out_.incomplete;
      return;
    }
    const Span& txn = spans_[root];
    const bool committed = (txn.flags & kTxnCommitted) != 0;
    ++out_.txns;
    out_.committed += committed ? 1 : 0;
    out_.wall_ns += Dur(txn);

    // The top-level parts must tile [txn.start, txn.end] in order.
    const std::vector<uint32_t>& parts = children_[root];
    int64_t cursor = txn.start_ns;
    int64_t parts_sum = 0;
    size_t attempts = 0;
    for (uint32_t c : parts) attempts += spans_[c].kind == SpanKind::kAttempt;
    size_t attempt_no = 0;
    for (uint32_t c : parts) {
      const Span& p = spans_[c];
      if (p.start_ns != cursor) Violation("top-level parts do not tile");
      cursor = p.end_ns;
      parts_sum += Dur(p);
      switch (p.kind) {
        case SpanKind::kBegin: out_.begin.push_back(Dur(p)); break;
        case SpanKind::kRetryGap: out_.retry_gap.push_back(Dur(p)); break;
        case SpanKind::kCommitTail:
          out_.commit_tail.push_back(Dur(p));
          ((txn.flags & kTxnCrossShard) != 0 ? out_.commit_tail_cross
                                             : out_.commit_tail_local)
              .push_back(Dur(p));
          break;
        case SpanKind::kAttempt:
          ++attempt_no;
          ++out_.attempts;
          out_.attempt_ns += Dur(p);
          if (!committed || attempt_no < attempts) {
            out_.wasted_attempt_ns += Dur(p);
          }
          break;
        default:
          Violation("unexpected %s under txn", SpanKindName(p.kind));
      }
    }
    if (cursor != txn.end_ns) Violation("top-level parts end early");
    const int64_t wall = Dur(txn);
    int64_t layers[kNumLayers] = {};
    Roll(static_cast<uint32_t>(root), layers, /*critical=*/true);
    int64_t layer_sum = 0;
    for (int l = 0; l < kNumLayers; ++l) layer_sum += layers[l];
    if (wall > 0) {
      const double err =
          std::max(std::abs(parts_sum - wall), std::abs(layer_sum - wall)) /
          static_cast<double>(wall);
      out_.max_sum_err_frac = std::max(out_.max_sum_err_frac, err);
      if (err > 0.01) Violation("parts differ from wall latency by >1%%");
    }
    for (int l = 0; l < kNumLayers; ++l) out_.layer_ns[l] += layers[l];
  }

 private:
  /// Adds span `i`'s self time to its layer and recurses.  Off the critical
  /// path (a batch's non-slowest branches) only the per-kind figures are
  /// collected, not the layer totals.
  void Roll(uint32_t i, int64_t* layers, bool critical) {
    const Span& s = spans_[i];
    const std::vector<uint32_t>& kids = children_[i];
    for (uint32_t c : kids) {
      const Span& k = spans_[c];
      if (k.start_ns < s.start_ns || k.end_ns > s.end_ns) {
        Violation("%s outside its parent %s", SpanKindName(k.kind),
                  SpanKindName(s.kind));
      }
    }
    if (s.kind == SpanKind::kBatch) {
      uint32_t slowest = 0;
      int64_t slowest_ns = -1;
      for (uint32_t c : kids) {
        if (Dur(spans_[c]) > slowest_ns) {
          slowest_ns = Dur(spans_[c]);
          slowest = c;
        }
      }
      const int64_t join = Dur(s) - std::max<int64_t>(slowest_ns, 0);
      out_.batch.push_back(Dur(s));
      out_.join_wait.push_back(join);
      if (critical) layers[kLayerBranchPool] += join;
      for (uint32_t c : kids) Roll(c, layers, critical && c == slowest);
      return;
    }
    // Sequential children: they must not overlap.
    int64_t covered = 0;
    int64_t prev_end = s.start_ns;
    for (uint32_t c : kids) {
      const Span& k = spans_[c];
      if (s.kind != SpanKind::kTxn && k.start_ns < prev_end) {
        Violation("children of %s overlap", SpanKindName(s.kind));
      }
      prev_end = k.end_ns;
      covered += Dur(k);
    }
    const int64_t self = Dur(s) - covered;
    if (self < 0) Violation("negative self time in %s", SpanKindName(s.kind));
    int layer = kLayerExecutor;
    switch (s.kind) {
      case SpanKind::kTxn:
      case SpanKind::kBegin:
      case SpanKind::kRetryGap:
        layer = kLayerExecutor;
        break;
      case SpanKind::kInvoke:
        layer = kLayerExecutor;
        out_.invoke_overhead.push_back(self);
        break;
      case SpanKind::kAttempt:
      case SpanKind::kMethod:
        layer = kLayerBody;
        out_.body_self_ns += self;
        break;
      case SpanKind::kStepRead:
      case SpanKind::kStepWrite:
        layer = kLayerCcStep;
        out_.step.push_back(Dur(s));
        (s.kind == SpanKind::kStepRead ? out_.step_read : out_.step_write)
            .push_back(Dur(s));
        out_.step_ns += Dur(s);
        ++out_.steps;
        break;
      case SpanKind::kCommitTail:
        layer = kLayerCcCommit;
        break;
      case SpanKind::kBatch:
        break;
    }
    if (IsStep(s.kind) && !kids.empty()) Violation("a step has children");
    if (critical) layers[layer] += self;
    for (uint32_t c : kids) Roll(c, layers, critical);
  }

  template <typename... A>
  void Violation(const char* fmt, A... a) {
    if (out_.violations++ == 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), fmt, a...);
      out_.first_violation = buf;
    }
  }

  const Span* spans_;
  size_t n_;
  Breakdown& out_;
  std::vector<std::vector<uint32_t>> children_;
};

}  // namespace

Breakdown Analyse(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.txn != b.txn) return a.txn < b.txn;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    // A zero-length child sorts after the parent that starts with it.
    return a.end_ns > b.end_ns;
  });
  Breakdown out;
  size_t i = 0;
  while (i < spans.size()) {
    size_t j = i;
    while (j < spans.size() && spans[j].txn == spans[i].txn) ++j;
    TxnTree(&spans[i], j - i, out).Run();
    i = j;
  }
  return out;
}

}  // namespace perfbench
