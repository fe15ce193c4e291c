// Closed-loop phases: N client threads, zero think time, started together
// from a latch.  A phase runs a warm-up, then a measured interval split into
// equal windows; end-to-end figures are medians over the windows.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"

namespace perfbench {

struct PhaseOptions {
  double warmup_s = 1;
  double seconds = 10;
  int windows = 10;
  /// Trace every n-th transaction of the measured interval; 0 = off.
  uint32_t trace_stride = 0;
};

struct Window {
  double seconds = 0;
  uint64_t attempted = 0;  ///< Transactions that ended in the window.
  uint64_t ok = 0;         ///< Of which committed with correct outputs.
  double p50_us = 0;
  double p99_us = 0;
  double cpu_s = 0;  ///< User + system CPU of the process.
};

/// Process CPU use (getrusage) and the machine's CPU steal (/proc/stat).
struct Usage {
  double user_s = 0, sys_s = 0;
  int64_t vol_ctxsw = 0, invol_ctxsw = 0;
  int64_t steal_ticks = 0, all_ticks = 0;  ///< Every CPU, since boot.

  static Usage Now();
  Usage Minus(const Usage& o) const;
};

/// Median and quartiles (Python's statistics.quantiles(n=4), exclusive).
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> v);

// The per-window end-to-end figures.
inline double TxnPerS(const Window& w) { return w.ok / w.seconds; }
inline double P50Us(const Window& w) { return w.p50_us; }
inline double P99Us(const Window& w) { return w.p99_us; }
inline double CpuUsPerTxn(const Window& w) {
  return w.ok == 0 ? 0 : w.cpu_s * 1e6 / w.ok;
}

struct PhaseResult {
  std::vector<Window> windows;
  uint64_t attempted = 0;  ///< Over the measured interval.
  uint64_t failed = 0;     ///< Not committed, or a wrong output.
  Counters counters;       ///< Library counters, measured-interval deltas.
  Usage usage;             ///< getrusage deltas, measured interval.

  /// Quartiles of a per-window figure over the windows.
  Quartiles Over(double (*figure)(const Window&)) const;
};

/// Runs one phase on `clients` (one thread each).
PhaseResult RunPhase(Workload& wl,
                     std::vector<std::unique_ptr<Client>>& clients,
                     const PhaseOptions& opt);

/// Runs `txns` transactions on every client concurrently (the recorded
/// pass; untimed).
void RunFixed(Workload& wl, std::vector<std::unique_ptr<Client>>& clients,
              int txns);

/// Nearest-rank percentile of `v` (reordered in place); 0 when empty.
double Percentile(std::vector<int64_t>& v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
