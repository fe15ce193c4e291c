// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--log-dir <dir>] [--spans-out <file>]
//             [--git-sha <sha>] [--src-digest <hex>]
//
// One run: set the workload up several times (setup_s is the median), run
// a closed-loop phase with tracing off, and with --trace 1 a second, traced
// phase.  Then the correctness gate: the workload's bookkeeping checks, WAL
// recovery for the durable workload, and a short recorded pass on a small
// instance checked by the paper's oracles (legality, Theorem 2's
// serialisability oracle, Theorem 5).  Prints a stamp line, a summary line
// and, last, one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1.  Exits 1 when a check failed, 2 on bad usage.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/breakdown.h"
#include "perfbench/src/runner.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/model/legality.h"
#include "src/model/local_graphs.h"
#include "src/model/serialiser.h"

namespace perfbench {
namespace {

/// Closed-loop client threads: the 4 cores of the machine the benchmark
/// was defined on.
constexpr uint32_t kClients = 4;
/// Setup repeats at least kMinSetupRuns times, and while it has taken less
/// than kSetupBudgetS, up to kMaxSetupRuns: a cheap setup gets enough
/// repetitions for a steady median.
constexpr int kMinSetupRuns = 5;
constexpr int kMaxSetupRuns = 200;
constexpr double kSetupBudgetS = 1.0;
constexpr int kRecordedTxnsPerClient = 40;
/// Traced transactions to aim for; the trace stride is chosen from the
/// untraced phase's throughput to land near it.
constexpr double kTracedTxnTarget = 40000;
constexpr size_t kMaxSpansPerThread = 4u << 20;
constexpr size_t kSpansOutTxns = 500;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string log_dir = ".bench_build/perfbench-logs";
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--log-dir d] [--spans-out f] [--git-sha s] "
               "[--src-digest s]\nworkloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (k == "--log-dir") {
      a.log_dir = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--src-digest") {
      a.src_digest = v;
    } else {
      Usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("--seconds out of range");
  return a;
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     prefix.c_str(), std::strerror(errno));
        std::exit(2);
      }
    }
  }
}

const char* FsName(const std::string& dir) {
  struct statfs fs{};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
  }
  return "other";
}

std::vector<std::unique_ptr<Client>> MakeClients(const Options& a,
                                                 uint64_t salt) {
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, a.seed * 0x100000001b3ull + salt * 1000 + i));
  }
  return clients;
}

/// JSON object builder for the result lines.
class Json {
 public:
  void Num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    out_ += (out_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
  }
  void Metric(const std::string& key, double v, const char* unit) {
    Json m;
    m.Num("value", v);
    m.Str("unit", unit);
    Raw(key, m.str());
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The end-to-end metrics that are medians over the measured windows.
/// `bounded` ones go in the result line (BENCHMARK.json bounds them); all go
/// in the summary line.  txn_p99_us is not bounded: on a shared machine its
/// run-to-run spread is set by CPU steal and fsync tails, not the program.
struct Windowed {
  const char* name;
  const char* unit;
  double (*figure)(const Window&);
  bool bounded;
};
constexpr Windowed kWindowed[] = {
    {"txn_per_s", "1/s", TxnPerS, true},
    {"txn_p50_us", "us", P50Us, true},
    {"txn_p99_us", "us", P99Us, false},
    {"cpu_us_per_txn", "us", CpuUsPerTxn, true},
};

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  size_t txns = 0;
  uint32_t last = 0;
  for (const Span& s : spans) {
    if (s.txn != last) {
      if (++txns > kSpansOutTxns) break;
      last = s.txn;
    }
    std::fprintf(f,
                 "{\"txn\":%u,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"flags\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.txn, s.id, s.parent, SpanKindName(s.kind), s.flags,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

/// The recorded pass: a small instance with history recording on, run
/// concurrently, then its own bookkeeping checks and the paper's oracles.
void RecordedPass(const Options& a, Gate& gate) {
  WorkloadConfig cfg;
  cfg.clients = kClients;
  cfg.recorded = true;
  cfg.log_dir = a.log_dir;
  std::unique_ptr<Workload> wl = MakeWorkload(a.workload, cfg);
  wl->Setup();
  auto clients = MakeClients(a, /*salt=*/7);
  RunFixed(*wl, clients, kRecordedTxnsPerClient);
  Gate local;
  wl->Check(local);
  const objectbase::model::History h = wl->exec().recorder().Snapshot();
  const auto legal = objectbase::model::CheckLegal(h, /*committed_only=*/true);
  local.Expect(legal.legal, "recorded history not legal: %s",
               legal.error.c_str());
  const auto ser = objectbase::model::CheckSerialisable(h);
  local.Expect(ser.serialisable, "recorded history not serialisable: %s",
               ser.detail.c_str());
  const auto t5 = objectbase::model::CheckTheorem5(h);
  local.Expect(t5.holds, "Theorem 5 conditions fail: %s", t5.detail.c_str());
  RecoveryStats ignored;
  wl->Recover(local, &ignored);
  for (const std::string& f : local.failures) {
    gate.failures.push_back("recorded pass: " + f);
  }
}

int Main(int argc, char** argv) {
  const Options a = Parse(argc, argv);
  bool known = false;
  for (const std::string& n : WorkloadNames()) known |= n == a.workload;
  if (!known) Usage(("unknown workload " + a.workload).c_str());
  MakeDirs(a.log_dir);

  WorkloadConfig cfg;
  cfg.clients = kClients;
  cfg.log_dir = a.log_dir;

  // --- setup, several times; the last instance is the one measured -------
  std::vector<double> setups;
  std::unique_ptr<Workload> wl;
  double setup_total = 0;
  while (setups.size() < kMinSetupRuns ||
         (setup_total < kSetupBudgetS && setups.size() < kMaxSetupRuns)) {
    wl.reset();
    const int64_t t0 = NowNs();
    wl = MakeWorkload(a.workload, cfg);
    wl->Setup();
    setups.push_back((NowNs() - t0) * 1e-9);
    setup_total += setups.back();
  }
  const Quartiles setup_q = QuartilesOf(setups);

  // --- measured phases -----------------------------------------------------
  // A traced run splits its time between an untraced reference phase and
  // the traced phase, so both kinds of run take equally long.
  auto clients = MakeClients(a, /*salt=*/0);
  PhaseOptions opt;
  opt.seconds = a.trace ? a.seconds / 2 : a.seconds;
  opt.warmup_s = std::min(1.0, opt.seconds / 5);
  opt.windows = std::max(5, static_cast<int>(std::lround(opt.seconds)));
  const PhaseResult plain = RunPhase(*wl, clients, opt);
  const PhaseResult* reported = &plain;

  PhaseResult traced;
  Breakdown bd;
  uint64_t dropped = 0;
  uint32_t stride = 0;
  if (a.trace) {
    const double expected = plain.Over(TxnPerS).median * opt.seconds;
    stride = static_cast<uint32_t>(
        std::max(1.0, std::ceil(expected / kTracedTxnTarget)));
    Tracer tracer(kMaxSpansPerThread);
    tracer.Activate();
    PhaseOptions topt = opt;
    topt.warmup_s = std::min(0.2, opt.warmup_s);
    topt.trace_stride = stride;
    traced = RunPhase(*wl, clients, topt);
    tracer.Deactivate();
    dropped = tracer.dropped();
    std::vector<Span> spans = tracer.Collect();
    bd = Analyse(spans);
    if (!a.spans_out.empty()) WriteSpans(a.spans_out, spans);
    reported = &traced;
  }

  // Peak memory of the serving process: setup and the measured phases
  // (recovery and the recorded pass come after).
  const double peak_rss_mb = PeakRssMb();

  // --- correctness gate ----------------------------------------------------
  Gate gate;
  uint64_t bad = 0;
  for (const auto& c : clients) bad += c->bad_outputs;
  gate.Expect(bad == 0, "%llu wrong values returned to transaction bodies",
              static_cast<unsigned long long>(bad));
  gate.Expect(plain.attempted >= 10000,
              "only %llu transactions in the measured interval",
              static_cast<unsigned long long>(plain.attempted));
  if (a.trace) {
    gate.Expect(bd.txns > 0, "no traced transactions");
    gate.Expect(bd.violations == 0 && bd.incomplete == 0 && dropped == 0,
                "breakdown test: %zu violations (%s), %zu incomplete, %llu "
                "spans dropped",
                bd.violations, bd.first_violation.c_str(), bd.incomplete,
                static_cast<unsigned long long>(dropped));
  }
  wl->Check(gate);
  const uint64_t lifetime_commits = Counters::Read(wl->exec()).committed;
  const std::string describe = wl->Describe();
  RecoveryStats rec;
  wl->Recover(gate, &rec);
  wl.reset();
  RecordedPass(a, gate);
  // A transaction that exhausted its retries fails the run too; it is
  // already counted in `failed`.
  const uint64_t txn_failures = plain.failed + (a.trace ? traced.failed : 0);
  const bool correct = gate.failures.empty() && txn_failures == 0;
  for (const std::string& f : gate.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  if (txn_failures != 0) {
    std::fprintf(stderr, "perfbench: %llu transactions failed\n",
                 static_cast<unsigned long long>(txn_failures));
  }

  // --- output ----------------------------------------------------------------
  const double recover_mb_per_s =
      rec.ran ? Ratio(rec.log_bytes / 1e6, rec.recover_s) : 0;
  const uint64_t attempted = reported->attempted;
  const uint64_t failed = reported->failed + gate.failures.size();

  Json stamp;
  stamp.Str("workload", a.workload);
  stamp.Num("seed", static_cast<double>(a.seed));
  stamp.Num("seconds", a.seconds);
  stamp.Num("trace", a.trace ? 1 : 0);
  stamp.Str("git_sha", a.git_sha);
  stamp.Str("src_digest", a.src_digest);
  stamp.Str("build_type", PERFBENCH_BUILD_TYPE);
  stamp.Str("compiler", PERFBENCH_COMPILER);
  stamp.Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  stamp.Num("clients", kClients);
  stamp.Str("loop", "closed, zero think time");
  stamp.Str("log_dir", a.log_dir);
  stamp.Str("log_fs", FsName(a.log_dir));
  stamp.Raw("config", "{" + describe + "}");
  std::printf("stamp: %s\n", stamp.str().c_str());

  Json summary;
  for (const Windowed& m : kWindowed) {
    const Quartiles q = plain.Over(m.figure);
    Json j;
    j.Num("median", q.median);
    j.Num("q1", q.q1);
    j.Num("q3", q.q3);
    j.Num("windows", static_cast<double>(plain.windows.size()));
    j.Str("unit", m.unit);
    summary.Raw(m.name, j.str());
  }
  summary.Metric("latency_samples", static_cast<double>(plain.attempted),
                 "count");
  summary.Metric("failed_frac", Ratio(failed, attempted), "ratio");
  {
    Json j;
    j.Num("median", setup_q.median);
    j.Num("q1", setup_q.q1);
    j.Num("q3", setup_q.q3);
    j.Num("runs", static_cast<double>(setups.size()));
    j.Str("unit", "s");
    summary.Raw("setup_s", j.str());
  }
  summary.Metric("peak_rss_mb", peak_rss_mb, "MB");
  summary.Metric("steal_frac",
                 Ratio(plain.usage.steal_ticks, plain.usage.all_ticks),
                 "ratio");
  if (rec.ran) summary.Metric("recover_mb_per_s", recover_mb_per_s, "MB/s");
  if (a.trace) {
    summary.Metric("trace_stride", stride, "count");
    summary.Metric("traced_txns", static_cast<double>(bd.txns), "count");
    summary.Metric("breakdown_max_err_frac", bd.max_sum_err_frac, "ratio");
  }
  std::printf("summary: %s\n", summary.str().c_str());

  Json metrics;
  if (!a.trace) {
    for (const Windowed& m : kWindowed) {
      if (!m.bounded) continue;
      metrics.Metric(m.name, plain.Over(m.figure).median, m.unit);
    }
    metrics.Metric("setup_s", setup_q.median, "s");
    metrics.Metric("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const Counters& k = traced.counters;
    const double commits = static_cast<double>(k.committed);
    const double txns = static_cast<double>(bd.txns);
    auto pct = [](std::vector<int64_t> v, double p) {
      return Percentile(v, p);
    };
    auto per_ktxn = [&](uint64_t n) { return Ratio(n * 1000.0, commits); };
    auto reason = [&](objectbase::cc::AbortReason r) {
      return per_ktxn(k.aborts_by_reason[static_cast<size_t>(r)]);
    };
    using objectbase::cc::AbortReason;
    metrics.Metric("executor.begin_us_p50", pct(bd.begin, 0.5) / 1e3, "us");
    metrics.Metric("executor.invoke_overhead_ns_p50",
                   pct(bd.invoke_overhead, 0.5), "ns");
    metrics.Metric("executor.attempts_per_txn", Ratio(bd.attempts, txns),
                   "count");
    metrics.Metric("executor.wasted_attempt_frac",
                   Ratio(bd.wasted_attempt_ns, bd.attempt_ns), "ratio");
    metrics.Metric("executor.retry_gap_us_p99", pct(bd.retry_gap, 0.99) / 1e3,
                   "us");
    metrics.Metric("cc.step_ns_p50", pct(bd.step, 0.5), "ns");
    metrics.Metric("cc.step_ns_p99", pct(bd.step, 0.99), "ns");
    metrics.Metric("cc.step_read_ns_p50", pct(bd.step_read, 0.5), "ns");
    metrics.Metric("cc.step_write_ns_p50", pct(bd.step_write, 0.5), "ns");
    metrics.Metric("cc.steps_per_txn", Ratio(bd.steps, txns), "count");
    metrics.Metric("cc.step_us_per_txn", Ratio(bd.step_ns / 1e3, txns), "us");
    metrics.Metric("cc.aborts_per_ktxn", per_ktxn(k.aborted), "count");
    metrics.Metric("cc.aborts.deadlock_per_ktxn",
                   reason(AbortReason::kDeadlock), "count");
    metrics.Metric("cc.aborts.ts_order_per_ktxn",
                   reason(AbortReason::kTimestampOrder), "count");
    metrics.Metric("cc.aborts.validation_per_ktxn",
                   reason(AbortReason::kValidation), "count");
    metrics.Metric("cc.aborts.cascade_per_ktxn",
                   reason(AbortReason::kCascade), "count");
    metrics.Metric("cc.commit_tail_us_p50", pct(bd.commit_tail, 0.5) / 1e3,
                   "us");
    metrics.Metric("cc.commit_tail_us_p99", pct(bd.commit_tail, 0.99) / 1e3,
                   "us");
    metrics.Metric("cc.commit_tail_cross_us_p50",
                   pct(bd.commit_tail_cross, 0.5) / 1e3, "us");
    metrics.Metric("cc.commit_tail_local_us_p50",
                   pct(bd.commit_tail_local, 0.5) / 1e3, "us");
    metrics.Metric("cc.sharded.cross_commit_frac",
                   Ratio(k.cross_commits, commits), "ratio");
    metrics.Metric("cc.sharded.cycle_aborts",
                   static_cast<double>(k.cycle_aborts), "count");
    metrics.Metric("cc.sharded.poll_timeouts",
                   static_cast<double>(k.poll_timeouts), "count");
    metrics.Metric("branch_pool.parallel_us_p50", pct(bd.batch, 0.5) / 1e3,
                   "us");
    metrics.Metric("branch_pool.join_wait_us_p50",
                   pct(bd.join_wait, 0.5) / 1e3, "us");
    metrics.Metric("wal.commits_per_sync", Ratio(commits, k.wal_syncs),
                   "count");
    metrics.Metric("wal.records_per_sync", Ratio(k.wal_staged, k.wal_syncs),
                   "count");
    metrics.Metric("wal.log_bytes_per_txn",
                   Ratio(rec.log_bytes, lifetime_commits), "B");
    metrics.Metric("wal.scan_s", rec.scan_s, "s");
    metrics.Metric("wal.recover_s", rec.recover_s, "s");
    metrics.Metric("wal.recover_mb_per_s", recover_mb_per_s, "MB/s");
    metrics.Metric("body.self_us_per_txn", Ratio(bd.body_self_ns / 1e3, txns),
                   "us");
    metrics.Metric("os.vol_ctxsw_per_txn",
                   Ratio(traced.usage.vol_ctxsw, commits), "count");
    metrics.Metric("os.invol_ctxsw_per_txn",
                   Ratio(traced.usage.invol_ctxsw, commits), "count");
    metrics.Metric("os.sys_frac",
                   Ratio(traced.usage.sys_s,
                         traced.usage.user_s + traced.usage.sys_s),
                   "ratio");
    metrics.Metric("os.steal_frac",
                   Ratio(traced.usage.steal_ticks, traced.usage.all_ticks),
                   "ratio");
    metrics.Metric("trace.overhead_frac",
                   1 - Ratio(traced.Over(TxnPerS).median,
                             plain.Over(TxnPerS).median),
                   "ratio");
    for (int l = 0; l < kNumLayers; ++l) {
      metrics.Metric(std::string("breakdown.") + LayerName(l) + "_us_per_txn",
                     Ratio(bd.layer_ns[l] / 1e3, txns), "us");
    }
  }
  Json result;
  result.Raw("correct", correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(attempted));
  result.Num("failed", static_cast<double>(failed));
  result.Raw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
