// Write-ahead durability: redo logging with pipelined group commit.
//
// The paper's serialisability theory assumes committed transactions persist;
// this subsystem makes the runtime honour that.  Three pieces:
//
//   * WalWriter — a lock-free MPSC staging ring plus a dedicated writer
//     thread.  Controllers stage per-object REDO records (object id, journal
//     position, OpId, args, recorded ret) at apply time — the staging call
//     sits inside the same per-object critical section as the journal's
//     reserve-and-publish, so staged order per object is the true
//     application order.  The writer is demand-driven: a staged commit
//     marker requests a sync and wakes it at once.  It drains the staged
//     prefix, packs one length-prefixed CRC32-checksummed frame per batch,
//     issues ONE write+fsync for the whole batch (the txfs
//     batched-journal-commit idiom) and release-publishes the durable
//     watermark.  Commits staged while an fsync runs form the next batch
//     (Aether-style flush pipelining), so the group forms without any
//     sleep.  Redo records alone never trigger an fsync.  A failed write or
//     fsync aborts the process before the watermark moves (fail-stop).
//
//   * Log format — a sequence of frames
//         [u32 magic 'OBWL'][u32 payload_len][u32 crc32(payload)][payload]
//     where the payload is a run of records (see WalRecord).  Frames are
//     all-or-nothing: a torn tail or bit flip fails the CRC and recovery
//     truncates at the FIRST damaged frame.  Because the watermark is only
//     published after fsync, no transaction in a dropped frame was ever
//     acknowledged.
//
//   * Recovery — ScanWal decodes the valid prefix of each shard's log;
//     RecoverShardedWalInto replays the redo records of committed
//     top-level transactions (minus aborted subtrees: a kAbort record
//     excises every redo whose ancestor chain contains the aborted uid) per
//     object in journal-position order onto a freshly-initialised
//     ObjectBase, re-checking each recorded return value (step-level
//     legality).  See docs/durability.md for the soundness argument.
//
// Watermark soundness (why acknowledged implies consistent): a controller
// stages its commit marker BEFORE DependencyGraph::MarkCommitted, and any
// dependency successor can only pass ValidateAndWait after that, so the
// successor's marker always lands at a higher ring position.  The watermark
// is prefix-closed, hence a durable (acknowledged) transaction's entire
// predecessor closure is durable too — recovery can never resurrect a
// transaction whose predecessor was lost.
#ifndef OBJECTBASE_RUNTIME_WAL_H_
#define OBJECTBASE_RUNTIME_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/adt/adt.h"
#include "src/common/value.h"

namespace objectbase::cc {
class WaitsForGraph;
}  // namespace objectbase::cc

namespace objectbase::rt {

class ObjectBase;

/// When commit acknowledgement returns to the application.
enum class Durability {
  kNone,   ///< No logging at all (the PR-5 behaviour; zero overhead).
  kGroup,  ///< Ack after the batched group sync covering the commit.
};

const char* DurabilityName(Durability d);

struct WalOptions {
  std::string path;
  /// Staging ring capacity (power of two).  A producer that finds the ring
  /// full requests a drain and spins (bounded-memory backpressure).
  size_t ring_capacity = 1 << 14;
};

enum class WalRecordKind : uint8_t {
  kRedo = 1,    ///< One applied local step of some object.
  kCommit = 2,  ///< Top-level transaction committed.
  kAbort = 3,   ///< Subtree (under a still-live top) aborted.
};

/// Decoded log record (the scan/recovery view; staging uses an internal
/// shared-chain variant to keep the apply path copy-light).
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kRedo;
  uint32_t object_id = 0;
  /// Per-object replay order: the journal position for protocols that
  /// append to the applied journal, the staging ring position otherwise
  /// (both are assigned inside the object's apply critical section, so
  /// either is the true application order).
  uint64_t order_key = 0;
  uint64_t top_uid = 0;   ///< kRedo/kCommit: owning top-level uid.
  uint64_t exec_uid = 0;  ///< kRedo: issuing execution; kAbort: subtree root.
  adt::OpId op_id = 0;
  std::vector<uint64_t> chain;  ///< kRedo: issuing execution's self..top uids.
  Args args;
  Value ret;
};

/// The uid the durability wait names as its "holder" in the waits-for
/// graph.  Executor uids start at 1, so 0 can never be a real execution:
/// the wait is visible to the deadlock detector but can never close a
/// cycle (the writer thread never blocks on locks).
inline constexpr uint64_t kWalPseudoHolderUid = 0;

class WalWriter {
 public:
  /// Order-key sentinel: use the staging position itself (protocols that do
  /// not append to the applied journal).
  static constexpr uint64_t kOrderByStagePos = ~uint64_t{0};

  /// Opens (truncating) the log file and starts the writer thread.
  /// `ok()` is false if the file could not be opened; staging a record
  /// into such a writer fails stop like any other log I/O error.
  explicit WalWriter(WalOptions options);
  /// Drains everything staged, syncs, and joins the writer.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  bool ok() const { return fd_ >= 0; }
  const WalOptions& options() const { return options_; }

  // --- staging (called from transaction threads) ---------------------------
  // Lock-free, except that StageCommit, and a producer that finds the ring
  // full, take writer_mu_ briefly to wake the writer.

  /// Stages one applied step.  Call inside the object's apply critical
  /// section so per-object staging order is the application order.
  /// `order_key` is the journal position, or kOrderByStagePos to use the
  /// staging position.  Returns the staging position.
  uint64_t StageRedo(uint32_t object_id, uint64_t order_key, uint64_t top_uid,
                     uint64_t exec_uid,
                     std::shared_ptr<const std::vector<uint64_t>> chain,
                     adt::OpId op_id, const Args& args, const Value& ret);

  /// Stages the commit marker for a top-level transaction and requests a
  /// sync covering it, waking the writer — so the fsync starts before the
  /// caller reaches WaitDurable, and a cross-shard commit's per-shard syncs
  /// run in parallel.  Stage BEFORE DependencyGraph::MarkCommitted (see the
  /// watermark-soundness note).
  /// `shard_mask`: 0 for a top whose steps stayed on one shard; a
  /// cross-shard top stages one marker per touched shard's log, each
  /// carrying the full touched-shard bitmask — recovery then treats the
  /// top as committed only if EVERY named log contains its marker (the
  /// cross-log atomicity rule; see RecoverShardedWalInto).  The mask rides
  /// the record's order_key field, unused by kCommit otherwise.
  uint64_t StageCommit(uint64_t top_uid, uint64_t shard_mask = 0);

  /// Stages a subtree-abort marker (partial aborts under a top that may
  /// still commit); recovery drops redo records of the subtree.
  uint64_t StageAbort(uint64_t subtree_root_uid);

  // --- commit gating -------------------------------------------------------

  /// Blocks until the watermark covers `pos` (i.e. the record staged at
  /// `pos` is on disk), requesting a sync if none covers `pos` yet (a no-op
  /// after StageCommit).  When `wf` is non-null the wait is declared in the
  /// waits-for graph under kWalPseudoHolderUid (PR 5's certifier-wait
  /// pattern), so composite wait states stay visible to the deadlock
  /// detector; the declaration itself can never report a deadlock.
  void WaitDurable(uint64_t pos, cc::WaitsForGraph* wf = nullptr,
                   uint64_t thread_key = 0);

  /// First staging position NOT yet durable (release-published after each
  /// batch sync).
  uint64_t DurableWatermark() const {
    return durable_.load(std::memory_order_acquire);
  }

  // --- observability -------------------------------------------------------

  uint64_t staged() const { return reserved_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<uint64_t> turn{0};
    WalRecordKind kind = WalRecordKind::kRedo;
    uint32_t object_id = 0;
    uint64_t order_key = 0;
    uint64_t top_uid = 0;
    uint64_t exec_uid = 0;
    adt::OpId op_id = 0;
    std::shared_ptr<const std::vector<uint64_t>> chain;
    Args args;
    Value ret;
  };

  /// Claims the next ring position.  While the ring is full it requests a
  /// drain of the slot's previous lap and spins (bounded backpressure; the
  /// writer always makes progress).
  Slot& Claim(uint64_t* pos);
  void Publish(Slot& slot, uint64_t pos);

  /// Raises `req` to at least `end` and, if that raised it, wakes the
  /// writer.  The empty writer_mu_ critical section before the notify pairs
  /// with the writer's predicate check, so no request is ever lost.
  void Request(std::atomic<uint64_t>& req, uint64_t end);

  void WriterLoop();
  /// Drains [drained_, reserved_) into one frame and writes it (no fsync).
  void Drain();
  /// fsyncs everything drained, publishes the watermark and wakes commit
  /// waiters.
  void Sync();
  /// Fail-stop on a log I/O error: reports the path and errno, then aborts
  /// before the watermark can move.
  [[noreturn]] void FailStop(const char* what) const;

  WalOptions options_;
  int fd_ = -1;
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  std::atomic<uint64_t> reserved_{0};  // next staging position
  uint64_t drained_ = 0;               // writer-private
  std::atomic<uint64_t> durable_{0};
  // Requests, as exclusive end positions: `sync_req_` asks for everything
  // before it to be durable (commit markers); `drain_req_` asks only for a
  // drain (ring-full backpressure), which writes without an fsync.
  std::atomic<uint64_t> sync_req_{0};
  std::atomic<uint64_t> drain_req_{0};

  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> frames_{0};

  std::mutex writer_mu_;  // guards stop_; taken to park and to wake the writer
  std::condition_variable writer_cv_;
  std::mutex waiter_mu_;
  std::condition_variable waiter_cv_;
  bool stop_ = false;
  std::vector<uint8_t> batch_buf_;  // writer-private serialization scratch
  std::thread writer_;
};

// --- scan / recovery --------------------------------------------------------

struct WalScanResult {
  bool ok = false;    ///< File was readable (an empty log is ok).
  bool torn = false;  ///< Stopped before end-of-file (damaged/torn frame).
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  size_t frames = 0;
  std::vector<WalRecord> records;
  std::vector<uint64_t> committed_tops;     ///< uids with a durable kCommit.
  std::vector<uint64_t> aborted_subtrees;   ///< uids from kAbort records.
};

/// Decodes the valid prefix of the log, truncating (in the result, not the
/// file) at the first torn or checksum-failing frame.  Never throws on
/// damaged input.
WalScanResult ScanWal(const std::string& path);

struct WalRecoveryResult {
  bool ok = false;
  bool torn = false;
  uint64_t valid_bytes = 0;
  size_t frames = 0;
  size_t committed_tops = 0;
  size_t applied = 0;               ///< Redo records replayed.
  size_t skipped_uncommitted = 0;   ///< Redos of tops without commit marker.
  size_t skipped_aborted = 0;       ///< Redos excised by kAbort records.
  size_t unknown_objects = 0;       ///< Redos naming no object in `base`.
  size_t ret_mismatches = 0;        ///< Replayed ret != recorded ret.
};

/// Log path of shard `shard` under base path `base_path`: the base path
/// itself for shard 0, `<base_path>.s<k>` otherwise — so a one-shard base
/// writes exactly one log, at `base_path`.
std::string ShardWalPath(const std::string& base_path, uint32_t shard);

/// Recovery: scans every shard's log and replays the committed
/// transactions onto `base`, which must be constructed exactly as it was
/// at the start of the crashed run (same objects, same initial states;
/// `num_shards` is its shard count, 1 for a plain base).  Per object,
/// surviving redo records are applied in order_key order; each recorded
/// return value is re-checked (ret_mismatches stays 0 iff the replay is
/// step-level legal).  Touched objects get their base state resynchronised
/// (Object::SealRecoveredState), so the rebuild/fold machinery starts from
/// the recovered state.  A top-level transaction counts as committed iff
///   * some log holds its marker with mask 0 (single-shard commit), or
///   * for a masked marker, EVERY log named by the mask holds its marker
///     (a crash between the per-shard marker syncs of a cross-shard commit
///     must not surface a partial commit).
/// Aborted subtrees are the union over logs.  Redos replay per log
/// independently: objects are partitioned, so each object's redo records
/// live in exactly one shard's log and per-log order_key order is the true
/// per-object application order.  Aggregates the per-log counters.
WalRecoveryResult RecoverShardedWalInto(const std::string& base_path,
                                        uint32_t num_shards, ObjectBase& base);

/// CRC32 (IEEE 802.3, reflected); exposed for the torn-write tests.
uint32_t WalCrc32(const uint8_t* data, size_t n);

}  // namespace objectbase::rt

#endif  // OBJECTBASE_RUNTIME_WAL_H_
