#include "src/runtime/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "src/cc/waits_for.h"
#include "src/runtime/object_base.h"

namespace objectbase::rt {

const char* DurabilityName(Durability d) {
  switch (d) {
    case Durability::kNone: return "none";
    case Durability::kGroup: return "group";
  }
  return "?";
}

namespace {

constexpr uint8_t kMagic[4] = {'O', 'B', 'W', 'L'};
constexpr size_t kFrameHeaderBytes = 12;  // magic + payload_len + crc32

bool WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// --- codec (host-endian; the log is read back on the same machine) ---------

void AppendBytes(std::vector<uint8_t>& out, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}
void AppendU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void AppendU16(std::vector<uint8_t>& out, uint16_t v) {
  AppendBytes(out, &v, 2);
}
void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  AppendBytes(out, &v, 4);
}
void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  AppendBytes(out, &v, 8);
}

void AppendValue(std::vector<uint8_t>& out, const Value& v) {
  if (v.is_none()) {
    AppendU8(out, 0);
  } else if (v.is_int()) {
    AppendU8(out, 1);
    AppendU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_bool()) {
    AppendU8(out, 2);
    AppendU8(out, v.AsBool() ? 1 : 0);
  } else {
    const std::string& s = v.AsString();
    AppendU8(out, 3);
    AppendU32(out, static_cast<uint32_t>(s.size()));
    AppendBytes(out, s.data(), s.size());
  }
}

/// Bounds-checked sequential reader; any overrun latches `fail`.
struct Cursor {
  const uint8_t* p;
  size_t n;
  size_t off = 0;
  bool fail = false;

  bool Take(void* out, size_t k) {
    if (fail || n - off < k) {
      fail = true;
      return false;
    }
    memcpy(out, p + off, k);
    off += k;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  uint16_t U16() {
    uint16_t v = 0;
    Take(&v, 2);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Take(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Take(&v, 8);
    return v;
  }
  Value ReadValue() {
    switch (U8()) {
      case 0: return Value::None();
      case 1: return Value(static_cast<int64_t>(U64()));
      case 2: return Value(U8() != 0);
      case 3: {
        uint32_t len = U32();
        if (fail || n - off < len) {
          fail = true;
          return Value::None();
        }
        std::string s(reinterpret_cast<const char*>(p + off), len);
        off += len;
        return Value(std::move(s));
      }
      default: fail = true; return Value::None();
    }
  }
};

bool DecodeRecord(Cursor& c, WalRecord* out) {
  const uint8_t kind = c.U8();
  if (c.fail) return false;
  switch (static_cast<WalRecordKind>(kind)) {
    case WalRecordKind::kRedo: {
      out->kind = WalRecordKind::kRedo;
      out->object_id = c.U32();
      out->order_key = c.U64();
      out->top_uid = c.U64();
      out->exec_uid = c.U64();
      out->op_id = static_cast<adt::OpId>(c.U32());
      const uint16_t chain_len = c.U16();
      out->chain.clear();
      out->chain.reserve(chain_len);
      for (uint16_t i = 0; i < chain_len && !c.fail; ++i) {
        out->chain.push_back(c.U64());
      }
      const uint16_t argc = c.U16();
      out->args.clear();
      out->args.reserve(argc);
      for (uint16_t i = 0; i < argc && !c.fail; ++i) {
        out->args.push_back(c.ReadValue());
      }
      out->ret = c.ReadValue();
      return !c.fail;
    }
    case WalRecordKind::kCommit:
      out->kind = WalRecordKind::kCommit;
      out->top_uid = c.U64();
      out->order_key = c.U64();  // touched-shard mask (0 = one shard)
      return !c.fail;
    case WalRecordKind::kAbort:
      out->kind = WalRecordKind::kAbort;
      out->exec_uid = c.U64();
      return !c.fail;
    default:
      return false;
  }
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t n) {
  // IEEE 802.3 reflected polynomial, table generated once.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- WalWriter --------------------------------------------------------------

WalWriter::WalWriter(WalOptions options) : options_(std::move(options)) {
  size_t cap = options_.ring_capacity;
  if (cap < 2 || (cap & (cap - 1)) != 0) cap = size_t{1} << 14;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    slots_[i].turn.store(i, std::memory_order_relaxed);
  }
  fd_ = ::open(options_.path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
               0644);
  writer_ = std::thread([this] { WriterLoop(); });
}

WalWriter::~WalWriter() {
  {
    std::lock_guard<std::mutex> g(writer_mu_);
    stop_ = true;
  }
  writer_cv_.notify_one();
  writer_.join();
  if (fd_ >= 0) ::close(fd_);
}

WalWriter::Slot& WalWriter::Claim(uint64_t* pos) {
  *pos = reserved_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[*pos & mask_];
  if (s.turn.load(std::memory_order_acquire) != *pos) {
    // Ring full: the slot still holds its previous lap (position
    // *pos - capacity).  Ask the writer to drain through it, then spin until
    // it is retired.  Only a drain is requested — no fsync — so a
    // transaction staging more redos than the ring holds cannot deadlock
    // waiting for its own commit marker.
    Request(drain_req_, *pos - mask_);
    for (int spins = 0; s.turn.load(std::memory_order_acquire) != *pos;
         ++spins) {
      if (spins > 128) std::this_thread::yield();
    }
  }
  return s;
}

void WalWriter::Publish(Slot& slot, uint64_t pos) {
  slot.turn.store(pos + 1, std::memory_order_release);
}

void WalWriter::Request(std::atomic<uint64_t>& req, uint64_t end) {
  uint64_t cur = req.load(std::memory_order_relaxed);
  while (cur < end) {
    if (req.compare_exchange_weak(cur, end, std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
      { std::lock_guard<std::mutex> g(writer_mu_); }
      writer_cv_.notify_one();
      return;
    }
  }
}

uint64_t WalWriter::StageRedo(
    uint32_t object_id, uint64_t order_key, uint64_t top_uid,
    uint64_t exec_uid, std::shared_ptr<const std::vector<uint64_t>> chain,
    adt::OpId op_id, const Args& args, const Value& ret) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kRedo;
  s.object_id = object_id;
  s.order_key = order_key == kOrderByStagePos ? pos : order_key;
  s.top_uid = top_uid;
  s.exec_uid = exec_uid;
  s.op_id = op_id;
  s.chain = std::move(chain);
  s.args = args;
  s.ret = ret;
  Publish(s, pos);
  return pos;
}

uint64_t WalWriter::StageCommit(uint64_t top_uid, uint64_t shard_mask) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kCommit;
  s.top_uid = top_uid;
  s.order_key = shard_mask;  // see the header: mask rides order_key
  Publish(s, pos);
  Request(sync_req_, pos + 1);
  return pos;
}

uint64_t WalWriter::StageAbort(uint64_t subtree_root_uid) {
  uint64_t pos;
  Slot& s = Claim(&pos);
  s.kind = WalRecordKind::kAbort;
  s.exec_uid = subtree_root_uid;
  Publish(s, pos);
  return pos;
}

void WalWriter::WaitDurable(uint64_t pos, cc::WaitsForGraph* wf,
                            uint64_t thread_key) {
  if (durable_.load(std::memory_order_acquire) > pos) return;
  Request(sync_req_, pos + 1);
  bool declared = false;
  if (wf != nullptr) {
    // Declare the commit-wait like PR 5's certifier waits so composite
    // wait states stay visible.  The pseudo-holder uid names no running
    // execution, so this can never report (or participate in) a cycle.
    declared = !wf->SetWaitingWouldDeadlock(
        thread_key, std::vector<uint64_t>{kWalPseudoHolderUid});
  }
  {
    std::unique_lock<std::mutex> lk(waiter_mu_);
    waiter_cv_.wait(lk, [&] {
      return durable_.load(std::memory_order_acquire) > pos;
    });
  }
  if (declared) wf->ClearWaiting(thread_key);
}

void WalWriter::WriterLoop() {
  for (;;) {
    bool stopping;
    {
      std::unique_lock<std::mutex> lk(writer_mu_);
      writer_cv_.wait(lk, [&] {
        return stop_ ||
               sync_req_.load(std::memory_order_acquire) >
                   durable_.load(std::memory_order_relaxed) ||
               drain_req_.load(std::memory_order_acquire) > drained_;
      });
      stopping = stop_;
    }
    // Read the sync request BEFORE draining: the drain then ends past every
    // position the request names.  Requests that arrive during the fsync
    // below are seen by the next wait's predicate, which loops at once —
    // that batch is the pipeline's next group.
    const bool sync = stopping || sync_req_.load(std::memory_order_acquire) >
                                      durable_.load(std::memory_order_relaxed);
    Drain();
    if (sync) Sync();
    if (stopping) break;
  }
}

void WalWriter::Drain() {
  const uint64_t end = reserved_.load(std::memory_order_acquire);
  if (end == drained_) return;
  // The frame header is filled in after the payload, so header and payload
  // go out in one write.
  batch_buf_.assign(kFrameHeaderBytes, 0);
  for (uint64_t pos = drained_; pos != end; ++pos) {
    Slot& s = slots_[pos & mask_];
    // The producer that claimed `pos` is past its fetch_add; wait out its
    // field stores (published with release on `turn`).
    for (int spins = 0; s.turn.load(std::memory_order_acquire) != pos + 1;
         ++spins) {
      if (spins > 128) std::this_thread::yield();
    }
    AppendU8(batch_buf_, static_cast<uint8_t>(s.kind));
    switch (s.kind) {
      case WalRecordKind::kRedo: {
        AppendU32(batch_buf_, s.object_id);
        AppendU64(batch_buf_, s.order_key);
        AppendU64(batch_buf_, s.top_uid);
        AppendU64(batch_buf_, s.exec_uid);
        AppendU32(batch_buf_, static_cast<uint32_t>(s.op_id));
        const std::vector<uint64_t>* chain = s.chain ? s.chain.get() : nullptr;
        const size_t chain_len = chain ? chain->size() : 0;
        AppendU16(batch_buf_, static_cast<uint16_t>(chain_len));
        for (size_t i = 0; i < chain_len; ++i) {
          AppendU64(batch_buf_, (*chain)[i]);
        }
        AppendU16(batch_buf_, static_cast<uint16_t>(s.args.size()));
        for (const Value& a : s.args) AppendValue(batch_buf_, a);
        AppendValue(batch_buf_, s.ret);
        break;
      }
      case WalRecordKind::kCommit:
        AppendU64(batch_buf_, s.top_uid);
        AppendU64(batch_buf_, s.order_key);  // touched-shard mask
        break;
      case WalRecordKind::kAbort:
        AppendU64(batch_buf_, s.exec_uid);
        break;
    }
    // Retire the slot for the next lap (and drop payload memory early).
    s.chain.reset();
    s.args.clear();
    s.ret = Value();
    s.turn.store(pos + mask_ + 1, std::memory_order_release);
  }
  const uint8_t* payload = batch_buf_.data() + kFrameHeaderBytes;
  const uint32_t len =
      static_cast<uint32_t>(batch_buf_.size() - kFrameHeaderBytes);
  const uint32_t crc = WalCrc32(payload, len);
  memcpy(batch_buf_.data(), kMagic, 4);
  memcpy(batch_buf_.data() + 4, &len, 4);
  memcpy(batch_buf_.data() + 8, &crc, 4);
  // A log that never opened (fd_ < 0) fails here with EBADF.
  if (!WriteAll(fd_, batch_buf_.data(), batch_buf_.size())) FailStop("write");
  frames_.fetch_add(1, std::memory_order_relaxed);
  drained_ = end;
}

void WalWriter::Sync() {
  if (drained_ == durable_.load(std::memory_order_relaxed)) return;
  if (::fsync(fd_) != 0) FailStop("fsync");
  syncs_.fetch_add(1, std::memory_order_relaxed);
  durable_.store(drained_, std::memory_order_release);
  // Empty critical section: pairs the store with waiters' predicate check.
  { std::lock_guard<std::mutex> g(waiter_mu_); }
  waiter_cv_.notify_all();
}

void WalWriter::FailStop(const char* what) const {
  // Under the optimistic protocols a commit in the failed batch is already
  // visible to its dependency successors (MarkCommitted precedes
  // WaitDurable), so no "not durable" outcome could be honest: stop the
  // process before anything is acked (PostgreSQL's fsync-PANIC rule).
  const int err = errno;
  std::fprintf(stderr,
               "objectbase wal: %s failed on %s: %s (errno %d); aborting "
               "before the durable watermark moves\n",
               what, options_.path.c_str(), std::strerror(err), err);
  std::abort();
}

// --- scan / recovery --------------------------------------------------------

WalScanResult ScanWal(const std::string& path) {
  WalScanResult result;
  FILE* f = ::fopen(path.c_str(), "rb");
  if (f == nullptr) return result;
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got;
  while ((got = ::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  ::fclose(f);
  result.ok = true;
  result.file_bytes = bytes.size();

  size_t off = 0;
  while (off < bytes.size()) {
    // Frame header: magic, payload length, payload CRC.  Anything short,
    // mismatched or checksum-failing ends the valid prefix — the frame was
    // torn mid-write (its fsync never completed, so no transaction in it
    // was acknowledged) or damaged.
    if (bytes.size() - off < kFrameHeaderBytes) break;
    if (memcmp(bytes.data() + off, kMagic, 4) != 0) break;
    uint32_t len, crc;
    memcpy(&len, bytes.data() + off + 4, 4);
    memcpy(&crc, bytes.data() + off + 8, 4);
    if (bytes.size() - off - kFrameHeaderBytes < len) break;
    const uint8_t* payload = bytes.data() + off + kFrameHeaderBytes;
    if (WalCrc32(payload, len) != crc) break;
    // Decode the frame's records; a decode overrun (impossible without a
    // CRC collision, but checked anyway) also ends the prefix.
    Cursor c{payload, len};
    std::vector<WalRecord> frame_records;
    bool decode_ok = true;
    while (c.off < c.n) {
      WalRecord r;
      if (!DecodeRecord(c, &r)) {
        decode_ok = false;
        break;
      }
      frame_records.push_back(std::move(r));
    }
    if (!decode_ok) break;
    for (WalRecord& r : frame_records) {
      switch (r.kind) {
        case WalRecordKind::kCommit:
          result.committed_tops.push_back(r.top_uid);
          break;
        case WalRecordKind::kAbort:
          result.aborted_subtrees.push_back(r.exec_uid);
          break;
        case WalRecordKind::kRedo:
          break;
      }
      result.records.push_back(std::move(r));
    }
    off += kFrameHeaderBytes + len;
    result.frames += 1;
  }
  result.valid_bytes = off;
  result.torn = off < bytes.size();
  return result;
}

namespace {

// The replay half of recovery, run once per shard's log: partitions
// `scan`'s surviving redo records per object and replays them onto `base`,
// accumulating counters into `result`.  The caller decides which tops are
// committed (the cross-log atomicity rule).
void ReplayScan(const WalScanResult& scan,
                const std::unordered_set<uint64_t>& committed,
                const std::unordered_set<uint64_t>& aborted, ObjectBase& base,
                WalRecoveryResult& result) {
  // Partition surviving redo records per object.  A record survives iff
  // its top committed durably AND no execution on its ancestor chain was
  // partially aborted (the kAbort excision rule).
  std::unordered_map<uint32_t, std::vector<const WalRecord*>> by_object;
  for (const WalRecord& r : scan.records) {
    if (r.kind != WalRecordKind::kRedo) continue;
    if (committed.count(r.top_uid) == 0) {
      ++result.skipped_uncommitted;
      continue;
    }
    bool excised = false;
    if (!aborted.empty()) {
      for (uint64_t uid : r.chain) {
        if (aborted.count(uid) != 0) {
          excised = true;
          break;
        }
      }
    }
    if (excised) {
      ++result.skipped_aborted;
      continue;
    }
    if (r.object_id >= base.size()) {
      ++result.unknown_objects;
      continue;
    }
    by_object[r.object_id].push_back(&r);
  }

  // Per object: replay in order-key order (the application order — journal
  // position or staging position, both assigned inside the apply critical
  // section), re-checking each recorded return value.  ret_mismatches == 0
  // iff the replay is step-level legal (Definition 6 condition 3 restricted
  // to the committed projection).
  for (auto& [object_id, records] : by_object) {
    std::stable_sort(records.begin(), records.end(),
                     [](const WalRecord* a, const WalRecord* b) {
                       return a->order_key < b->order_key;
                     });
    Object& obj = base.Get(object_id);
    for (const WalRecord* r : records) {
      if (r->op_id >= obj.spec().NumOps()) {
        ++result.unknown_objects;
        continue;
      }
      Value replayed = obj.ApplyRedo(r->op_id, r->args);
      if (replayed != r->ret) ++result.ret_mismatches;
      ++result.applied;
    }
    obj.SealRecoveredState();
  }
}

}  // namespace

std::string ShardWalPath(const std::string& base_path, uint32_t shard) {
  if (shard == 0) return base_path;
  return base_path + ".s" + std::to_string(shard);
}

WalRecoveryResult RecoverShardedWalInto(const std::string& base_path,
                                        uint32_t num_shards, ObjectBase& base) {
  WalRecoveryResult result;
  if (num_shards < 1) num_shards = 1;
  std::vector<WalScanResult> scans;
  scans.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    scans.push_back(ScanWal(ShardWalPath(base_path, s)));
  }
  // A missing/unreadable shard-0 log fails recovery; a missing higher
  // shard's log just contributes nothing (a shard that never
  // staged a record may have an empty or absent file after a crash).
  result.ok = scans[0].ok;
  for (const WalScanResult& s : scans) {
    result.torn = result.torn || s.torn;
    result.valid_bytes += s.valid_bytes;
    result.frames += s.frames;
  }
  if (!result.ok) return result;

  // Commit rule (cross-log atomicity): a mask-0 marker commits its top by
  // itself; a masked marker commits only if EVERY log named by the mask
  // holds a marker for the same top.  A crash between the per-shard marker
  // syncs of a cross-shard commit therefore recovers as an abort — which is
  // sound, because commit was never acknowledged (the committer waits for
  // ALL touched shards' durability before MarkCommitted / returning).
  std::unordered_map<uint64_t, uint64_t> mask_of;  // top uid -> union mask
  std::vector<std::unordered_set<uint64_t>> present(num_shards);
  std::unordered_set<uint64_t> committed;
  for (uint32_t s = 0; s < num_shards; ++s) {
    for (const WalRecord& r : scans[s].records) {
      if (r.kind != WalRecordKind::kCommit) continue;
      present[s].insert(r.top_uid);
      if (r.order_key == 0) {
        committed.insert(r.top_uid);
      } else {
        mask_of[r.top_uid] |= r.order_key;
      }
    }
  }
  for (const auto& [uid, mask] : mask_of) {
    bool all = true;
    for (uint32_t s = 0; s < num_shards && all; ++s) {
      if ((mask >> s) & 1) all = present[s].count(uid) != 0;
    }
    if (all) committed.insert(uid);
  }
  result.committed_tops = committed.size();

  // Aborted subtrees union over logs (the abort path stages its marker on
  // every shard's log, but a crash can leave only some of them).
  std::unordered_set<uint64_t> aborted;
  for (const WalScanResult& s : scans) {
    aborted.insert(s.aborted_subtrees.begin(), s.aborted_subtrees.end());
  }

  // Objects are partitioned across shards, so each object's redos live in
  // exactly one log and per-log replay order is the true per-object
  // application order.
  for (const WalScanResult& s : scans) {
    ReplayScan(s, committed, aborted, base, result);
  }
  return result;
}

}  // namespace objectbase::rt
