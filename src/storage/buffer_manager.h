// Buffer manager: request-private accounting ledgers over a sharded pool of
// pinned frames.
//
// The design splits two concerns that are usually fused, because the batch
// executor's metering-tape contract (executor/batch.h) and the paper's
// Theorem 3 demand it:
//
//   * The ACCOUNTING layer — AccessLedger — is a deterministic eviction-
//     policy simulation (LRU, or 2Q with a ghost queue) driven purely by
//     the logical page-access sequence. It decides hit vs miss (what the
//     cost meter charges: a buffer hit costs the CPU-discounted
//     `buffer_hit_page_cost`, a miss a full page read) and counts hits,
//     misses and evictions. It never consults pin or frame state: pins at
//     scalar access time and at batch replay time differ, and a pin-aware
//     choice would make the two engines' charges diverge. The scalar engine
//     accesses pages as it touches them; the batch engine records page
//     events on the tape and resolves them at replay, in the scalar
//     engine's exact order, so hit/miss decisions are bit-identical.
//
//     The pool keeps one BASE ledger. BufferManager::Access() and ledger-
//     less ExecContexts (warm-up, unit tests, bench_storage, the
//     differential harness) change it under a mutex. A bouquet run instead
//     forks a PRIVATE ledger (ForkLedger) that reads a shared snapshot of
//     the base and copies it on its first state-changing access, so its
//     charges are a function of (plan, data, budget, base state) alone —
//     never of what concurrent requests touch — and its accesses take no
//     lock. FoldLedger adds a finished run's counts to stats(); a private
//     ledger's state is never written back to the base.
//
//   * The PHYSICAL layer — Pin()/PinNew()/Unpin() — owns the frames and the
//     pread/pwrite traffic, with its own CLOCK replacement capped at
//     pool_pages. Frames live in a fixed number of page-keyed shards, each
//     behind its own mutex; frame memory is allocated on first use. A frame
//     being read (kLoading) or written back (kWriting) is in an in-progress
//     state that other threads wait on, so disk I/O runs with no lock held,
//     a page is never read twice concurrently, and a re-pin during a
//     writeback sees the written bytes. Pin never fails and never waits for
//     capacity: when every frame of a shard is pinned the shard overshoots
//     its share, and the extra frames are reclaimed at their last Unpin, so
//     eviction starvation stays observable (physical_frames() > pool)
//     instead of deadlocking the thread pool.
//
// Frame invariant: physical_frames() <= pool_pages() + pinned frames.
// Residency is the physical layer's own business: an unpinned frame stays
// cached (dirty temp pages included) until CLOCK evicts it — with a
// writeback when dirty — or DropFile discards it. Pages never accessed
// through a ledger (index builds, spill temp pages) enter no ledger, so
// bulk maintenance work cannot pollute the state the charges depend on.
//
// Counts: the manager owns one metrics registry (metrics()) and counts
// every accounting and physical event once, into its buffer_* instruments,
// from construction on; stats() reads those instruments.
//
// Thread-safety: ledger_mu_ guards the base ledger and its snapshot; each
// shard's mutex guards that shard's frames; files_mu_ guards file-id
// allocation (lookups are lock-free); the counters are atomic. No two of these are ever held at once, and none is held
// across disk I/O, so they are leaves below any service/driver-level lock.
// A private AccessLedger is single-threaded: one run owns it.

#ifndef BOUQUET_STORAGE_BUFFER_MANAGER_H_
#define BOUQUET_STORAGE_BUFFER_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/synchronization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace bouquet {
namespace storage {

enum class EvictionPolicyKind {
  kNone,  ///< no caching: every access is a miss (the bench baseline)
  kLru,
  k2Q,
};

std::string EvictionPolicyName(EvictionPolicyKind kind);

/// Snapshot of the manager's instruments (monotone except pinned_frames).
/// hits, misses, evictions and ghost_hits are accounting counts: the base
/// ledger's plus every folded private ledger's. The rest are physical.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;       ///< dirty frames written at eviction
  uint64_t physical_reads = 0;   ///< actual preads (faults)
  uint64_t physical_writes = 0;  ///< actual pwrites
  uint64_t write_errors = 0;     ///< failed writeback pwrites (lost pages)
  uint64_t ghost_hits = 0;       ///< 2Q A1out promotions (counted as misses)
  uint64_t pinned_frames = 0;    ///< currently pinned (instantaneous)
  uint64_t pinned_peak = 0;      ///< high-water mark of pinned_frames
};

/// One replacement-policy simulation plus its counts. A ledger is a value:
/// not thread-safe, owned by one run (or by the pool, as its base).
class AccessLedger {
 public:
  struct Counts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t ghost_hits = 0;
  };

  /// A cold ledger for a pool of `pool_pages` under `kind`.
  AccessLedger(size_t pool_pages, EvictionPolicyKind kind);

  /// Records one logical access and returns hit (true) or miss (false).
  bool Access(PageId id);

  const Counts& counts() const { return counts_; }

 private:
  friend class BufferManager;

  // Resident pages and the 2Q ghost ids, keyed by PageId::key(); `where`
  // locates a key's list node. Copying rebuilds `where` over the copy.
  struct State {
    std::list<uint64_t> lru;    // kLru: MRU at front
    std::list<uint64_t> a1in;   // k2Q: FIFO, newest at front
    std::list<uint64_t> a1out;  // k2Q: ghost ids, newest at front
    std::list<uint64_t> am;     // k2Q: hot LRU, MRU at front
    std::unordered_map<uint64_t, std::pair<int, std::list<uint64_t>::iterator>>
        where;  // queue tag (0=lru/a1in, 1=am, 2=a1out) + node

    State() = default;
    State(const State& other) { *this = other; }
    State& operator=(const State& other);
  };

  // A private fork: reads `base` until the first state-changing access.
  AccessLedger(size_t pool_pages, EvictionPolicyKind kind,
               std::shared_ptr<const State> base);

  // Would this access change `s`? Hits that leave the state as it is (an
  // A1in hit, a hit on the MRU page) and kNone misses do not.
  bool ChangesState(const State& s, uint64_t key) const;
  bool AccessState(uint64_t key);
  void Reclaim();

  size_t pool_pages_;
  EvictionPolicyKind kind_;
  size_t kin_;   // 2Q: A1in capacity  (max(1, pool/4))
  size_t kout_;  // 2Q: A1out capacity (max(1, pool/2))
  std::shared_ptr<const State> base_;  // non-null until the first change
  State state_;
  Counts counts_;
};

class BufferManager;

/// RAII pin handle. Movable; unpins (with the dirty flag) on destruction.
///
/// [[nodiscard]]: a discarded PageGuard is a pin/unpin pulse — the page is
/// released before any byte can be read, and the pointless churn perturbs
/// pinned_frames/pinned_peak telemetry. The bouquet-page-guard lint check
/// additionally requires that Pin()/PinNew() results are bound to a guard
/// rather than consumed as temporaries.
class [[nodiscard]] PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return bm_ != nullptr; }
  PageId id() const { return id_; }
  const uint8_t* data() const { return data_; }
  /// Marks the frame dirty; bytes reach disk when the frame is evicted.
  uint8_t* mutable_data() {
    dirty_ = true;
    return data_;
  }

  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* bm, PageId id, uint8_t* data)
      : bm_(bm), id_(id), data_(data) {}

  BufferManager* bm_ = nullptr;
  PageId id_;
  uint8_t* data_ = nullptr;
  bool dirty_ = false;
};

class BufferManager {
 public:
  BufferManager(size_t pool_pages, EvictionPolicyKind kind);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Registers a page file; the returned id names it in PageIds. The file
  /// must outlive the manager or be dropped first. Ids of dropped files
  /// are reused.
  uint16_t RegisterFile(PageFile* file) EXCLUDES(files_mu_);

  /// Unregisters a file and discards its frames without writeback (used
  /// for temp spill segments). Visits only the file's own pages. Any
  /// still-pinned frame of the file is a caller bug (asserted in debug).
  void DropFile(uint16_t file_id) EXCLUDES(files_mu_);

  /// ACCOUNTING: records one logical access in the base ledger and returns
  /// hit (true) or miss (false). Never performs I/O.
  bool Access(PageId id) EXCLUDES(ledger_mu_);

  /// ACCOUNTING: a private ledger forked from the base ledger's current
  /// state (copied lazily, on the fork's first state-changing access).
  AccessLedger ForkLedger() EXCLUDES(ledger_mu_);

  /// Adds a private ledger's counts to the buffer_* counters (and so to
  /// stats()). Its state is discarded, never merged into the base.
  void FoldLedger(const AccessLedger& ledger);

  /// PHYSICAL: pins the page, faulting it from disk when no frame holds
  /// it. Never fails for capacity reasons (see header comment); I/O errors
  /// return an invalid guard (callers treat the table as unreadable).
  PageGuard Pin(PageId id);

  /// PHYSICAL: pins a fresh all-zero frame for an allocated page that will
  /// be written (temp spill pages); no disk read, frame starts dirty.
  PageGuard PinNew(PageId id);

  BufferStats stats() const;
  /// The registry holding this pool's buffer_* instruments.
  obs::MetricsRegistry& metrics() { return metrics_; }
  size_t pool_pages() const { return pool_pages_; }
  EvictionPolicyKind policy_kind() const { return kind_; }
  /// Frames currently alive; > pool_pages() means eviction is starved by
  /// pins.
  size_t physical_frames() const;

  /// Drops every unpinned frame, clears the base ledger and statistics.
  /// The differential harness calls this before every run so both engines
  /// start from an identical (cold) replacement state.
  void ResetForTest() EXCLUDES(ledger_mu_);

  /// Optional tracer (null = off): every physical read emits a
  /// "storage.page_fault" span.
  void SetObservability(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

 private:
  enum class FrameState : uint8_t {
    kReady,
    kLoading,  ///< pread in flight (the loader holds a pin)
    kWriting,  ///< writeback in flight (unpinned; frame keeps its page)
  };

  struct Frame {
    uint64_t key = 0;
    size_t slot = 0;  ///< index in its shard's ring
    std::unique_ptr<uint8_t[]> data;
    int pins = 0;
    bool dirty = false;
    bool referenced = false;  ///< CLOCK reference bit
    FrameState state = FrameState::kReady;
  };

  // Resolved once from metrics_ at construction; never null.
  struct Instruments {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* evictions;
    obs::Counter* ghost_hits;
    obs::Counter* writebacks;
    obs::Counter* physical_reads;
    obs::Counter* write_errors;
  };

  // One page-keyed slice of the pool: its frames form the CLOCK ring, and
  // `capacity` is its share of pool_pages.
  struct Shard {
    mutable Mutex mu;
    CondVar io_done;  ///< a frame left kLoading/kWriting, or was dropped
    size_t capacity = 0;
    std::vector<std::unique_ptr<Frame>> ring GUARDED_BY(mu);
    std::unordered_map<uint64_t, Frame*> table GUARDED_BY(mu);
    size_t hand GUARDED_BY(mu) = 0;
  };

  // Where a Pin/PinNew that found no frame gets one. kRetry: the shard
  // lock was released (a writeback ran or a wait happened), so the table
  // must be looked up again.
  enum class Claim { kFrame, kRetry };

  Shard& ShardOf(uint64_t key) const;
  PageFile* FileOf(uint16_t file_id) const;
  PageGuard PinFrame(Shard* s, PageId id, bool fresh);
  Claim ClaimFrameLocked(Shard* s, Frame** out) REQUIRES(s->mu);
  Status WriteFrame(const Frame& f) const;
  void WritebackLocked(Shard* s, Frame* f) REQUIRES(s->mu);
  void RemoveFrameLocked(Shard* s, Frame* f) REQUIRES(s->mu);
  void PinLocked(Frame* f);
  void UnpinLocked(Frame* f);
  // Counts the base ledger's accounting since `before` (under ledger_mu_).
  void CountBase(const AccessLedger::Counts& before) REQUIRES(ledger_mu_);
  void Unpin(PageId id, bool dirty);

  friend class PageGuard;

  const size_t pool_pages_;
  const EvictionPolicyKind kind_;
  obs::MetricsRegistry metrics_;
  Instruments ins_;
  std::atomic<obs::Tracer*> tracer_{nullptr};

  // Accounting.
  mutable Mutex ledger_mu_;
  AccessLedger base_ GUARDED_BY(ledger_mu_);
  /// Copy of the base state shared by forks; reset when the base changes.
  std::shared_ptr<const AccessLedger::State> snapshot_
      GUARDED_BY(ledger_mu_);

  // Physical. pinned_ is sampled by stats() and buffer_pinned_frames.
  const size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> pinned_{0};
  std::atomic<uint64_t> pinned_peak_{0};

  // File registry: two-level table for lock-free lookup by id.
  static constexpr size_t kFileChunk = 256;
  struct FileChunk {
    std::array<std::atomic<PageFile*>, kFileChunk> files{};
  };
  std::array<std::atomic<FileChunk*>, 65536 / kFileChunk> file_chunks_{};
  mutable Mutex files_mu_;
  uint16_t next_file_id_ GUARDED_BY(files_mu_) = 1;
  std::vector<uint16_t> free_file_ids_ GUARDED_BY(files_mu_);
};

}  // namespace storage
}  // namespace bouquet

#endif  // BOUQUET_STORAGE_BUFFER_MANAGER_H_
