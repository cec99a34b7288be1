#include "storage/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace bouquet {
namespace storage {

namespace {

// Shards: about 16 frames each at least, at most 16 of them. Small pools
// get one shard, so their CLOCK order is the whole pool's.
size_t NumShards(size_t pool_pages) {
  return std::clamp<size_t>(pool_pages / 16, 1, 16);
}

}  // namespace

std::string EvictionPolicyName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kNone:
      return "none";
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::k2Q:
      return "2q";
  }
  return "?";
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.bm_ = nullptr;
    other.data_ = nullptr;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(id_, dirty_);
    bm_ = nullptr;
    data_ = nullptr;
    dirty_ = false;
  }
}

// ---------------------------------------------------------------------------
// AccessLedger
// ---------------------------------------------------------------------------

AccessLedger::State& AccessLedger::State::operator=(const State& other) {
  if (this == &other) return *this;
  lru = other.lru;
  a1in = other.a1in;
  a1out = other.a1out;
  am = other.am;
  where.clear();
  where.reserve(other.where.size());
  for (auto it = lru.begin(); it != lru.end(); ++it) where[*it] = {0, it};
  for (auto it = a1in.begin(); it != a1in.end(); ++it) where[*it] = {0, it};
  for (auto it = am.begin(); it != am.end(); ++it) where[*it] = {1, it};
  for (auto it = a1out.begin(); it != a1out.end(); ++it) {
    where[*it] = {2, it};
  }
  return *this;
}

AccessLedger::AccessLedger(size_t pool_pages, EvictionPolicyKind kind)
    : pool_pages_(pool_pages == 0 ? 1 : pool_pages),
      kind_(kind),
      kin_(pool_pages_ / 4 == 0 ? 1 : pool_pages_ / 4),
      kout_(pool_pages_ / 2 == 0 ? 1 : pool_pages_ / 2) {}

AccessLedger::AccessLedger(size_t pool_pages, EvictionPolicyKind kind,
                           std::shared_ptr<const State> base)
    : AccessLedger(pool_pages, kind) {
  base_ = std::move(base);
}

bool AccessLedger::ChangesState(const State& s, uint64_t key) const {
  if (kind_ == EvictionPolicyKind::kNone) return false;
  const auto it = s.where.find(key);
  if (it == s.where.end()) return true;  // a miss admits the page
  if (kind_ == EvictionPolicyKind::kLru) {
    return it->second.second != s.lru.begin();
  }
  switch (it->second.first) {
    case 0:  // A1in hit: FIFO position unchanged
      return false;
    case 1:  // Am hit: moves to the MRU end unless already there
      return it->second.second != s.am.begin();
    default:  // A1out ghost: promotion
      return true;
  }
}

bool AccessLedger::Access(PageId id) {
  const uint64_t key = id.key();
  bool hit;
  if (base_ != nullptr && !ChangesState(*base_, key)) {
    // Read-only on the shared base: a kNone miss or a hit that moves
    // nothing.
    hit = kind_ != EvictionPolicyKind::kNone;
  } else {
    if (base_ != nullptr) {
      state_ = *base_;
      base_.reset();
    }
    hit = AccessState(key);
  }
  if (hit) {
    counts_.hits++;
  } else {
    counts_.misses++;
  }
  return hit;
}

void AccessLedger::Reclaim() {
  State& s = state_;
  if (kind_ == EvictionPolicyKind::kLru) {
    while (s.lru.size() > pool_pages_) {
      s.where.erase(s.lru.back());
      s.lru.pop_back();
      counts_.evictions++;
    }
    return;
  }
  // 2Q (Johnson & Shasha '94, simplified full version): keep A1in at Kin by
  // demoting its FIFO tail to the ghost queue; once A1in is within bound,
  // evict from the cold end of Am (no ghost — Am pages already proved
  // themselves once and must re-earn admission).
  while (s.a1in.size() + s.am.size() > pool_pages_) {
    if (s.a1in.size() > kin_ || s.am.empty()) {
      const uint64_t victim = s.a1in.back();
      s.a1in.pop_back();
      s.a1out.push_front(victim);
      s.where[victim] = {2, s.a1out.begin()};
      while (s.a1out.size() > kout_) {
        s.where.erase(s.a1out.back());
        s.a1out.pop_back();
      }
    } else {
      s.where.erase(s.am.back());
      s.am.pop_back();
    }
    counts_.evictions++;
  }
}

bool AccessLedger::AccessState(uint64_t key) {
  if (kind_ == EvictionPolicyKind::kNone) return false;  // always a miss
  State& s = state_;
  auto it = s.where.find(key);
  if (kind_ == EvictionPolicyKind::kLru) {
    if (it != s.where.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.second);
      it->second.second = s.lru.begin();
      return true;
    }
    s.lru.push_front(key);
    s.where[key] = {0, s.lru.begin()};
    Reclaim();
    return false;
  }
  // 2Q.
  if (it != s.where.end()) {
    switch (it->second.first) {
      case 1:  // Am: hit, refresh recency
        s.am.splice(s.am.begin(), s.am, it->second.second);
        it->second.second = s.am.begin();
        return true;
      case 0:  // A1in: hit, FIFO position unchanged (classic 2Q)
        return true;
      case 2:  // A1out ghost: miss, but promote straight to Am
        counts_.ghost_hits++;
        s.a1out.erase(it->second.second);
        s.am.push_front(key);
        it->second = {1, s.am.begin()};
        Reclaim();
        return false;
    }
  }
  s.a1in.push_front(key);
  s.where[key] = {0, s.a1in.begin()};
  Reclaim();
  return false;
}

// ---------------------------------------------------------------------------
// BufferManager: accounting
// ---------------------------------------------------------------------------

BufferManager::BufferManager(size_t pool_pages, EvictionPolicyKind kind)
    : pool_pages_(pool_pages == 0 ? 1 : pool_pages),
      kind_(kind),
      base_(pool_pages_, kind),
      num_shards_(NumShards(pool_pages_)),
      shards_(new Shard[num_shards_]) {
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity =
        pool_pages_ / num_shards_ + (i < pool_pages_ % num_shards_ ? 1 : 0);
  }
  obs::MetricsRegistry& m = metrics_;
  ins_.hits = m.GetCounter("buffer_hits_total", "Buffer-pool accounting hits");
  ins_.misses =
      m.GetCounter("buffer_misses_total", "Buffer-pool accounting misses");
  ins_.evictions =
      m.GetCounter("buffer_evictions_total", "Pages evicted by the policy");
  ins_.ghost_hits = m.GetCounter("buffer_ghost_hits_total",
                                 "2Q ghost-queue promotions (also misses)");
  ins_.writebacks = m.GetCounter(
      "buffer_writebacks_total",
      "Dirty frames written back (every pwrite is one)");
  ins_.physical_reads = m.GetCounter("buffer_physical_reads_total",
                                     "Page faults served by pread");
  ins_.write_errors = m.GetCounter("buffer_write_errors_total",
                                   "Failed writeback pwrites");
  m.GetGauge("buffer_pinned_frames", "Frames currently pinned", [this] {
    return static_cast<double>(pinned_.load(std::memory_order_relaxed));
  });
}

BufferManager::~BufferManager() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    MutexLock lock(&s.mu);
    // Final flush of dirty frames (spill temp pages included).
    for (const std::unique_ptr<Frame>& f : s.ring) {
      assert(f->pins == 0 && "frame still pinned at BufferManager destruction");
      if (f->dirty && !WriteFrame(*f).ok()) ins_.write_errors->Inc();
    }
  }
  for (std::atomic<FileChunk*>& chunk : file_chunks_) {
    delete chunk.load(std::memory_order_relaxed);
  }
}

bool BufferManager::Access(PageId id) {
  MutexLock lock(&ledger_mu_);
  const AccessLedger::Counts before = base_.counts();
  const bool hit = base_.Access(id);
  snapshot_.reset();
  CountBase(before);
  return hit;
}

void BufferManager::CountBase(const AccessLedger::Counts& before) {
  const AccessLedger::Counts& now = base_.counts();
  ins_.hits->Inc(now.hits - before.hits);
  ins_.misses->Inc(now.misses - before.misses);
  ins_.evictions->Inc(now.evictions - before.evictions);
  ins_.ghost_hits->Inc(now.ghost_hits - before.ghost_hits);
}

AccessLedger BufferManager::ForkLedger() {
  MutexLock lock(&ledger_mu_);
  if (snapshot_ == nullptr) {
    snapshot_ = std::make_shared<const AccessLedger::State>(base_.state_);
  }
  return AccessLedger(pool_pages_, kind_, snapshot_);
}

void BufferManager::FoldLedger(const AccessLedger& ledger) {
  const AccessLedger::Counts& c = ledger.counts();
  ins_.hits->Inc(c.hits);
  ins_.misses->Inc(c.misses);
  ins_.evictions->Inc(c.evictions);
  ins_.ghost_hits->Inc(c.ghost_hits);
}

// ---------------------------------------------------------------------------
// BufferManager: files
// ---------------------------------------------------------------------------

PageFile* BufferManager::FileOf(uint16_t file_id) const {
  const FileChunk* chunk =
      file_chunks_[file_id / kFileChunk].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return chunk->files[file_id % kFileChunk].load(std::memory_order_acquire);
}

uint16_t BufferManager::RegisterFile(PageFile* file) {
  MutexLock lock(&files_mu_);
  uint16_t id;
  if (!free_file_ids_.empty()) {
    id = free_file_ids_.back();
    free_file_ids_.pop_back();
  } else {
    id = next_file_id_++;
    assert(id != 0 && "page file id space exhausted");
  }
  std::atomic<FileChunk*>& slot = file_chunks_[id / kFileChunk];
  FileChunk* chunk = slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new FileChunk();
    slot.store(chunk, std::memory_order_release);
  }
  chunk->files[id % kFileChunk].store(file, std::memory_order_release);
  return id;
}

void BufferManager::DropFile(uint16_t file_id) {
  PageFile* file = FileOf(file_id);
  if (file == nullptr) return;
  // Every frame of the file holds one of its allocated pages.
  const uint32_t num_pages = file->num_pages();
  for (uint32_t page = 0; page < num_pages; ++page) {
    const uint64_t key = PageId{file_id, page}.key();
    Shard& s = ShardOf(key);
    MutexLock lock(&s.mu);
    for (;;) {
      const auto it = s.table.find(key);
      if (it == s.table.end()) break;
      Frame* f = it->second;
      if (f->state != FrameState::kReady) {
        s.io_done.Wait(&s.mu);  // a writeback still reads the file
        continue;
      }
      assert(f->pins == 0 && "dropping a file with pinned frames");
      RemoveFrameLocked(&s, f);  // dirty bytes are discarded
      break;
    }
  }
  MutexLock lock(&files_mu_);
  file_chunks_[file_id / kFileChunk]
      .load(std::memory_order_relaxed)
      ->files[file_id % kFileChunk]
      .store(nullptr, std::memory_order_release);
  free_file_ids_.push_back(file_id);
}

// ---------------------------------------------------------------------------
// BufferManager: physical frames
// ---------------------------------------------------------------------------

BufferManager::Shard& BufferManager::ShardOf(uint64_t key) const {
  const PageId id{static_cast<uint16_t>(key >> 32),
                  static_cast<uint32_t>(key)};
  return shards_[PageIdHash{}(id) % num_shards_];
}

void BufferManager::PinLocked(Frame* f) {
  if (f->pins++ > 0) return;
  const uint64_t now = pinned_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = pinned_peak_.load(std::memory_order_relaxed);
  while (now > peak && !pinned_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

// Drops `f`'s last pin.
void BufferManager::UnpinLocked(Frame* f) {
  f->pins = 0;
  pinned_.fetch_sub(1, std::memory_order_relaxed);
}

void BufferManager::RemoveFrameLocked(Shard* s, Frame* f) {
  s->table.erase(f->key);
  const size_t slot = f->slot;
  std::swap(s->ring[slot], s->ring.back());
  s->ring[slot]->slot = slot;
  s->ring.pop_back();  // frees f
  if (s->hand >= s->ring.size()) s->hand = 0;
}

Status BufferManager::WriteFrame(const Frame& f) const {
  PageFile* file = FileOf(static_cast<uint16_t>(f.key >> 32));
  if (file == nullptr) return Status::Ok();
  return file->WritePage(static_cast<uint32_t>(f.key), f.data.get());
}

// Writes `f` back with the shard lock released; `f` is kWriting meanwhile,
// so nobody pins, claims or drops it, and a re-pin waits for the bytes.
void BufferManager::WritebackLocked(Shard* s, Frame* f) {
  f->state = FrameState::kWriting;
  s->mu.Unlock();
  // An I/O error here loses the page. There is no caller to surface the
  // Status to (eviction happens under unrelated pins), so the error is
  // counted instead of dropped: write_errors diverging from zero tells
  // operators durable bytes are behind write traffic.
  const Status ws = WriteFrame(*f);
  s->mu.Lock();
  f->state = FrameState::kReady;
  f->dirty = false;
  ins_.writebacks->Inc();
  if (!ws.ok()) ins_.write_errors->Inc();
  s->io_done.NotifyAll();
}

// CLOCK over the shard's ring: a frame under capacity is allocated fresh;
// otherwise the first unpinned, unreferenced frame is reused (a dirty one
// is written back first, which releases the lock: kRetry). With every
// frame pinned the shard overshoots its share instead of waiting.
BufferManager::Claim BufferManager::ClaimFrameLocked(Shard* s, Frame** out) {
  bool busy = false;
  if (s->ring.size() >= s->capacity) {
    const size_t n = s->ring.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      Frame* f = s->ring[s->hand].get();
      s->hand = (s->hand + 1) % n;
      if (f->pins > 0) continue;
      if (f->state != FrameState::kReady) {
        busy = true;
        continue;
      }
      if (f->referenced) {
        f->referenced = false;
        continue;
      }
      if (f->dirty) {
        WritebackLocked(s, f);
        return Claim::kRetry;
      }
      s->table.erase(f->key);
      *out = f;
      return Claim::kFrame;
    }
    if (busy) {  // a writeback will free a frame shortly
      s->io_done.Wait(&s->mu);
      return Claim::kRetry;
    }
  }
  auto frame = std::make_unique<Frame>();
  frame->data = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
  frame->slot = s->ring.size();
  *out = frame.get();
  s->ring.push_back(std::move(frame));
  return Claim::kFrame;
}

PageGuard BufferManager::Pin(PageId id) {
  return PinFrame(&ShardOf(id.key()), id, /*fresh=*/false);
}

PageGuard BufferManager::PinNew(PageId id) {
  return PinFrame(&ShardOf(id.key()), id, /*fresh=*/true);
}

PageGuard BufferManager::PinFrame(Shard* s, PageId id, bool fresh) {
  const uint64_t key = id.key();
  PageFile* file = fresh ? nullptr : FileOf(id.file);
  if (!fresh && file == nullptr) return PageGuard();
  Frame* f = nullptr;
  {
    MutexLock lock(&s->mu);
    for (;;) {
      const auto it = s->table.find(key);
      if (it != s->table.end()) {
        Frame* cached = it->second;
        if (cached->state != FrameState::kReady) {
          s->io_done.Wait(&s->mu);
          continue;
        }
        assert(!fresh && "PinNew over an existing frame");
        cached->referenced = true;
        PinLocked(cached);
        return PageGuard(this, id, cached->data.get());
      }
      if (ClaimFrameLocked(s, &f) == Claim::kFrame) break;
    }
    // A page earns its CLOCK reference bit on its second pin: pages a scan
    // touches once (and spill pages, written once) go first.
    f->key = key;
    f->pins = 0;
    f->dirty = fresh;
    f->referenced = false;
    f->state = fresh ? FrameState::kReady : FrameState::kLoading;
    s->table.emplace(key, f);
    PinLocked(f);
    if (fresh) {
      std::memset(f->data.get(), 0, kPageSize);
      return PageGuard(this, id, f->data.get());
    }
  }
  // The fault itself runs unlocked; threads pinning the same page wait for
  // kLoading to end instead of reading it again.
  Status rs;
  {
    obs::Span fault = obs::Tracer::Begin(
        tracer_.load(std::memory_order_acquire), "storage.page_fault");
    rs = file->ReadPage(id.page, f->data.get());
    fault.Num("file", static_cast<double>(id.file))
        .Num("page", static_cast<double>(id.page));
  }
  MutexLock lock(&s->mu);
  f->state = FrameState::kReady;
  s->io_done.NotifyAll();
  if (!rs.ok()) {
    UnpinLocked(f);
    RemoveFrameLocked(s, f);
    return PageGuard();
  }
  ins_.physical_reads->Inc();
  return PageGuard(this, id, f->data.get());
}

void BufferManager::Unpin(PageId id, bool dirty) {
  Shard& s = ShardOf(id.key());
  MutexLock lock(&s.mu);
  const auto it = s.table.find(id.key());
  assert(it != s.table.end() && "unpin of an unknown frame");
  if (it == s.table.end()) return;
  Frame* f = it->second;
  if (dirty) f->dirty = true;
  assert(f->pins > 0 && "unpin underflow");
  if (f->pins > 1) {
    f->pins--;
    return;
  }
  UnpinLocked(f);
  // Reclaim starvation overshoot as pins drop. Re-pins of `f` wait out
  // its writeback and resume only after this returns.
  if (s.ring.size() <= s.capacity) return;
  if (f->dirty) WritebackLocked(&s, f);
  if (s.ring.size() > s.capacity) RemoveFrameLocked(&s, f);
}

BufferStats BufferManager::stats() const {
  BufferStats out;
  out.hits = ins_.hits->value();
  out.misses = ins_.misses->value();
  out.evictions = ins_.evictions->value();
  out.ghost_hits = ins_.ghost_hits->value();
  out.writebacks = ins_.writebacks->value();
  out.physical_reads = ins_.physical_reads->value();
  out.physical_writes = out.writebacks;  // every pwrite is a writeback
  out.write_errors = ins_.write_errors->value();
  out.pinned_frames = pinned_.load(std::memory_order_relaxed);
  out.pinned_peak = pinned_peak_.load(std::memory_order_relaxed);
  return out;
}

size_t BufferManager::physical_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& s = shards_[i];
    MutexLock lock(&s.mu);
    n += s.ring.size();
  }
  return n;
}

void BufferManager::ResetForTest() {
  {
    MutexLock lock(&ledger_mu_);
    base_ = AccessLedger(pool_pages_, kind_);
    snapshot_.reset();
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    MutexLock lock(&s.mu);
    // Test resets drop dirty bytes deliberately (spill temp data).
    for (size_t slot = s.ring.size(); slot-- > 0;) {
      Frame* f = s.ring[slot].get();
      if (f->pins == 0 && f->state == FrameState::kReady) {
        RemoveFrameLocked(&s, f);
      }
    }
  }
  metrics_.ResetForTest();
  pinned_peak_.store(pinned_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

}  // namespace storage
}  // namespace bouquet
