// NEGATIVE probe: touches a buffer-manager-style frame table without its
// mutex, modeled on a shard of src/storage/buffer_manager.h (a shard's
// frame table, CLOCK ring and physical counters share the shard's
// capability-annotated Mutex; a frame lookup outside it races eviction
// reusing the frame under the reader).
//
// Under enforcement (Clang + -Werror=thread-safety) this file MUST NOT
// compile — if it does, the thread-safety gate has silently rotted (see
// tests/static/CMakeLists.txt and check_probes.cmake). Without enforcement
// (GCC, or BOUQUET_THREAD_SAFETY=OFF) it must compile cleanly, proving the
// annotations are true no-ops.

#include <cstdint>
#include <unordered_map>

#include "common/synchronization.h"

namespace {

struct Frame {
  int pins = 0;
  bool dirty = false;
};

class MiniBufferPool {
 public:
  // BUG (deliberate): pin bump through the frame table with mu_ not held —
  // eviction running under the lock can free the frame mid-update.
  void UnlockedPin(uint64_t key) {
    Frame& f = frames_[key];
    ++f.pins;
    ++pinned_;
  }

 private:
  bouquet::Mutex mu_;
  std::unordered_map<uint64_t, Frame> frames_ GUARDED_BY(mu_);
  uint64_t pinned_ GUARDED_BY(mu_) = 0;
};

}  // namespace

int ProbeEntry() {
  MiniBufferPool pool;
  pool.UnlockedPin(42);
  return 0;
}
