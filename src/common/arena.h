#ifndef VSTORE_COMMON_ARENA_H_
#define VSTORE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace vstore {

class MemoryTracker;

// Bump allocator for short-lived, variable-length data (string payloads in
// batches, hash-table build rows). Memory is freed all at once on Reset()
// or destruction. Not thread-safe; each operator owns its own arena.
//
// Blocks double in size up to 8 MiB (an oversized request gets a block of
// its own) and are not zero-filled. Reset() keeps the first block and
// restarts the doubling after it, so a reused arena reserves what a fresh
// one would.
//
// With a MemoryTracker attached, whole blocks are charged as they are
// malloc'd and released on Reset()/destruction — block granularity keeps
// the per-Allocate fast path free of accounting.
class Arena {
 public:
  explicit Arena(size_t initial_block_size = 64 * 1024)
      : initial_block_size_(initial_block_size),
        next_block_size_(initial_block_size) {}
  ~Arena();

  VSTORE_DISALLOW_COPY_AND_ASSIGN(Arena);

  // Attaches (or detaches, with nullptr) the tracker charged for this
  // arena's blocks; bytes already held migrate to the new tracker. The
  // tracker must outlive the arena.
  void SetMemoryTracker(MemoryTracker* tracker);
  MemoryTracker* memory_tracker() const { return tracker_; }

  // Allocates `size` bytes aligned to `alignment` (power of two).
  uint8_t* Allocate(size_t size, size_t alignment = 8);

  // Copies `s` into the arena and returns a view over the stable copy.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return std::string_view();
    uint8_t* dst = Allocate(s.size(), 1);
    std::memcpy(dst, s.data(), s.size());
    return std::string_view(reinterpret_cast<const char*>(dst), s.size());
  }

  // Frees all blocks except the first, which is recycled; the next block
  // is sized as if the first had just been allocated.
  void Reset();

  size_t bytes_allocated() const { return bytes_allocated_; }
  // Total malloc'd block bytes (what the tracker is charged).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  static constexpr size_t kMaxBlockSize = 8 * 1024 * 1024;

  std::vector<Block> blocks_;
  size_t initial_block_size_;
  size_t next_block_size_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace vstore

#endif  // VSTORE_COMMON_ARENA_H_
