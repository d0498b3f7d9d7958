#include "common/arena.h"

#include <algorithm>

#include "common/memory_tracker.h"

namespace vstore {

Arena::~Arena() {
  if (tracker_ != nullptr && bytes_reserved_ > 0) {
    tracker_->Release(static_cast<int64_t>(bytes_reserved_));
  }
}

void Arena::SetMemoryTracker(MemoryTracker* tracker) {
  if (tracker == tracker_) return;
  if (tracker_ != nullptr && bytes_reserved_ > 0) {
    tracker_->Release(static_cast<int64_t>(bytes_reserved_));
  }
  tracker_ = tracker;
  if (tracker_ != nullptr && bytes_reserved_ > 0) {
    tracker_->Charge(static_cast<int64_t>(bytes_reserved_));
  }
}

uint8_t* Arena::Allocate(size_t size, size_t alignment) {
  VSTORE_DCHECK((alignment & (alignment - 1)) == 0);
  if (size == 0) size = 1;
  if (!blocks_.empty()) {
    Block& block = blocks_.back();
    size_t aligned = (block.used + alignment - 1) & ~(alignment - 1);
    if (aligned + size <= block.size) {
      block.used = aligned + size;
      bytes_allocated_ += size;
      return block.data.get() + aligned;
    }
  }
  // Start a new block; oversized requests get a dedicated block.
  size_t block_size = std::max(next_block_size_, size + alignment);
  next_block_size_ = std::min(next_block_size_ * 2, kMaxBlockSize);
  Block block;
  block.data = std::make_unique_for_overwrite<uint8_t[]>(block_size);
  block.size = block_size;
  uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
  size_t offset = (alignment - (base & (alignment - 1))) & (alignment - 1);
  block.used = offset + size;
  bytes_allocated_ += size;
  bytes_reserved_ += block_size;
  if (tracker_ != nullptr) {
    tracker_->Charge(static_cast<int64_t>(block_size));
  }
  uint8_t* out = block.data.get() + offset;
  blocks_.push_back(std::move(block));
  return out;
}

void Arena::Reset() {
  size_t kept = blocks_.empty() ? 0 : blocks_.front().size;
  if (blocks_.size() > 1) {
    Block first = std::move(blocks_.front());
    blocks_.clear();
    blocks_.push_back(std::move(first));
  }
  if (!blocks_.empty()) blocks_.front().used = 0;
  next_block_size_ = blocks_.empty()
                         ? initial_block_size_
                         : std::min(initial_block_size_ * 2, kMaxBlockSize);
  if (tracker_ != nullptr && bytes_reserved_ > kept) {
    tracker_->Release(static_cast<int64_t>(bytes_reserved_ - kept));
  }
  bytes_reserved_ = kept;
  bytes_allocated_ = 0;
}

}  // namespace vstore
