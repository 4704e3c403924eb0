#include "edc/logstore/record_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace edc {

uint64_t RecordPool::Key(std::span<const uint8_t> record) {
  uint64_t head = 0;
  uint64_t tail = 0;
  if (!record.empty()) {
    size_t n = std::min<size_t>(8, record.size());
    std::memcpy(&head, record.data(), n);
    std::memcpy(&tail, record.data() + record.size() - n, n);
  }
  // splitmix64's finalizer over the three fields.
  uint64_t x = head ^ (tail << 32 | tail >> 32) ^ (record.size() * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RecordPool::Ref RecordPool::Pack(uint32_t slot, size_t begin, size_t length) {
  return uint64_t{slot} << kSlotShift | uint64_t{begin} << kBeginShift |
         std::min<uint64_t>(length, kLengthMask);
}

RecordPool::Ref RecordPool::Place(std::span<const uint8_t> record, uint32_t owner) {
  ++placed_;
  uint64_t key = Key(record);
  Recent& recent = recent_[key & (kRecentEntries - 1)];
  auto slot = static_cast<uint32_t>(recent.ref >> kSlotShift);
  if (recent.key == key && recent.owner != owner && slot < blocks_.size() &&
      blocks_[slot].generation == recent.generation) {
    std::span<const uint8_t> placed = Get(recent.ref);
    if (std::equal(placed.begin(), placed.end(), record.begin(), record.end())) {
      ++blocks_[slot].refs;
      ++shared_;
      return recent.ref;
    }
  }
  if (fill_ == kNoSlot || blocks_[fill_].capacity - fill_used_ < record.size()) {
    OpenFillBlock(std::max(kBlockBytes, record.size()));
  }
  Block& block = blocks_[fill_];
  if (!record.empty()) {
    std::memcpy(block.bytes.get() + fill_used_, record.data(), record.size());
  }
  ++block.refs;
  Ref ref = Pack(fill_, fill_used_, record.size());
  recent = Recent{key, ref, block.generation, owner};
  fill_used_ += record.size();
  return ref;
}

void RecordPool::OpenFillBlock(size_t capacity) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(blocks_.size());
    assert(slot < (uint32_t{1} << (64 - kSlotShift)) && "RecordPool: block slots exhausted");
    blocks_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Block& block = blocks_[slot];
  block.bytes.reset(new uint8_t[capacity]);
  block.capacity = capacity;
  bytes_held_ += capacity;
  uint32_t old = fill_;
  fill_ = slot;
  fill_used_ = 0;
  if (old != kNoSlot && blocks_[old].refs == 0) {
    Free(old);
  }
}

void RecordPool::Release(Ref ref) {
  auto slot = static_cast<uint32_t>(ref >> kSlotShift);
  Block& block = blocks_[slot];
  assert(block.refs > 0);
  if (--block.refs == 0 && slot != fill_) {
    Free(slot);
  }
}

void RecordPool::Free(uint32_t slot) {
  Block& block = blocks_[slot];
  block.bytes.reset();
  bytes_held_ -= block.capacity;
  block.capacity = 0;
  ++block.generation;
  free_slots_.push_back(slot);
}

}  // namespace edc
