// Refcounted record blocks shared by the LogStores of one simulated cluster.
//
// Zab sends every transaction to every replica and each replica logs it, so
// the replicas' logs hold byte-identical records. A RecordPool keeps one copy:
// Place() copies a record into the pool's fill block, unless a different
// store placed the same bytes recently, in which case the new record is a
// reference to that placement. A small fixed table remembers the most recent
// placements by a key that reads only the length and the first and last 8
// bytes (a Zab record starts with its zxid); a hit is shared only after its
// bytes compare equal to the record's.
//
// Blocks count the references (Refs) that point into them, not records; a
// block is freed once its count drops to zero and it is no longer the fill
// block. The table holds no references: each table entry names a block slot
// and that slot's generation, and freeing a block bumps the generation, so
// the entry goes stale instead of keeping the block alive. A store never
// shares its own placements, so a store with a private pool holds its own
// copy of every record, as a private arena would.
//
// The pool is host memory only: where a record's bytes live changes no
// simulated time, size or order.

#ifndef EDC_LOGSTORE_RECORD_POOL_H_
#define EDC_LOGSTORE_RECORD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace edc {

class RecordPool {
 public:
  // A record never straddles two blocks; a record larger than a block gets a
  // block of its own.
  static constexpr size_t kBlockBytes = 64 * 1024;
  // Entries in the table of recent placements (a power of two).
  static constexpr size_t kRecentEntries = 4096;

  // One placed record: block slot, begin offset and length packed in 8
  // bytes. Each Ref holds one reference on its block until Release().
  using Ref = uint64_t;

  RecordPool() : recent_(kRecentEntries) {}
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  // A fresh owner tag for one store. Place() shares only placements made
  // under a different tag.
  uint32_t NewOwner() { return ++owners_; }

  // Returns a Ref to bytes equal to `record`: a recent placement by another
  // owner when the table finds one, else a fresh copy in the fill block.
  Ref Place(std::span<const uint8_t> record, uint32_t owner);

  // The bytes `ref` names; valid until its last reference is released.
  std::span<const uint8_t> Get(Ref ref) const {
    const Block& block = blocks_[ref >> kSlotShift];
    size_t length = ref & kLengthMask;
    if (length == kLengthMask) {
      length = block.capacity;  // a record this long fills its own block
    }
    return {block.bytes.get() + ((ref >> kBeginShift) & kBeginMask), length};
  }

  void Release(Ref ref);

  // Bytes of blocks currently allocated.
  size_t bytes_held() const { return bytes_held_; }
  // Place() calls, and those served by a reference to an earlier placement.
  uint64_t placed() const { return placed_; }
  uint64_t shared() const { return shared_; }

 private:
  // Ref layout: slot (23 bits) | begin (17 bits) | length (24 bits). A
  // begin may equal kBlockBytes (an empty record at the end of a full
  // block); a length of kLengthMask or more is stored as kLengthMask.
  static constexpr int kBeginShift = 24;
  static constexpr int kSlotShift = 41;
  static constexpr uint64_t kLengthMask = (uint64_t{1} << 24) - 1;
  static constexpr uint64_t kBeginMask = (uint64_t{1} << 17) - 1;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Block {
    std::unique_ptr<uint8_t[]> bytes;
    size_t capacity = 0;
    size_t refs = 0;
    uint32_t generation = 1;  // bumped when the block is freed; never 0
  };
  // A recent placement; stale once its block's generation moves on (an
  // unused entry has generation 0, which no block has).
  struct Recent {
    uint64_t key = 0;
    Ref ref = 0;
    uint32_t generation = 0;
    uint32_t owner = 0;
  };

  static uint64_t Key(std::span<const uint8_t> record);
  static Ref Pack(uint32_t slot, size_t begin, size_t length);
  void OpenFillBlock(size_t capacity);
  void Free(uint32_t slot);

  std::vector<Block> blocks_;
  std::vector<uint32_t> free_slots_;
  uint32_t fill_ = kNoSlot;
  size_t fill_used_ = 0;
  std::vector<Recent> recent_;
  size_t bytes_held_ = 0;
  uint32_t owners_ = 0;
  uint64_t placed_ = 0;
  uint64_t shared_ = 0;
};

}  // namespace edc

#endif  // EDC_LOGSTORE_RECORD_POOL_H_
