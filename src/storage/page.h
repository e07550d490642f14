#ifndef TARPIT_STORAGE_PAGE_H_
#define TARPIT_STORAGE_PAGE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <shared_mutex>

namespace tarpit {

/// All on-disk structures use fixed 4 KiB pages.
inline constexpr uint32_t kPageSize = 4096;

/// The last four bytes of every page hold a little-endian CRC32 of the
/// first kPageUsableSize bytes. The trailer is sealed by
/// DiskManager::WritePage and verified by DiskManager::ReadPage — page
/// formats (slotted pages, B+tree nodes) must lay out their contents
/// within kPageUsableSize and never touch the trailer. A page that is
/// all zeroes end to end (a file hole that was never written) is also
/// accepted as valid on read.
inline constexpr uint32_t kPageChecksumSize = 4;
inline constexpr uint32_t kPageUsableSize = kPageSize - kPageChecksumSize;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Identifies a record within a heap file: page plus slot number.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }

  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page_id == b.page_id && a.slot == b.slot;
  }
  friend bool operator<(const RecordId& a, const RecordId& b) {
    if (a.page_id != b.page_id) return a.page_id < b.page_id;
    return a.slot < b.slot;
  }
};

/// In-memory image of one disk page, held in a buffer-pool frame.
///
/// Pin count and dirty bit are atomics so concurrent readers can pin,
/// unpin and flush without a frame lock. The page *image* is protected
/// by a per-page reader/writer latch: readers decode under a shared
/// latch, image writers mutate under the exclusive latch (B+tree
/// crabbing and heap record ops go through PageGuard::LatchShared /
/// LatchExclusive). Latch holders always hold a pin, so eviction
/// (which requires pin == 0 under the shard lock) never races a
/// latched image; pool-level flush paths run only from quiesced
/// contexts (checkpoint under the DDL exclusive lock, destruction).
class Page {
 public:
  Page() { Reset(); }

  char* data() { return data_; }
  const char* data() const { return data_; }

  PageId page_id() const {
    return page_id_.load(std::memory_order_acquire);
  }
  bool is_dirty() const {
    return is_dirty_.load(std::memory_order_acquire);
  }
  int pin_count() const {
    return pin_count_.load(std::memory_order_acquire);
  }

  /// Only safe while the frame is exclusively owned (freshly claimed
  /// for reuse, or single-threaded setup).
  void Reset() {
    std::memset(data_, 0, kPageSize);
    page_id_.store(kInvalidPageId, std::memory_order_release);
    is_dirty_.store(false, std::memory_order_relaxed);
    pin_count_.store(0, std::memory_order_relaxed);
    // A fresh latch for the frame's next page. Latch-coupled descents
    // order latches by page (meta -> parent -> child, left -> right),
    // but a recycled frame can hold the meta page now and a child page
    // later, so a latch kept across pages would record both orders
    // between two frames -- a false lock-order inversion to any
    // checker that keys locks by object (TSan). A new allocation is a
    // new object to such a checker. Replacing it is safe: the frame is
    // exclusively owned with pin == 0, and only pin holders latch, so
    // no thread holds or waits on the old latch.
    latch_ = std::make_unique<std::shared_mutex>();
  }

 private:
  friend class BufferPool;
  friend class PageGuard;

  char data_[kPageSize];
  std::atomic<PageId> page_id_{kInvalidPageId};
  std::atomic<bool> is_dirty_{false};
  std::atomic<int> pin_count_{0};
  // Never held across frame recycling: holders keep a pin, and a frame
  // is only reclaimed once its pin count is observed at zero.
  std::unique_ptr<std::shared_mutex> latch_;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_PAGE_H_
