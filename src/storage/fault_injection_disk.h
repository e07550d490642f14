#ifndef TARPIT_STORAGE_FAULT_INJECTION_DISK_H_
#define TARPIT_STORAGE_FAULT_INJECTION_DISK_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "storage/disk_manager.h"

namespace tarpit {

/// The "physical device" behind FaultInjectionDiskManager instances.
/// Holds only what durably hit disk: pages are promoted here from the
/// instance's volatile overlay when Sync() runs. The state outlives any
/// single DiskManager instance, so a test simulates a crash by simply
/// destroying the Table/DiskManager (dropping the volatile overlay —
/// everything since the last sync) and re-opening a fresh instance over
/// the same state.
struct FaultDiskState {
  using PageImage = std::array<char, kPageSize>;

  std::mutex mu;
  std::map<PageId, PageImage> durable_pages;
  uint32_t durable_page_count = 0;
  uint64_t syncs = 0;

  /// Test helper: flip bits in a durably-stored page to simulate media
  /// corruption. Returns false if the page was never durably written.
  bool CorruptDurablePage(PageId id, uint32_t byte_offset, char xor_mask);
};

/// An in-memory DiskManager with an explicit volatile/durable boundary,
/// for crash-simulation tests:
///
///   WritePage -> volatile overlay (lost on "crash")
///   Sync      -> promotes the overlay into the shared FaultDiskState
///   destroy instance + reopen over same state == power-cut recovery
///
/// Reads see the overlay over the durable image (the OS page cache
/// analogy). Checksums behave exactly like the real DiskManager: pages
/// are sealed on write and verified on read, so corruption planted in
/// the durable state is detected at fetch time. All DiskManager fail
/// points (disk.pwrite_short etc.) work here too.
class FaultInjectionDiskManager : public DiskManager {
 public:
  explicit FaultInjectionDiskManager(std::shared_ptr<FaultDiskState> state);
  ~FaultInjectionDiskManager() override;

  /// `path` is recorded for error messages only; nothing touches the
  /// filesystem.
  Status Open(const std::string& path) override;
  Status Close() override;
  bool is_open() const override { return open_; }

  uint32_t PageCount() const override;
  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, char* out) const override;
  Status WritePage(PageId id, const char* data) override;
  Status Sync() override;
  Status Truncate(uint32_t page_count) override;

  const std::shared_ptr<FaultDiskState>& state() const { return state_; }

 private:
  std::shared_ptr<FaultDiskState> state_;
  std::string path_;
  bool open_ = false;

  // Taken after state_->mu whenever both are held.
  mutable std::mutex mu_;
  std::map<PageId, FaultDiskState::PageImage> volatile_pages_;
  uint32_t page_count_ = 0;
};

}  // namespace tarpit

#endif  // TARPIT_STORAGE_FAULT_INJECTION_DISK_H_
