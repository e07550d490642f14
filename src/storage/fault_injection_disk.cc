#include "storage/fault_injection_disk.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"

namespace tarpit {

bool FaultDiskState::CorruptDurablePage(PageId id, uint32_t byte_offset,
                                        char xor_mask) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = durable_pages.find(id);
  if (it == durable_pages.end()) return false;
  it->second[byte_offset % kPageSize] ^= xor_mask;
  return true;
}

FaultInjectionDiskManager::FaultInjectionDiskManager(
    std::shared_ptr<FaultDiskState> state)
    : state_(std::move(state)) {}

FaultInjectionDiskManager::~FaultInjectionDiskManager() = default;

Status FaultInjectionDiskManager::Open(const std::string& path) {
  if (open_) return Status::FailedPrecondition("already open");
  path_ = path;
  std::lock_guard<std::mutex> state_lock(state_->mu);
  std::lock_guard<std::mutex> lock(mu_);
  volatile_pages_.clear();
  page_count_ = state_->durable_page_count;
  open_ = true;
  return Status::OK();
}

Status FaultInjectionDiskManager::Close() {
  open_ = false;
  return Status::OK();
}

uint32_t FaultInjectionDiskManager::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

Result<PageId> FaultInjectionDiskManager::AllocatePage() {
  if (!open_) return Status::FailedPrecondition("not open");
  char zeros[kPageSize] = {};
  PageId id = PageCount();
  TARPIT_RETURN_IF_ERROR(WritePage(id, zeros));
  return id;
}

Status FaultInjectionDiskManager::ReadPage(PageId id, char* out) const {
  if (!open_) return Status::FailedPrecondition("not open");
  if (TARPIT_FAILPOINT("disk.pread_eio")) {
    return Status::IOError("pread page " + std::to_string(id) + " of " +
                           path_ + ": injected EIO");
  }
  {
    // Same lock order as Open, Sync and Truncate: state, then disk.
    std::lock_guard<std::mutex> state_lock(state_->mu);
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= page_count_) {
      return Status::InvalidArgument("read past end of file: page " +
                                     std::to_string(id));
    }
    auto it = volatile_pages_.find(id);
    if (it != volatile_pages_.end()) {
      std::memcpy(out, it->second.data(), kPageSize);
    } else {
      auto dit = state_->durable_pages.find(id);
      if (dit != state_->durable_pages.end()) {
        std::memcpy(out, dit->second.data(), kPageSize);
      } else {
        std::memset(out, 0, kPageSize);  // Hole.
      }
    }
  }
  if (!VerifyPageImage(out)) {
    CountChecksumFailure();
    return Status::Corruption("page " + std::to_string(id) + " of " + path_ +
                              " failed checksum");
  }
  CountRead();
  return Status::OK();
}

Status FaultInjectionDiskManager::WritePage(PageId id, const char* data) {
  if (!open_) return Status::FailedPrecondition("not open");
  FaultDiskState::PageImage image;
  std::memcpy(image.data(), data, kPageUsableSize);
  SealPageImage(image.data());

  if (TARPIT_FAILPOINT("disk.pwrite_enospc")) {
    return Status::IOError("pwrite page " + std::to_string(id) + " of " +
                           path_ + ": injected ENOSPC");
  }
  bool injected_torn = false;
  size_t torn_bytes = kPageSize;
  if (auto arg = TARPIT_FAILPOINT("disk.pwrite_short")) {
    torn_bytes = static_cast<size_t>(
        std::min<int64_t>(std::max<int64_t>(*arg, 0), kPageSize));
    injected_torn = true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    FaultDiskState::PageImage& slot = volatile_pages_[id];
    if (injected_torn) {
      // Only the leading bytes land; the page's tail keeps whatever was
      // there before (zeroes for a fresh page). The checksum trailer is
      // now stale, which is exactly the signature ReadPage detects.
      std::memcpy(slot.data(), image.data(), torn_bytes);
    } else {
      slot = image;
    }
    page_count_ = std::max(page_count_, id + 1);
  }
  if (injected_torn) {
    return Status::IOError("pwrite page " + std::to_string(id) + " of " +
                           path_ + ": injected torn page, " +
                           std::to_string(torn_bytes) + " bytes hit");
  }
  CountWrite();
  return Status::OK();
}

Status FaultInjectionDiskManager::Sync() {
  if (!open_) return Status::FailedPrecondition("not open");
  if (TARPIT_FAILPOINT("disk.fsync_fail")) {
    return Status::IOError("fsync " + path_ + ": injected EIO");
  }
  std::lock_guard<std::mutex> state_lock(state_->mu);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, image] : volatile_pages_) {
    state_->durable_pages[id] = image;
  }
  volatile_pages_.clear();
  state_->durable_page_count =
      std::max(state_->durable_page_count, page_count_);
  ++state_->syncs;
  return Status::OK();
}

Status FaultInjectionDiskManager::Truncate(uint32_t page_count) {
  if (!open_) return Status::FailedPrecondition("not open");
  std::lock_guard<std::mutex> state_lock(state_->mu);
  std::lock_guard<std::mutex> lock(mu_);
  volatile_pages_.erase(volatile_pages_.lower_bound(page_count),
                        volatile_pages_.end());
  // Truncation is a metadata op filesystems persist aggressively; model
  // it as immediately durable (conservative for recovery tests: the
  // rebuilt index must not depend on stale durable tails).
  state_->durable_pages.erase(state_->durable_pages.lower_bound(page_count),
                              state_->durable_pages.end());
  page_count_ = page_count;
  state_->durable_page_count = std::min(state_->durable_page_count,
                                        page_count);
  return Status::OK();
}

}  // namespace tarpit
