#include "src/storage/storage_manager.h"

#include <cassert>
#include <cstring>

namespace ssmc {

namespace {

// A page's payload slot. The tables end at the highest page ever written,
// growing geometrically as writes reach new pages; the allocators hand out
// the lowest never-taken page first, so a table stays as long as the pages
// actually in use.
PayloadRef& PayloadSlot(std::vector<PayloadRef>& table, uint64_t page) {
  if (page >= table.size()) {
    table.resize(page + 1);
  }
  return table[page];
}

// A page's payload, or null when the page is past the table's end (never
// written: zero fill).
const PayloadRef* FindPayload(const std::vector<PayloadRef>& table,
                              uint64_t page) {
  return page < table.size() ? &table[page] : nullptr;
}

}  // namespace

StorageManager::StorageManager(DramDevice& dram, FlashStore& flash_store,
                               uint64_t page_bytes,
                               ResidencyOptions residency, NvmDevice* nvm)
    : dram_(dram), flash_store_(flash_store), nvm_(nvm),
      page_bytes_(page_bytes),
      dram_pages_(dram.capacity_bytes() / page_bytes),
      nvm_pages_(nvm != nullptr ? nvm->capacity_bytes() / page_bytes : 0),
      flash_blocks_(flash_store.num_blocks()) {
  assert(page_bytes_ > 0);
  assert(page_bytes_ == flash_store_.block_bytes() &&
         "DRAM page size must match the flash store block size");

  // Built after the allocators so the residency manager can size its clean
  // cache against total_dram_pages().
  residency_ = std::make_unique<ResidencyManager>(*this, residency);
}

void StorageManager::AttachObs(Obs* obs) {
  residency_->AttachObs(obs);
  export_.Attach(obs, "storage", [this](MetricsRegistry& m) {
    m.AddGauge("storage/free_dram_pages")
        ->Set(static_cast<int64_t>(free_dram_pages()));
    m.AddGauge("storage/total_dram_pages")
        ->Set(static_cast<int64_t>(total_dram_pages()));
    m.AddGauge("storage/free_flash_blocks")
        ->Set(static_cast<int64_t>(free_flash_blocks()));
    m.AddGauge("storage/total_flash_blocks")
        ->Set(static_cast<int64_t>(total_flash_blocks()));
    if (nvm_ != nullptr) {
      m.AddGauge("storage/free_nvm_pages")
          ->Set(static_cast<int64_t>(free_nvm_pages()));
      m.AddGauge("storage/total_nvm_pages")
          ->Set(static_cast<int64_t>(total_nvm_pages()));
    }
  });
}

Result<uint64_t> StorageManager::AllocateDramPage() {
  const std::optional<uint64_t> page = dram_pages_.Take();
  if (!page) {
    return ResourceExhaustedError("out of DRAM pages");
  }
  return *page;
}

Status StorageManager::FreeDramPage(uint64_t page) {
  if (page >= total_dram_pages()) {
    return OutOfRangeError("no such DRAM page");
  }
  if (!dram_pages_.used(page)) {
    return FailedPreconditionError("double free of DRAM page " +
                                   std::to_string(page));
  }
  if (page < page_payloads_.size()) {
    page_payloads_[page].Reset();
  }
  dram_pages_.Put(page);
  return Status::Ok();
}

Result<uint64_t> StorageManager::AllocateNvmPage() {
  const std::optional<uint64_t> page = nvm_pages_.Take();
  if (!page) {
    return ResourceExhaustedError("out of NVM pages");
  }
  return *page;
}

Status StorageManager::FreeNvmPage(uint64_t page) {
  if (page >= total_nvm_pages()) {
    return OutOfRangeError("no such NVM page");
  }
  if (!nvm_pages_.used(page)) {
    return FailedPreconditionError("double free of NVM page " +
                                   std::to_string(page));
  }
  if (page < nvm_page_payloads_.size()) {
    nvm_page_payloads_[page].Reset();
  }
  nvm_pages_.Put(page);
  return Status::Ok();
}

Duration StorageManager::ReadNvmPagePayload(uint64_t page, uint64_t offset,
                                            std::span<uint8_t> out,
                                            IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < total_nvm_pages() && offset + out.size() <= page_bytes_);
  const Result<Duration> d =
      nvm_->Read(NvmPageAddress(page) + offset, out.size(), issue);
  const PayloadRef* ref = FindPayload(nvm_page_payloads_, page);
  if (ref != nullptr && *ref) {
    std::memcpy(out.data(), ref->data() + offset, out.size());
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return d.value_or(0);
}

Duration StorageManager::InstallNvmPagePayload(uint64_t page,
                                               PayloadRef payload,
                                               IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < total_nvm_pages() && payload.size() == page_bytes_);
  const Result<Duration> d =
      nvm_->Write(NvmPageAddress(page), page_bytes_, issue);
  PayloadSlot(nvm_page_payloads_, page) = std::move(payload);
  return d.value_or(0);
}

PayloadRef StorageManager::ReadNvmPagePayloadRef(uint64_t page,
                                                 IoIssue issue) {
  assert(nvm_ != nullptr);
  assert(page < total_nvm_pages());
  (void)nvm_->Read(NvmPageAddress(page), page_bytes_, issue);
  PayloadRef& ref = PayloadSlot(nvm_page_payloads_, page);
  if (!ref) {
    if (!zero_extent_) {
      zero_extent_ = extent_pool().Allocate();
      std::memset(zero_extent_.MutableData(), 0, page_bytes_);
    }
    ref = zero_extent_;
  }
  return ref;
}

Duration StorageManager::ReadPagePayload(uint64_t page, uint64_t offset,
                                         std::span<uint8_t> out) {
  assert(page < total_dram_pages() && offset + out.size() <= page_bytes_);
  const Duration d = dram_.ChargeAccess(out.size(), /*is_write=*/false);
  const PayloadRef* ref = FindPayload(page_payloads_, page);
  if (ref != nullptr && *ref) {
    std::memcpy(out.data(), ref->data() + offset, out.size());
  } else {
    std::memset(out.data(), 0, out.size());
  }
  return d;
}

Duration StorageManager::WritePagePayload(uint64_t page, uint64_t offset,
                                          std::span<const uint8_t> data) {
  assert(page < total_dram_pages() && offset + data.size() <= page_bytes_);
  const Duration d = dram_.ChargeAccess(data.size(), /*is_write=*/true);
  PayloadRef& ref = PayloadSlot(page_payloads_, page);
  if (!ref) {
    if (offset == 0 && data.size() == page_bytes_) {
      ref = extent_pool().AllocateCopy(data.data());
      return d;
    }
    ref = extent_pool().Allocate();
    std::memset(ref.MutableData(), 0, page_bytes_);
  }
  // MutableData clones the extent first when it is aliased (a flushed copy
  // programmed into flash, a shared zero page), so writers never disturb
  // other holders.
  std::memcpy(ref.MutableData() + offset, data.data(), data.size());
  return d;
}

Duration StorageManager::InstallPagePayload(uint64_t page, PayloadRef payload) {
  assert(page < total_dram_pages() && payload.size() == page_bytes_);
  const Duration d = dram_.ChargeAccess(page_bytes_, /*is_write=*/true);
  PayloadSlot(page_payloads_, page) = std::move(payload);
  return d;
}

Duration StorageManager::ZeroFillPagePayload(uint64_t page) {
  assert(page < total_dram_pages());
  const Duration d = dram_.ChargeAccess(page_bytes_, /*is_write=*/true);
  if (!zero_extent_) {
    zero_extent_ = extent_pool().Allocate();
    std::memset(zero_extent_.MutableData(), 0, page_bytes_);
  }
  PayloadSlot(page_payloads_, page) = zero_extent_;
  return d;
}

PayloadRef StorageManager::ReadPagePayloadRef(uint64_t page) {
  assert(page < total_dram_pages());
  dram_.ChargeAccess(page_bytes_, /*is_write=*/false);
  PayloadRef& ref = PayloadSlot(page_payloads_, page);
  if (!ref) {
    if (!zero_extent_) {
      zero_extent_ = extent_pool().Allocate();
      std::memset(zero_extent_.MutableData(), 0, page_bytes_);
    }
    ref = zero_extent_;
  }
  return ref;
}

void StorageManager::DropAllPagePayloads() {
  page_payloads_.clear();  // Every page now reads as zero fill.
  zero_extent_.Reset();
}

Status StorageManager::ReserveFlashBlock(uint64_t block) {
  if (block >= flash_store_.num_blocks()) {
    return OutOfRangeError("no such flash block");
  }
  if (flash_blocks_.used(block)) {
    return AlreadyExistsError("flash block " + std::to_string(block) +
                              " is already in use");
  }
  flash_blocks_.Claim(block);
  return Status::Ok();
}

Result<uint64_t> StorageManager::AllocateFlashBlock() {
  const std::optional<uint64_t> block = flash_blocks_.Take();
  if (!block) {
    return NoSpaceError("out of flash blocks");
  }
  return *block;
}

Status StorageManager::FreeFlashBlock(uint64_t block) {
  if (block >= flash_store_.num_blocks()) {
    return OutOfRangeError("no such flash block");
  }
  if (!flash_blocks_.used(block)) {
    return FailedPreconditionError("double free of flash block " +
                                   std::to_string(block));
  }
  SSMC_RETURN_IF_ERROR(flash_store_.Trim(block));
  flash_blocks_.Put(block);
  return Status::Ok();
}

}  // namespace ssmc
