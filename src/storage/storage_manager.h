// The physical storage manager (paper Section 3.3).
//
// Owns the partitioning of physical resources between the file system and
// the virtual memory system: it maintains "a list of free flash memory
// sectors and a list of free DRAM pages, allocating them to the file and
// virtual memory systems as needed." Concretely it provides:
//  * a DRAM page allocator over the machine's DramDevice;
//  * a logical flash-block allocator over the FlashStore;
//  * metadata-access accounting (memory-resident structures cost DRAM time);
//  * the shared WriteBuffer (write_buffer.h) is built on these allocators.
//
// Flash traffic issued on behalf of these services is classed (see
// src/sim/io_request.h): user I/O runs foreground, write-buffer flushes run
// flush-class, and the store's own cleaning runs cleaner-class, so the
// device scheduler can keep reads fast while background work drains.

#ifndef SSMC_SRC_STORAGE_STORAGE_MANAGER_H_
#define SSMC_SRC_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/device/dram_device.h"
#include "src/device/nvm_device.h"
#include "src/ftl/flash_store.h"
#include "src/obs/stats_export.h"
#include "src/storage/index_pool.h"
#include "src/storage/residency.h"
#include "src/support/extent.h"
#include "src/support/status.h"

namespace ssmc {

class Obs;

class StorageManager {
 public:
  // page_bytes is the unit of DRAM allocation; it must equal the flash
  // store's block size so buffered blocks flush 1:1. `residency` selects
  // the tier migration policy (residency.h); the default kWriteBufferOnly
  // is byte-identical to the pre-residency simulator. `nvm` adds the
  // byte-addressable NVM tier between DRAM and flash; null (the default)
  // keeps the two-tier hierarchy bit-for-bit.
  StorageManager(DramDevice& dram, FlashStore& flash_store,
                 uint64_t page_bytes, ResidencyOptions residency = {},
                 NvmDevice* nvm = nullptr);

  uint64_t page_bytes() const { return page_bytes_; }
  DramDevice& dram() { return dram_; }
  FlashStore& flash_store() { return flash_store_; }
  // The single authority on DRAM<->flash placement and migration. Consumers
  // that want migration pressure applied on allocation failure go through
  // residency().AllocateDramPage(...) rather than the raw allocator below.
  ResidencyManager& residency() { return *residency_; }
  const ResidencyManager& residency() const { return *residency_; }

  // --- DRAM page allocation ---------------------------------------------
  uint64_t total_dram_pages() const { return dram_pages_.size(); }
  uint64_t free_dram_pages() const { return dram_pages_.free_count(); }
  // Returns the page index; the page's device address is index * page_bytes.
  // RESOURCE_EXHAUSTED when the pool is dry (a typed out-of-memory: callers
  // distinguish it from media-level kNoSpace).
  Result<uint64_t> AllocateDramPage();
  Status FreeDramPage(uint64_t page);
  uint64_t DramPageAddress(uint64_t page) const { return page * page_bytes_; }

  // --- NVM page allocation ------------------------------------------------
  // The optional byte-addressable NVM tier, allocated in the same page unit
  // as DRAM. Null / zero-sized when the machine has no NVM.
  NvmDevice* nvm() { return nvm_; }
  const NvmDevice* nvm() const { return nvm_; }
  uint64_t total_nvm_pages() const { return nvm_pages_.size(); }
  uint64_t free_nvm_pages() const { return nvm_pages_.free_count(); }
  Result<uint64_t> AllocateNvmPage();
  Status FreeNvmPage(uint64_t page);
  uint64_t NvmPageAddress(uint64_t page) const { return page * page_bytes_; }

  // --- Flash logical-block allocation -------------------------------------
  uint64_t total_flash_blocks() const { return flash_store_.num_blocks(); }
  uint64_t free_flash_blocks() const { return flash_blocks_.free_count(); }
  Result<uint64_t> AllocateFlashBlock();
  // Frees the block and trims its contents from the store.
  Status FreeFlashBlock(uint64_t block);
  // Claims a specific block (fixed superblock locations). Fails if taken.
  Status ReserveFlashBlock(uint64_t block);
  bool IsFlashBlockUsed(uint64_t block) const {
    return block < flash_blocks_.size() && flash_blocks_.used(block);
  }

  // Observability (nullable; null detaches): free-pool gauges pulled at
  // snapshot time.
  void AttachObs(Obs* obs);

  // --- Page payloads ------------------------------------------------------
  // Every allocated DRAM page carries its contents as a refcounted payload
  // extent instead of bytes in the DramDevice backing store. The accessors
  // below charge exactly what a DramDevice::Read/Write of the same size
  // would (ChargeAccess runs the identical clock/energy/stats arithmetic),
  // so simulated timing is unchanged — but aliased pages (a flushed block
  // that also sits programmed in flash, a promoted clean copy, an anonymous
  // zero page) share one extent, and writes to shared extents copy-on-write.
  // The pool is the flash store's: refs flow between DRAM pages and flash
  // sectors without ever copying payload bytes.
  ExtentPool& extent_pool() { return flash_store_.extent_pool(); }

  // Reads/writes within one page's payload. offset + size must stay inside
  // the page; reads of never-written pages are zero fill (what the DRAM
  // device returns for unmaterialized chunks).
  Duration ReadPagePayload(uint64_t page, uint64_t offset,
                           std::span<uint8_t> out);
  Duration WritePagePayload(uint64_t page, uint64_t offset,
                            std::span<const uint8_t> data);
  // Installs a whole-page payload by reference (zero-copy promotion/fill);
  // charges one full-page DRAM write. payload.size() must equal page_bytes.
  Duration InstallPagePayload(uint64_t page, PayloadRef payload);
  // Zero-fills a page: charges a full-page DRAM write and aliases the shared
  // all-zeros extent (every anonymous VM page starts as one refcount bump).
  Duration ZeroFillPagePayload(uint64_t page);
  // Borrows the page's payload as a ref (refcount bump), charging one
  // full-page DRAM read — the flush path's "read the buffer" step. A
  // never-written page materializes as the shared zero extent.
  PayloadRef ReadPagePayloadRef(uint64_t page);
  // Battery failure: volatile contents are gone. Mirrors
  // DramDevice::ForceContentLoss for the payload table — subsequent reads
  // see zero fill, matching the device's dropped-chunk behavior. NVM page
  // payloads are left intact: the tier is non-volatile.
  void DropAllPagePayloads();

  // --- NVM page payloads --------------------------------------------------
  // Same refcounted-extent representation as DRAM pages, charged against the
  // NVM device's asymmetric read/write timing through its bank scheduler.
  // Valid only when nvm() is non-null.
  Duration ReadNvmPagePayload(uint64_t page, uint64_t offset,
                              std::span<uint8_t> out, IoIssue issue = {});
  // Installs a whole-page payload by reference (zero-copy promotion);
  // charges one full-page NVM write. payload.size() must equal page_bytes.
  Duration InstallNvmPagePayload(uint64_t page, PayloadRef payload,
                                 IoIssue issue = kCleanerIo);
  // Borrows the page's payload as a ref (refcount bump), charging one
  // full-page NVM read.
  PayloadRef ReadNvmPagePayloadRef(uint64_t page, IoIssue issue = {});

  // --- Metadata accounting ------------------------------------------------
  // Memory-resident metadata (directories, inodes, page tables) lives in
  // DRAM; operations on it cost DRAM access time.
  void ChargeMetadataRead(uint64_t bytes) {
    dram_.ChargeAccess(bytes, /*is_write=*/false);
  }
  void ChargeMetadataWrite(uint64_t bytes) {
    dram_.ChargeAccess(bytes, /*is_write=*/true);
  }

 private:
  DramDevice& dram_;
  FlashStore& flash_store_;
  NvmDevice* nvm_;
  uint64_t page_bytes_;
  // Allocation order is part of the simulated behaviour (addresses reach the
  // devices): lowest page/block first, freed ones reused LIFO (index_pool.h).
  IndexPool dram_pages_;
  IndexPool nvm_pages_;
  IndexPool flash_blocks_;
  std::vector<PayloadRef> page_payloads_;      // Indexed by DRAM page.
  std::vector<PayloadRef> nvm_page_payloads_;  // Indexed by NVM page.
  PayloadRef zero_extent_;                 // Lazily built, shared by aliasing.
  // Declared after the allocators: its destructor returns the clean cache's
  // DRAM pages to them, so they must still be alive.
  std::unique_ptr<ResidencyManager> residency_;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_STORAGE_MANAGER_H_
