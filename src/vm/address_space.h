// AddressSpace: a protected 64-bit single-level address space (Section 3.2).
//
// Regions map three kinds of memory:
//  * anonymous — zero-fill DRAM on first touch (heap, stack, data segment);
//  * file copy-on-write — pages initially map straight into flash (no copy,
//    no duplicate DRAM storage — the Section 3.1 mapped-file technique);
//    the first write to a page copies that block into DRAM and remaps;
//  * execute-in-place — a copy-on-write file mapping whose pages are fetched
//    (executed) directly from flash [Section 3.2, ref 15].
//
// Accesses walk the page table (charged DRAM time per level), fault pages in
// on demand, and then pay the backing device's access cost for the bytes
// touched. Flash-backed pages re-resolve their physical address through the
// flash store on each fault because the cleaner relocates blocks.

#ifndef SSMC_SRC_VM_ADDRESS_SPACE_H_
#define SSMC_SRC_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/memory_fs.h"
#include "src/sim/stats.h"
#include "src/storage/residency.h"
#include "src/storage/storage_manager.h"
#include "src/support/status.h"
#include "src/vm/page_table.h"

namespace ssmc {

// Hardware-managed page migration (the OS-vs-hardware comparison of E16).
// A memory controller counts accesses to flash-mapped pages and, each epoch,
// transparently remaps the hot ones into byte-addressable NVM (or DRAM on a
// machine without NVM). The OS sees nothing: no file-system calls, no
// residency-manager heat, just a PTE whose frame moved. Contrast with the
// OS-managed path, where the ResidencyManager promotes file blocks using
// global sim-time heat.
struct HwMigrationOptions {
  bool enabled = false;
  // Run a migration scan after this many counted flash-frame accesses.
  uint64_t epoch_accesses = 256;
  // Pages with at least this many accesses within the epoch migrate: into
  // NVM pages when the machine has NVM, otherwise into plain DRAM frames (no
  // reclaim pressure — hardware cannot ask the OS).
  uint64_t promote_threshold = 4;
};

// Registers with the residency manager as a reclaim source: under DRAM
// pressure any space's clean file-backed copies can be dropped, so VM pages,
// dirty buffer pages and the clean cache all compete for one DRAM pool (the
// paper's single-level-store premise).
class AddressSpace : public ResidencyManager::ReclaimSource {
 public:
  enum class RegionKind {
    kAnonymous,
    kFileCow,         // Reads map flash in place; writes copy to DRAM.
    kXip,             // kFileCow, read-only, executable.
    kFileDemandCopy,  // Every fault copies the block to DRAM (demand paging
                      // into primary storage; steady state = DRAM speed).
  };

  struct Region {
    uint64_t start = 0;
    uint64_t length = 0;
    RegionKind kind = RegionKind::kAnonymous;
    bool writable = false;
    std::string name;
    // File-backed regions.
    MemoryFileSystem* fs = nullptr;
    std::string path;
  };

  // Page size must equal the storage manager's page size for file mappings
  // to be block-aligned.
  explicit AddressSpace(StorageManager& storage);
  ~AddressSpace() override;

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint64_t page_bytes() const { return table_.page_bytes(); }

  // Maps a zero-filled writable region.
  Status MapAnonymous(uint64_t va, uint64_t length, const std::string& name);

  // Maps a file copy-on-write: reads are served in place from flash, the
  // first write to a page copies it to DRAM. The file must be synced (its
  // blocks in flash) for in-place mapping; still-buffered blocks are copied
  // on first touch instead.
  Status MapFileCow(uint64_t va, MemoryFileSystem& fs, const std::string& path,
                    bool writable);

  // Maps a file for execute-in-place: like MapFileCow but read-only and
  // counted separately (E5).
  Status MapXip(uint64_t va, MemoryFileSystem& fs, const std::string& path);

  // Maps a file demand-paged: faults copy blocks into DRAM one at a time
  // (launch is instant like XIP, steady state runs at DRAM speed like an
  // eager copy, memory cost grows with the touched working set).
  Status MapFileDemandCopy(uint64_t va, MemoryFileSystem& fs,
                           const std::string& path, bool writable);

  // Unmaps the region starting at va, releasing its DRAM pages.
  Status Unmap(uint64_t va);

  // Simulated CPU accesses. Data really moves: reads return backing bytes,
  // writes persist into the (DRAM) page. Access may span pages but must stay
  // within one region.
  Result<Duration> Read(uint64_t va, std::span<uint8_t> out);
  Result<Duration> Write(uint64_t va, std::span<const uint8_t> data);

  // Instruction fetch for execute-in-place: a read that must hit an
  // executable (kXip) or file region.
  Result<Duration> Fetch(uint64_t va, uint64_t bytes);

  // Pre-faults every page of the region at `va` by copying it into DRAM —
  // the eager "load the program into primary storage" path the paper says
  // XIP avoids. Returns the total time spent.
  Result<Duration> Populate(uint64_t va);

  // ReclaimSource: drops one clean, re-fetchable DRAM page back to the
  // allocator. Called by the residency manager under DRAM pressure — from
  // this space's own allocations (always) or another consumer's (migration
  // policies only).
  bool TryReclaimOne() override { return ReclaimOnePage(); }

  const Region* FindRegion(uint64_t va) const;
  StorageManager& storage() { return storage_; }
  uint64_t resident_dram_pages() const { return resident_dram_pages_; }
  uint64_t resident_nvm_pages() const { return resident_nvm_pages_; }
  const PageTable& page_table() const { return table_; }

  // Hardware-managed migration policy (off by default — identical behavior
  // to the pre-E16 simulator). Set before mapping; the counters it keeps
  // are per-space, like a per-process memory controller context.
  void set_hw_migration(const HwMigrationOptions& options) {
    hw_migration_ = options;
  }
  const HwMigrationOptions& hw_migration() const { return hw_migration_; }

  struct Stats {
    Counter faults;            // All demand faults.
    Counter cow_faults;        // Write faults that copied flash -> DRAM.
    Counter zero_fill_faults;  // Anonymous first touches.
    Counter flash_map_faults;  // Faults resolved by mapping flash in place.
    Counter demand_copies;     // Demand-copy faults (flash -> DRAM).
    Counter reclaimed_pages;   // Clean DRAM pages dropped under pressure.
    Counter reads;
    Counter writes;
    Counter protection_errors;
    Counter hw_epochs;          // Hardware migration scans run.
    Counter hw_migrations;      // Pages remapped flash -> NVM/DRAM.
    Counter hw_migrated_bytes;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Ensures the page holding va is present with the needed access; resolves
  // faults. Returns the PTE.
  Result<PageTableEntry*> EnsurePresent(uint64_t va, bool for_write);

  // Copies the file block behind `va` into a fresh DRAM page.
  Result<uint64_t> CopyBlockToDram(const Region& region, uint64_t va);

  // Allocates a DRAM page through the residency manager's shared budget:
  // clean-cache demotion first (migration policies), then this space's own
  // reclaimable pages (flash is the backing store for clean file pages, so
  // dropping one loses nothing), then other spaces'.
  Result<uint64_t> AllocateDramPageWithReclaim();
  // Drops one clean, re-fetchable DRAM page. Returns false if none exists.
  bool ReclaimOnePage();

  Status HandleFault(const Region& region, uint64_t va, bool for_write,
                     PageTableEntry& pte);

  // Hardware migration: counts one access to a flash-mapped page; runs an
  // epoch scan when the access budget is spent.
  void NoteHwAccess(uint64_t page_va);
  void RunHwEpoch();
  // Releases the frame a present PTE holds (DRAM or NVM; flash frames are
  // mappings, not allocations).
  void ReleaseFrame(const PageTableEntry& pte);

  // Device access to the resolved frame.
  Result<Duration> FrameRead(const PageTableEntry& pte, uint64_t offset,
                             std::span<uint8_t> out);
  Result<Duration> FrameWrite(PageTableEntry& pte, uint64_t offset,
                              std::span<const uint8_t> data);

  StorageManager& storage_;
  PageTable table_;
  std::vector<Region> regions_;
  // FIFO of page VAs that may be reclaimable (clean file-backed copies);
  // validated at reclaim time.
  std::deque<uint64_t> reclaim_candidates_;
  uint64_t resident_dram_pages_ = 0;
  uint64_t resident_nvm_pages_ = 0;
  Stats stats_;

  HwMigrationOptions hw_migration_;
  // Per-epoch access counts for flash-mapped pages, with insertion order
  // kept separately so the epoch scan is deterministic (unordered_map
  // iteration order is not).
  std::unordered_map<uint64_t, uint64_t> hw_access_counts_;
  std::vector<uint64_t> hw_access_order_;
  uint64_t hw_epoch_spent_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_VM_ADDRESS_SPACE_H_
