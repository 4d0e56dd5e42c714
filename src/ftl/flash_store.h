// Log-structured flash store (flash translation layer).
//
// Implements the storage-manager techniques of Section 3.3: writes go to
// flash out-of-place, a garbage collector reclaims sectors "like those used
// in log-structured file systems", and wear leveling "evenly balance[s] the
// write load throughout flash memory". The store exposes a flat array of
// fixed-size logical blocks; callers (the storage manager / file systems)
// never see erase sectors or physical placement.
//
// Structure: the flash device's erase sectors are divided into pages of
// block_bytes each. A logical block maps to one valid physical page. Writes
// append to per-bank active sectors (keeping every bank usable so reads can
// proceed during slow programs/erases — the paper's bank partitioning).
// Overwriting a block marks the old page dead; the cleaner relocates the
// valid pages of a victim sector and erases it.
//
// Cleaning policies:
//  * kGreedy      — victim with the most dead pages (cheapest to clean now);
//  * kCostBenefit — LFS cost-benefit: maximize age*(1-u)/(1+u), which prefers
//                   older, emptier sectors and avoids repeatedly cleaning
//                   hot sectors.
// Wear-leveling policies:
//  * kNone    — free sectors reused FIFO, no attention to wear;
//  * kDynamic — allocation picks the free sector with the fewest erases;
//  * kStatic  — kDynamic plus periodic cold-data migration: when the erase-
//               count spread exceeds a threshold, the coldest data is moved
//               so its low-wear sector rejoins circulation.

#ifndef SSMC_SRC_FTL_FLASH_STORE_H_
#define SSMC_SRC_FTL_FLASH_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/device/flash_device.h"
#include "src/ftl/victim_index.h"
#include "src/obs/stats_export.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

struct FlashStoreOptions {
  uint64_t block_bytes = 512;
  CleanerPolicy cleaner = CleanerPolicy::kCostBenefit;
  WearPolicy wear = WearPolicy::kDynamic;
  // Fraction of sectors withheld from the logical capacity so cleaning
  // always has room to relocate into. At least 2 sectors are reserved.
  double overprovision = 0.10;
  // Static wear leveling: check every N erases; migrate cold data when
  // (max - min) erase count exceeds the delta.
  uint64_t static_wear_check_interval = 64;
  uint64_t static_wear_delta = 32;
  // When true, background (non-blocking) writes and cleaning do not advance
  // the caller's clock; the flash banks absorb the time. The storage
  // manager's flush path uses this.
  bool background_writes = false;
  // Bank segregation (Section 3.3): "One bank would hold read-mostly data,
  // such as application programs, while others would be used for data that
  // is more frequently written." When > 0, incoming user writes append only
  // to the first `hot_bank_count` banks, while cleaner relocations (data
  // that survived a sector's lifetime, i.e. read-mostly) append to the
  // remaining banks. Reads of cold data then never stall behind programs or
  // erases. 0 = round-robin across all banks.
  int hot_bank_count = 0;
  // A fully-valid sector in a hot bank is only distilled out to the cold
  // banks once it has gone unwritten this long (avoids ping-ponging data
  // that is merely between overwrites).
  Duration cold_eviction_age = 60 * kSecond;
  // Debug/differential mode: cross-check every indexed decision (cleaning
  // victim, free-sector take, cold eviction, wear-level target, free count)
  // against the retained linear-scan oracles. Mismatches are logged at
  // kError and counted in index_validation_failures(). O(sectors) per
  // decision — tests only.
  bool validate_indexes = false;
};

// Which append stream a page allocation serves (see hot_bank_count).
enum class WriteStream { kUser, kRelocation };

// Per-sector metadata exposed for policy testing and the wear benches.
// Snapshot of one sector's metadata. The store itself keeps this state in
// struct-of-arrays columns (see FlashStore); this assembled form is the
// interchange type for the linear-scan oracles and tests.
struct SectorMeta {
  uint32_t valid_pages = 0;
  uint32_t dead_pages = 0;
  uint32_t next_free_page = 0;   // Write pointer within the sector.
  SimTime last_write_time = 0;   // For cost-benefit aging.
  bool active = false;           // Currently the append target of a bank.
  bool free = false;             // Erased and in the free pool.
  bool bad = false;              // Worn out.
};

// Pure linear-scan victim selection, exercised directly by unit tests and
// retained as the reference oracle for the indexed fast path (see
// victim_index.h). Returns the victim sector index or -1 if no cleanable
// sector exists. Only sectors that are neither active, free, nor bad, and
// that contain at least one dead page, are candidates.
int64_t PickCleaningVictim(const std::vector<SectorMeta>& sectors,
                           uint32_t pages_per_sector, CleanerPolicy policy,
                           SimTime now);

// Linear-scan oracles for the remaining indexed decisions. Each reproduces
// the pre-index implementation verbatim; the indexed store must agree with
// them bit-for-bit (enforced by FlashStoreOptions::validate_indexes and the
// differential property suite).

// Free-sector choice over `pool` — (sector, erase_count) pairs in insertion
// order: last entry under the naive LIFO policy (wear_ordered = false), else
// the first entry with the strictly smallest erase count.
int64_t ScanPickFreeSector(
    const std::vector<std::pair<uint64_t, uint64_t>>& pool, bool wear_ordered);

// Oldest fully-valid, inactive, aged-out sector among the first
// `hot_sector_count` sectors, or -1.
int64_t ScanPickColdEvictionVictim(const std::vector<SectorMeta>& sectors,
                                   uint64_t hot_sector_count, SimTime now,
                                   Duration min_age);

// Wear spread and coldest occupied sector over all non-retired sectors.
struct WearScanResult {
  uint64_t min_erases = ~uint64_t{0};
  uint64_t max_erases = 0;
  int64_t coldest = -1;
};
WearScanResult ScanWearLevelState(const std::vector<SectorMeta>& sectors,
                                  const FlashDevice& flash);

class FlashStore {
 public:
  FlashStore(FlashDevice& flash, FlashStoreOptions options);
  ~FlashStore();

  FlashStore(const FlashStore&) = delete;
  FlashStore& operator=(const FlashStore&) = delete;

  uint64_t block_bytes() const { return options_.block_bytes; }
  // Number of logical blocks the store exposes (physical minus reserve).
  uint64_t num_blocks() const { return num_logical_blocks_; }
  uint64_t capacity_bytes() const { return num_blocks() * block_bytes(); }
  const FlashStoreOptions& options() const { return options_; }
  FlashDevice& device() { return flash_; }

  // Reads a logical block. Fails NOT_FOUND if the block was never written
  // (or was trimmed). The issue mode defaults to a blocking foreground read;
  // the residency manager's promotion reads run cleaner-class and
  // non-blocking (the bank absorbs the time; the caller's clock does not
  // advance).
  Result<Duration> Read(uint64_t block, std::span<uint8_t> out,
                        IoIssue issue = {});

  // Byte-granular read within a block — flash is byte-addressable and
  // direct-mapped, so a partial read costs only the touched bytes (unlike a
  // disk, which always transfers whole sectors). offset + out.size() must
  // stay within the block. The issue carries the scheduling class, blocking
  // mode, and billing tenant (defaults to a blocking foreground read by the
  // default tenant, the pre-tenancy behavior).
  Result<Duration> ReadPartial(uint64_t block, uint64_t offset,
                               std::span<uint8_t> out, IoIssue issue = {});

  // Zero-copy block read: returns a shared ref to the block's stored payload
  // (a refcount bump for store-written blocks — no bytes move). Device
  // timing, energy, and stats are identical to Read. The residency manager's
  // clean-cache promotion and the write path of DRAM consumers use this.
  Result<PayloadRef> ReadRef(uint64_t block, IoIssue issue = {});

  // Writes a logical block (out of place). data.size() must equal
  // block_bytes. May trigger cleaning. Honors options_.background_writes.
  // Callers that know the data is read-mostly (program installation,
  // archive storage) pass WriteStream::kRelocation so it lands in the cold
  // banks directly — "file systems would be spread across flash memory
  // banks appropriately" (Section 3.3); the hint changes nothing when
  // segregation is off.
  Result<Duration> Write(uint64_t block, std::span<const uint8_t> data,
                         WriteStream hint = WriteStream::kUser);

  // Write with an explicit scheduling class (the storage manager's flush
  // path passes IoPriority::kFlush) and billing tenant. Whether the write
  // blocks the caller is still governed by options_.background_writes; the
  // class only affects dispatch order under IoSchedPolicy::kPriority, and
  // attribution always.
  Result<Duration> Write(uint64_t block, std::span<const uint8_t> data,
                         WriteStream hint, IoPriority priority,
                         TenantId tenant = kDefaultTenant);

  // Zero-copy block write: the store becomes a holder of the ref and
  // programs it without copying (the write-buffer flush path hands its entry
  // straight down). data.size() must equal block_bytes.
  Result<Duration> WriteRef(uint64_t block, PayloadRef data, WriteStream hint,
                            IoPriority priority,
                            TenantId tenant = kDefaultTenant);

  // The store's page-sized payload pool. Upper layers (write buffer, clean
  // cache, FS staging) draw from it so their blocks flow to/from flash as
  // refcount bumps.
  ExtentPool& extent_pool() { return extent_pool_; }

  // Drops a logical block's contents (marks its page dead).
  Status Trim(uint64_t block);

  bool IsMapped(uint64_t block) const { return MappedPage(block) != kUnmapped; }

  // Physical flash address currently holding the block (for execute-in-place
  // mappings). Fails if unmapped. NOTE: cleaning relocates blocks, so XIP
  // users re-resolve through the VM layer on each fault.
  Result<uint64_t> PhysicalAddressOf(uint64_t block) const;

  // Runs cleaning until the free pool exceeds the low-water mark (used by
  // tests and the idle-cleaning path of the storage manager).
  Status Clean();

  struct Stats {
    Counter user_writes;        // Blocks written by callers.
    Counter user_reads;
    Counter gc_relocations;     // Valid pages moved by the cleaner.
    Counter gc_runs;            // Victim sectors cleaned.
    Counter erases;             // Successful sector erases.
    Counter wear_migrations;    // Sectors migrated by static leveling.
    Counter wear_level_failures;  // Static-leveling migrations that failed.
    Counter trims;
    // Per-tenant ops/bytes; relocations are billed to the tenant whose data
    // the cleaner moved (the page_tenant_ column remembers who programmed
    // each live page), not to whoever triggered the cleaning pass.
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Total pages programmed / user pages written; 1.0 means no cleaning
  // overhead. The canonical flash write-amplification metric.
  double WriteAmplification() const;
  // The same ratio restricted to one tenant's writes and the relocations of
  // that tenant's data (its share of the cleaning bill).
  double TenantWriteAmplification(TenantId tenant) const;

  uint64_t free_sectors() const { return free_sector_count_; }
  // Assembled from the SoA columns; a snapshot, not a reference into state.
  SectorMeta sector_meta(uint64_t s) const {
    const SectorHot& h = hot_[s];
    SectorMeta m;
    m.valid_pages = h.valid_pages;
    m.dead_pages = h.dead_pages;
    m.next_free_page = next_free_page_[s];
    m.last_write_time = h.last_write_time;
    m.active = (h.flags & kActiveFlag) != 0;
    m.free = (h.flags & kFreeFlag) != 0;
    m.bad = (h.flags & kBadFlag) != 0;
    return m;
  }

  // Observability (nullable; null detaches): a "flash cleaner" trace track
  // with one span per cleaner pass / cold eviction / wear-level migration
  // plus wear-out instants, and a Stats mirror collector (free sectors and
  // write amplification as gauges). Does not touch the device's own obs —
  // attach that separately.
  void AttachObs(Obs* obs);

  // Mismatches recorded by validate_indexes mode (0 when the mode is off or
  // every indexed decision agreed with its linear-scan oracle).
  uint64_t index_validation_failures() const {
    return index_validation_failures_;
  }

  // Exhaustive structural audit: every index's membership and size must match
  // a fresh scan of the sector metadata. O(sectors log sectors); tests only.
  Status CheckIndexConsistency() const;

 private:
  static constexpr uint64_t kUnmapped = ~uint64_t{0};
  // Cleaning starts when the free-sector count drops to this level and runs
  // until it exceeds it (or no sector with dead pages remains).
  static constexpr uint64_t kFreeSectorLowWater = 2;

  uint32_t pages_per_sector() const { return pps_; }
  // Physical page holding `block`, or kUnmapped (also past map_'s end).
  uint64_t MappedPage(uint64_t block) const {
    return block < map_.size() ? map_[block] : kUnmapped;
  }
  uint64_t PageAddress(uint64_t page) const {
    return page * options_.block_bytes;
  }
  uint64_t SectorOfPage(uint64_t page) const {
    // pages-per-sector is a power of two in every real geometry; the shift
    // keeps this hot helper off the 64-bit divider.
    return page_shift_ >= 0 ? page >> page_shift_ : page / pps_;
  }

  // Takes a sector from `bank`'s free pool per the wear policy; returns -1
  // if the pool is empty.
  int64_t TakeFreeSector(int bank);

  // Finds a page to append to in a bank serving `stream` (falling back to
  // any bank when that range is full). If allow_clean, may run the cleaner
  // when free space is low. Returns the physical page index or an error.
  Result<uint64_t> AllocatePage(WriteStream stream, bool allow_clean);

  // The core of every write: allocates a page, files the extent with the
  // device (no payload copy) and points `block` at it. The issue selects the
  // request's scheduling class and foreground vs background device timing.
  Result<Duration> WriteInternalRef(uint64_t block, PayloadRef data,
                                    WriteStream stream, bool allow_clean,
                                    IoIssue issue);

  // The checks every read shares — block range, then [offset, offset +
  // bytes) within the block, then the mapping — and the device address of
  // the range.
  Result<uint64_t> ReadAddress(uint64_t block, uint64_t offset,
                               uint64_t bytes) const;
  // Counts a successful read for the store and for `tenant`.
  void BillRead(TenantId tenant, uint64_t bytes);

  // How this store issues device requests for the paper's three streams,
  // given options_.background_writes: user/flush writes and cleaner traffic
  // block the caller only when background mode is off. Cleaner requests are
  // billed to the tenant owning the page being moved, never to the tenant
  // whose allocation happened to trigger the pass.
  IoIssue UserIssue(IoPriority priority,
                    TenantId tenant = kDefaultTenant) const {
    return IoIssue{priority, !options_.background_writes, tenant};
  }
  IoIssue CleanerIssue(TenantId owner = kDefaultTenant) const {
    return IoIssue{IoPriority::kCleaner, !options_.background_writes, owner};
  }

  void MarkPageDead(uint64_t page);

  // Scoped suppression of index syncs for one sector. The cleaner kills a
  // victim's valid pages one relocation at a time, and each MarkPageDead
  // would re-index the victim under keys nobody can observe — no index is
  // queried until the relocation loop finishes (allocations inside it run
  // with allow_clean = false). Deferring collapses those intermediate
  // Remove/Insert pairs into the single sync the guard issues on scope exit
  // (by which point EraseAndFree has usually already settled the sector).
  // Nests by restoring the previous deferred sector.
  class DeferredSectorSync {
   public:
    DeferredSectorSync(FlashStore& store, uint64_t sector)
        : store_(store), sector_(sector),
          prev_(store.deferred_sync_sector_) {
      store_.deferred_sync_sector_ = static_cast<int64_t>(sector);
    }
    ~DeferredSectorSync() {
      store_.deferred_sync_sector_ = prev_;
      store_.UpdateSectorIndexes(sector_);
    }
    DeferredSectorSync(const DeferredSectorSync&) = delete;
    DeferredSectorSync& operator=(const DeferredSectorSync&) = delete;

   private:
    FlashStore& store_;
    uint64_t sector_;
    int64_t prev_;
  };

  // Cleans one victim sector; returns true if a sector was reclaimed.
  Result<bool> CleanOne();

  // Under bank segregation: relocates one fully-valid (no dead pages) sector
  // out of the hot banks into the cold stream and erases it. Such sectors
  // hold data that was written once and never overwritten — read-mostly data
  // squatting in the write banks that ordinary cleaning will never pick
  // (it has nothing dead to reclaim). Returns true if a sector was evicted.
  Result<bool> EvictColdSectorFromHotRange();

  // Moves every live page of `sector` to the relocation stream, billing each
  // move to the page's tenant; stops at the first error. The cleaner, cold
  // eviction and static wear leveling differ only in how they pick the
  // sector and what they do after.
  Status RelocateLiveData(uint64_t sector);

  // Erases a sector and returns it to the free pool (handles wear-out).
  Status EraseAndFree(uint64_t sector);

  // Static wear leveling check, run after every erase.
  void MaybeStaticWearLevel();

  // Re-syncs `sector`'s membership in the victim, cold-eviction, and wear
  // indexes from its current metadata. Must be called after any transition
  // of a sector's free/active/bad flags or page counts (except while the
  // sector is active — active sectors belong to no index).
  void UpdateSectorIndexes(uint64_t sector);

  // validate_indexes bookkeeping: logs at kError and bumps the counter.
  void RecordIndexMismatch(const char* what, int64_t indexed, int64_t oracle);

  // Background passes never advance the clock; the end of a pass in sim time
  // is when the last bank reservation it queued completes.
  SimTime BanksBusyUntil() const;
  // Records a cleaner-track span covering [t0, BanksBusyUntil()].
  void ObsCleanerSpan(const char* name, SimTime t0, uint64_t sector,
                      uint64_t relocated);

  FlashDevice& flash_;
  FlashStoreOptions options_;
  uint32_t pps_;        // sector_bytes / block_bytes, cached.
  int page_shift_ = -1; // log2(pps_) when it is a power of two.
  uint64_t num_logical_blocks_;

  // Per-sector state flag bits (SectorHot::flags).
  static constexpr uint8_t kActiveFlag = 1;  // Append target of a bank.
  static constexpr uint8_t kFreeFlag = 2;    // Erased, in the free pool.
  static constexpr uint8_t kBadFlag = 4;     // Worn out.

  // Hot column of the per-sector metadata: everything victim selection,
  // index syncs, and the scan oracles read, packed into 16 bytes so a random
  // sector access touches one cache line and a full-device scan walks a
  // dense array (64 Ki sectors fit in 1 MiB). The write pointer lives in its
  // own column below — only the page allocator reads it.
  struct SectorHot {
    SimTime last_write_time = 0;
    uint16_t valid_pages = 0;
    uint16_t dead_pages = 0;
    uint8_t flags = 0;
  };
  static_assert(sizeof(SectorHot) == 16);

  // AoS snapshot of every sector for the linear-scan oracles (validate mode
  // and consistency audits only — O(sectors)).
  std::vector<SectorMeta> SnapshotSectors() const;

  // Page-sized payload extents for the whole data plane (user writes,
  // cleaner relocation, upper-layer caches). Replaces the cleaner's
  // read-into-scratch-then-program copies: a relocation is now a refcount
  // bump plus a mapping update.
  ExtentPool extent_pool_;

  // Logical block -> physical page. Grows to the highest block written; a
  // block past its end is unmapped (MappedPage).
  std::vector<uint64_t> map_;
  // Physical page -> logical block / billing tenant. Allocated but not
  // initialised at construction: TakeFreeSector initialises a sector's rows
  // when it opens the sector, and nothing reads a sector's rows before that
  // (only opened sectors are ever programmed, cleaned or migrated).
  std::unique_ptr<uint64_t[]> page_owner_;
  std::unique_ptr<TenantId[]> page_tenant_;
  std::vector<SectorHot> hot_;          // SoA: hot per-sector metadata.
  std::vector<uint32_t> next_free_page_;  // SoA: per-sector write pointer.
  std::vector<FreeSectorPool> free_pool_;  // Per-bank free sectors.
  uint64_t free_sector_count_ = 0;         // == sum of free_pool_ sizes.
  VictimIndex victim_index_;
  ColdSectorIndex cold_index_;
  std::unique_ptr<WearIndex> wear_index_;  // Only under WearPolicy::kStatic.
  bool observer_registered_ = false;       // Erase observer needs unhooking.
  // First hot_sector_count_ sectors form the hot-bank range; 0 = segregation
  // off (hot_bank_count outside (0, num_banks)).
  uint64_t hot_sector_count_ = 0;
  uint64_t index_validation_failures_ = 0;
  int64_t deferred_sync_sector_ = -1;  // See DeferredSectorSync.
  std::vector<int64_t> active_;                  // Per-bank active sector.
  int next_bank_ = 0;
  uint64_t erases_since_wear_check_ = 0;
  int cleans_since_evict_ = 0;
  bool cleaning_ = false;       // Re-entrancy guard for the cleaner.
  bool wear_leveling_ = false;  // Re-entrancy guard for static leveling.
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_cleaner_track_ = 0;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_FTL_FLASH_STORE_H_
