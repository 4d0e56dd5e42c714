// ResidencyManager — the single authority on tier placement across the
// machine's memory hierarchy (paper Section 3.3: the physical storage
// manager's core job is "migrating data between DRAM and flash"; Section 5
// anticipates additional byte-addressable non-volatile tiers between them).
//
// Before this layer existed, residency state was smeared across the stack:
// the write buffer demoted dirty blocks, the file system decided
// buffered-vs-flash per access, the VM ran a private clean-page reclaim
// FIFO, and nothing could *promote* a hot read-mostly flash block into
// DRAM. The ResidencyManager centralizes that:
//
//  * it answers, for any logical block, where it currently lives
//    (DRAM-dirty, DRAM-clean-cached, NVM-cached, flash, hole) — Resolve();
//  * it tracks per-block access heat as sim-time-decayed touch counts, fed
//    by file-system reads/writes and VM faults;
//  * it owns a table of clean cache tiers — tier 0 the DRAM clean cache,
//    tier 1 the optional NVM cache — each with its own page budget and LRU,
//    with heat-driven promotion/demotion between adjacent tiers: blocks
//    enter the hierarchy from flash into the bottom cache tier, climb one
//    tier at a time as their heat crosses that tier's threshold, and fall
//    one tier at a time under capacity pressure (DRAM tail demotes into
//    NVM; the NVM tail drops — the flash copy stays authoritative);
//  * it arbitrates the shared DRAM budget: VM page frames, dirty buffer
//    pages and the clean cache all draw from one pool (the paper's
//    single-level-store premise), with clean pages demoted first.
//
// Migration policies (MachineConfig::residency.policy):
//  * kWriteBufferOnly — today's behavior, bit-identical: dirty blocks
//    buffer in DRAM and flush to flash; clean data always reads from
//    flash. The pre-residency code path is preserved under this policy and
//    doubles as the differential oracle (MemoryFsOptions::
//    validate_residency), the same technique PR 1 used for the FTL indexes.
//  * kReadPromote — flash blocks whose decayed heat crosses
//    promote_threshold are promoted into the clean cache. Promotion flash
//    reads are issued cleaner-class and non-blocking (background
//    IoRequests), so promotion never stalls the foreground read that
//    triggered it; subsequent reads of the block run at DRAM speed.
//  * kAggressive — promote on the second raw touch, and additionally
//    forward cold-data hints to the FlashStore: blocks whose heat has
//    decayed below kColdHintThreshold flush on the relocation (cold)
//    stream, pre-segregating write-once data into the cold banks.
//
// The clean cache holds only re-fetchable data (the flash copy stays
// authoritative), so demotion is free: under any DRAM pressure the cache
// shrinks before dirty data or VM frames are touched.

#ifndef SSMC_SRC_STORAGE_RESIDENCY_H_
#define SSMC_SRC_STORAGE_RESIDENCY_H_

#include <array>
#include <cstdint>
#include <list>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ftl/flash_store.h"
#include "src/obs/stats_export.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/block_key.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;
class StorageManager;
class WriteBuffer;

// Which migration policy the residency manager runs.
enum class ResidencyPolicy {
  kWriteBufferOnly = 0,  // Dirty buffering only — byte-identical baseline.
  kReadPromote = 1,      // Heat-threshold promotion into the clean cache.
  kAggressive = 2,       // Promote-on-second-touch + cold demotion hints.
};

const char* ResidencyPolicyName(ResidencyPolicy policy);
// Parses "write-buffer-only" / "read-promote" / "aggressive" (also accepts
// the bare enum spellings). Returns false on an unknown name.
bool ParseResidencyPolicy(std::string_view name, ResidencyPolicy* out);

struct ResidencyOptions {
  ResidencyPolicy policy = ResidencyPolicy::kWriteBufferOnly;
  // Half-life of the exponential touch-count decay. A block touched once
  // counts 0.5 after one half-life; the classic 30 s working-set window.
  Duration heat_half_life = 30 * kSecond;
  // kReadPromote: promote when the decayed touch count reaches this.
  double promote_threshold = 2.0;
  // Cap on the clean cache as a fraction of total DRAM pages. The cache
  // recycles its own LRU tail beyond this; it never squeezes dirty data or
  // VM frames to grow.
  double max_clean_fraction = 0.5;
};

// Where a logical block currently lives.
enum class Residency : uint8_t {
  kHole = 0,   // Never written (or released): reads are zero fill.
  kDirty = 1,  // In the DRAM write buffer, not yet flushed.
  kClean = 2,  // In the DRAM clean cache; the flash copy is authoritative.
  kFlash = 3,  // Only in flash.
  kNvm = 4,    // In the NVM cache tier; the flash copy is authoritative.
};

class ResidencyManager {
 public:
  // A consumer of DRAM pages that can give some back under pressure (the VM
  // address spaces: their clean file-backed copies are re-fetchable).
  class ReclaimSource {
   public:
    virtual ~ReclaimSource() = default;
    // Frees one DRAM page back to the storage manager if possible.
    virtual bool TryReclaimOne() = 0;
  };

  ResidencyManager(StorageManager& storage, ResidencyOptions options);
  // Frees the clean cache's DRAM pages and detaches any Obs collector.
  ~ResidencyManager();

  ResidencyManager(const ResidencyManager&) = delete;
  ResidencyManager& operator=(const ResidencyManager&) = delete;

  const ResidencyOptions& options() const { return options_; }
  ResidencyPolicy policy() const { return options_.policy; }
  // True when any migration beyond dirty buffering is active. Everything
  // the enabled() paths do is skipped under kWriteBufferOnly, which is what
  // keeps the default byte-identical to the pre-residency simulator.
  bool enabled() const {
    return options_.policy != ResidencyPolicy::kWriteBufferOnly;
  }

  // --- Wiring -------------------------------------------------------------
  // The dirty side of the residency map is the file system's write buffer;
  // the file system binds it at construction (null unbinds).
  void BindDirtyBackend(WriteBuffer* buffer) { dirty_backend_ = buffer; }
  // Called by the file system's destructor: drops the clean cache and heat
  // (their keys die with the namespace) and unbinds the dirty backend.
  void DetachFilesystem();

  // VM address spaces register as reclaim sources so DRAM pressure can be
  // served from any space's clean pages (single-level-store competition).
  void RegisterSource(ReclaimSource* source);
  void DropSource(ReclaimSource* source);

  // The tenant whose access is currently driving the manager (set by the
  // file system alongside its own current tenant). Promotions it triggers —
  // and the DRAM the promoted pages occupy — are billed to this tenant.
  void set_current_tenant(TenantId tenant) { tenant_ = tenant; }
  TenantId current_tenant() const { return tenant_; }

  // --- Placement ----------------------------------------------------------
  // Where does this block live? `flash_block` is the file system's mapping
  // for the block (-1 = none). Precedence over the generalized tier table:
  // dirty buffer, then each cache tier top-down (DRAM, then NVM), then
  // flash, then hole. Pure bookkeeping: charges nothing.
  Residency Resolve(const BlockKey& key, int64_t flash_block) const;

  bool CleanCached(const BlockKey& key) const {
    return tiers_[kDramTier].entries.find(key) !=
           tiers_[kDramTier].entries.end();
  }
  uint64_t clean_pages() const { return tiers_[kDramTier].entries.size(); }
  bool NvmCached(const BlockKey& key) const {
    return has_nvm_tier() && tiers_[kNvmTier].entries.find(key) !=
                                 tiers_[kNvmTier].entries.end();
  }
  uint64_t nvm_pages() const {
    return has_nvm_tier() ? tiers_[kNvmTier].entries.size() : 0;
  }
  // True when the machine has NVM capacity behind this manager (the tier
  // exists; whether it fills depends on the policy being enabled).
  bool has_nvm_tier() const { return tiers_.size() > kNvmTier; }

  // Per-tier occupancy snapshot (benches, tests).
  struct TierStatus {
    Residency residency = Residency::kClean;  // kClean or kNvm.
    uint64_t capacity_pages = 0;
    uint64_t cached_pages = 0;
  };
  std::vector<TierStatus> Tiers() const;

  // Reads bytes from a clean-cached block (DRAM access, charged to the
  // caller's clock). Refreshes the entry's LRU position. NOT_FOUND if the
  // block is not cached.
  Status ReadClean(const BlockKey& key, uint64_t offset,
                   std::span<uint8_t> out);

  // Reads bytes from an NVM-cached block: a foreground blocking read through
  // the NVM device's bank scheduler, billed to the current tenant. Refreshes
  // the entry's LRU position. NOT_FOUND if the block is not in the NVM tier.
  Status ReadNvm(const BlockKey& key, uint64_t offset, std::span<uint8_t> out);

  // Drops one / every cached block from every tier (content changed, file
  // released, battery-backed DRAM lost). The flash copy is authoritative,
  // so nothing is lost.
  void InvalidateClean(const BlockKey& key);
  void InvalidateAllClean();

  // --- Heat & migration ---------------------------------------------------
  // Access notifications from the file system. OnFlashRead may promote the
  // block into the bottom cache tier (policy-dependent): the NVM tier when
  // one exists, else straight into the DRAM clean cache. The promotion
  // flash read is issued cleaner-class non-blocking.
  void TouchRead(const BlockKey& key, SimTime now);
  void TouchWrite(const BlockKey& key, SimTime now);
  void OnFlashRead(const BlockKey& key, uint64_t flash_block, SimTime now);
  // After a read served from the NVM tier: touches the block and, when its
  // heat crosses the DRAM tier's threshold, promotes it one tier up (the
  // payload moves by reference; the NVM page returns to the pool).
  void OnNvmRead(const BlockKey& key, SimTime now);

  // A VM fault is about to map this flash block in place. Returns true if
  // the block is hot enough that the VM should copy it to DRAM instead
  // (promotion through the fault path: later accesses run at DRAM speed).
  bool NoteVmFault(const BlockKey& key, SimTime now);

  // Which write stream a flush of this block should use. kAggressive routes
  // heat-cold blocks onto the relocation stream (FlashStore's cold banks);
  // every other policy returns kUser.
  WriteStream FlushStream(const BlockKey& key, SimTime now);

  // Drops the heat entry (file block released).
  void ForgetHeat(const BlockKey& key);
  // Decayed touch count as of `now` (0 if never touched).
  double HeatOf(const BlockKey& key, SimTime now) const;

  // --- Shared DRAM budget -------------------------------------------------
  // Allocates a DRAM page, applying migration pressure when the pool is
  // dry, in order: (1) demote clean-cache LRU pages [enabled policies],
  // (2) the requester's own reclaimable pages (exactly the historical VM
  // reclaim loop), (3) other registered sources' pages [enabled policies].
  // `requester` may be null (the write buffer has nothing to reclaim).
  // RESOURCE_EXHAUSTED when every avenue is spent.
  Result<uint64_t> AllocateDramPage(ReclaimSource* requester);

  // Per-tenant residency attribution: a promotion is billed to the tenant
  // whose read crossed the heat threshold, a clean hit to the reader.
  struct TenantResidency {
    Counter promotions;
    Counter promoted_bytes;
    Counter clean_hits;
    Counter clean_hit_bytes;
    Counter nvm_hits;
    Counter nvm_hit_bytes;

    static constexpr auto Fields() {
      return std::to_array<CounterField<TenantResidency>>({
          {"promotions", &TenantResidency::promotions},
          {"promoted_bytes", &TenantResidency::promoted_bytes},
          {"clean_hits", &TenantResidency::clean_hits},
          {"clean_hit_bytes", &TenantResidency::clean_hit_bytes},
          {"nvm_hits", &TenantResidency::nvm_hits},
          {"nvm_hit_bytes", &TenantResidency::nvm_hit_bytes},
      });
    }
    void Merge(const TenantResidency& other) { MergeFields(*this, other); }
  };

  struct Stats {
    Counter touches;                 // Heat updates (reads+writes+faults).
    Counter promotions;              // Flash blocks promoted to clean cache.
    Counter promoted_bytes;
    Counter clean_hits;              // Reads served from the clean cache.
    Counter clean_hit_bytes;
    Counter demotions_pressure;      // Clean pages dropped for DRAM space.
    Counter demotions_invalidated;   // Cached pages dropped by invalidation.
    Counter cold_stream_hints;       // Flushes routed to the cold stream.
    Counter vm_promote_faults;       // VM faults told to copy, not map.
    // NVM tier traffic (all zero without NVM).
    Counter nvm_promotions;          // Flash blocks admitted into the NVM tier.
    Counter nvm_promoted_bytes;
    Counter nvm_hits;                // Reads served from the NVM tier.
    Counter nvm_hit_bytes;
    Counter nvm_to_dram_promotions;  // Blocks climbing NVM -> DRAM.
    Counter demotions_to_nvm;        // DRAM tail pages demoted into NVM.
    TenantTable<TenantResidency> by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): a "residency" trace track with
  // promotion spans and demotion instants, a stats mirror collector
  // (clean-cache size and heat-table size as gauges), and heat histograms
  // sampled at promotion and flush decisions (x100 fixed point).
  void AttachObs(Obs* obs);

 private:
  // Indexes into tiers_: adjacent tiers differ by one. Tier 0 is the
  // fastest; the last cache tier borders flash.
  static constexpr size_t kDramTier = 0;
  static constexpr size_t kNvmTier = 1;

  struct CacheEntry {
    uint64_t page = 0;  // DRAM page index (tier 0) or NVM page (tier 1).
    TenantId tenant = kDefaultTenant;  // Who the promotion was billed to;
                                       // this page is their share.
    std::list<BlockKey>::iterator lru_it;  // Position in the tier's LRU.
  };
  // One clean cache tier. Entries are exclusive across tiers: a block lives
  // in at most one, moving between adjacent tiers as its heat changes.
  struct CacheTier {
    Residency residency = Residency::kClean;  // What Resolve reports.
    uint64_t capacity_pages = 0;              // Per-tier budget.
    std::unordered_map<BlockKey, CacheEntry, BlockKeyHash> entries;
    std::list<BlockKey> lru;  // Front = least recently used.
  };

  struct Heat {
    double decayed = 0;  // Exponentially decayed touch count.
    uint64_t raw = 0;    // Lifetime touches (kAggressive trigger).
    SimTime last = 0;    // When `decayed` was last brought current.
  };

  // Decays `h` to `now` and returns the current count.
  double DecayTo(Heat& h, SimTime now) const;
  // Records one touch; returns the decayed count after it.
  double Touch(const BlockKey& key, SimTime now);
  // Admission test for the DRAM tier (the historical promote rule).
  bool ShouldPromote(const Heat& h) const;
  // Admission test for the bottom cache tier from flash: the NVM tier's
  // (lower) threshold when the tier exists, else the DRAM rule.
  bool ShouldAdmitFromFlash(const Heat& h) const;
  // Promotes a flash block into the bottom cache tier.
  void PromoteFromFlash(const BlockKey& key, uint64_t flash_block,
                        SimTime now);
  // Moves an NVM-tier entry one tier up into the DRAM clean cache.
  void PromoteNvmToDram(const BlockKey& key, SimTime now);
  // Drops (or, for the DRAM tier with an NVM tier below, demotes) the
  // tier's LRU entry; false if the tier is empty.
  bool DemoteOne(size_t tier, bool pressure);
  bool DemoteOneClean(bool pressure) { return DemoteOne(kDramTier, pressure); }
  void EraseCacheEntry(
      CacheTier& tier,
      std::unordered_map<BlockKey, CacheEntry, BlockKeyHash>::iterator it);
  // Frees `entry.page` back to the allocator owning `tier`'s pages.
  void FreeTierPage(const CacheTier& tier, uint64_t page);
  // Allocates a page for `tier`, recycling the tier's own LRU tail at its
  // budget. Failure (pool and tail both dry) returns !ok.
  Result<uint64_t> AllocateTierPage(size_t tier);
  uint64_t MaxCleanPages() const;

  StorageManager& storage_;
  ResidencyOptions options_;
  TenantId tenant_ = kDefaultTenant;
  WriteBuffer* dirty_backend_ = nullptr;
  std::vector<ReclaimSource*> sources_;  // Registration order (determinism).

  // Tier table: [0] the DRAM clean cache, [1] the NVM cache when the
  // machine has NVM capacity. Sized at construction.
  std::vector<CacheTier> tiers_;
  std::unordered_map<BlockKey, Heat, BlockKeyHash> heat_;

  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  Histogram* promote_heat_ = nullptr;  // Owned by the Obs registry.
  Histogram* flush_heat_ = nullptr;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_RESIDENCY_H_
