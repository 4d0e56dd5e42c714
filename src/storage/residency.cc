#include "src/storage/residency.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/obs/obs.h"
#include "src/storage/storage_manager.h"
#include "src/storage/write_buffer.h"

namespace ssmc {

namespace {
// kAggressive: promote when the raw (undecayed) touch count reaches this.
constexpr uint64_t kAggressiveTouches = 2;
// kAggressive: flushes of blocks with decayed heat below this go out on the
// relocation (cold) write stream.
constexpr double kColdHintThreshold = 0.5;
// Heat table size bound; crossing it sweeps entries colder than ~0.25.
constexpr uint64_t kMaxHeatEntries = 65536;
// Heat needed to enter the NVM tier from flash: 1.0 admits on first touch,
// so the combined DRAM+NVM ladder approximates one big LRU — what the Ju et
// al. analytical oracle (tier_model.h) models.
constexpr double kNvmPromoteThreshold = 1.0;
}  // namespace

const char* ResidencyPolicyName(ResidencyPolicy policy) {
  switch (policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return "write-buffer-only";
    case ResidencyPolicy::kReadPromote:
      return "read-promote";
    case ResidencyPolicy::kAggressive:
      return "aggressive";
  }
  return "unknown";
}

bool ParseResidencyPolicy(std::string_view name, ResidencyPolicy* out) {
  if (name == "write-buffer-only" || name == "kWriteBufferOnly") {
    *out = ResidencyPolicy::kWriteBufferOnly;
    return true;
  }
  if (name == "read-promote" || name == "kReadPromote") {
    *out = ResidencyPolicy::kReadPromote;
    return true;
  }
  if (name == "aggressive" || name == "kAggressive") {
    *out = ResidencyPolicy::kAggressive;
    return true;
  }
  return false;
}

ResidencyManager::ResidencyManager(StorageManager& storage,
                                   ResidencyOptions options)
    : storage_(storage), options_(options) {
  assert(options_.heat_half_life > 0);
  // Tier 0: the DRAM clean cache, always present.
  CacheTier dram_tier;
  dram_tier.residency = Residency::kClean;
  dram_tier.capacity_pages = MaxCleanPages();
  tiers_.push_back(std::move(dram_tier));
  // Tier 1: the NVM cache, only when the machine has NVM capacity — the
  // two-tier hierarchy stays bit-identical with no NVM behind the manager.
  if (storage_.total_nvm_pages() > 0) {
    CacheTier nvm_tier;
    nvm_tier.residency = Residency::kNvm;
    nvm_tier.capacity_pages = storage_.total_nvm_pages();  // All of it.
    tiers_.push_back(std::move(nvm_tier));
  }
}

ResidencyManager::~ResidencyManager() {
  InvalidateAllClean();
}

void ResidencyManager::DetachFilesystem() {
  dirty_backend_ = nullptr;
  InvalidateAllClean();
  heat_.clear();
}

void ResidencyManager::RegisterSource(ReclaimSource* source) {
  if (std::find(sources_.begin(), sources_.end(), source) == sources_.end()) {
    sources_.push_back(source);
  }
}

void ResidencyManager::DropSource(ReclaimSource* source) {
  sources_.erase(std::remove(sources_.begin(), sources_.end(), source),
                 sources_.end());
}

Residency ResidencyManager::Resolve(const BlockKey& key,
                                    int64_t flash_block) const {
  if (dirty_backend_ != nullptr && dirty_backend_->Contains(key)) {
    return Residency::kDirty;
  }
  // Cache tiers top-down: the fastest copy wins.
  for (const CacheTier& tier : tiers_) {
    if (tier.entries.find(key) != tier.entries.end()) {
      return tier.residency;
    }
  }
  if (flash_block >= 0) {
    return Residency::kFlash;
  }
  return Residency::kHole;
}

std::vector<ResidencyManager::TierStatus> ResidencyManager::Tiers() const {
  std::vector<TierStatus> out;
  out.reserve(tiers_.size());
  for (const CacheTier& tier : tiers_) {
    TierStatus s;
    s.residency = tier.residency;
    s.capacity_pages = tier.capacity_pages;
    s.cached_pages = tier.entries.size();
    out.push_back(s);
  }
  return out;
}

Status ResidencyManager::ReadClean(const BlockKey& key, uint64_t offset,
                                   std::span<uint8_t> out) {
  CacheTier& tier = tiers_[kDramTier];
  auto it = tier.entries.find(key);
  if (it == tier.entries.end()) {
    return NotFoundError("block not clean-cached");
  }
  if (offset + out.size() > storage_.page_bytes()) {
    return OutOfRangeError("clean-cache read exceeds block bounds");
  }
  // Refresh LRU: splice the entry to the MRU end.
  tier.lru.splice(tier.lru.end(), tier.lru, it->second.lru_it);
  storage_.ReadPagePayload(it->second.page, offset, out);
  stats_.clean_hits.Add();
  stats_.clean_hit_bytes.Add(out.size());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.clean_hits.Add();
  lane.clean_hit_bytes.Add(out.size());
  return Status::Ok();
}

Status ResidencyManager::ReadNvm(const BlockKey& key, uint64_t offset,
                                 std::span<uint8_t> out) {
  if (!has_nvm_tier()) {
    return NotFoundError("no NVM tier");
  }
  CacheTier& tier = tiers_[kNvmTier];
  auto it = tier.entries.find(key);
  if (it == tier.entries.end()) {
    return NotFoundError("block not NVM-cached");
  }
  if (offset + out.size() > storage_.page_bytes()) {
    return OutOfRangeError("NVM-cache read exceeds block bounds");
  }
  tier.lru.splice(tier.lru.end(), tier.lru, it->second.lru_it);
  // A foreground blocking read through the NVM bank scheduler: the caller
  // waits on the byte-addressable medium, at NVM (not flash) latency.
  storage_.ReadNvmPagePayload(it->second.page, offset, out,
                              ForTenant(kForegroundIo, tenant_));
  stats_.nvm_hits.Add();
  stats_.nvm_hit_bytes.Add(out.size());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.nvm_hits.Add();
  lane.nvm_hit_bytes.Add(out.size());
  return Status::Ok();
}

void ResidencyManager::FreeTierPage(const CacheTier& tier, uint64_t page) {
  if (tier.residency == Residency::kNvm) {
    (void)storage_.FreeNvmPage(page);
  } else {
    (void)storage_.FreeDramPage(page);
  }
}

void ResidencyManager::EraseCacheEntry(
    CacheTier& tier,
    std::unordered_map<BlockKey, CacheEntry, BlockKeyHash>::iterator it) {
  FreeTierPage(tier, it->second.page);
  tier.lru.erase(it->second.lru_it);
  tier.entries.erase(it);
}

void ResidencyManager::InvalidateClean(const BlockKey& key) {
  for (CacheTier& tier : tiers_) {
    auto it = tier.entries.find(key);
    if (it == tier.entries.end()) {
      continue;
    }
    stats_.demotions_invalidated.Add();
    EraseCacheEntry(tier, it);
    return;  // Exclusive: a block lives in at most one tier.
  }
}

void ResidencyManager::InvalidateAllClean() {
  for (CacheTier& tier : tiers_) {
    stats_.demotions_invalidated.Add(tier.entries.size());
    for (auto& [key, entry] : tier.entries) {
      FreeTierPage(tier, entry.page);
    }
    tier.entries.clear();
    tier.lru.clear();
  }
}

bool ResidencyManager::DemoteOne(size_t tier_index, bool pressure) {
  CacheTier& tier = tiers_[tier_index];
  if (tier.lru.empty()) {
    return false;
  }
  auto it = tier.entries.find(tier.lru.front());
  assert(it != tier.entries.end());
  // Adjacent-tier demotion: the DRAM tail falls into the NVM tier when one
  // exists (the payload moves by reference; the block stays cached, one
  // tier colder). The bottom tier's tail drops — flash is authoritative.
  if (tier_index + 1 < tiers_.size()) {
    const BlockKey key = it->first;
    const TenantId owner = it->second.tenant;
    const Result<uint64_t> below = AllocateTierPage(tier_index + 1);
    if (below.ok()) {
      CacheTier& lower = tiers_[tier_index + 1];
      // Move the payload down by reference: one full-page read from the
      // upper medium, one background write to the lower.
      PayloadRef payload = storage_.ReadPagePayloadRef(it->second.page);
      storage_.InstallNvmPagePayload(below.value(), std::move(payload),
                                     ForTenant(kCleanerIo, owner));
      EraseCacheEntry(tier, it);
      lower.lru.push_back(key);
      CacheEntry entry;
      entry.page = below.value();
      entry.tenant = owner;
      entry.lru_it = std::prev(lower.lru.end());
      lower.entries.emplace(key, entry);
      stats_.demotions_to_nvm.Add();
      if (pressure) {
        stats_.demotions_pressure.Add();
        if (obs_ != nullptr) {
          obs_->tracer().Instant(obs_track_, "demote-pressure",
                                 storage_.dram().clock().now());
        }
      }
      return true;
    }
    // No room below (pool exhausted by other consumers): fall through and
    // drop, exactly like a bottom tier.
  }
  if (pressure) {
    stats_.demotions_pressure.Add();
    if (obs_ != nullptr) {
      obs_->tracer().Instant(obs_track_, "demote-pressure",
                             storage_.dram().clock().now());
    }
  } else {
    stats_.demotions_invalidated.Add();
  }
  EraseCacheEntry(tier, it);
  return true;
}

double ResidencyManager::DecayTo(Heat& h, SimTime now) const {
  if (now > h.last) {
    const double dt = static_cast<double>(now - h.last);
    h.decayed *= std::exp2(-dt / static_cast<double>(options_.heat_half_life));
    h.last = now;
  }
  return h.decayed;
}

double ResidencyManager::Touch(const BlockKey& key, SimTime now) {
  stats_.touches.Add();
  Heat& h = heat_[key];
  DecayTo(h, now);
  h.decayed += 1.0;
  h.raw += 1;
  const double current = h.decayed;
  if (heat_.size() > kMaxHeatEntries) {
    // Sweep entries that have gone cold. The result is order-independent
    // (every entry below the threshold goes), so unordered_map iteration
    // order cannot affect behavior.
    for (auto it = heat_.begin(); it != heat_.end();) {
      if (DecayTo(it->second, now) < 0.25) {
        it = heat_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return current;
}

bool ResidencyManager::ShouldPromote(const Heat& h) const {
  switch (options_.policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return false;
    case ResidencyPolicy::kReadPromote:
      return h.decayed >= options_.promote_threshold;
    case ResidencyPolicy::kAggressive:
      return h.raw >= kAggressiveTouches ||
             h.decayed >= options_.promote_threshold;
  }
  return false;
}

bool ResidencyManager::ShouldAdmitFromFlash(const Heat& h) const {
  if (!has_nvm_tier()) {
    return ShouldPromote(h);
  }
  switch (options_.policy) {
    case ResidencyPolicy::kWriteBufferOnly:
      return false;
    case ResidencyPolicy::kReadPromote:
      return h.decayed >= kNvmPromoteThreshold;
    case ResidencyPolicy::kAggressive:
      return h.raw >= kAggressiveTouches ||
             h.decayed >= kNvmPromoteThreshold;
  }
  return false;
}

void ResidencyManager::TouchRead(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
}

void ResidencyManager::TouchWrite(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
}

void ResidencyManager::OnFlashRead(const BlockKey& key, uint64_t flash_block,
                                   SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldAdmitFromFlash(it->second) && !CleanCached(key) &&
      !NvmCached(key)) {
    PromoteFromFlash(key, flash_block, now);
  }
}

void ResidencyManager::OnNvmRead(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldPromote(it->second) && NvmCached(key)) {
    PromoteNvmToDram(key, now);
  }
}

bool ResidencyManager::NoteVmFault(const BlockKey& key, SimTime now) {
  if (!enabled()) {
    return false;
  }
  (void)Touch(key, now);
  auto it = heat_.find(key);
  assert(it != heat_.end());
  if (ShouldPromote(it->second)) {
    stats_.vm_promote_faults.Add();
    return true;
  }
  return false;
}

WriteStream ResidencyManager::FlushStream(const BlockKey& key, SimTime now) {
  if (options_.policy != ResidencyPolicy::kAggressive) {
    return WriteStream::kUser;
  }
  const double heat = HeatOf(key, now);
  if (flush_heat_ != nullptr) {
    flush_heat_->Record(static_cast<uint64_t>(heat * 100.0));
  }
  if (heat < kColdHintThreshold) {
    stats_.cold_stream_hints.Add();
    return WriteStream::kRelocation;
  }
  return WriteStream::kUser;
}

void ResidencyManager::ForgetHeat(const BlockKey& key) { heat_.erase(key); }

double ResidencyManager::HeatOf(const BlockKey& key, SimTime now) const {
  auto it = heat_.find(key);
  if (it == heat_.end()) {
    return 0.0;
  }
  // Read-only decay: do not update the stored entry.
  const Heat& h = it->second;
  if (now <= h.last) {
    return h.decayed;
  }
  const double dt = static_cast<double>(now - h.last);
  return h.decayed *
         std::exp2(-dt / static_cast<double>(options_.heat_half_life));
}

uint64_t ResidencyManager::MaxCleanPages() const {
  return static_cast<uint64_t>(options_.max_clean_fraction *
                               static_cast<double>(storage_.total_dram_pages()));
}

Result<uint64_t> ResidencyManager::AllocateTierPage(size_t tier_index) {
  CacheTier& tier = tiers_[tier_index];
  if (tier.capacity_pages == 0) {
    return ResourceExhaustedError("tier has no budget");
  }
  // Recycle the tier's own LRU tail at its budget — a cache never squeezes
  // dirty data or VM frames to grow.
  while (tier.entries.size() >= tier.capacity_pages) {
    (void)DemoteOne(tier_index, /*pressure=*/true);
  }
  const bool nvm = tier.residency == Residency::kNvm;
  Result<uint64_t> page =
      nvm ? storage_.AllocateNvmPage() : storage_.AllocateDramPage();
  while (!page.ok() && DemoteOne(tier_index, /*pressure=*/true)) {
    page = nvm ? storage_.AllocateNvmPage() : storage_.AllocateDramPage();
  }
  return page;
}

void ResidencyManager::PromoteFromFlash(const BlockKey& key,
                                        uint64_t flash_block, SimTime now) {
  // Admission from flash targets the bottom cache tier; blocks climb the
  // rest of the ladder one tier at a time as their heat holds up.
  const size_t target = tiers_.size() - 1;
  const Result<uint64_t> page = AllocateTierPage(target);
  if (!page.ok()) {
    return;  // No free pages and nothing of ours to recycle: skip quietly.
  }
  // The promotion read is cleaner-class background I/O: it occupies a flash
  // bank without advancing the caller's clock, so the foreground read that
  // triggered promotion is never stalled by it. The fill is charged
  // normally (the copy engine writes the page) — but the promoted page
  // *shares* the flash extent rather than copying it: the cache and the
  // flash sector alias one refcounted payload.
  Result<PayloadRef> read = storage_.flash_store().ReadRef(
      flash_block, ForTenant(kCleanerIo, tenant_));
  if (!read.ok()) {
    FreeTierPage(tiers_[target], page.value());
    return;
  }
  CacheTier& tier = tiers_[target];
  if (tier.residency == Residency::kNvm) {
    storage_.InstallNvmPagePayload(page.value(), std::move(read.value()),
                                   ForTenant(kCleanerIo, tenant_));
    stats_.nvm_promotions.Add();
    stats_.nvm_promoted_bytes.Add(storage_.page_bytes());
  } else {
    storage_.InstallPagePayload(page.value(), std::move(read.value()));
    stats_.promotions.Add();
    stats_.promoted_bytes.Add(storage_.page_bytes());
    TenantResidency& lane = stats_.by_tenant.For(tenant_);
    lane.promotions.Add();
    lane.promoted_bytes.Add(storage_.page_bytes());
  }
  tier.lru.push_back(key);
  CacheEntry entry;
  entry.page = page.value();
  entry.tenant = tenant_;
  entry.lru_it = std::prev(tier.lru.end());
  tier.entries.emplace(key, entry);
  if (promote_heat_ != nullptr) {
    promote_heat_->Record(static_cast<uint64_t>(HeatOf(key, now) * 100.0));
  }
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.dram().clock().now();
    obs_->tracer().Span(obs_track_, "promote", now, t1 - now,
                        {"file", key.file_id}, {"block", key.block_index});
  }
}

void ResidencyManager::PromoteNvmToDram(const BlockKey& key, SimTime now) {
  CacheTier& nvm_tier = tiers_[kNvmTier];
  auto it = nvm_tier.entries.find(key);
  if (it == nvm_tier.entries.end()) {
    return;
  }
  const Result<uint64_t> page = AllocateTierPage(kDramTier);
  if (!page.ok()) {
    return;  // DRAM budget dry: the block stays warm in NVM.
  }
  // Move the payload up by reference: a background NVM read (the migration
  // engine pulls the page) and a DRAM install. The NVM page returns to the
  // pool — tiers are exclusive.
  PayloadRef payload = storage_.ReadNvmPagePayloadRef(
      it->second.page, ForTenant(kCleanerIo, tenant_));
  storage_.InstallPagePayload(page.value(), std::move(payload));
  EraseCacheEntry(nvm_tier, it);
  CacheTier& dram_tier = tiers_[kDramTier];
  dram_tier.lru.push_back(key);
  CacheEntry entry;
  entry.page = page.value();
  entry.tenant = tenant_;
  entry.lru_it = std::prev(dram_tier.lru.end());
  dram_tier.entries.emplace(key, entry);
  stats_.nvm_to_dram_promotions.Add();
  stats_.promotions.Add();
  stats_.promoted_bytes.Add(storage_.page_bytes());
  TenantResidency& lane = stats_.by_tenant.For(tenant_);
  lane.promotions.Add();
  lane.promoted_bytes.Add(storage_.page_bytes());
  if (promote_heat_ != nullptr) {
    promote_heat_->Record(static_cast<uint64_t>(HeatOf(key, now) * 100.0));
  }
  if (obs_ != nullptr) {
    const SimTime t1 = storage_.dram().clock().now();
    obs_->tracer().Span(obs_track_, "promote-nvm-dram", now, t1 - now,
                        {"file", key.file_id}, {"block", key.block_index});
  }
}

Result<uint64_t> ResidencyManager::AllocateDramPage(ReclaimSource* requester) {
  Result<uint64_t> page = storage_.AllocateDramPage();
  // 1. The clean cache is the cheapest thing in DRAM: demote it first (with
  // an NVM tier the tail falls one tier rather than out of the hierarchy).
  while (!page.ok() && enabled() && DemoteOneClean(/*pressure=*/true)) {
    page = storage_.AllocateDramPage();
  }
  // 2. The requester's own reclaimable pages — exactly the historical VM
  // reclaim loop, so kWriteBufferOnly behavior is unchanged.
  while (!page.ok() && requester != nullptr && requester->TryReclaimOne()) {
    page = storage_.AllocateDramPage();
  }
  // 3. Under migration policies, every address space's clean pages compete
  // for the same DRAM (single-level store): reclaim from the others too, in
  // registration order for determinism.
  if (!page.ok() && enabled()) {
    for (ReclaimSource* source : sources_) {
      if (source == requester) {
        continue;
      }
      while (!page.ok() && source->TryReclaimOne()) {
        page = storage_.AllocateDramPage();
      }
      if (page.ok()) {
        break;
      }
    }
  }
  return page;
}

void ResidencyManager::AttachObs(Obs* obs) {
  std::vector<CounterField<Stats>> counters = {
      {"touches", &Stats::touches},
      {"promotions", &Stats::promotions},
      {"promoted_bytes", &Stats::promoted_bytes},
      {"clean_hits", &Stats::clean_hits},
      {"clean_hit_bytes", &Stats::clean_hit_bytes},
      {"demotions_pressure", &Stats::demotions_pressure},
      {"demotions_invalidated", &Stats::demotions_invalidated},
      {"cold_stream_hints", &Stats::cold_stream_hints},
      {"vm_promote_faults", &Stats::vm_promote_faults},
  };
  std::vector<CounterField<TenantResidency>> tenant_counters = {
      {"promotions", &TenantResidency::promotions},
      {"promoted_bytes", &TenantResidency::promoted_bytes},
      {"clean_hits", &TenantResidency::clean_hits},
      {"clean_hit_bytes", &TenantResidency::clean_hit_bytes},
  };
  if (has_nvm_tier()) {
    counters.insert(counters.end(),
                    {{"nvm_promotions", &Stats::nvm_promotions},
                     {"nvm_promoted_bytes", &Stats::nvm_promoted_bytes},
                     {"nvm_hits", &Stats::nvm_hits},
                     {"nvm_hit_bytes", &Stats::nvm_hit_bytes},
                     {"nvm_to_dram_promotions", &Stats::nvm_to_dram_promotions},
                     {"demotions_to_nvm", &Stats::demotions_to_nvm}});
    tenant_counters.insert(tenant_counters.end(),
                           {{"nvm_hits", &TenantResidency::nvm_hits},
                            {"nvm_hit_bytes", &TenantResidency::nvm_hit_bytes}});
  }
  export_.Attach(
      obs, "residency", stats_, counters, stats_.by_tenant, tenant_counters,
      [this](MetricsRegistry& m) {
        m.AddGauge("residency/clean_pages")
            ->Set(static_cast<int64_t>(clean_pages()));
        m.AddGauge("residency/heat_entries")
            ->Set(static_cast<int64_t>(heat_.size()));
        if (has_nvm_tier()) {
          m.AddGauge("residency/nvm_pages")
              ->Set(static_cast<int64_t>(nvm_pages()));
        }
        // Per-tenant DRAM share. The clean-page split is recomputed at
        // snapshot time: one scan of the cache beats keeping counters
        // consistent across every demote path.
        if (stats_.by_tenant.empty()) {
          return;
        }
        TenantTable<uint64_t> pages;
        for (const auto& [key, entry] : tiers_[kDramTier].entries) {
          pages.For(entry.tenant) += 1;
        }
        for (const auto& e : stats_.by_tenant.entries()) {
          const uint64_t* share = pages.Find(e.tenant);
          m.AddGauge("residency/tenant" + std::to_string(e.tenant) +
                     "/clean_pages")
              ->Set(static_cast<int64_t>(share != nullptr ? *share : 0));
        }
      });
  obs_ = obs;
  if (obs_ == nullptr) {
    promote_heat_ = nullptr;
    flush_heat_ = nullptr;
    return;
  }
  obs_track_ = obs_->tracer().RegisterTrack("residency");
  promote_heat_ = obs_->metrics().AddHistogram("residency/promote_heat_x100");
  flush_heat_ = obs_->metrics().AddHistogram("residency/flush_heat_x100");
}

}  // namespace ssmc
