#include "src/ftl/flash_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "src/obs/obs.h"
#include "src/support/log.h"

namespace ssmc {

int64_t PickCleaningVictim(const std::vector<SectorMeta>& sectors,
                           uint32_t pages_per_sector, CleanerPolicy policy,
                           SimTime now) {
  int64_t best = -1;
  double best_score = -1;
  for (size_t s = 0; s < sectors.size(); ++s) {
    const SectorMeta& m = sectors[s];
    if (m.active || m.free || m.bad || m.dead_pages == 0) {
      continue;
    }
    double score = 0;
    switch (policy) {
      case CleanerPolicy::kGreedy:
        score = static_cast<double>(m.dead_pages);
        break;
      case CleanerPolicy::kCostBenefit: {
        // LFS cost-benefit: benefit/cost = age * (1 - u) / (1 + u), where u
        // is the utilization (fraction of pages that must be relocated).
        const double u = static_cast<double>(m.valid_pages) /
                         static_cast<double>(pages_per_sector);
        const double age =
            static_cast<double>(std::max<SimTime>(1, now - m.last_write_time));
        score = age * (1.0 - u) / (1.0 + u);
        break;
      }
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<int64_t>(s);
    }
  }
  return best;
}

int64_t ScanPickFreeSector(
    const std::vector<std::pair<uint64_t, uint64_t>>& pool,
    bool wear_ordered) {
  if (pool.empty()) {
    return -1;
  }
  size_t pick = pool.size() - 1;  // LIFO: reuse the freshest erase.
  if (wear_ordered) {
    // Dynamic leveling: the first strictly-least-worn free sector.
    pick = 0;
    for (size_t i = 1; i < pool.size(); ++i) {
      if (pool[i].second < pool[pick].second) {
        pick = i;
      }
    }
  }
  return static_cast<int64_t>(pool[pick].first);
}

int64_t ScanPickColdEvictionVictim(const std::vector<SectorMeta>& sectors,
                                   uint64_t hot_sector_count, SimTime now,
                                   Duration min_age) {
  int64_t victim = -1;
  for (uint64_t s = 0; s < hot_sector_count; ++s) {
    const SectorMeta& m = sectors[s];
    if (m.active || m.free || m.bad || m.dead_pages != 0 ||
        m.valid_pages == 0) {
      continue;
    }
    if (now - m.last_write_time < min_age) {
      continue;  // Possibly just between overwrites; leave it be.
    }
    if (victim < 0 ||
        m.last_write_time <
            sectors[static_cast<size_t>(victim)].last_write_time) {
      victim = static_cast<int64_t>(s);
    }
  }
  return victim;
}

WearScanResult ScanWearLevelState(const std::vector<SectorMeta>& sectors,
                                  const FlashDevice& flash) {
  WearScanResult r;
  for (uint64_t s = 0; s < sectors.size(); ++s) {
    if (sectors[s].bad) {
      continue;
    }
    const uint64_t e = flash.EraseCount(s);
    r.min_erases = std::min(r.min_erases, e);
    r.max_erases = std::max(r.max_erases, e);
    if (!sectors[s].free && !sectors[s].active &&
        (r.coldest < 0 ||
         e < flash.EraseCount(static_cast<uint64_t>(r.coldest)))) {
      r.coldest = static_cast<int64_t>(s);
    }
  }
  return r;
}

FlashStore::FlashStore(FlashDevice& flash, FlashStoreOptions options)
    : flash_(flash),
      options_(options),
      pps_(static_cast<uint32_t>(flash.sector_bytes() / options.block_bytes)),
      extent_pool_(options.block_bytes),
      victim_index_(options.cleaner,
                    static_cast<uint32_t>(flash.sector_bytes() /
                                          options.block_bytes),
                    flash.num_sectors()),
      cold_index_(flash.num_sectors()) {
  assert(options_.block_bytes > 0);
  assert(flash_.sector_bytes() % options_.block_bytes == 0 &&
         "block size must divide the erase sector size");
  if (std::has_single_bit(static_cast<uint64_t>(pps_))) {
    page_shift_ = std::countr_zero(static_cast<uint64_t>(pps_));
  }

  const uint64_t num_sectors = flash_.num_sectors();
  const uint64_t pps = pages_per_sector();
  // Reserve enough sectors that cleaning always has room to relocate into
  // and the free pool can rise above the cleaner's low-water mark (otherwise
  // every allocation would trigger a cleaning storm): at least one per bank
  // (active sectors can strand free pages), at least low-water + 2, or the
  // requested overprovisioning fraction, whichever is larger.
  const uint64_t min_reserve =
      std::max(static_cast<uint64_t>(flash_.num_banks()) + 1,
               kFreeSectorLowWater + 2);
  const uint64_t reserve = std::max(
      min_reserve, static_cast<uint64_t>(
                       std::ceil(options_.overprovision *
                                 static_cast<double>(num_sectors))));
  assert(reserve < num_sectors && "device too small for its reserve");
  num_logical_blocks_ = (num_sectors - reserve) * pps;

  page_owner_ = std::make_unique_for_overwrite<uint64_t[]>(num_sectors * pps);
  page_tenant_ = std::make_unique_for_overwrite<TenantId[]>(num_sectors * pps);
  assert(pps <= UINT16_MAX && "SectorHot packs page counts into 16 bits");
  hot_.resize(num_sectors);
  for (SectorHot& h : hot_) {
    h.flags = kFreeFlag;
  }
  next_free_page_.assign(num_sectors, 0);
  free_pool_.assign(static_cast<size_t>(flash_.num_banks()),
                    FreeSectorPool(options_.wear != WearPolicy::kNone));
  for (uint64_t s = 0; s < num_sectors; ++s) {
    free_pool_[static_cast<size_t>(flash_.BankOfSector(s))].Add(
        s, flash_.EraseCount(s));
  }
  free_sector_count_ = num_sectors;
  active_.assign(static_cast<size_t>(flash_.num_banks()), -1);

  if (options_.hot_bank_count > 0 &&
      options_.hot_bank_count < flash_.num_banks()) {
    hot_sector_count_ = static_cast<uint64_t>(options_.hot_bank_count) *
                        flash_.sectors_per_bank();
  }

  if (options_.wear == WearPolicy::kStatic) {
    wear_index_ = std::make_unique<WearIndex>(num_sectors);
    for (uint64_t s = 0; s < num_sectors; ++s) {
      wear_index_->Seed(s, flash_.EraseCount(s));
    }
    // Erase counts change inside the device; observe them so the wear
    // trackers never need a rescan.
    flash_.set_erase_observer(
        [this](uint64_t sector, uint64_t new_count, bool now_bad) {
          wear_index_->OnEraseCountChanged(sector, new_count, now_bad);
        });
    observer_registered_ = true;
  }
}

FlashStore::~FlashStore() {
  if (observer_registered_) {
    flash_.set_erase_observer(nullptr);
  }
}

std::vector<SectorMeta> FlashStore::SnapshotSectors() const {
  std::vector<SectorMeta> out(hot_.size());
  for (uint64_t s = 0; s < hot_.size(); ++s) {
    out[s] = sector_meta(s);
  }
  return out;
}

void FlashStore::UpdateSectorIndexes(uint64_t sector) {
  const SectorHot& h = hot_[sector];
  const bool usable = h.flags == 0;  // Neither active, free, nor bad.
  victim_index_.Sync(sector, h.valid_pages, h.dead_pages, h.last_write_time,
                     usable && h.dead_pages > 0);
  if (sector < hot_sector_count_) {
    cold_index_.Sync(sector, h.last_write_time,
                     usable && h.dead_pages == 0 && h.valid_pages > 0);
  }
  if (wear_index_ != nullptr) {
    wear_index_->SyncOccupied(sector, flash_.EraseCount(sector), usable);
  }
}

void FlashStore::RecordIndexMismatch(const char* what, int64_t indexed,
                                     int64_t oracle) {
  index_validation_failures_ += 1;
  SSMC_LOG(kError) << "FTL index mismatch (" << what << "): indexed " << indexed
                   << " vs linear-scan oracle " << oracle;
}

int64_t FlashStore::TakeFreeSector(int bank) {
  FreeSectorPool& pool = free_pool_[static_cast<size_t>(bank)];
  if (options_.validate_indexes) {
    const int64_t oracle = ScanPickFreeSector(
        pool.SnapshotInsertionOrder(), options_.wear != WearPolicy::kNone);
    if (oracle != pool.Peek()) {
      RecordIndexMismatch("free-sector take", pool.Peek(), oracle);
    }
  }
  const int64_t sector = pool.Take();
  if (sector < 0) {
    return -1;
  }
  hot_[static_cast<size_t>(sector)].flags &= ~kFreeFlag;
  free_sector_count_ -= 1;
  const uint64_t first_page = static_cast<uint64_t>(sector) * pps_;
  std::fill_n(&page_owner_[first_page], pps_, kUnmapped);
  std::fill_n(&page_tenant_[first_page], pps_, kDefaultTenant);
  return sector;
}

Result<uint64_t> FlashStore::AllocatePage(WriteStream stream,
                                          bool allow_clean) {
  if (options_.validate_indexes) {
    uint64_t pool_sum = 0;
    for (const FreeSectorPool& pool : free_pool_) {
      pool_sum += pool.size();
    }
    if (pool_sum != free_sector_count_) {
      RecordIndexMismatch("free-sector count",
                          static_cast<int64_t>(free_sector_count_),
                          static_cast<int64_t>(pool_sum));
    }
  }
  // Proactive cleaning keeps the free pool above the low-water mark.
  if (allow_clean && free_sectors() <= kFreeSectorLowWater) {
    SSMC_RETURN_IF_ERROR(Clean());
  }

  const int banks = flash_.num_banks();
  // Bank segregation: user writes go to the hot range, relocated (cold)
  // data to the rest. With segregation off, or when the preferred range is
  // exhausted, any bank serves.
  int range_lo = 0;
  int range_len = banks;
  if (options_.hot_bank_count > 0 && options_.hot_bank_count < banks) {
    if (stream == WriteStream::kUser) {
      range_lo = 0;
      range_len = options_.hot_bank_count;
    } else {
      range_lo = options_.hot_bank_count;
      range_len = banks - options_.hot_bank_count;
    }
  }
  // Tries to take a page from banks [lo, lo+len).
  auto attempt = [&](int lo, int len) -> int64_t {
    // len is tiny (bank count); rotate with compares, not integer division.
    int rot = len == 1 ? 0 : next_bank_ % len;
    for (int i = 0; i < len; ++i) {
      const int bank = lo + rot;
      rot = rot + 1 == len ? 0 : rot + 1;
      int64_t active = active_[static_cast<size_t>(bank)];
      if (active >= 0 &&
          next_free_page_[static_cast<size_t>(active)] >= pages_per_sector()) {
        hot_[static_cast<size_t>(active)].flags &= ~kActiveFlag;
        active_[static_cast<size_t>(bank)] = -1;
        // The filled sector just became eligible for cleaning (if it holds
        // dead pages) or cold eviction (if fully valid).
        UpdateSectorIndexes(static_cast<uint64_t>(active));
        active = -1;
      }
      if (active < 0) {
        active = TakeFreeSector(bank);
        if (active < 0) {
          continue;  // This bank is out of space; try the next.
        }
        hot_[static_cast<size_t>(active)].flags |= kActiveFlag;
        active_[static_cast<size_t>(bank)] = active;
      }
      const uint64_t page =
          static_cast<uint64_t>(active) * pages_per_sector() +
          next_free_page_[static_cast<size_t>(active)];
      next_free_page_[static_cast<size_t>(active)] += 1;
      return static_cast<int64_t>(page);
    }
    return -1;
  };

  int64_t page = attempt(range_lo, range_len);
  if (page < 0 && allow_clean && !cleaning_) {
    // The preferred range is exhausted: clean (victims come from wherever
    // the dead pages are — under segregation that is this range) rather
    // than spilling this stream into the other banks.
    // Each time the hot range runs dry, also distill one fully-valid
    // (read-mostly) sector out to the cold banks: ordinary cleaning never
    // picks those (nothing dead to reclaim), so without this the write
    // banks silt up with data that belongs in the read-mostly banks.
    if (stream == WriteStream::kUser && options_.hot_bank_count > 0) {
      (void)EvictColdSectorFromHotRange();
      page = attempt(range_lo, range_len);
    }
    for (int rounds = 0; page < 0 && rounds < 64; ++rounds) {
      Result<bool> cleaned = CleanOne();
      if (!cleaned.ok() || !cleaned.value()) {
        break;
      }
      page = attempt(range_lo, range_len);
    }
  }
  if (page < 0 && range_len < banks) {
    page = attempt(0, banks);  // Last resort: any bank.
  }
  if (page < 0) {
    return NoSpaceError("flash store out of writable space");
  }
  return static_cast<uint64_t>(page);
}

Result<Duration> FlashStore::WriteInternalRef(uint64_t block, PayloadRef data,
                                              WriteStream stream,
                                              bool allow_clean, IoIssue issue) {
  if (block >= num_logical_blocks_) {
    return OutOfRangeError("flash store block out of range");
  }
  if (data.size() != options_.block_bytes) {
    return InvalidArgumentError("flash store writes are whole blocks");
  }

  // Hint the overwrite bookkeeping below: the allocator and device work in
  // between gives these random-access lines time to arrive. Advisory only —
  // cleaning may remap the block meanwhile, so the authoritative map_ read
  // happens after the program.
  if (block >= map_.size()) {
    map_.resize(block + 1, kUnmapped);
  }
  if (const uint64_t prior = map_[block]; prior != kUnmapped) {
    __builtin_prefetch(&page_owner_[prior], 1);
    __builtin_prefetch(&hot_[SectorOfPage(prior)], 1);
    victim_index_.Prefetch(SectorOfPage(prior));
  }

  Result<uint64_t> page = AllocatePage(stream, allow_clean);
  if (!page.ok()) {
    return page.status();
  }
  next_bank_ += 1;

  Result<Duration> programmed =
      flash_.ProgramExtent(PageAddress(page.value()), std::move(data), issue);
  if (!programmed.ok()) {
    return programmed.status();
  }

  if (map_[block] != kUnmapped) {
    MarkPageDead(map_[block]);
  }
  map_[block] = page.value();
  page_owner_[page.value()] = block;
  page_tenant_[page.value()] = issue.tenant;
  SectorHot& h = hot_[SectorOfPage(page.value())];
  assert((h.flags & kActiveFlag) != 0 &&
         "programs only target the bank's active sector");
  h.valid_pages += 1;
  h.last_write_time = flash_.clock().now();
  // No index update: active sectors are excluded from every index, and the
  // sector enters them with its final metadata when it is deactivated.
  return programmed.value();
}

Result<Duration> FlashStore::Write(uint64_t block,
                                   std::span<const uint8_t> data,
                                   WriteStream hint) {
  // Background mode means the write is flush traffic draining in the
  // write-behind path; otherwise the caller is waiting on it.
  return Write(block, data, hint,
               options_.background_writes ? IoPriority::kFlush
                                          : IoPriority::kForeground);
}

Result<Duration> FlashStore::Write(uint64_t block,
                                   std::span<const uint8_t> data,
                                   WriteStream hint, IoPriority priority,
                                   TenantId tenant) {
  // The data plane's single copy: the caller's span becomes a pooled extent
  // here, and from this point on only the ref moves (program, relocation,
  // cache promotion). An out-of-range block or a wrong-sized span skips the
  // copy, and WriteRef refuses the empty ref with the same errors.
  PayloadRef ref;
  if (block < num_logical_blocks_ && data.size() == options_.block_bytes) {
    ref = extent_pool_.AllocateCopy(data.data());
  }
  return WriteRef(block, std::move(ref), hint, priority, tenant);
}

Result<Duration> FlashStore::WriteRef(uint64_t block, PayloadRef data,
                                      WriteStream hint, IoPriority priority,
                                      TenantId tenant) {
  const uint64_t bytes = data.size();
  Result<Duration> r =
      WriteInternalRef(block, std::move(data), hint, /*allow_clean=*/true,
                       UserIssue(priority, tenant));
  if (r.ok()) {
    stats_.user_writes.Add();
    TenantIoStats& lane = stats_.by_tenant.For(tenant);
    lane.writes.Add();
    lane.written_bytes.Add(bytes);
  }
  return r;
}

Result<Duration> FlashStore::Read(uint64_t block, std::span<uint8_t> out,
                                  IoIssue issue) {
  // Checked after the block range, like every read's errors.
  if (block < num_logical_blocks_ && out.size() != options_.block_bytes) {
    return InvalidArgumentError("flash store reads are whole blocks");
  }
  return ReadPartial(block, 0, out, issue);
}

Result<Duration> FlashStore::ReadPartial(uint64_t block, uint64_t offset,
                                         std::span<uint8_t> out,
                                         IoIssue issue) {
  Result<uint64_t> addr = ReadAddress(block, offset, out.size());
  if (!addr.ok()) {
    return addr.status();
  }
  Result<Duration> r = flash_.Read(addr.value(), out, issue);
  if (r.ok()) {
    BillRead(issue.tenant, out.size());
  }
  return r;
}

Result<PayloadRef> FlashStore::ReadRef(uint64_t block, IoIssue issue) {
  Result<uint64_t> addr = ReadAddress(block, 0, options_.block_bytes);
  if (!addr.ok()) {
    return addr.status();
  }
  Result<PayloadRef> r = flash_.ReadExtent(addr.value(), options_.block_bytes,
                                           extent_pool_, issue);
  if (r.ok()) {
    BillRead(issue.tenant, options_.block_bytes);
  }
  return r;
}

Result<uint64_t> FlashStore::ReadAddress(uint64_t block, uint64_t offset,
                                         uint64_t bytes) const {
  if (block >= num_logical_blocks_) {
    return OutOfRangeError("flash store block out of range");
  }
  if (offset + bytes > options_.block_bytes) {
    return OutOfRangeError("partial read exceeds block bounds");
  }
  const uint64_t page = MappedPage(block);
  if (page == kUnmapped) {
    return NotFoundError("flash store block " + std::to_string(block) +
                         " is not mapped");
  }
  return PageAddress(page) + offset;
}

void FlashStore::BillRead(TenantId tenant, uint64_t bytes) {
  stats_.user_reads.Add();
  TenantIoStats& lane = stats_.by_tenant.For(tenant);
  lane.reads.Add();
  lane.read_bytes.Add(bytes);
}

Status FlashStore::Trim(uint64_t block) {
  if (block >= num_logical_blocks_) {
    return OutOfRangeError("flash store block out of range");
  }
  const uint64_t page = MappedPage(block);
  if (page == kUnmapped) {
    return Status::Ok();  // Idempotent.
  }
  MarkPageDead(page);
  map_[block] = kUnmapped;
  stats_.trims.Add();
  return Status::Ok();
}

Result<uint64_t> FlashStore::PhysicalAddressOf(uint64_t block) const {
  const uint64_t page = MappedPage(block);
  if (page == kUnmapped) {
    return NotFoundError("flash store block is not mapped");
  }
  return PageAddress(page);
}

void FlashStore::MarkPageDead(uint64_t page) {
  const uint64_t sector = SectorOfPage(page);
  SectorHot& h = hot_[sector];
  assert(h.valid_pages > 0);
  h.valid_pages -= 1;
  h.dead_pages += 1;
  page_owner_[page] = kUnmapped;
  if (static_cast<int64_t>(sector) != deferred_sync_sector_) {
    UpdateSectorIndexes(sector);
  }
}

void FlashStore::AttachObs(Obs* obs) {
  static constexpr CounterField<Stats> kCounters[] = {
      {"user_writes", &Stats::user_writes},
      {"user_reads", &Stats::user_reads},
      {"gc_runs", &Stats::gc_runs},
      {"gc_relocations", &Stats::gc_relocations},
      {"erases", &Stats::erases},
      {"wear_migrations", &Stats::wear_migrations},
      {"trims", &Stats::trims},
  };
  // Per-tenant write-amplification share.
  static constexpr CounterField<TenantIoStats> kTenantCounters[] = {
      {"writes", &TenantIoStats::writes},
      {"reads", &TenantIoStats::reads},
      {"relocations", &TenantIoStats::relocations},
  };
  export_.Attach(
      obs, "ftl", stats_, kCounters, stats_.by_tenant, kTenantCounters,
      [this](MetricsRegistry& m) {
        m.AddGauge("ftl/free_sectors")
            ->Set(static_cast<int64_t>(free_sector_count_));
        m.AddGauge("ftl/write_amp_milli")
            ->Set(static_cast<int64_t>(WriteAmplification() * 1000.0));
        for (const auto& e : stats_.by_tenant.entries()) {
          m.AddGauge("ftl/tenant" + std::to_string(e.tenant) +
                     "/write_amp_milli")
              ->Set(static_cast<int64_t>(TenantWriteAmplification(e.tenant) *
                                         1000.0));
        }
      });
  obs_ = obs;
  if (obs_ != nullptr) {
    obs_cleaner_track_ = obs_->tracer().RegisterTrack("flash cleaner");
  }
}

SimTime FlashStore::BanksBusyUntil() const {
  SimTime t = 0;
  for (int b = 0; b < flash_.num_banks(); ++b) {
    t = std::max(t, flash_.BankBusyUntil(b));
  }
  return t;
}

void FlashStore::ObsCleanerSpan(const char* name, SimTime t0, uint64_t sector,
                                uint64_t relocated) {
  obs_->tracer().Span(obs_cleaner_track_, name, t0,
                      std::max<Duration>(0, BanksBusyUntil() - t0),
                      {"sector", sector}, {"relocated", relocated});
}

Status FlashStore::Clean() {
  if (cleaning_) {
    return Status::Ok();  // Re-entrancy from relocation writes.
  }
  cleaning_ = true;
  Status status = Status::Ok();
  // Segregated stores distill read-mostly sectors out of the hot banks as a
  // side effect of cleaning pressure (throttled to bound amplification).
  if (options_.hot_bank_count > 0 && ++cleans_since_evict_ >= 4) {
    cleans_since_evict_ = 0;
    Result<bool> evicted = EvictColdSectorFromHotRange();
    if (!evicted.ok()) {
      cleaning_ = false;
      return evicted.status();
    }
  }
  while (free_sectors() <= kFreeSectorLowWater) {
    Result<bool> cleaned = CleanOne();
    if (!cleaned.ok()) {
      status = cleaned.status();
      break;
    }
    if (!cleaned.value()) {
      break;  // Nothing cleanable; callers will see NO_SPACE on allocation.
    }
  }
  cleaning_ = false;
  return status;
}

Result<bool> FlashStore::CleanOne() {
  const SimTime now = flash_.clock().now();
  const int64_t victim = victim_index_.Pick(now);
  if (options_.validate_indexes) {
    const int64_t oracle =
        PickCleaningVictim(SnapshotSectors(), pages_per_sector(),
                           options_.cleaner, now);
    if (oracle != victim) {
      RecordIndexMismatch("cleaning victim", victim, oracle);
    }
  }
  if (victim < 0) {
    return false;
  }
  stats_.gc_runs.Add();
  const uint64_t relocations_before = stats_.gc_relocations.value();

  DeferredSectorSync defer(*this, static_cast<uint64_t>(victim));
  SSMC_RETURN_IF_ERROR(RelocateLiveData(static_cast<uint64_t>(victim)));
  SSMC_RETURN_IF_ERROR(EraseAndFree(static_cast<uint64_t>(victim)));
  if (obs_ != nullptr) {
    ObsCleanerSpan("clean", now, static_cast<uint64_t>(victim),
                   stats_.gc_relocations.value() - relocations_before);
  }
  return true;
}

Result<bool> FlashStore::EvictColdSectorFromHotRange() {
  if (hot_sector_count_ == 0) {
    return false;
  }
  // Oldest fully-valid, non-active sector in a hot bank.
  const SimTime now = flash_.clock().now();
  const int64_t victim =
      cold_index_.PickOlderThan(now, options_.cold_eviction_age);
  if (options_.validate_indexes) {
    const int64_t oracle = ScanPickColdEvictionVictim(
        SnapshotSectors(), hot_sector_count_, now,
        options_.cold_eviction_age);
    if (oracle != victim) {
      RecordIndexMismatch("cold eviction victim", victim, oracle);
    }
  }
  if (victim < 0) {
    return false;
  }
  const uint64_t relocations_before = stats_.gc_relocations.value();
  DeferredSectorSync defer(*this, static_cast<uint64_t>(victim));
  SSMC_RETURN_IF_ERROR(RelocateLiveData(static_cast<uint64_t>(victim)));
  SSMC_RETURN_IF_ERROR(EraseAndFree(static_cast<uint64_t>(victim)));
  if (obs_ != nullptr) {
    ObsCleanerSpan("cold-evict", now, static_cast<uint64_t>(victim),
                   stats_.gc_relocations.value() - relocations_before);
  }
  return true;
}

Status FlashStore::RelocateLiveData(uint64_t sector) {
  const uint64_t first_page = sector * pps_;
  const uint64_t end_page = first_page + pps_;
  // The owners' map entries are scattered or cold; start pulling them in
  // before the relocation loop takes its first dependent miss on each. (The
  // payloads themselves are untouched: ReadExtent + WriteInternalRef move
  // refs, not bytes.)
  for (uint64_t p = first_page; p < end_page; ++p) {
    if (page_owner_[p] != kUnmapped) {
      __builtin_prefetch(&map_[page_owner_[p]], 1);
    }
  }
  flash_.PrefetchExtentIndex(sector);
  for (uint64_t p = first_page; p < end_page; ++p) {
    const uint64_t owner = page_owner_[p];
    if (owner == kUnmapped) {
      continue;
    }
    // The move is billed to the tenant whose data survives, not to whoever
    // triggered this pass.
    const IoIssue issue = CleanerIssue(page_tenant_[p]);
    Result<PayloadRef> read = flash_.ReadExtent(
        PageAddress(p), options_.block_bytes, extent_pool_, issue);
    if (!read.ok()) {
      return read.status();
    }
    // Survivors go to the cold stream: a page that stayed valid while its
    // neighbors died is read-mostly, so under bank segregation relocation
    // continuously distills cold data out of the write-hot banks (the LFS
    // hot/cold separation insight).
    Result<Duration> moved =
        WriteInternalRef(owner, std::move(read.value()),
                         WriteStream::kRelocation, /*allow_clean=*/false, issue);
    if (!moved.ok()) {
      return moved.status();
    }
    stats_.gc_relocations.Add();
    stats_.by_tenant.For(issue.tenant).relocations.Add();
  }
  return Status::Ok();
}

Status FlashStore::EraseAndFree(uint64_t sector) {
  SectorHot& h = hot_[sector];
  assert((h.flags & (kActiveFlag | kFreeFlag)) == 0);
  assert(h.valid_pages == 0 && "erasing a sector with live data");
  Result<Duration> erased = flash_.EraseSector(sector, CleanerIssue());
  if (!erased.ok()) {
    if (erased.status().code() == ErrorCode::kDataLoss) {
      // The sector wore out. Retire it; the store keeps running with less
      // spare capacity (graceful capacity degradation). Retirement must
      // remove the sector from every index — it never becomes free,
      // cleanable, or a wear-leveling target again.
      h.flags |= kBadFlag;
      h.dead_pages = 0;
      UpdateSectorIndexes(sector);
      if (obs_ != nullptr) {
        obs_->tracer().Instant(obs_cleaner_track_, "sector-retired",
                               flash_.clock().now(), {"sector", sector});
      }
      SSMC_LOG(kInfo) << "flash store retired worn-out sector " << sector;
      return Status::Ok();
    }
    return erased.status();
  }
  stats_.erases.Add();
  h = SectorHot{};
  h.flags = kFreeFlag;
  next_free_page_[sector] = 0;
  UpdateSectorIndexes(sector);
  free_pool_[static_cast<size_t>(flash_.BankOfSector(sector))].Add(
      sector, flash_.EraseCount(sector));
  free_sector_count_ += 1;
  erases_since_wear_check_ += 1;
  MaybeStaticWearLevel();
  return Status::Ok();
}

void FlashStore::MaybeStaticWearLevel() {
  if (options_.wear != WearPolicy::kStatic || wear_leveling_) {
    return;
  }
  if (erases_since_wear_check_ < options_.static_wear_check_interval) {
    return;
  }
  erases_since_wear_check_ = 0;

  // Wear spread and the coldest occupied sector, from the running trackers.
  uint64_t min_erases = ~uint64_t{0};
  uint64_t max_erases = 0;
  if (wear_index_->has_sectors()) {
    min_erases = wear_index_->min_erases();
    max_erases = wear_index_->max_erases();
  }
  const int64_t coldest = wear_index_->ColdestOccupied();
  if (options_.validate_indexes) {
    const WearScanResult oracle = ScanWearLevelState(SnapshotSectors(), flash_);
    if (oracle.coldest != coldest || oracle.min_erases != min_erases ||
        oracle.max_erases != max_erases) {
      RecordIndexMismatch("wear-level target", coldest, oracle.coldest);
    }
  }
  if (coldest < 0 || max_erases - min_erases <= options_.static_wear_delta) {
    return;
  }

  // Migrate the coldest sector's live data so its barely-worn cells rejoin
  // the allocation pool.
  wear_leveling_ = true;
  const SimTime migrate_start = flash_.clock().now();
  const uint64_t relocations_before = stats_.gc_relocations.value();
  DeferredSectorSync defer(*this, static_cast<uint64_t>(coldest));
  const Status migrate = RelocateLiveData(static_cast<uint64_t>(coldest));
  if (!migrate.ok()) {
    // A failed migration is survivable — the cold data simply stays where it
    // is and the next check retries — but it must not fail silently: it can
    // be the first sign of a failing region.
    stats_.wear_level_failures.Add();
    SSMC_LOG(kWarning) << "static wear leveling: migrating sector " << coldest
                       << " failed: " << migrate.ToString();
  } else if (hot_[static_cast<size_t>(coldest)].valid_pages == 0) {
    if (EraseAndFree(static_cast<uint64_t>(coldest)).ok()) {
      stats_.wear_migrations.Add();
    }
  }
  if (obs_ != nullptr) {
    ObsCleanerSpan("wear-level", migrate_start,
                   static_cast<uint64_t>(coldest),
                   stats_.gc_relocations.value() - relocations_before);
  }
  wear_leveling_ = false;
}

Status FlashStore::CheckIndexConsistency() const {
  uint64_t free_count = 0;
  uint64_t victim_count = 0;
  uint64_t cold_count = 0;
  uint64_t occupied_count = 0;
  uint64_t non_bad = 0;
  for (uint64_t s = 0; s < hot_.size(); ++s) {
    const SectorMeta m = sector_meta(s);
    const bool usable = !m.active && !m.free && !m.bad;
    if (m.free) {
      free_count += 1;
    }
    if (!m.bad) {
      non_bad += 1;
    }
    const bool candidate = usable && m.dead_pages > 0;
    victim_count += candidate ? 1 : 0;
    if (victim_index_.Contains(s) != candidate) {
      return InternalError("victim index membership wrong for sector " +
                           std::to_string(s));
    }
    const bool cold = s < hot_sector_count_ && usable && m.dead_pages == 0 &&
                      m.valid_pages > 0;
    cold_count += cold ? 1 : 0;
    if (cold_index_.Contains(s) != cold) {
      return InternalError("cold index membership wrong for sector " +
                           std::to_string(s));
    }
    if (wear_index_ != nullptr) {
      occupied_count += usable ? 1 : 0;
      if (wear_index_->OccupiedContains(s) != usable) {
        return InternalError("wear occupied-set membership wrong for sector " +
                             std::to_string(s));
      }
    }
  }
  if (victim_index_.size() != victim_count) {
    return InternalError("victim index size mismatch");
  }
  if (cold_index_.size() != cold_count) {
    return InternalError("cold index size mismatch");
  }
  uint64_t pool_sum = 0;
  for (const FreeSectorPool& pool : free_pool_) {
    pool_sum += pool.size();
  }
  if (pool_sum != free_count || free_sector_count_ != free_count) {
    return InternalError("free-sector count mismatch");
  }
  if (wear_index_ != nullptr) {
    if (wear_index_->occupied_size() != occupied_count) {
      return InternalError("wear occupied-set size mismatch");
    }
    if (wear_index_->tracked_sectors() != non_bad) {
      return InternalError("wear erase-count tracker size mismatch");
    }
    const WearScanResult scan = ScanWearLevelState(SnapshotSectors(), flash_);
    if (wear_index_->has_sectors() &&
        (wear_index_->min_erases() != scan.min_erases ||
         wear_index_->max_erases() != scan.max_erases ||
         wear_index_->ColdestOccupied() != scan.coldest)) {
      return InternalError("wear tracker disagrees with linear scan");
    }
  }
  return Status::Ok();
}

double FlashStore::WriteAmplification() const {
  if (stats_.user_writes.value() == 0) {
    return 1.0;
  }
  return static_cast<double>(stats_.user_writes.value() +
                             stats_.gc_relocations.value()) /
         static_cast<double>(stats_.user_writes.value());
}

double FlashStore::TenantWriteAmplification(TenantId tenant) const {
  const TenantIoStats* lane = stats_.by_tenant.Find(tenant);
  if (lane == nullptr || lane->writes.value() == 0) {
    return 1.0;
  }
  return static_cast<double>(lane->writes.value() +
                             lane->relocations.value()) /
         static_cast<double>(lane->writes.value());
}

}  // namespace ssmc
