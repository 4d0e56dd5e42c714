#include "src/core/machine.h"

#include "src/obs/obs.h"
#include "src/support/log.h"

namespace ssmc {

MachineConfig OmniBookConfig() {
  MachineConfig config;
  config.name = "omnibook";
  config.dram_bytes = 4 * kMiB;
  config.flash_spec = IntelFlash1993();
  // Keep simulated erase cost moderate for a 10 MiB card with many small
  // sectors (the card's controller erases subsectors).
  config.flash_spec.erase_sector_bytes = 16 * kKiB;
  config.flash_spec.erase_ns = 300 * kMillisecond;
  config.flash_bytes = 10 * kMiB;
  config.flash_banks = 2;
  return config;
}

MachineConfig PdaConfig() {
  MachineConfig config;
  config.name = "pda";
  config.dram_bytes = 1 * kMiB;
  config.flash_spec = GenericPaperFlash();
  config.flash_bytes = 4 * kMiB;
  config.flash_banks = 1;
  config.primary_battery_mwh = 3000;  // AAA cells.
  config.backup_battery_mwh = 100;
  config.fs_options.write_buffer_pages = 512;  // 256 KiB buffer.
  return config;
}

MachineConfig NotebookConfig() {
  MachineConfig config;
  config.name = "notebook";
  config.dram_bytes = 16 * kMiB;
  config.flash_spec = SunDiskFlash1993();
  // SunDisk-style small sectors; group them into 8 KiB store sectors for a
  // reasonable page count at 32 MiB.
  config.flash_spec.erase_sector_bytes = 8 * kKiB;
  config.flash_spec.erase_ns = 20 * kMillisecond;
  config.flash_bytes = 32 * kMiB;
  config.flash_banks = 4;
  config.fs_options.write_buffer_pages = 4096;  // 2 MiB buffer.
  return config;
}

MobileComputer::MobileComputer(MachineConfig config)
    : config_(std::move(config)), events_(clock_) {
  dram_ = std::make_unique<DramDevice>(config_.dram_spec, config_.dram_bytes,
                                       clock_);
  flash_ = std::make_unique<FlashDevice>(config_.flash_spec,
                                         config_.flash_bytes,
                                         config_.flash_banks, clock_,
                                         config_.seed);
  flash_->set_sched_policy(config_.io_sched);
  for (const MachineConfig::TenantQos& qos : config_.tenant_qos) {
    flash_->set_tenant_weight(qos.tenant, qos.weight);
    if (qos.rate_bytes_per_s > 0) {
      flash_->set_tenant_rate(qos.tenant, qos.rate_bytes_per_s,
                              qos.burst_bytes);
    }
  }
  if (config_.nvm_bytes > 0) {
    nvm_ = std::make_unique<NvmDevice>(config_.nvm_spec, config_.nvm_bytes,
                                       config_.nvm_banks, clock_);
  }
  battery_ = std::make_unique<Battery>(config_.primary_battery_mwh,
                                       config_.backup_battery_mwh, clock_);
  // The storage manager's flush path runs in the background: writes occupy
  // flash banks without blocking the application.
  FlashStoreOptions store_options = config_.store_options;
  store_options.background_writes = true;
  store_options.block_bytes = config_.page_bytes;
  store_ = std::make_unique<FlashStore>(*flash_, store_options);
  storage_ = std::make_unique<StorageManager>(*dram_, *store_,
                                              config_.page_bytes,
                                              config_.residency, nvm_.get());
  MemoryFsOptions fs_options = config_.fs_options;
  if (config_.journal) {
    journal_ = std::make_unique<MetadataJournal>(*storage_,
                                                 config_.journal_options);
    Status formatted = journal_->Format();
    if (!formatted.ok()) {
      SSMC_LOG(kWarning) << "journal format failed, running unjournaled: "
                         << formatted.ToString();
      journal_.reset();
    } else {
      fs_options.journal = journal_.get();
      fs_options.journal_oracle = config_.journal_oracle;
    }
  }
  fs_ = std::make_unique<MemoryFileSystem>(*storage_, fs_options);
  if (config_.obs != nullptr) {
    obs_track_ = config_.obs->tracer().RegisterTrack("machine");
    flash_->AttachObs(config_.obs);
    if (nvm_ != nullptr) {
      nvm_->AttachObs(config_.obs);
    }
    store_->AttachObs(config_.obs);
    storage_->AttachObs(config_.obs);
    if (journal_ != nullptr) {
      journal_->AttachObs(config_.obs);
    }
    fs_->AttachObs(config_.obs);
  }
  ScheduleFlushDaemon();
  if (config_.checkpoint_period > 0) {
    ScheduleCheckpointDaemon();
  }
}

MobileComputer::~MobileComputer() = default;

void MobileComputer::ScheduleFlushDaemon() {
  events_.ScheduleAfter(config_.flush_period, [this] {
    if (!battery_->dead()) {
      Status flushed = fs_->TickFlush(clock_.now());
      if (!flushed.ok()) {
        SSMC_LOG(kWarning) << "flush daemon: " << flushed.ToString();
      }
    }
    ScheduleFlushDaemon();
  });
}

void MobileComputer::ScheduleCheckpointDaemon() {
  events_.ScheduleAfter(config_.checkpoint_period, [this] {
    if (!battery_->dead()) {
      Status checkpointed = fs_->CheckpointMetadata();
      if (!checkpointed.ok()) {
        SSMC_LOG(kWarning) << "checkpoint daemon: "
                           << checkpointed.ToString();
      }
    }
    ScheduleCheckpointDaemon();
  });
}

Result<RecoveryReport> MobileComputer::RecoverAfterFailure(
    double fresh_battery_mwh) {
  const SimTime recovery_start = clock_.now();
  battery_ = std::make_unique<Battery>(fresh_battery_mwh,
                                       config_.backup_battery_mwh, clock_);
  spaces_.clear();
  // Tear down in dependency order, then rebuild the DRAM-resident state
  // (allocators, namespace) from flash.
  fs_.reset();
  journal_.reset();
  storage_ = std::make_unique<StorageManager>(*dram_, *store_,
                                              config_.page_bytes,
                                              config_.residency, nvm_.get());
  RecoveryReport report;
  if (config_.journal) {
    journal_ = std::make_unique<MetadataJournal>(*storage_,
                                                 config_.journal_options);
    MemoryFsOptions fs_options = config_.fs_options;
    fs_options.journal_oracle = config_.journal_oracle;
    Result<std::unique_ptr<MemoryFileSystem>> remounted =
        MemoryFileSystem::RecoverFromJournal(*journal_, *storage_, fs_options,
                                             &report);
    if (!remounted.ok()) {
      // No (or unreadable) journal: factory-reset to an empty, freshly
      // formatted journaled fs. The failed mount left reservations behind,
      // so rebuild the manager first.
      journal_.reset();
      storage_ = std::make_unique<StorageManager>(*dram_, *store_,
                                                  config_.page_bytes,
                                                  config_.residency,
                                                  nvm_.get());
      journal_ = std::make_unique<MetadataJournal>(*storage_,
                                                   config_.journal_options);
      MemoryFsOptions fresh = config_.fs_options;
      Status formatted = journal_->Format();
      if (!formatted.ok()) {
        SSMC_LOG(kWarning) << "journal reformat failed, running unjournaled: "
                           << formatted.ToString();
        journal_.reset();
      } else {
        fresh.journal = journal_.get();
        fresh.journal_oracle = config_.journal_oracle;
      }
      fs_ = std::make_unique<MemoryFileSystem>(*storage_, fresh);
      if (config_.obs != nullptr) {
        storage_->AttachObs(config_.obs);
        if (journal_ != nullptr) {
          journal_->AttachObs(config_.obs);
        }
        fs_->AttachObs(config_.obs);
      }
      return remounted.status();
    }
    fs_ = std::move(remounted).value();
    if (config_.obs != nullptr) {
      storage_->AttachObs(config_.obs);
      journal_->AttachObs(config_.obs);
      fs_->AttachObs(config_.obs);
      config_.obs->tracer().Span(obs_track_, "journal-mount", recovery_start,
                                 clock_.now() - recovery_start,
                                 {"files", report.files_recovered},
                                 {"records", report.journal_records_replayed});
    }
    return report;
  }
  Result<std::unique_ptr<MemoryFileSystem>> recovered =
      MemoryFileSystem::RecoverFromCheckpoint(*storage_, config_.fs_options,
                                              &report);
  if (!recovered.ok()) {
    // No checkpoint: come up with an empty file system (factory-reset).
    // The failed recovery attempt constructed (and destroyed) a file system
    // that reserved the superblock — and possibly checkpoint index blocks —
    // in storage_, so rebuild the manager before constructing the fresh FS.
    storage_ = std::make_unique<StorageManager>(*dram_, *store_,
                                                config_.page_bytes,
                                                config_.residency, nvm_.get());
    fs_ = std::make_unique<MemoryFileSystem>(*storage_, config_.fs_options);
    if (config_.obs != nullptr) {
      storage_->AttachObs(config_.obs);
      fs_->AttachObs(config_.obs);
    }
    return recovered.status();
  }
  fs_ = std::move(recovered).value();
  if (config_.obs != nullptr) {
    // The fs and storage manager were rebuilt; re-point their collectors and
    // tracks at the new instances (keyed collectors replace, track
    // registration dedupes by name).
    storage_->AttachObs(config_.obs);
    fs_->AttachObs(config_.obs);
    config_.obs->tracer().Span(obs_track_, "recovery", recovery_start,
                               clock_.now() - recovery_start,
                               {"files", report.files_recovered},
                               {"bytes", report.bytes_recovered});
  }
  return report;
}

AddressSpace& MobileComputer::CreateAddressSpace() {
  spaces_.push_back(std::make_unique<AddressSpace>(*storage_));
  spaces_.back()->set_hw_migration(config_.hw_migration);
  return *spaces_.back();
}

ReplayReport MobileComputer::RunTrace(const Trace& trace) {
  // Window the device attribution and read sources to this replay (machines
  // are reused across traces).
  const FlashDevice::Stats before = flash_->stats();
  const MemoryFileSystem::Stats& fstats = fs_->stats();
  const uint64_t dram_before = fstats.buffered_read_bytes.value() +
                               fstats.clean_cached_read_bytes.value();
  const uint64_t nvm_before = fstats.nvm_cached_read_bytes.value();
  const uint64_t flash_before = fstats.flash_direct_read_bytes.value();
  TraceReplayer replayer(*fs_, clock_, &events_);
  replayer.AttachObs(config_.obs);
  ReplayReport report = replayer.Replay(trace);
  report.tier_dram_read_bytes = fstats.buffered_read_bytes.value() +
                                fstats.clean_cached_read_bytes.value() -
                                dram_before;
  report.tier_nvm_read_bytes = fstats.nvm_cached_read_bytes.value() -
                               nvm_before;
  report.tier_flash_read_bytes =
      fstats.flash_direct_read_bytes.value() - flash_before;
  const FlashDevice::Stats& after = flash_->stats();
  for (int i = 0; i < kNumIoPriorities; ++i) {
    report.io_by_class[static_cast<size_t>(i)].AddDelta(after.by_class[i],
                                                        before.by_class[i]);
  }
  report.io_by_tenant.AddDelta(after.by_tenant, before.by_tenant);
  return report;
}

double MobileComputer::CurrentStandbyMw() const {
  return dram_->standby_mw() + flash_->standby_mw() +
         (nvm_ != nullptr ? nvm_->standby_mw() : 0.0);
}

bool MobileComputer::SettleEnergy() {
  dram_->AccountIdleEnergy();
  flash_->AccountIdleEnergy();
  if (nvm_ != nullptr) {
    nvm_->AccountIdleEnergy();
  }
  const double total = TotalEnergyNj();
  const double delta = total - drained_nj_;
  drained_nj_ = total;
  if (delta <= 0) {
    return !battery_->dead();
  }
  return battery_->Drain(delta);
}

double MobileComputer::TotalEnergyNj() const {
  return dram_->energy().total_nanojoules() +
         flash_->energy().total_nanojoules() +
         (nvm_ != nullptr ? nvm_->energy().total_nanojoules() : 0.0);
}

MobileComputer::CrashReport MobileComputer::InjectBatteryFailure() {
  CrashReport report;
  report.at = clock_.now();
  if (config_.obs != nullptr) {
    config_.obs->tracer().Instant(obs_track_, "battery-failure", report.at);
  }
  battery_->InjectFailure();
  report.lost_dirty_bytes = fs_->LoseBufferedData();
  dram_->ForceContentLoss();
  // The payload table shadows DRAM page contents; it loses them too.
  storage_->DropAllPagePayloads();
  report.dram_contents_lost = true;
  return report;
}

MobileComputer::CrashReport MobileComputer::OrderlyShutdown() {
  CrashReport report;
  report.at = clock_.now();
  Status synced = fs_->Sync();
  if (!synced.ok()) {
    SSMC_LOG(kWarning) << "shutdown sync failed: " << synced.ToString();
  }
  report.lost_dirty_bytes = fs_->LoseBufferedData();  // 0 after a clean sync.
  report.dram_contents_lost = false;
  return report;
}

bool MobileComputer::SwapBattery(double fresh_mwh) {
  // The backup carries the DRAM retention load for a one-minute swap.
  return battery_->SwapPrimary(fresh_mwh, CurrentStandbyMw(), kMinute);
}

}  // namespace ssmc
