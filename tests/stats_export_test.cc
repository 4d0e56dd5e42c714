// Pins what a fully built machine exports into its metrics registry: the
// exact key set, every exported counter against the stats() field it
// mirrors, and the values a rebuilt component's predecessor flushed when it
// was torn down by crash recovery.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/obs/obs.h"
#include "src/trace/generator.h"

namespace ssmc {
namespace {

constexpr TenantId kReader = 1;
constexpr TenantId kWriter = 2;

MachineConfig TieredConfig(Obs* obs) {
  MachineConfig c = NotebookConfig();
  c.name = "pinned";
  c.seed = 7;
  c.dram_bytes = 4 * kMiB;
  c.nvm_bytes = 2 * kMiB;
  c.nvm_banks = 2;
  c.flash_bytes = 4 * kMiB;
  c.residency.policy = ResidencyPolicy::kReadPromote;
  c.journal = true;
  c.io_sched = IoSchedPolicy::kWeightedFair;
  c.tenant_qos = {{kReader, 4, 0, 0}, {kWriter, 1, 0, 0}};
  c.obs = obs;
  return c;
}

Trace MergeByTime(const Trace& a, const Trace& b) {
  Trace merged;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() ||
        (i < a.size() && a.records()[i].at <= b.records()[j].at);
    merged.Add(take_a ? a.records()[i++] : b.records()[j++]);
  }
  return merged;
}

Trace TwoTenantTrace() {
  WorkloadOptions reader = ReadMostlyWorkload();
  reader.seed = 11;
  reader.duration = 2 * kMinute;
  reader.max_file_bytes = 64 * kKiB;
  WorkloadOptions writer = WriteHotWorkload();
  writer.seed = 12;
  writer.duration = 2 * kMinute;
  writer.max_file_bytes = 64 * kKiB;
  return MergeByTime(
      WorkloadGenerator(reader).Generate().WithPathPrefix("/t1").WithTenant(
          kReader),
      WorkloadGenerator(writer).Generate().WithPathPrefix("/t2").WithTenant(
          kWriter));
}

using Values = std::map<std::string, uint64_t>;

template <typename Table, typename Fn>
void AddTenantLanes(Values& out, const std::string& prefix,
                    const Table& table, Fn fields) {
  for (const auto& e : table.entries()) {
    const std::string base = prefix + "/tenant" + std::to_string(e.tenant);
    for (const auto& [name, value] : fields(e.value)) {
      out[base + "/" + name] = value;
    }
  }
}

// Every counter the machine's layers are expected to export, read straight
// from their stats() structs.
Values ExpectedCounters(MobileComputer& m) {
  Values v;
  const FlashDevice::Stats& flash = m.flash().stats();
  v["flash/reads"] = flash.reads.value();
  v["flash/read_bytes"] = flash.read_bytes.value();
  v["flash/programs"] = flash.programs.value();
  v["flash/programmed_bytes"] = flash.programmed_bytes.value();
  v["flash/erases"] = flash.erases.value();
  v["flash/read_stall_ns"] = flash.read_stall_ns.value();
  // A device tenant lane's service_ns counter shares its name with the
  // per-tenant service-time histogram, which the retire hook registers
  // first; the registry keeps the histogram, so no counter is exported.
  auto io_lane = [](const IoLaneStats& l) {
    return Values{{"requests", l.requests.value()},
                  {"queue_wait_ns", l.queue_wait_ns.value()}};
  };
  AddTenantLanes(v, "flash", flash.by_tenant, io_lane);

  const NvmDevice::Stats& nvm = m.nvm()->stats();
  v["nvm/reads"] = nvm.reads.value();
  v["nvm/read_bytes"] = nvm.read_bytes.value();
  v["nvm/writes"] = nvm.writes.value();
  v["nvm/written_bytes"] = nvm.written_bytes.value();
  v["nvm/read_stall_ns"] = nvm.read_stall_ns.value();
  AddTenantLanes(v, "nvm", nvm.by_tenant, io_lane);

  const FlashStore::Stats& ftl = m.flash_store().stats();
  v["ftl/user_writes"] = ftl.user_writes.value();
  v["ftl/user_reads"] = ftl.user_reads.value();
  v["ftl/gc_runs"] = ftl.gc_runs.value();
  v["ftl/gc_relocations"] = ftl.gc_relocations.value();
  v["ftl/erases"] = ftl.erases.value();
  v["ftl/wear_migrations"] = ftl.wear_migrations.value();
  v["ftl/trims"] = ftl.trims.value();
  AddTenantLanes(v, "ftl", ftl.by_tenant, [](const TenantIoStats& l) {
    return Values{{"writes", l.writes.value()},
                  {"reads", l.reads.value()},
                  {"relocations", l.relocations.value()}};
  });

  const ResidencyManager::Stats& res = m.storage().residency().stats();
  v["residency/touches"] = res.touches.value();
  v["residency/promotions"] = res.promotions.value();
  v["residency/promoted_bytes"] = res.promoted_bytes.value();
  v["residency/clean_hits"] = res.clean_hits.value();
  v["residency/clean_hit_bytes"] = res.clean_hit_bytes.value();
  v["residency/demotions_pressure"] = res.demotions_pressure.value();
  v["residency/demotions_invalidated"] = res.demotions_invalidated.value();
  v["residency/cold_stream_hints"] = res.cold_stream_hints.value();
  v["residency/vm_promote_faults"] = res.vm_promote_faults.value();
  v["residency/nvm_promotions"] = res.nvm_promotions.value();
  v["residency/nvm_promoted_bytes"] = res.nvm_promoted_bytes.value();
  v["residency/nvm_hits"] = res.nvm_hits.value();
  v["residency/nvm_hit_bytes"] = res.nvm_hit_bytes.value();
  v["residency/nvm_to_dram_promotions"] = res.nvm_to_dram_promotions.value();
  v["residency/demotions_to_nvm"] = res.demotions_to_nvm.value();
  AddTenantLanes(
      v, "residency", res.by_tenant,
      [](const ResidencyManager::TenantResidency& l) {
        return Values{{"promotions", l.promotions.value()},
                      {"promoted_bytes", l.promoted_bytes.value()},
                      {"clean_hits", l.clean_hits.value()},
                      {"clean_hit_bytes", l.clean_hit_bytes.value()},
                      {"nvm_hits", l.nvm_hits.value()},
                      {"nvm_hit_bytes", l.nvm_hit_bytes.value()}};
      });

  const WriteBuffer::Stats& wb = m.fs().write_buffer().stats();
  v["wbuf/puts"] = wb.puts.value();
  v["wbuf/absorbed_overwrites"] = wb.absorbed_overwrites.value();
  v["wbuf/flushes"] = wb.flushes.value();
  v["wbuf/flushed_bytes"] = wb.flushed_bytes.value();
  v["wbuf/capacity_evictions"] = wb.capacity_evictions.value();
  v["wbuf/dropped_writes"] = wb.dropped_writes.value();

  const MemoryFileSystem::Stats& fs = m.fs().stats();
  v["fs/creates"] = fs.creates.value();
  v["fs/unlinks"] = fs.unlinks.value();
  v["fs/reads"] = fs.reads.value();
  v["fs/read_bytes"] = fs.read_bytes.value();
  v["fs/writes"] = fs.writes.value();
  v["fs/written_bytes"] = fs.written_bytes.value();
  v["fs/flash_direct_read_bytes"] = fs.flash_direct_read_bytes.value();
  v["fs/buffered_read_bytes"] = fs.buffered_read_bytes.value();
  v["fs/clean_cached_read_bytes"] = fs.clean_cached_read_bytes.value();
  v["fs/nvm_cached_read_bytes"] = fs.nvm_cached_read_bytes.value();
  v["fs/cow_block_copies"] = fs.cow_block_copies.value();
  AddTenantLanes(v, "fs", fs.by_tenant, [](const TenantIoStats& l) {
    return Values{{"reads", l.reads.value()},
                  {"read_bytes", l.read_bytes.value()},
                  {"writes", l.writes.value()},
                  {"written_bytes", l.written_bytes.value()}};
  });

  const MetadataJournal::Stats& js = m.journal()->stats();
  v["journal/records"] = js.records.value();
  v["journal/appended_bytes"] = js.appended_bytes.value();
  v["journal/log_block_writes"] = js.log_block_writes.value();
  v["journal/superblock_writes"] = js.superblock_writes.value();
  v["journal/checkpoints"] = js.checkpoints.value();
  v["journal/checkpoint_bytes"] = js.checkpoint_bytes.value();
  v["journal/compacted_blocks"] = js.compacted_blocks.value();
  return v;
}

// Counters in `snapshot` that mirror a component's stats (the tracer's own
// health counters under obs/ are not component stats).
Values ExportedCounters(const MetricsSnapshot& snapshot) {
  Values v;
  for (const auto& [key, value] : snapshot.values()) {
    if (value.kind == MetricValue::Kind::kCounter && key.rfind("obs/", 0) != 0) {
      v[key] = value.counter;
    }
  }
  return v;
}

// The key set the machine above exports after a replay and one journal
// recovery: counters, gauges and histograms of every layer.
const std::vector<std::string> kPinnedKeys = {
#include "stats_export_keys.inc"
};

class StatsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<MobileComputer>(TieredConfig(&obs_));
    ASSERT_NE(machine_->nvm(), nullptr);
    ASSERT_NE(machine_->journal(), nullptr);
    ASSERT_TRUE(machine_->fs().Mkdir("/t1").ok());
    ASSERT_TRUE(machine_->fs().Mkdir("/t2").ok());
    machine_->RunTrace(TwoTenantTrace());
  }

  Obs obs_;
  std::unique_ptr<MobileComputer> machine_;
};

TEST_F(StatsExportTest, EveryExportedCounterEqualsItsStatsField) {
  const Values exported = ExportedCounters(obs_.SnapshotMetrics());
  const Values expected = ExpectedCounters(*machine_);
  EXPECT_EQ(exported, expected);
  // Both tenants reached every layer with tenant lanes.
  for (const char* layer : {"flash", "nvm", "ftl", "residency", "fs"}) {
    for (TenantId t : {kReader, kWriter}) {
      const std::string prefix =
          std::string(layer) + "/tenant" + std::to_string(t) + "/";
      EXPECT_NE(exported.lower_bound(prefix), exported.end());
      EXPECT_EQ(exported.lower_bound(prefix)->first.rfind(prefix, 0), 0u)
          << prefix;
    }
  }
}

TEST_F(StatsExportTest, FlushedValuesSurviveRecoveryRebuild) {
  machine_->InjectBatteryFailure();
  // The fs, write buffer, journal, storage manager and residency manager
  // about to be torn down; what they export now is what they flush.
  const Values before_rebuild = ExpectedCounters(*machine_);
  Result<RecoveryReport> recovered = machine_->RecoverAfterFailure(20000);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const MetricsSnapshot snapshot = obs_.SnapshotMetrics();
  const Values live = ExpectedCounters(*machine_);
  int flushed_only = 0;
  for (const auto& [key, value] : ExportedCounters(snapshot)) {
    if (const auto it = live.find(key); it != live.end()) {
      EXPECT_EQ(value, it->second) << key;
      continue;
    }
    // Exported only by a torn-down component: its flushed value stays.
    const auto it = before_rebuild.find(key);
    ASSERT_NE(it, before_rebuild.end()) << key;
    EXPECT_EQ(value, it->second) << key;
    ++flushed_only;
  }
  EXPECT_GT(flushed_only, 0);

  std::vector<std::string> keys;
  for (const auto& [key, value] : snapshot.values()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, kPinnedKeys);
}

}  // namespace
}  // namespace ssmc
