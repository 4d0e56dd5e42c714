// Keyed I/O attribution — the one struct counting "who waited how long for
// how much service" at every layer that attributes I/O time.
//
// FlashDevice::Stats and ReplayReport used to hand-roll parallel per-class
// arrays (requests / queue_wait_ns / service_ns each); per-tenant accounting
// would have been a third copy. IoLaneStats is that triple, once; a lane is
// any attribution key — a priority class (dense array of kNumIoPriorities)
// or a tenant (sparse TenantTable, since a machine typically sees a handful
// of tenant ids out of a 16-bit space). The same table shape carries the
// storage layers' per-tenant op/byte counters (TenantIoStats) and the
// replayer's per-tenant latency recorders (TenantLatency).

#ifndef SSMC_SRC_SIM_IO_STATS_H_
#define SSMC_SRC_SIM_IO_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/io_request.h"
#include "src/sim/stats.h"

namespace ssmc {

// Sparse per-tenant table: a sorted vector of (tenant, T) pairs. Lookup is
// linear — the table holds as many entries as distinct tenants actually
// seen, which is small by construction. T needs Merge(const T&).
template <typename T>
class TenantTable {
 public:
  struct Entry {
    TenantId tenant = kDefaultTenant;
    T value{};
  };

  // The value for `tenant`, inserted (sorted by tenant id) on first use.
  T& For(TenantId tenant) {
    size_t i = 0;
    while (i < entries_.size() && entries_[i].tenant < tenant) {
      ++i;
    }
    if (i == entries_.size() || entries_[i].tenant != tenant) {
      entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                      Entry{tenant, {}});
    }
    return entries_[i].value;
  }

  // The value for `tenant`, or null if the tenant was never seen.
  const T* Find(TenantId tenant) const {
    for (const Entry& e : entries_) {
      if (e.tenant == tenant) {
        return &e.value;
      }
    }
    return nullptr;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  void Merge(const TenantTable& other) {
    for (const Entry& e : other.entries_) {
      For(e.tenant).Merge(e.value);
    }
  }

  // Adds (after - before) for every tenant in `after`; a tenant missing
  // from `before` counts from zero. T needs AddDelta(after, before).
  void AddDelta(const TenantTable& after, const TenantTable& before) {
    static const T kZero{};
    for (const Entry& e : after.entries_) {
      const T* base = before.Find(e.tenant);
      For(e.tenant).AddDelta(e.value, base != nullptr ? *base : kZero);
    }
  }

 private:
  std::vector<Entry> entries_;  // Sorted by tenant id.
};

// Time attribution for one lane (priority class or tenant).
struct IoLaneStats {
  Counter requests;
  Counter queue_wait_ns;
  Counter service_ns;

  static constexpr auto Fields() {
    return std::to_array<CounterField<IoLaneStats>>({
        {"requests", &IoLaneStats::requests},
        {"queue_wait_ns", &IoLaneStats::queue_wait_ns},
        {"service_ns", &IoLaneStats::service_ns},
    });
  }
  void Merge(const IoLaneStats& other) { MergeFields(*this, other); }
  void AddDelta(const IoLaneStats& after, const IoLaneStats& before) {
    AddFieldDeltas(*this, after, before);
  }

  // One dispatched request: its queue wait and its time on the medium.
  void Record(Duration wait, Duration service) {
    requests.Add();
    queue_wait_ns.Add(static_cast<uint64_t>(wait));
    service_ns.Add(static_cast<uint64_t>(service));
  }
};

// Per-tenant time attribution. AddDelta windows a device's cumulative table
// to one trace replay.
using TenantLaneTable = TenantTable<IoLaneStats>;

// Request attribution of one banked device: by priority class (dense) and
// by issuing tenant (sparse — only tenants that issued requests appear).
struct IoLanes {
  IoLaneStats by_class[kNumIoPriorities];  // Indexed by IoPriority.
  TenantLaneTable by_tenant;               // Keyed by issuing tenant.

  void Record(IoPriority priority, TenantId tenant, Duration wait,
              Duration service) {
    by_class[static_cast<int>(priority)].Record(wait, service);
    by_tenant.For(tenant).Record(wait, service);
  }
  // A queued reservation pushed later by a reordering policy owes its lanes
  // the extra wait.
  void AddWait(IoPriority priority, TenantId tenant, Duration delta) {
    by_class[static_cast<int>(priority)].queue_wait_ns.Add(
        static_cast<uint64_t>(delta));
    by_tenant.For(tenant).queue_wait_ns.Add(static_cast<uint64_t>(delta));
  }
};

// Op/byte attribution for one tenant at a storage layer (file system, write
// buffer, flash store). Layers fill the fields that apply to them and leave
// the rest zero; `relocations` is the FTL's cleaner-move count, billed to
// the tenant owning the relocated data (the per-tenant write-amplification
// numerator).
struct TenantIoStats {
  Counter reads;
  Counter read_bytes;
  Counter writes;
  Counter written_bytes;
  Counter relocations;

  static constexpr auto Fields() {
    return std::to_array<CounterField<TenantIoStats>>({
        {"reads", &TenantIoStats::reads},
        {"read_bytes", &TenantIoStats::read_bytes},
        {"writes", &TenantIoStats::writes},
        {"written_bytes", &TenantIoStats::written_bytes},
        {"relocations", &TenantIoStats::relocations},
    });
  }
  void Merge(const TenantIoStats& other) { MergeFields(*this, other); }
};
using TenantIoTable = TenantTable<TenantIoStats>;

// Per-tenant latency recorders (reads and writes separately): the
// replay-level view behind per-tenant SLO metrics (read p50/p99).
struct TenantLatency {
  LatencyRecorder reads;
  LatencyRecorder writes;

  void Merge(const TenantLatency& other) {
    reads.Merge(other.reads);
    writes.Merge(other.writes);
  }
};
using TenantLatencyTable = TenantTable<TenantLatency>;

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_IO_STATS_H_
