// StatsExport — the one path from a component's Stats struct to the metrics
// registry.
//
// A component lists the counters it exports once, as a table of
// {"name", &Stats::field} entries (CounterField, src/sim/stats.h). The
// export registers them as "<prefix>/<name>" when attached and copies the
// Stats values into them at snapshot time, so nothing runs per event. An
// optional tenant table is mirrored the same way under
// "<prefix>/tenant<N>/<name>", registered as tenants appear. Gauges — levels
// computed from component state (dirty pages, worst wear) rather than copied
// from Stats — stay with the component, as a callback run after the mirrors.
//
// Lifecycle: the registry collector is keyed by the prefix. Re-attaching to
// the same Obs replaces it (a component rebuilt by crash recovery takes over
// its predecessor's metrics); attaching elsewhere, detaching (null Obs), or
// destroying the export runs it one last time, so the registry keeps the
// final values, then removes it. Declare the export as the component's LAST
// data member: it is then destroyed first, while everything its collector
// reads is still alive.

#ifndef SSMC_SRC_OBS_STATS_EXPORT_H_
#define SSMC_SRC_OBS_STATS_EXPORT_H_

#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"

namespace ssmc {

class Obs;

template <typename S>
using CounterTable = std::type_identity_t<std::span<const CounterField<S>>>;

class StatsExport {
 public:
  using Collect = std::function<void(MetricsRegistry&)>;

  StatsExport() = default;
  ~StatsExport() { Detach(); }

  StatsExport(const StatsExport&) = delete;
  StatsExport& operator=(const StatsExport&) = delete;

  // Gauges only: `collect` runs at every snapshot.
  void Attach(Obs* obs, const std::string& prefix, Collect collect);

  // `counters` of `stats`, then `gauges` (may be null).
  template <typename S>
  void Attach(Obs* obs, const std::string& prefix, const S& stats,
              CounterTable<S> counters, Collect gauges = nullptr) {
    MetricsRegistry* m = Rebind(obs, prefix);
    if (m == nullptr) {
      return;
    }
    std::vector<std::pair<Counter*, const Counter*>> mirrors;
    for (const CounterField<S>& f : counters) {
      mirrors.emplace_back(m->AddCounter(prefix + "/" + f.name),
                           &(stats.*f.member));
    }
    Install([mirrors = std::move(mirrors),
             gauges = std::move(gauges)](MetricsRegistry& registry) {
      for (const auto& [dst, src] : mirrors) {
        Mirror(dst, *src);
      }
      if (gauges) {
        gauges(registry);
      }
    });
  }

  // As above, plus `lane_fields` of every tenant in `lanes`.
  template <typename S, typename L>
  void Attach(Obs* obs, const std::string& prefix, const S& stats,
              CounterTable<S> counters, const TenantTable<L>& lanes,
              CounterTable<L> lane_fields, Collect gauges = nullptr) {
    std::vector<CounterField<L>> fields(lane_fields.begin(),
                                        lane_fields.end());
    Attach(obs, prefix, stats, counters,
           [prefix, &lanes, fields = std::move(fields),
            gauges = std::move(gauges)](MetricsRegistry& m) {
             for (const auto& e : lanes.entries()) {
               const std::string base =
                   prefix + "/tenant" + std::to_string(e.tenant) + "/";
               for (const CounterField<L>& f : fields) {
                 Mirror(m.AddCounter(base + f.name), e.value.*f.member);
               }
             }
             if (gauges) {
               gauges(m);
             }
           });
  }

  // Flushes and removes the collector; no-op when detached.
  void Detach();

 private:
  static void Mirror(Counter* dst, const Counter& src) {
    dst->Reset();
    dst->Add(src.value());
  }

  // Flushes the collector out of a registry other than `obs`'s and records
  // the new binding. Returns the registry to register into, null if `obs`
  // is null.
  MetricsRegistry* Rebind(Obs* obs, const std::string& key);
  void Install(Collect collect);

  MetricsRegistry* registry_ = nullptr;
  std::string key_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_OBS_STATS_EXPORT_H_
