#include "src/obs/stats_export.h"

#include "src/obs/obs.h"

namespace ssmc {

void StatsExport::Attach(Obs* obs, const std::string& prefix,
                         Collect collect) {
  if (Rebind(obs, prefix) != nullptr) {
    Install(std::move(collect));
  }
}

void StatsExport::Detach() {
  if (registry_ != nullptr) {
    registry_->FlushAndRemoveCollector(key_);
    registry_ = nullptr;
  }
}

MetricsRegistry* StatsExport::Rebind(Obs* obs, const std::string& key) {
  MetricsRegistry* next = obs != nullptr ? &obs->metrics() : nullptr;
  if (registry_ != next) {
    Detach();
  }
  registry_ = next;
  key_ = key;
  return next;
}

void StatsExport::Install(Collect collect) {
  registry_->AddCollector(
      key_, [registry = registry_, collect = std::move(collect)] {
        collect(*registry);
      });
}

}  // namespace ssmc
