#include "src/device/banked_io.h"

#include <algorithm>

#include "src/obs/obs.h"

namespace ssmc {

BankedIo::BankedIo(std::string prefix, SimClock& clock, int banks,
                   IoLanes& lanes)
    : prefix_(std::move(prefix)), sched_(clock, banks), lanes_(lanes) {
  sched_.set_shift_observer([this](const IoRequest& req, Duration delta) {
    lanes_.AddWait(req.priority, req.tenant, delta);
  });
}

void BankedIo::AttachObs(Obs* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    sched_.set_retire_hook(nullptr);
    return;
  }
  SpanTracer& tracer = obs_->tracer();
  bank_tracks_.clear();
  for (int b = 0; b < sched_.num_channels(); ++b) {
    bank_tracks_.push_back(
        tracer.RegisterTrack(prefix_ + " bank " + std::to_string(b)));
  }
  MetricsRegistry& m = obs_->metrics();
  for (int c = 0; c < kNumIoPriorities; ++c) {
    const std::string cls = IoPriorityName(static_cast<IoPriority>(c));
    class_tracks_[c] = tracer.RegisterTrack(prefix_ + " class " + cls);
    wait_hist_[c] = m.AddHistogram(prefix_ + "/" + cls + "/wait_ns");
    service_hist_[c] = m.AddHistogram(prefix_ + "/" + cls + "/service_ns");
  }
  tenant_hist_.clear();
  sched_.set_retire_hook(
      [this](int bank, const IoRequest& req) { Retire(bank, req); });
}

void BankedIo::Retire(int bank, const IoRequest& req) {
  const int cls = static_cast<int>(req.priority);
  const Duration wait = std::max<Duration>(0, req.start_time - req.issue_time);
  const Duration service =
      std::max<Duration>(0, req.complete_time - req.start_time);
  wait_hist_[cls]->Record(static_cast<uint64_t>(wait));
  service_hist_[cls]->Record(static_cast<uint64_t>(service));
  // Linear scan: a machine serves a handful of tenant ids.
  auto lane = std::find_if(
      tenant_hist_.begin(), tenant_hist_.end(),
      [&](const TenantHistograms& h) { return h.tenant == req.tenant; });
  if (lane == tenant_hist_.end()) {
    const std::string base =
        prefix_ + "/tenant" + std::to_string(req.tenant) + "/";
    tenant_hist_.push_back(
        TenantHistograms{req.tenant,
                         obs_->metrics().AddHistogram(base + "wait_ns"),
                         obs_->metrics().AddHistogram(base + "service_ns")});
    lane = tenant_hist_.end() - 1;
  }
  lane->wait->Record(static_cast<uint64_t>(wait));
  lane->service->Record(static_cast<uint64_t>(service));
  // Bank track: the service window on the medium. Class track: the request's
  // full latency including its queue wait — on a per-class track a long span
  // with a short bank twin reads directly as queueing delay.
  SpanTracer& tracer = obs_->tracer();
  tracer.Span(bank_tracks_[static_cast<size_t>(bank)], IoOpName(req.op),
              req.start_time, service, {"bytes", req.bytes},
              {"wait_ns", static_cast<uint64_t>(wait)},
              {"prio", static_cast<uint64_t>(cls)});
  tracer.Span(class_tracks_[cls], IoOpName(req.op), req.issue_time,
              wait + service, {"bytes", req.bytes},
              {"bank", static_cast<uint64_t>(bank)},
              {"tenant", static_cast<uint64_t>(req.tenant)});
}

}  // namespace ssmc
