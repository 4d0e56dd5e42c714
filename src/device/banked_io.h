// BankedIo — request dispatch, attribution, and observation shared by the
// banked devices (FlashDevice, NvmDevice).
//
// Both devices split their capacity into banks, each one channel of an
// IoScheduler. This class owns that scheduler and is the one place that
// decides how a request's time is attributed: at dispatch every request adds
// its queue wait and service time to the device's IoLanes (per priority
// class and per tenant), and a queued reservation that a reordering policy
// pushes later adds the extra wait as the shift happens, so the lanes stay
// exact without draining the pipeline. E16 compares NVM against flash on
// these numbers, which is sound only because both tiers attribute alike.
//
// With an Obs attached it also registers one trace track per bank and per
// priority class plus per-class and per-tenant wait/service histograms, and
// hooks the scheduler's retire path so every request becomes a span with
// FINAL timestamps (queue shifts under reordering policies are settled by
// retirement). Devices differ only by the name prefix ("flash", "nvm").
// Without an Obs the retire hook stays empty.

#ifndef SSMC_SRC_DEVICE_BANKED_IO_H_
#define SSMC_SRC_DEVICE_BANKED_IO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class BankedIo {
 public:
  // `lanes` (the device's Stats) receives every request's attribution.
  BankedIo(std::string prefix, SimClock& clock, int banks, IoLanes& lanes);

  BankedIo(const BankedIo&) = delete;
  BankedIo& operator=(const BankedIo&) = delete;

  IoScheduler& scheduler() { return sched_; }
  const IoScheduler& scheduler() const { return sched_; }

  // Submits an operation of duration `op_ns` on `bank` and attributes its
  // dispatch (wait + service = the latency the issuer observes).
  IoScheduler::Dispatch Submit(IoOp op, int bank, uint64_t addr,
                               uint64_t bytes, Duration op_ns, IoIssue issue) {
    IoRequest req;
    req.op = op;
    req.addr = addr;
    req.bytes = bytes;
    req.priority = issue.priority;
    req.blocking = issue.blocking;
    req.tenant = issue.tenant;
    const IoScheduler::Dispatch d = sched_.Submit(bank, std::move(req), op_ns);
    lanes_.Record(issue.priority, issue.tenant, d.wait, d.service);
    return d;
  }

  // Observability (nullable; null detaches): tracks, histograms, and the
  // retire hook described above.
  void AttachObs(Obs* obs);

 private:
  // Retire-hook body: spans + latency histograms for one finished request.
  void Retire(int bank, const IoRequest& req);

  std::string prefix_;
  IoScheduler sched_;  // One channel per bank.
  IoLanes& lanes_;

  Obs* obs_ = nullptr;
  std::vector<int> bank_tracks_;
  int class_tracks_[kNumIoPriorities] = {};
  Histogram* wait_hist_[kNumIoPriorities] = {};
  Histogram* service_hist_[kNumIoPriorities] = {};
  // Per-tenant wait/service histogram lanes, grown as tenants appear.
  struct TenantHistograms {
    TenantId tenant = kDefaultTenant;
    Histogram* wait = nullptr;
    Histogram* service = nullptr;
  };
  std::vector<TenantHistograms> tenant_hist_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_BANKED_IO_H_
