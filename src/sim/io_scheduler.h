// Per-channel I/O request scheduler — the dispatch stage of the request
// pipeline (io_request.h).
//
// A device owns one IoScheduler with one channel per independently-busy
// resource (a flash bank, a disk arm). Submitting a request reserves channel
// time for it and returns its dispatch (start/complete times); the device
// then advances the caller's clock for blocking requests and leaves the
// channel to absorb background ones.
//
// Policies:
//  * kFifo (default): a request starts at max(now, channel busy-until) —
//    bit-for-bit the historical per-bank `busy_until` charge-latency model,
//    so default-policy simulations are byte-identical to the pre-pipeline
//    simulator (enforced by the differential oracle in io_scheduler_test).
//  * kPriority: a request may be placed ahead of queued reservations of a
//    strictly lower class that have not started yet, pushing them later.
//    The op already on the medium is never preempted. Blocking requests'
//    dispatch is always final (the caller advances the clock past their
//    completion); queued background reservations may shift later, and the
//    shift is reported to the wait observer so attribution counters track
//    true waits.
//  * kWeightedFair: start-time fair queuing (SFQ, Goyal et al.) over
//    tenants. Each request gets a virtual start tag
//        vstart = max(channel.V, tenant.vfinish)
//    and advances its tenant's finish tag by service/weight; queued (not
//    yet started) reservations are ordered by (vstart, submission seq),
//    and the channel's virtual clock V tracks the start tag of the most
//    recently started reservation (jumping to the max assigned finish tag
//    when the channel idles). Backlogged tenants therefore share channel
//    time in proportion to their weights, while a lone tenant's monotone
//    tags reproduce FIFO placement exactly.
//  * kTokenBucket: per-tenant (rate bytes/s, burst bytes) buckets gate
//    admission. Queue order is FIFO, but a request's start is clamped to
//    its bucket's deterministic eligible time, so a tenant's admitted
//    bytes never exceed burst + rate * elapsed. Not work-conserving: a
//    gated request leaves its channel idle rather than letting later work
//    overtake it.
//
// Request-path allocation: a FIFO request with no completion callback and no
// retire hook attached is fully described by its completion time — under
// FIFO it can never be reordered and nobody needs its IoRequest back — so it
// is never materialized as a reservation at all; the channel just advances
// its busy-until and records the completion time in a small ring (keeping
// pending() exact). Only requests that must be revisited (a callback to
// fire, a tracing hook, or priority placement) become Reservation objects,
// and those live on an intrusive per-channel list allocated from a
// fixed-chunk RequestArena — steady-state submission touches the heap for
// neither kind.
//
// Determinism: ties (same channel, same priority) dispatch in submission
// order, mirroring EventQueue's same-timestamp guarantee. The scheduler
// never advances the clock itself.

#ifndef SSMC_SRC_SIM_IO_SCHEDULER_H_
#define SSMC_SRC_SIM_IO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/io_request.h"
#include "src/support/arena.h"
#include "src/support/units.h"

namespace ssmc {

class IoScheduler {
 public:
  // Where and when a submitted request was placed on its channel.
  struct Dispatch {
    SimTime start = 0;
    SimTime complete = 0;
    Duration wait = 0;     // start - submit time.
    Duration service = 0;  // complete - start.
  };

  // Service time evaluated at dispatch: devices whose cost depends on the
  // start time (disk rotation position) compute it here. Evaluated once per
  // request, at submission, with the request's dispatch start time.
  using ServiceFn = std::function<Duration(SimTime start)>;

  // Called when a queued reservation is pushed `delta` ns later by a
  // higher-priority submission (kPriority only; delta > 0). Lets the device
  // keep per-class wait counters exact without draining the pipeline.
  using ShiftObserver = std::function<void(const IoRequest&, Duration delta)>;

  IoScheduler(SimClock& clock, int channels,
              IoSchedPolicy policy = IoSchedPolicy::kFifo);
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  IoSchedPolicy policy() const { return policy_; }
  // Policy changes require an idle pipeline (no pending reservations);
  // switching mid-flight would reinterpret already-placed reservations.
  void set_policy(IoSchedPolicy policy);

  void set_shift_observer(ShiftObserver observer) {
    shift_observer_ = std::move(observer);
  }

  // kWeightedFair: the tenant's relative share of channel time while
  // backlogged. Defaults to 1; 0 is clamped to 1. Applies to tags assigned
  // after the call.
  void set_tenant_weight(TenantId tenant, uint32_t weight);
  uint32_t tenant_weight(TenantId tenant) const;

  // kTokenBucket: cap the tenant's admitted bytes per second, with up to
  // `burst_bytes` of credit accumulating while idle. rate 0 (the default)
  // means unlimited. Erases and other zero-byte ops charge one byte.
  void set_tenant_rate(TenantId tenant, uint64_t bytes_per_s,
                       uint64_t burst_bytes);

  // Called as each reservation retires, with its channel and the request
  // carrying FINAL timestamps (queued reservations may shift later under
  // kPriority until they start, so retirement is the only point where the
  // full queue-wait/service split is settled). Fires before the request's
  // own on_complete. Tracing hook: must not submit or advance the clock.
  using RetireHook = std::function<void(int channel, const IoRequest&)>;
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  // Reserves channel time for `req` (service `service_ns`) and returns its
  // dispatch. Retires every reservation on the channel whose completion time
  // has passed (firing on_complete callbacks) as a side effect.
  Dispatch Submit(int channel, IoRequest req, Duration service_ns);

  // As above with the service time computed at dispatch. The service
  // function sees the final start time under kFifo; under kPriority it sees
  // the start as of submission (later shifts do not re-evaluate it) — the
  // disk, the only position-dependent device, schedules FIFO.
  Dispatch Submit(int channel, IoRequest req, const ServiceFn& service);

  // Retires completed reservations on every channel (fires on_complete).
  void Poll();

  // Time at which the channel's last reservation completes; monotone, like
  // the per-bank busy_until it replaces (it does not reset when idle).
  SimTime ChannelBusyUntil(int channel) const;

  // Requests not yet retired on `channel` (in service + queued).
  size_t PendingOn(int channel) const;
  size_t pending() const;

  int num_channels() const { return static_cast<int>(channels_.size()); }

  // The reservation pool (exposed for allocation-behavior tests).
  const RequestArena& arena() const { return arena_; }

 private:
  struct Reservation {
    IoRequest req;        // Timestamps kept current as the schedule shifts.
    Duration service = 0;
    uint64_t seq = 0;     // Global submission order; breaks priority ties.
    Reservation* next = nullptr;
    uint64_t vstart = 0;  // kWeightedFair virtual start tag; else 0.
  };

  // Growable power-of-two ring of completion times for callback-free FIFO
  // requests. Steady state pushes and pops in place; it only allocates while
  // growing to the channel's high-water depth.
  class TimeRing {
   public:
    void push(SimTime t);
    SimTime front() const { return buf_[head_ & mask_]; }
    void pop() { ++head_; }
    bool empty() const { return head_ == tail_; }
    size_t size() const { return tail_ - head_; }

   private:
    std::vector<SimTime> buf_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t tail_ = 0;
  };

  struct Channel {
    // Reservations ordered by start time; the head may be in service
    // (start <= now < complete). Starts are contiguous: each reservation
    // starts exactly when its predecessor completes (or at its own issue
    // time on an idle channel).
    Reservation* head = nullptr;
    Reservation* tail = nullptr;
    size_t queued = 0;
    // Completion times of in-flight callback-free FIFO requests.
    TimeRing light;
    // Completion time of the latest-completing request ever placed on the
    // channel; never decreases.
    SimTime busy_until = 0;
    // kWeightedFair virtual clock: the start tag of the most recently
    // started reservation, and the largest finish tag ever assigned (the
    // clock jumps there when the channel idles).
    uint64_t vtime = 0;
    uint64_t max_vfinish = 0;
    // Per-tenant virtual finish tags, indexed by tenant id (grown on
    // demand; tenants are small dense ids).
    std::vector<uint64_t> tenant_vfinish;
  };

  // Per-tenant token bucket. The level is held in byte-nanoseconds
  // (1 byte == kSecond units) so refill math is exact integer arithmetic.
  struct TokenBucket {
    uint64_t rate = 0;  // Bytes per second; 0 = unlimited.
    uint64_t cap = 0;   // burst_bytes scaled.
    uint64_t level = 0;
    SimTime refilled_to = 0;
  };

  // Pops front reservations with complete_time <= now, firing callbacks.
  void Retire(int channel_index, Channel& channel);
  // Recomputes start/complete for the reservations after `from`, notifying
  // shifts.
  void Reflow(Reservation* from);

  Dispatch Place(int channel, IoRequest req, Duration service_now,
                 const ServiceFn* service_fn);

  // Charges `bytes` against the tenant's bucket and returns the earliest
  // admission time (>= now). Unlimited tenants are admitted at `now`.
  SimTime AdmitAt(TenantId tenant, uint64_t bytes, SimTime now);

  uint64_t& TenantVfinish(Channel& channel, TenantId tenant);

  SimClock& clock_;
  IoSchedPolicy policy_;
  RequestArena arena_;
  std::vector<Channel> channels_;
  ShiftObserver shift_observer_;
  RetireHook retire_hook_;
  uint64_t next_seq_ = 0;
  std::vector<uint32_t> weights_;     // Indexed by tenant; 0 slots mean 1.
  std::vector<TokenBucket> buckets_;  // Indexed by tenant.
};

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_IO_SCHEDULER_H_
