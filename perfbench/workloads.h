// The benchmark's three workloads. Every input is generated from the
// repository's calibrated trace profiles and the --seed argument; the
// simulator receives only the generated traces and machine configs. Each
// workload is a list of replay units, each unit a trace plus the fresh
// machine that replays it:
//
//  office_replay      Eight NotebookConfig() sessions with defaults, each
//                     replaying a 90-minute OfficeWorkload trace. Exercises
//                     the replay core: fs, write buffer, event queue, flush
//                     daemon.
//  fleet_churn        RunScaleout's users: 4096 users of 2 sim-s each
//                     ({office tenant 1, write-hot tenant 2}, FIFO, one
//                     worker). Dominated by machine build/teardown and
//                     per-user trace generation.
//  tiered_contention  Eight sessions on a small machine with DRAM, a
//                     two-bank NVM tier, flash small enough that the cleaner
//                     runs, kReadPromote, the metadata journal and
//                     weighted-fair flash scheduling; a read-mostly tenant 1
//                     interleaved with a write-hot tenant 2.

#ifndef SSMC_PERFBENCH_WORKLOADS_H_
#define SSMC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/harness/scaleout.h"
#include "src/trace/trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool fleet = false;
  uint64_t seed = 0;

  // Single-machine workloads: `sessions` independent sessions (own trace,
  // own fresh machine) per run, pooled, so one run samples several draws of
  // the heavy-tailed file population instead of one.
  int sessions = 0;
  std::vector<std::string> tenant_dirs;  // Made before each replay.
  bool crash_and_recover = false;        // Battery failure + journal remount.

  // fleet_churn.
  ssmc::ScaleoutOptions fleet_options;
  int setup_users = 0;  // Users whose generate+build one set-up sample times.

  // Replay units: sessions, or users on the fleet.
  int units() const { return fleet ? fleet_options.users : sessions; }
};

// Throws CheckFailure on an unknown name.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed);

// Replay unit `unit`'s trace and machine config (deterministic in the seed).
// On the fleet these are user `unit`'s, exactly as RunScaleout derives them.
ssmc::Trace UnitTrace(const WorkloadSpec& spec, int unit);
ssmc::MachineConfig UnitConfig(const WorkloadSpec& spec, int unit);

}  // namespace perfbench

#endif  // SSMC_PERFBENCH_WORKLOADS_H_
