#include "workloads.h"

#include "replay.h"
#include "src/harness/parallel_runner.h"
#include "src/trace/generator.h"

namespace perfbench {

using namespace ssmc;

namespace {

// Sizes. A run pools several independent sessions: the file-size
// population is heavy-tailed (bounded Pareto, alpha 1.1), so one session's
// flash traffic and latency tail depend on which few large files it happens
// to draw, and a longer session does not average that out. Files are capped
// at 64 KiB, the fleet's per-user cap (ScaleoutOptions::max_file_bytes), for
// the same reason.
constexpr int kOfficeSessions = 8;
constexpr Duration kOfficeSessionDuration = 90 * kMinute;
constexpr int kTieredSessions = 8;
constexpr Duration kTieredSessionDuration = 30 * kMinute;
// The reader's namespace is larger than the profile's 64 files so that its
// hot set, and with it the DRAM/NVM hit ratio, does not hinge on a few files.
constexpr int kTieredReaderFiles = 512;
constexpr uint64_t kMaxFileBytes = 64 * kKiB;
constexpr int kFleetUsers = 4096;
constexpr Duration kFleetUserDuration = 2 * kSecond;
constexpr int kFleetSetupUsers = 32;

constexpr TenantId kReader = 1;
constexpr TenantId kWriter = 2;

// Stable merge of two time-ordered traces.
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

// Independent seed streams of one session: 0 machine, 1 and 2 traces.
uint64_t SessionSeed(const WorkloadSpec& spec, int session, uint64_t stream) {
  return DeriveCellSeed(
      DeriveCellSeed(spec.seed, static_cast<uint64_t>(session)), stream);
}

Trace FleetUserTrace(const ScaleoutOptions& options, int user) {
  const TenantClassSpec& cls =
      options.tenant_mix[static_cast<size_t>(user) %
                         options.tenant_mix.size()];
  WorkloadOptions workload =
      cls.write_hot ? WriteHotWorkload() : OfficeWorkload();
  workload.seed =
      DeriveCellSeed(options.base_seed, 2 * static_cast<uint64_t>(user));
  workload.duration = options.user_duration;
  workload.max_file_bytes = options.max_file_bytes;
  Trace trace = WorkloadGenerator(workload).Generate();
  if (cls.tenant != kDefaultTenant) {
    trace = trace.WithTenant(cls.tenant);
  }
  return trace;
}

MachineConfig FleetUserConfig(const ScaleoutOptions& options, int user) {
  MachineConfig config = NotebookConfig();
  config.name = "scaleout-user-" + std::to_string(user);
  config.seed =
      DeriveCellSeed(options.base_seed, 2 * static_cast<uint64_t>(user) + 1);
  config.io_sched = options.io_sched;
  for (const TenantClassSpec& cls : options.tenant_mix) {
    config.tenant_qos.push_back(
        {cls.tenant, cls.weight, cls.rate_bytes_per_s, cls.burst_bytes});
  }
  return config;
}

}  // namespace

WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "office_replay") {
    spec.sessions = kOfficeSessions;
  } else if (name == "tiered_contention") {
    spec.sessions = kTieredSessions;
    spec.tenant_dirs = {"/t1", "/t2"};
    spec.crash_and_recover = true;
  } else if (name == "fleet_churn") {
    spec.fleet = true;
    ScaleoutOptions& o = spec.fleet_options;
    o.users = kFleetUsers;
    o.cells = 1;
    o.jobs = 1;
    o.base_seed = DeriveCellSeed(seed, 1);
    o.user_duration = kFleetUserDuration;
    o.tenant_mix = {{kReader, /*write_hot=*/false}, {kWriter, true}};
    o.io_sched = IoSchedPolicy::kFifo;
    o.keep_per_user = false;
    spec.setup_users = kFleetSetupUsers;
  } else {
    Fail("unknown workload " + name +
         " (office_replay, fleet_churn, tiered_contention)");
  }
  return spec;
}

Trace UnitTrace(const WorkloadSpec& spec, int unit) {
  if (spec.fleet) {
    return FleetUserTrace(spec.fleet_options, unit);
  }
  if (spec.name == "office_replay") {
    WorkloadOptions office = OfficeWorkload();
    office.seed = SessionSeed(spec, unit, 1);
    office.duration = kOfficeSessionDuration;
    office.max_file_bytes = kMaxFileBytes;
    return WorkloadGenerator(office).Generate();
  }
  // tiered_contention: a read-mostly reader and a write-hot writer, each in
  // its own directory, interleaved by time.
  WorkloadOptions reader = ReadMostlyWorkload();
  reader.seed = SessionSeed(spec, unit, 1);
  reader.duration = kTieredSessionDuration;
  reader.max_file_bytes = kMaxFileBytes;
  reader.initial_files = kTieredReaderFiles;
  WorkloadOptions writer = WriteHotWorkload();
  writer.seed = SessionSeed(spec, unit, 2);
  writer.duration = kTieredSessionDuration;
  writer.max_file_bytes = kMaxFileBytes;
  return MergeByTime(WorkloadGenerator(reader)
                         .Generate()
                         .WithPathPrefix(spec.tenant_dirs[0])
                         .WithTenant(kReader),
                     WorkloadGenerator(writer)
                         .Generate()
                         .WithPathPrefix(spec.tenant_dirs[1])
                         .WithTenant(kWriter));
}

MachineConfig UnitConfig(const WorkloadSpec& spec, int unit) {
  if (spec.fleet) {
    return FleetUserConfig(spec.fleet_options, unit);
  }
  // Both single-machine workloads start from the diskless notebook.
  MachineConfig c = NotebookConfig();
  c.seed = SessionSeed(spec, unit, 0);
  if (spec.name == "tiered_contention") {
    // Small DRAM, a two-bank NVM tier and flash small enough that the
    // cleaner runs; read promotion, the journal, and 4:1 weighted-fair
    // flash scheduling in the reader's favour.
    c.name = "tiered";
    c.dram_bytes = 4 * kMiB;
    c.nvm_bytes = 2 * kMiB;
    c.nvm_banks = 2;
    c.flash_bytes = 4 * kMiB;
    c.residency.policy = ResidencyPolicy::kReadPromote;
    c.journal = true;
    c.io_sched = IoSchedPolicy::kWeightedFair;
    c.tenant_qos = {{kReader, 4, 0, 0}, {kWriter, 1, 0, 0}};
  }
  return c;
}

}  // namespace perfbench
