// ssmc_perfbench — the repository benchmark's measuring binary.
//
//   ssmc_perfbench --workload <office_replay|fleet_churn|tiered_contention>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans-out <f>]
//
// A workload is a list of replay units (single-machine sessions, or fleet
// users), each a generated trace plus the fresh machine that replays it.
// One run has four phases:
//   1. set-up: generate the units' traces and build their machines, five
//      times; setup_s is the median (host time);
//   2. timed: replay through the simulator's own entry points
//      (MobileComputer::RunTrace per session, or one RunScaleout call) on
//      fresh machines until --seconds have passed; sim_ops_per_host_s is
//      the median over rounds and rss_mib is read when the phase ends. With
//      --trace 1 the phase is halved: the second half replays every unit
//      through the benchmark's own loop with host-time spans around each
//      call into a layer, which gives the per-layer numbers and the tracing
//      overhead;
//   3. verification: every unit is replayed once more with RunTrace and
//      once through the public FileSystem calls, checking every read
//      against a byte model; the two reports must be equal, and their merge
//      must equal the timed phase's. The sim-time metrics come from this
//      pass's exact per-op samples. tiered_contention then fails the
//      battery, remounts from the journal and checks the recovered
//      namespace against the model;
//   4. report: a readable summary, then one JSON line (the last line of
//      stdout) with the end-to-end (--trace 0) or per-layer (--trace 1)
//      metrics.
// Any failed check prints the reason to stderr and exits 1 with no JSON.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ssmc;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Fail("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
      continue;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
      continue;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      Fail("unknown flag " + flag);
    }
    if (value.empty() || *end != '\0') {
      Fail("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !(args.seconds > 0)) {
    Fail("usage: ssmc_perfbench --workload <name> --seed <n> "
         "--seconds <s> --trace <0|1> [--spans-out <file>]");
  }
  return args;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    Fail("median of no samples");
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Resident set right now, after handing freed heap pages back to the OS, so
// the figure follows live memory rather than the allocator's history.
double RssMiB() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    Fail("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- Exact sim-time latency statistics -----------------------------------------

// Statistics over every sample, no histogram. The simulator charges fixed
// per-block costs, so its latencies sit on a lattice: a nearest-rank order
// statistic often lands on the same lattice point for every seed (the
// median always does), and the mean of the slowest 1% is ruled by a handful
// of rare multi-millisecond stalls. The end-to-end figures are therefore the
// mean and a smoothed p99, the mean of the order statistics from p98.5 to
// p99.5, which moves with the mix of lattice points around p99; the
// nearest-rank p50 and p99 are reported beside them.
struct LatencyStats {
  uint64_t samples = 0;
  double mean_us = 0;
  double p99_us = 0;  // Smoothed: mean of ranks (0.985 n, 0.995 n].
  double p50_nearest_us = 0;
  double p99_nearest_us = 0;
  double top_pct = 0;  // Highest percentile with >= 10 samples beyond it.
  double top_us = 0;
};

LatencyStats Summarize(std::vector<int64_t> v, const std::string& what) {
  // p99 needs at least ten samples beyond it.
  if (v.size() < 1000) {
    Fail(what + ": only " + std::to_string(v.size()) +
         " samples, too few for a supported p99");
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  auto rank_us = [&](double q) {
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
    return static_cast<double>(v[rank - 1]) / 1e3;
  };
  auto mean_us = [&](size_t lo, size_t hi) {
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) {
      sum += static_cast<double>(v[i]);
    }
    return sum / static_cast<double>(hi - lo) / 1e3;
  };
  LatencyStats s;
  s.samples = n;
  s.mean_us = mean_us(0, n);
  s.p99_us = mean_us(n * 985 / 1000, n * 995 / 1000);
  s.p50_nearest_us = rank_us(0.50);
  s.p99_nearest_us = rank_us(0.99);
  s.top_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  s.top_us = static_cast<double>(v[n - 11]) / 1e3;
  return s;
}

// --- Per-layer counters -------------------------------------------------------

using Counters = std::map<std::string, double>;

// Indexed by IoPriority.
constexpr const char* kClassNames[] = {"foreground", "flush", "cleaner"};

// Cumulative values of every public stats() counter the benchmark reports.
Counters Snapshot(MobileComputer& m) {
  Counters c;
  auto v = [](const Counter& counter) {
    return static_cast<double>(counter.value());
  };
  const MemoryFileSystem::Stats& fs = m.fs().stats();
  c["fs.read_bytes.dram"] =
      v(fs.buffered_read_bytes) + v(fs.clean_cached_read_bytes);
  c["fs.read_bytes.nvm"] = v(fs.nvm_cached_read_bytes);
  c["fs.read_bytes.flash"] = v(fs.flash_direct_read_bytes);
  c["fs.cow_block_copies"] = v(fs.cow_block_copies);

  const WriteBuffer::Stats& wb = m.fs().write_buffer().stats();
  c["wb.puts"] = v(wb.puts);
  c["wb.put_bytes"] = v(wb.put_bytes);
  c["wb.absorbed_overwrites"] = v(wb.absorbed_overwrites);
  c["wb.flushed_bytes"] = v(wb.flushed_bytes);
  c["wb.dropped_bytes"] = v(wb.dropped_bytes);
  c["wb.capacity_evictions"] = v(wb.capacity_evictions);

  const ResidencyManager::Stats& res = m.storage().residency().stats();
  c["residency.promotions"] = v(res.promotions);
  c["residency.clean_hits"] = v(res.clean_hits);
  c["residency.nvm_promotions"] = v(res.nvm_promotions);
  c["residency.nvm_hits"] = v(res.nvm_hits);
  c["residency.demotions_to_nvm"] = v(res.demotions_to_nvm);
  c["residency.nvm_to_dram_promotions"] = v(res.nvm_to_dram_promotions);
  c["residency.demotions_pressure"] = v(res.demotions_pressure);

  const FlashStore::Stats& ftl = m.flash_store().stats();
  c["ftl.user_writes"] = v(ftl.user_writes);
  c["ftl.gc_relocations"] = v(ftl.gc_relocations);
  c["ftl.gc_runs"] = v(ftl.gc_runs);
  c["ftl.erases"] = v(ftl.erases);

  const FlashDevice::Stats& flash = m.flash().stats();
  c["flash.reads"] = v(flash.reads);
  c["flash.programs"] = v(flash.programs);
  c["flash.programmed_bytes"] = v(flash.programmed_bytes);
  c["flash.erases"] = v(flash.erases);
  c["flash.read_stall_ms"] = v(flash.read_stall_ns) / 1e6;
  c["flash.busy_ms"] = static_cast<double>(m.flash().total_active_ns()) / 1e6;
  for (int i = 0; i < kNumIoPriorities; ++i) {
    const std::string p = std::string("flash.") + kClassNames[i];
    c[p + ".requests"] = v(flash.by_class[i].requests);
    c[p + ".queue_wait_ms"] = v(flash.by_class[i].queue_wait_ns) / 1e6;
    c[p + ".service_ms"] = v(flash.by_class[i].service_ns) / 1e6;
  }
  for (TenantId tenant : {TenantId{1}, TenantId{2}}) {
    const IoLaneStats* lane = flash.by_tenant.Find(tenant);
    c["flash.tenant" + std::to_string(tenant) + ".queue_wait_ms"] =
        lane != nullptr ? v(lane->queue_wait_ns) / 1e6 : 0;
  }

  const NvmDevice::Stats no_nvm;
  const NvmDevice::Stats& nvm = m.nvm() != nullptr ? m.nvm()->stats() : no_nvm;
  c["nvm.reads"] = v(nvm.reads);
  c["nvm.read_bytes"] = v(nvm.read_bytes);
  c["nvm.written_bytes"] = v(nvm.written_bytes);
  c["nvm.read_stall_ms"] = v(nvm.read_stall_ns) / 1e6;
  for (int i = 0; i < kNumIoPriorities; ++i) {
    c[std::string("nvm.") + kClassNames[i] + ".queue_wait_ms"] =
        v(nvm.by_class[i].queue_wait_ns) / 1e6;
  }

  const MetadataJournal* journal = m.journal();
  const MetadataJournal::Stats no_journal;
  const MetadataJournal::Stats& js =
      journal != nullptr ? journal->stats() : no_journal;
  c["journal.records"] = v(js.records);
  c["journal.appended_bytes"] = v(js.appended_bytes);
  c["journal.log_block_writes"] = v(js.log_block_writes);
  c["journal.superblock_writes"] = v(js.superblock_writes);
  c["journal.checkpoints"] = v(js.checkpoints);
  return c;
}

void AddDelta(Counters& into, const Counters& after, const Counters& before) {
  for (const auto& [name, value] : after) {
    into[name] += value - before.at(name);
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Ratios over the window, each reported beside its base.
void AddRatios(Counters& c) {
  c["fs.read_bytes"] = c["fs.read_bytes.dram"] + c["fs.read_bytes.nvm"] +
                       c["fs.read_bytes.flash"];
  c["fs.read_hit_ratio"] =
      Ratio(c["fs.read_bytes.dram"] + c["fs.read_bytes.nvm"],
            c["fs.read_bytes"]);
  c["wb.avoided_ratio"] =
      c["wb.put_bytes"] > 0 ? 1.0 - c["wb.flushed_bytes"] / c["wb.put_bytes"]
                            : 0;
  c["ftl.write_amp"] =
      Ratio(c["ftl.user_writes"] + c["ftl.gc_relocations"],
            c["ftl.user_writes"]);
}

// --- Run ------------------------------------------------------------------------

struct Outcome {
  // Host time.
  double setup_s = 0;
  double ops_per_host_s = 0;
  double rss_mib = 0;
  // Sim time. `report` is the timed phase's merged report.
  ReplayReport report;
  LatencyStats read;
  LatencyStats write;
  TenantId worst_tenant = kDefaultTenant;  // Highest smoothed read p99.
  LatencyStats worst_tenant_read;
  double worst_tenant_read_p99_nearest_us = 0;  // Highest over tenants.
  double energy_nj = 0;
  double programmed_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Counters layers;  // Traced run only.
};

void CountReplay(Outcome& out, const ReplayReport& report) {
  out.attempted += report.ops;
  out.failed += report.failures;
}

// A fresh machine for replay unit `unit`, tenant directories made.
std::unique_ptr<MobileComputer> BuildUnit(const WorkloadSpec& spec, int unit,
                                          ByteModel* model) {
  auto machine = std::make_unique<MobileComputer>(UnitConfig(spec, unit));
  for (const std::string& dir : spec.tenant_dirs) {
    if (!machine->fs().Mkdir(dir).ok()) {
      Fail("cannot make tenant directory " + dir);
    }
    if (model != nullptr) {
      model->Mkdir(dir);
    }
  }
  return machine;
}

// Battery failure + journal remount; the namespace must survive intact.
void CrashAndRecover(MobileComputer& machine, const ByteModel* model) {
  machine.InjectBatteryFailure();
  Result<RecoveryReport> recovered = machine.RecoverAfterFailure(20000);
  if (!recovered.ok()) {
    Fail("journal recovery failed: " + recovered.status().ToString());
  }
  if (model != nullptr) {
    model->CheckNamespace(machine.fs());
  }
}

double ProgrammedBytes(MobileComputer& machine) {
  return static_cast<double>(machine.flash().stats().programmed_bytes.value());
}

constexpr int kSetupSamples = 5;
constexpr int kMinTimedRounds = 3;

// Phase 1. One sample generates every unit's trace and builds (and drops)
// its machine; on the fleet, RunScaleout does this per user inside the
// timed phase, so a sample covers the first setup_users users.
double MeasureSetup(const WorkloadSpec& spec) {
  const int units = spec.fleet ? spec.setup_users : spec.units();
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    const int64_t t0 = NowNs();
    for (int unit = 0; unit < units; ++unit) {
      const Trace trace = UnitTrace(spec, unit);
      BuildUnit(spec, unit, nullptr);
    }
    samples.push_back(Seconds(NowNs() - t0));
  }
  return Median(samples);
}

// Phase 2, untraced: rounds of every unit through the simulator's entry
// points until `budget` seconds have passed.
void TimedPhase(const WorkloadSpec& spec, double budget, Outcome& out) {
  std::vector<Trace> traces;
  if (!spec.fleet) {
    for (int unit = 0; unit < spec.units(); ++unit) {
      traces.push_back(UnitTrace(spec, unit));
    }
  }
  std::vector<double> rates;
  std::unique_ptr<MobileComputer> machine;
  const int64_t start = NowNs();
  while (rates.size() < kMinTimedRounds ||
         Seconds(NowNs() - start) < budget) {
    ReplayReport round;
    int64_t replay_ns = 0;
    if (spec.fleet) {
      const int64_t t0 = NowNs();
      ScaleoutReport fleet = RunScaleout(spec.fleet_options);
      replay_ns = NowNs() - t0;
      round = std::move(fleet.aggregate);
    } else {
      for (int unit = 0; unit < spec.units(); ++unit) {
        machine.reset();
        machine = BuildUnit(spec, unit, nullptr);
        const int64_t t0 = NowNs();
        const ReplayReport report =
            machine->RunTrace(traces[static_cast<size_t>(unit)]);
        replay_ns += NowNs() - t0;
        round.Merge(report);
      }
    }
    rates.push_back(static_cast<double>(round.ops) / Seconds(replay_ns));
    CountReplay(out, round);
    if (rates.size() == 1) {
      out.report = std::move(round);
    } else {
      CheckReportsEqual(out.report, round, "repeated timed round");
    }
  }
  out.rss_mib = RssMiB();
  out.ops_per_host_s = Median(rates);
}

// Phase 2, traced: every unit through the benchmark's own loop, with spans
// around each call into a layer, until `budget` seconds have passed.
void TracedPhase(const WorkloadSpec& spec, double budget,
                 const std::string& spans_out, Outcome& out) {
  SpanRecorder spans;
  std::array<double, kNumLayers> self_s{};
  double wall_s = 0;
  double replay_s = 0;  // Comparable to the untraced phase's timed part.
  uint64_t ops = 0;
  int passes = 0;
  Counters counters;  // Window deltas summed over the first pass's units.
  FsOpCounts fs_ops;
  uint64_t records = 0;
  const int64_t start = NowNs();
  while (passes < 2 || Seconds(NowNs() - start) < budget) {
    spans.Clear();
    ReplayReport merged;
    FsOpCounts pass_ops;
    uint64_t op_base = 0;
    const int64_t t0 = NowNs();
    for (int unit = 0; unit < spec.units(); ++unit) {
      const uint64_t id = static_cast<uint64_t>(unit);
      Trace trace;
      {
        ScopedSpan span(&spans, Layer::kGenerate, id);
        trace = UnitTrace(spec, unit);
      }
      std::unique_ptr<MobileComputer> machine;
      {
        ScopedSpan span(&spans, Layer::kBuild, id);
        machine = BuildUnit(spec, unit, nullptr);
      }
      const Counters before = passes == 0 ? Snapshot(*machine) : Counters();
      ReplayHooks hooks;
      hooks.spans = &spans;
      hooks.fs_ops = &pass_ops;
      hooks.op_base = op_base;
      const int64_t r0 = NowNs();
      const ReplayReport report = ReplayOnMachine(*machine, trace, hooks);
      if (!spec.fleet) {
        replay_s += Seconds(NowNs() - r0);
      }
      op_base += trace.size();
      if (passes == 0) {
        AddDelta(counters, Snapshot(*machine), before);
      }
      if (spec.crash_and_recover) {
        ScopedSpan span(&spans, Layer::kRecover, id);
        CrashAndRecover(*machine, nullptr);
      }
      {
        ScopedSpan span(&spans, Layer::kTeardown, id);
        machine.reset();
      }
      {
        ScopedSpan span(&spans, Layer::kMerge, id);
        merged.Merge(report);
      }
    }
    const int64_t wall_ns = NowNs() - t0;
    // The fleet's untraced figure times whole RunScaleout calls.
    if (spec.fleet) {
      replay_s += Seconds(wall_ns);
    }
    CheckReportsEqual(out.report, merged, "traced pass vs timed phase");
    CountReplay(out, merged);
    ops += merged.ops;
    const std::array<int64_t, kNumLayers> self = spans.SelfNs();
    for (size_t i = 0; i < kNumLayers; ++i) {
      self_s[i] += Seconds(self[i]);
    }
    wall_s += Seconds(wall_ns);
    if (passes == 0) {
      fs_ops = pass_ops;
      records = op_base;
    }
    ++passes;
  }
  if (!spans_out.empty()) {
    spans.WriteTsv(spans_out);
  }

  Counters& m = out.layers;
  m = counters;
  AddRatios(m);
  const double n = passes;
  auto self = [&](Layer layer) {
    return self_s[static_cast<size_t>(layer)] / n;
  };
  m["trace.generate_s"] = self(Layer::kGenerate);
  m["trace.records"] = static_cast<double>(records);
  m["trace.replay_loop_self_s"] = self(Layer::kReplayLoop);
  m["core.build_s"] = self(Layer::kBuild);
  m["core.teardown_s"] = self(Layer::kTeardown);
  m["core.machines"] = static_cast<double>(spec.units());
  m["harness.merge_s"] = self(Layer::kMerge);
  m["fs.read_s"] = self(Layer::kFsRead);
  m["fs.write_s"] = self(Layer::kFsWrite);
  m["fs.meta_s"] = self(Layer::kFsMeta);
  m["fs.ops.read"] = static_cast<double>(fs_ops.read);
  m["fs.ops.write"] = static_cast<double>(fs_ops.write);
  m["fs.ops.meta"] = static_cast<double>(fs_ops.meta);
  m["sim.run_until_s"] = self(Layer::kRunUntil);
  m["journal.recover_s"] = self(Layer::kRecover);
  double attributed = 0;
  for (size_t i = 0; i < kNumLayers; ++i) {
    attributed += self_s[i] / n;
  }
  m["host.traced_wall_s"] = wall_s / n;
  m["host.unattributed_s"] = wall_s / n - attributed;
  const double traced_rate = static_cast<double>(ops) / replay_s;
  m["trace_overhead_pct"] =
      100.0 * (out.ops_per_host_s - traced_rate) / out.ops_per_host_s;
}

// Phase 3: per unit, RunTrace (then a closing Sync, for the flash-bytes
// figure) and a byte-checked replay on another fresh machine; the reports
// must agree with each other and, merged, with the timed phase.
void VerificationPhase(const WorkloadSpec& spec, Outcome& out) {
  ReplayReport merged;
  OpSamples samples;
  for (int unit = 0; unit < spec.units(); ++unit) {
    const std::string what = "unit " + std::to_string(unit);
    const Trace trace = UnitTrace(spec, unit);
    ReplayReport report;
    {
      std::unique_ptr<MobileComputer> machine = BuildUnit(spec, unit, nullptr);
      const double before = ProgrammedBytes(*machine);
      report = machine->RunTrace(trace);
      // Data still dirty in the write buffer has not been avoided yet.
      const Status synced = machine->fs().Sync();
      if (!synced.ok()) {
        Fail(what + ": closing sync failed: " + synced.ToString());
      }
      out.programmed_bytes += ProgrammedBytes(*machine) - before;
    }
    ByteModel model;
    std::unique_ptr<MobileComputer> machine = BuildUnit(spec, unit, &model);
    ReplayHooks hooks;
    hooks.model = &model;
    hooks.samples = &samples;
    const ReplayReport verified = ReplayOnMachine(*machine, trace, hooks);
    CheckReportsEqual(report, verified, what + " byte-checked replay");
    machine->SettleEnergy();
    out.energy_nj += machine->TotalEnergyNj();
    if (spec.crash_and_recover) {
      CrashAndRecover(*machine, &model);
    }
    merged.Merge(report);
    CountReplay(out, report);
    CountReplay(out, verified);
  }
  CheckReportsEqual(out.report, merged,
                    spec.fleet ? "RunScaleout vs per-user loop"
                               : "timed phase vs verification");

  out.read = Summarize(std::move(samples.reads), "reads");
  out.write = Summarize(std::move(samples.writes), "writes");
  for (auto& [tenant, reads] : samples.tenant_reads) {
    const LatencyStats s = Summarize(
        std::move(reads), "tenant " + std::to_string(tenant) + " reads");
    if (s.p99_us > out.worst_tenant_read.p99_us) {
      out.worst_tenant = tenant;
      out.worst_tenant_read = s;
    }
    out.worst_tenant_read_p99_nearest_us =
        std::max(out.worst_tenant_read_p99_nearest_us, s.p99_nearest_us);
  }
}

// --- Output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string UnitOf(const std::string& name) {
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("_pct")) return "%";
  if (ends("_ratio") || ends("write_amp")) return "ratio";
  if (name.find("bytes") != std::string::npos) return "B";
  return "count";
}

std::string Json(const Outcome& out, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": true, \"attempted\": " +
                  std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

void PrintLatency(const char* what, const LatencyStats& s) {
  std::printf("  %s: n=%llu mean=%.3f p99=%.3f nearest-rank p50=%.3f "
              "p99=%.3f "
              "p%.4f=%.3f us\n",
              what, static_cast<unsigned long long>(s.samples), s.mean_us,
              s.p99_us, s.p50_nearest_us, s.p99_nearest_us, s.top_pct,
              s.top_us);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec spec = MakeWorkload(args.workload, args.seed);
  Outcome out;
  out.setup_s = MeasureSetup(spec);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  TimedPhase(spec, budget, out);
  if (args.trace) {
    TracedPhase(spec, budget, args.spans_out, out);
  }
  VerificationPhase(spec, out);

  const double ops = static_cast<double>(out.report.ops);
  const double user_bytes = static_cast<double>(out.report.bytes_written);
  if (out.report.ops == 0 || user_bytes == 0) {
    Fail("workload replayed no writes");
  }
  const std::vector<Metric> end_to_end = {
      {"sim_ops_per_host_s", out.ops_per_host_s, "1/s"},
      {"setup_s", out.setup_s, "s"},
      {"rss_mib", out.rss_mib, "MiB"},
      {"sim_read_mean_us", out.read.mean_us, "us"},
      {"sim_read_p99_us", out.read.p99_us, "us"},
      {"sim_write_mean_us", out.write.mean_us, "us"},
      {"sim_write_p99_us", out.write.p99_us, "us"},
      {"sim_worst_tenant_read_p99_us", out.worst_tenant_read.p99_us, "us"},
      {"sim_energy_uj_per_op", out.energy_nj / 1e3 / ops, "uJ"},
      {"flash_bytes_per_user_byte", out.programmed_bytes / user_bytes, "B/B"},
  };
  // Nearest-rank order statistics, reported beside the end-to-end figures.
  const std::vector<Metric> order_stats = {
      {"sim_read_p50_nearest_us", out.read.p50_nearest_us, "us"},
      {"sim_read_p99_nearest_us", out.read.p99_nearest_us, "us"},
      {"sim_write_p50_nearest_us", out.write.p50_nearest_us, "us"},
      {"sim_write_p99_nearest_us", out.write.p99_nearest_us, "us"},
      {"sim_worst_tenant_read_p99_nearest_us",
       out.worst_tenant_read_p99_nearest_us, "us"},
      {"failed_op_ratio", static_cast<double>(out.report.failures) / ops,
       "ratio"},
  };

  std::printf("workload %s seed %llu: %d units, %llu ops, %.3f sim-s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.units(), static_cast<unsigned long long>(out.report.ops),
              static_cast<double>(out.report.elapsed()) / kSecond);
  for (const std::vector<Metric>* list : {&end_to_end, &order_stats}) {
    for (const Metric& m : *list) {
      std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  PrintLatency("reads", out.read);
  PrintLatency("writes", out.write);
  PrintLatency(("tenant " + std::to_string(out.worst_tenant) + " reads").c_str(),
               out.worst_tenant_read);
  // Every sim-time result on one line: equal across runs of one seed and
  // between --trace 0 and --trace 1.
  std::printf("sim_digest ops=%llu elapsed_ns=%lld",
              static_cast<unsigned long long>(out.report.ops),
              static_cast<long long>(out.report.elapsed()));
  for (const std::vector<Metric>* list : {&end_to_end, &order_stats}) {
    for (const Metric& m : *list) {
      if (m.name != "sim_ops_per_host_s" && m.unit != "s" &&
          m.unit != "MiB") {
        std::printf(" %s=%.17g", m.name.c_str(), m.value);
      }
    }
  }
  std::printf("\n");

  std::vector<Metric> reported;
  if (!args.trace) {
    reported = end_to_end;
  } else {
    Counters& m = out.layers;
    for (const auto& [name, s] :
         {std::pair{"read", &out.read}, std::pair{"write", &out.write}}) {
      const std::string p = std::string("sim.") + name;
      m[p + "_samples"] = static_cast<double>(s->samples);
      m[p + "_p50_nearest_us"] = s->p50_nearest_us;
      m[p + "_p99_nearest_us"] = s->p99_nearest_us;
      m[p + "_top_pct"] = s->top_pct;
      m[p + "_top_us"] = s->top_us;
    }
    m["sim.worst_tenant_read_p99_nearest_us"] =
        out.worst_tenant_read_p99_nearest_us;
    m["sim.worst_tenant_read_samples"] =
        static_cast<double>(out.worst_tenant_read.samples);
    for (const auto& [name, value] : m) {
      reported.push_back({name, value, UnitOf(name)});
      std::printf("  %-36s %18.6f %s\n", name.c_str(), value,
                  UnitOf(name).c_str());
    }
  }
  std::printf("%s\n", Json(out, reported).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::CheckFailure& failure) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.what());
    return 1;
  }
}
