// Determinism suite for the parallel experiment harness: a parallel run of
// an E3-style machine matrix and a sharded E11 scale-out run must produce
// reports — and the tables formatted from them — byte-identical to the
// serial (--jobs=1 / K=1) runs. This is the contract that lets every bench
// sweep run on all CPUs without changing a single published number.

#include "src/harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/scaleout.h"
#include "src/support/table.h"
#include "src/trace/generator.h"

namespace ssmc {
namespace {

void ExpectReportsIdentical(const ReplayReport& a, const ReplayReport& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.failed_read_bytes, b.failed_read_bytes);
  EXPECT_EQ(a.failed_write_bytes, b.failed_write_bytes);
  EXPECT_EQ(a.started, b.started);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.all_ops.total_ns(), b.all_ops.total_ns());
  for (int bucket = 0; bucket < Histogram::kBuckets; ++bucket) {
    EXPECT_EQ(a.all_ops.histogram().bucket_count(bucket),
              b.all_ops.histogram().bucket_count(bucket));
  }
  for (size_t op = 0; op < a.per_op.size(); ++op) {
    EXPECT_EQ(a.per_op[op].count(), b.per_op[op].count()) << "op " << op;
    EXPECT_EQ(a.per_op[op].total_ns(), b.per_op[op].total_ns()) << "op " << op;
  }
}

// Formats reports the way the E3 bench does, so the comparison covers the
// full path from simulation to printed cell text.
std::string FormatMatrixTable(const std::vector<ReplayReport>& reports) {
  Table table({"cell", "ops/s", "read mean", "write p99", "busy time"});
  for (size_t i = 0; i < reports.size(); ++i) {
    const ReplayReport& r = reports[i];
    table.AddRow();
    table.AddCell(static_cast<int64_t>(i));
    table.AddCell(FormatDouble(r.OpsPerSecond(), 0));
    table.AddCell(FormatDuration(
        static_cast<Duration>(r.ForOp(TraceOp::kRead).mean_ns())));
    table.AddCell(FormatDuration(
        static_cast<Duration>(r.ForOp(TraceOp::kWrite).p99_ns())));
    table.AddCell(FormatDuration(static_cast<Duration>(r.all_ops.total_ns())));
  }
  return table.ToString();
}

TEST(DeriveCellSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(DeriveCellSeed(42, 0), DeriveCellSeed(42, 0));
  EXPECT_NE(DeriveCellSeed(42, 0), DeriveCellSeed(42, 1));
  EXPECT_NE(DeriveCellSeed(42, 0), DeriveCellSeed(43, 0));
  // Cell 0 is not the raw base seed (the walk starts one gamma in).
  EXPECT_NE(DeriveCellSeed(42, 0), 42u);
}

TEST(ParallelRunnerTest, RunOrderedReturnsSubmissionOrder) {
  ParallelRunner runner(/*jobs=*/4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] {
      // Early tasks sleep longest: completion order inverts submission
      // order, so this only passes if results are reordered correctly.
      std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
      return i;
    });
  }
  const std::vector<int> results = runner.RunOrdered(std::move(tasks));
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i);
  }
}

TEST(ParallelRunnerTest, TaskExceptionPropagates) {
  ParallelRunner runner(/*jobs=*/2);
  std::vector<std::function<int()>> tasks;
  tasks.push_back([] { return 1; });
  tasks.push_back([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(runner.RunOrdered(std::move(tasks)), std::runtime_error);
}

std::vector<MachineCell> E3StyleMatrix(const Trace& trace) {
  std::vector<MachineCell> cells;
  {
    MachineCell cell;
    cell.config = NotebookConfig();
    cell.trace = &trace;
    cells.push_back(std::move(cell));
  }
  {
    MachineCell cell;
    cell.config = NotebookConfig();
    cell.config.fs_options.write_buffer_pages = 0;  // Write-through ablation.
    cell.trace = &trace;
    cells.push_back(std::move(cell));
  }
  {
    MachineCell cell;
    cell.config = OmniBookConfig();
    cell.trace = &trace;
    cells.push_back(std::move(cell));
  }
  {
    MachineCell cell;
    cell.config = NotebookConfig();
    cell.config.flash_banks = 1;  // Bank ablation.
    cell.trace = &trace;
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(ParallelRunnerTest, MachineMatrixByteIdenticalToSerial) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 20 * kSecond;
  options.max_file_bytes = 32 * 1024;
  const Trace trace = WorkloadGenerator(options).Generate();

  ParallelRunner serial(/*jobs=*/1);
  ParallelRunner parallel(/*jobs=*/4);
  const std::vector<ReplayReport> serial_reports =
      serial.RunMachineCells(E3StyleMatrix(trace));
  const std::vector<ReplayReport> parallel_reports =
      parallel.RunMachineCells(E3StyleMatrix(trace));

  ASSERT_EQ(serial_reports.size(), parallel_reports.size());
  for (size_t i = 0; i < serial_reports.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectReportsIdentical(serial_reports[i], parallel_reports[i]);
  }
  EXPECT_EQ(FormatMatrixTable(serial_reports),
            FormatMatrixTable(parallel_reports));
  // Sanity: the matrix did real work.
  EXPECT_GT(serial_reports[0].ops, 100u);
}

// Concurrent shards generate their users' traces at the same time, so the
// generator's per-skew tables can be built while threads race for them. The
// two skews here are used by no other case in this binary: their tables are
// first built inside the race, which is the case ThreadSanitizer must see.
TEST(GeneratorRaceTest, ConcurrentGenerateMatchesSerial) {
  constexpr int kThreads = 4;
  const double skews[] = {0.8, 1.4};
  auto options_for = [&](int thread, int i) {
    WorkloadOptions options = OfficeWorkload();
    options.seed = 100 + static_cast<uint64_t>(thread);
    options.hot_skew = skews[(thread + i) % 2];
    options.duration = 20 * kSecond;
    return options;
  };

  std::vector<std::vector<std::string>> raced(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 2; ++i) {
        raced[static_cast<size_t>(t)].push_back(
            WorkloadGenerator(options_for(t, i)).Generate().ToText());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(raced[static_cast<size_t>(t)][static_cast<size_t>(i)],
                WorkloadGenerator(options_for(t, i)).Generate().ToText())
          << "thread " << t << " trace " << i;
    }
  }
}

TEST(ScaleoutTest, ShardedRunByteIdenticalToSerial) {
  ScaleoutOptions options;
  options.users = 5;
  options.user_duration = 10 * kSecond;
  options.base_seed = 911;

  options.cells = 1;
  options.jobs = 1;
  const ScaleoutReport serial = RunScaleout(options);

  for (const int k : {2, 3, 5}) {
    SCOPED_TRACE("K = " + std::to_string(k));
    options.cells = k;
    options.jobs = 3;
    const ScaleoutReport sharded = RunScaleout(options);
    ASSERT_EQ(sharded.per_user.size(), serial.per_user.size());
    for (size_t u = 0; u < serial.per_user.size(); ++u) {
      SCOPED_TRACE("user " + std::to_string(u));
      ExpectReportsIdentical(serial.per_user[u], sharded.per_user[u]);
    }
    ExpectReportsIdentical(serial.aggregate, sharded.aggregate);
    EXPECT_EQ(FormatMatrixTable(serial.per_user),
              FormatMatrixTable(sharded.per_user));
    EXPECT_DOUBLE_EQ(serial.SimOpsPerSimSecond(), sharded.SimOpsPerSimSecond());
  }
  // The fleet did real work and the merge saw every user.
  EXPECT_GT(serial.aggregate.ops, 100u);
  uint64_t sum = 0;
  for (const ReplayReport& r : serial.per_user) {
    sum += r.ops;
  }
  EXPECT_EQ(serial.aggregate.ops, sum);
}

TEST(ScaleoutTest, TenantMixTagsFleetWithoutPerturbingFifoTiming) {
  ScaleoutOptions options;
  options.users = 4;
  options.cells = 2;
  options.jobs = 2;
  options.user_duration = 5 * kSecond;
  const ScaleoutReport legacy = RunScaleout(options);

  // A two-class {office, write-hot} mix reproduces the legacy even/odd
  // alternation seed-for-seed; under FIFO the tenant tags are bookkeeping
  // only, so every timing-derived number in the aggregate is identical.
  options.tenant_mix = {{1, /*write_hot=*/false, 1, 0, 0},
                        {2, /*write_hot=*/true, 1, 0, 0}};
  options.io_sched = IoSchedPolicy::kFifo;
  const ScaleoutReport mixed = RunScaleout(options);
  ExpectReportsIdentical(legacy.aggregate, mixed.aggregate);

  // But the tagged fleet's aggregate carries per-tenant lanes, streamed
  // through the same shard fold as every other counter: the untagged fleet
  // lands entirely in the default-tenant lane, the mix entirely in its
  // named classes.
  ASSERT_EQ(legacy.aggregate.by_tenant.entries().size(), 1u);
  EXPECT_EQ(legacy.aggregate.by_tenant.entries()[0].tenant, kDefaultTenant);
  EXPECT_EQ(mixed.aggregate.by_tenant.Find(kDefaultTenant), nullptr);
  for (TenantId t : {TenantId{1}, TenantId{2}}) {
    const TenantLatency* lane = mixed.aggregate.by_tenant.Find(t);
    ASSERT_NE(lane, nullptr) << "tenant " << t;
    EXPECT_GT(lane->reads.count() + lane->writes.count(), 0u);
  }
}

TEST(ScaleoutTest, CellCountClampedToUsers) {
  ScaleoutOptions options;
  options.users = 2;
  options.cells = 8;  // More shards than users: clamp, don't crash.
  options.jobs = 2;
  options.user_duration = 2 * kSecond;
  const ScaleoutReport report = RunScaleout(options);
  EXPECT_EQ(report.cells, 2);
  EXPECT_EQ(report.per_user.size(), 2u);
}

}  // namespace
}  // namespace ssmc
