#include "src/trace/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string_view>
#include <unordered_set>

namespace ssmc {
namespace {

uint64_t Fnv1a64(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

WorkloadOptions ReadMostlyWith512Files() {
  WorkloadOptions options = ReadMostlyWorkload();
  options.initial_files = 512;
  return options;
}

// The record stream itself is pinned, not only its statistics: any change
// to a path, time, offset or length in any record changes these digests.
TEST(GeneratorTest, RecordStreamDigestsArePinned) {
  struct Case {
    const char* profile;
    WorkloadOptions options;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {"office", OfficeWorkload(), 1993, 0xd3fec6b42e253651ULL},
      {"office", OfficeWorkload(), 7, 0xafc289167a910474ULL},
      {"write-hot", WriteHotWorkload(), 701, 0xcd2209e9a3d45b4bULL},
      {"write-hot", WriteHotWorkload(), 8, 0xf30c12b333aecad6ULL},
      {"read-mostly/512", ReadMostlyWith512Files(), 2718,
       0x1dd651a2b60323a0ULL},
      {"read-mostly/512", ReadMostlyWith512Files(), 9,
       0x31731137200cbcecULL},
  };
  for (const Case& c : cases) {
    WorkloadOptions options = c.options;
    options.seed = c.seed;
    options.duration = 5 * kMinute;
    const Trace trace = WorkloadGenerator(options).Generate();
    EXPECT_EQ(Fnv1a64(trace.ToText()), c.digest)
        << c.profile << " seed " << c.seed << " (" << trace.size()
        << " records)";
  }
}

// Generators at different skews share nothing mutable: interleaving their
// Generate() calls yields exactly the traces each produces on its own,
// including a generator's second Generate() on its continued rng stream.
TEST(GeneratorTest, InterleavedSkewsMatchIsolatedGeneration) {
  WorkloadOptions office = OfficeWorkload();
  office.duration = kMinute;
  WorkloadOptions hot = WriteHotWorkload();
  hot.duration = kMinute;
  ASSERT_NE(office.hot_skew, hot.hot_skew);

  WorkloadGenerator office_alone(office);
  const std::string office_first = office_alone.Generate().ToText();
  const std::string office_second = office_alone.Generate().ToText();
  WorkloadGenerator hot_alone(hot);
  const std::string hot_first = hot_alone.Generate().ToText();
  const std::string hot_second = hot_alone.Generate().ToText();

  WorkloadGenerator office_mixed(office);
  WorkloadGenerator hot_mixed(hot);
  EXPECT_EQ(hot_mixed.Generate().ToText(), hot_first);
  EXPECT_EQ(office_mixed.Generate().ToText(), office_first);
  EXPECT_EQ(hot_mixed.Generate().ToText(), hot_second);
  EXPECT_EQ(office_mixed.Generate().ToText(), office_second);
}

TEST(GeneratorTest, DeterministicFromSeed) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  Trace a = WorkloadGenerator(options).Generate();
  Trace b = WorkloadGenerator(options).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]) << "record " << i;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = kMinute;
  Trace a = WorkloadGenerator(options).Generate();
  options.seed += 1;
  Trace b = WorkloadGenerator(options).Generate();
  EXPECT_NE(a.ToText(), b.ToText());
}

TEST(GeneratorTest, TimesAreMonotonic) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 2 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  SimTime last = 0;
  for (const TraceRecord& r : trace.records()) {
    EXPECT_GE(r.at, last);
    last = r.at;
  }
}

TEST(GeneratorTest, TraceIsSemanticallyConsistent) {
  // Every read/write/unlink targets a file that exists at that point.
  WorkloadOptions options = OfficeWorkload();
  options.duration = 2 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  std::unordered_set<std::string> dirs;
  std::unordered_set<std::string> files;
  for (const TraceRecord& r : trace.records()) {
    switch (r.op) {
      case TraceOp::kMkdir:
        EXPECT_EQ(dirs.count(r.path), 0u);
        dirs.insert(r.path);
        break;
      case TraceOp::kCreate:
        EXPECT_EQ(files.count(r.path), 0u) << r.path;
        files.insert(r.path);
        break;
      case TraceOp::kUnlink:
        EXPECT_EQ(files.count(r.path), 1u) << r.path;
        files.erase(r.path);
        break;
      case TraceOp::kWrite:
      case TraceOp::kRead:
      case TraceOp::kStat:
        EXPECT_EQ(files.count(r.path), 1u) << r.path;
        break;
      default:
        break;
    }
  }
}

TEST(GeneratorTest, OfficeMixRoughlyMatchesConfig) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 20 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  std::map<TraceOp, int> counts;
  for (const TraceRecord& r : trace.records()) {
    counts[r.op]++;
  }
  const double total = static_cast<double>(trace.size());
  // Reads should outnumber deletes heavily; writes are plentiful. (The
  // population phase and create-attached writes skew exact fractions.)
  EXPECT_GT(counts[TraceOp::kRead], counts[TraceOp::kUnlink]);
  EXPECT_GT(counts[TraceOp::kWrite] / total, 0.2);
  EXPECT_GT(counts[TraceOp::kRead] / total, 0.2);
}

TEST(GeneratorTest, ShortLivedFilesActuallyDie) {
  WorkloadOptions options = WriteHotWorkload();
  options.duration = 10 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  int creates = 0;
  int unlinks = 0;
  for (const TraceRecord& r : trace.records()) {
    creates += r.op == TraceOp::kCreate;
    unlinks += r.op == TraceOp::kUnlink;
  }
  // Most created files are deleted within the trace (p_short_lived = 0.75
  // with 15 s mean lifetime over a 10 min trace).
  EXPECT_GT(unlinks, creates / 2);
}

TEST(GeneratorTest, FileSizesAreSkewedSmall) {
  WorkloadOptions options = OfficeWorkload();
  options.duration = 10 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  uint64_t small = 0;
  uint64_t creates_with_write = 0;
  for (size_t i = 0; i + 1 < trace.size(); ++i) {
    if (trace.records()[i].op == TraceOp::kCreate &&
        trace.records()[i + 1].op == TraceOp::kWrite &&
        trace.records()[i + 1].path == trace.records()[i].path) {
      ++creates_with_write;
      if (trace.records()[i + 1].length < 8 * 1024) {
        ++small;
      }
    }
  }
  ASSERT_GT(creates_with_write, 50u);
  // The bounded-Pareto size distribution makes most files small.
  EXPECT_GT(static_cast<double>(small) / creates_with_write, 0.6);
}

TEST(GeneratorTest, WriteHotProfileWritesMoreThanOffice) {
  WorkloadOptions office = OfficeWorkload();
  office.duration = 5 * kMinute;
  WorkloadOptions hot = WriteHotWorkload();
  hot.duration = 5 * kMinute;
  const Trace office_trace = WorkloadGenerator(office).Generate();
  const Trace hot_trace = WorkloadGenerator(hot).Generate();
  const double office_ratio =
      static_cast<double>(office_trace.TotalBytesWritten()) /
      static_cast<double>(office_trace.TotalBytesRead() + 1);
  const double hot_ratio =
      static_cast<double>(hot_trace.TotalBytesWritten()) /
      static_cast<double>(hot_trace.TotalBytesRead() + 1);
  EXPECT_GT(hot_ratio, office_ratio);
}

TEST(GeneratorTest, ReadMostlyProfileReadsDominate) {
  WorkloadOptions options = ReadMostlyWorkload();
  options.duration = 5 * kMinute;
  Trace trace = WorkloadGenerator(options).Generate();
  EXPECT_GT(trace.TotalBytesRead(), 2 * trace.TotalBytesWritten());
}

}  // namespace
}  // namespace ssmc
