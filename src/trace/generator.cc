#include "src/trace/generator.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
#include <queue>
#include <unordered_map>

namespace ssmc {

namespace {

// Zipf ranks map onto the live set; a fixed-size sampler keeps selection
// O(log n) while the live set churns.
constexpr size_t kHotRanks = 4096;

// Bounded-Pareto shape of file sizes: ~1.1 gives the observed small-file
// skew.
constexpr double kFileSizeAlpha = 1.1;

// The hot-set CDF depends only on the skew, yet costs kHotRanks std::pow
// calls -- as much as generating a short trace. Each distinct skew's sampler
// is built on first use and then shared read-only by every Generate(), on
// any thread (concurrent scale-out shards generate at the same time). The
// entries are never freed; there is one per distinct skew.
const ZipfSampler& HotSetSampler(double skew) {
  static std::mutex mu;
  static std::map<double, ZipfSampler> samplers;
  std::lock_guard<std::mutex> lock(mu);
  return samplers.try_emplace(skew, kHotRanks, skew).first->second;
}

}  // namespace

WorkloadOptions OfficeWorkload() {
  WorkloadOptions options;
  options.seed = 1993;
  options.p_read = 0.40;
  options.p_write = 0.30;
  options.p_create = 0.10;
  options.p_delete = 0.08;
  return options;
}

WorkloadOptions WriteHotWorkload() {
  WorkloadOptions options;
  options.seed = 701;
  options.p_read = 0.15;
  options.p_write = 0.60;
  options.p_create = 0.12;
  options.p_delete = 0.10;
  options.hot_skew = 1.2;          // Concentrated overwrites.
  options.p_whole_file = 0.50;
  options.p_short_lived = 0.75;    // Most new data dies young.
  options.short_lived_mean = 15 * kSecond;
  return options;
}

WorkloadOptions ReadMostlyWorkload() {
  WorkloadOptions options;
  options.seed = 2718;
  options.p_read = 0.80;
  options.p_write = 0.05;
  options.p_create = 0.02;
  options.p_delete = 0.01;
  options.p_whole_file = 0.85;
  options.p_short_lived = 0.3;
  return options;
}

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {}

Trace WorkloadGenerator::Generate() {
  Trace trace;

  struct LiveFile {
    std::string path;
    uint64_t size;
  };
  std::vector<LiveFile> files;
  // Live path -> its index in `files`.
  std::unordered_map<std::string, size_t> slots;
  // Short-lived files awaiting their scheduled deletion: (deadline, path).
  using Deletion = std::pair<SimTime, std::string>;
  std::priority_queue<Deletion, std::vector<Deletion>, std::greater<>> deaths;

  uint64_t name_counter = 0;
  const ZipfSampler& zipf = HotSetSampler(options_.hot_skew);

  auto pick_file = [&]() -> LiveFile* {
    if (files.empty()) {
      return nullptr;
    }
    const size_t rank = zipf.Sample(rng_) % files.size();
    return &files[rank];
  };

  auto sample_file_size = [&]() -> uint64_t {
    const double size = rng_.NextBoundedPareto(
        kFileSizeAlpha, static_cast<double>(options_.min_file_bytes),
        static_cast<double>(options_.max_file_bytes));
    return static_cast<uint64_t>(size);
  };

  auto create_file = [&](SimTime at) {
    const int dir = static_cast<int>(rng_.NextBelow(
        static_cast<uint64_t>(options_.num_directories)));
    const std::string path = "/dir" + std::to_string(dir) + "/f" +
                             std::to_string(name_counter++);
    const uint64_t size = sample_file_size();
    trace.Add({at, TraceOp::kCreate, path, 0, 0, ""});
    trace.Add({at, TraceOp::kWrite, path, 0, size, ""});
    slots.emplace(path, files.size());
    files.push_back({path, size});
    if (rng_.NextBool(options_.p_short_lived)) {
      const Duration life = static_cast<Duration>(
          rng_.NextExponential(static_cast<double>(options_.short_lived_mean)));
      deaths.emplace(at + std::max<Duration>(life, kMillisecond), path);
    }
  };

  // Swap-with-back removal, so `files` keeps the order selection depends on.
  auto remove_file = [&](const std::string& path) {
    const auto it = slots.find(path);
    assert(it != slots.end());
    const size_t slot = it->second;
    slots.erase(it);  // `path` may alias files[slot].path: done with it now.
    if (slot + 1 != files.size()) {
      files[slot] = std::move(files.back());
      slots[files[slot].path] = slot;
    }
    files.pop_back();
  };

  // --- Population phase ---------------------------------------------------
  SimTime t = 0;
  for (int d = 0; d < options_.num_directories; ++d) {
    trace.Add({t, TraceOp::kMkdir, "/dir" + std::to_string(d), 0, 0, ""});
  }
  for (int i = 0; i < options_.initial_files; ++i) {
    t += kMillisecond;
    create_file(t);
  }

  // --- Steady state --------------------------------------------------------
  const SimTime end = t + options_.duration;
  while (t < end) {
    t += static_cast<Duration>(std::max(
        1.0, rng_.NextExponential(
                 static_cast<double>(options_.mean_interarrival))));

    // Scheduled deaths that fall due before this op.
    while (!deaths.empty() && deaths.top().first <= t) {
      const auto [when, path] = deaths.top();
      deaths.pop();
      if (slots.count(path) != 0) {
        trace.Add({when, TraceOp::kUnlink, path, 0, 0, ""});
        remove_file(path);
      }
    }

    const double u = rng_.NextDouble();
    if (u < options_.p_create || files.empty()) {
      create_file(t);
      continue;
    }
    LiveFile* file = pick_file();
    if (u < options_.p_create + options_.p_delete) {
      trace.Add({t, TraceOp::kUnlink, file->path, 0, 0, ""});
      remove_file(file->path);
    } else if (u < options_.p_create + options_.p_delete + options_.p_write) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kWrite, file->path, 0, file->size, ""});
      } else {
        const uint64_t len = std::max<uint64_t>(
            1, static_cast<uint64_t>(rng_.NextExponential(
                   static_cast<double>(options_.partial_io_bytes))));
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        trace.Add({t, TraceOp::kWrite, file->path, offset, len, ""});
        file->size = std::max(file->size, offset + len);
      }
    } else if (u < options_.p_create + options_.p_delete + options_.p_write +
                       options_.p_read) {
      if (rng_.NextBool(options_.p_whole_file)) {
        trace.Add({t, TraceOp::kRead, file->path, 0, file->size, ""});
      } else {
        const uint64_t offset = rng_.NextBelow(std::max<uint64_t>(1, file->size));
        const uint64_t len = std::max<uint64_t>(
            1, std::min(file->size - offset,
                        static_cast<uint64_t>(rng_.NextExponential(
                            static_cast<double>(options_.partial_io_bytes)))));
        trace.Add({t, TraceOp::kRead, file->path, offset, len, ""});
      }
    } else {
      trace.Add({t, TraceOp::kStat, file->path, 0, 0, ""});
    }
  }
  return trace;
}

}  // namespace ssmc
