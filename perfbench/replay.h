// Benchmark-side replay of a trace on a MobileComputer, with the hooks the
// repository benchmark needs and the simulator does not expose:
//
//  * SpanRecorder — host-time spans recorded around calls into each layer's
//    public functions (the traced run). Spans live in memory and are written
//    out once, at the end of a run.
//  * ByteModel — an independent model of the namespace and of every byte
//    written; each read's bytes are checked against it (the verification
//    pass).
//  * OpSamples — every per-op simulated latency, so percentiles are exact
//    order statistics instead of histogram bucket edges.
//
// ReplayOnMachine makes the same calls, in the same order, with the same
// payload bytes as MobileComputer::RunTrace, so its report must equal
// RunTrace's; the benchmark checks that it does.

#ifndef SSMC_PERFBENCH_REPLAY_H_
#define SSMC_PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/machine.h"
#include "src/trace/replayer.h"
#include "src/trace/trace.h"

namespace perfbench {

// A failed correctness check. Thrown, never caught below main(): any
// failure ends the run with a nonzero exit and no result line.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Fail(const std::string& what);

// Host monotonic time in nanoseconds.
int64_t NowNs();

// The layer boundaries the traced run times. Each is one public entry point
// (or group of them) of one module.
enum class Layer : uint8_t {
  kReplayLoop,  // The benchmark's record loop itself (trace module's role).
  kRunUntil,    // sim: EventQueue::RunUntil (flush daemon, background work).
  kFsRead,      // fs: FileSystem::Read.
  kFsWrite,     // fs: FileSystem::Write.
  kFsMeta,      // fs: Create/Mkdir/Unlink/Stat/Truncate/Rename.
  kGenerate,    // trace: WorkloadGenerator::Generate + composition.
  kBuild,       // core: MobileComputer construction (+ tenant directories).
  kTeardown,    // core: MobileComputer destruction.
  kMerge,       // harness: ReplayReport::Merge.
  kRecover,     // journal: InjectBatteryFailure + RecoverAfterFailure.
};
inline constexpr size_t kNumLayers = 10;
const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;      // Trace record index, or replay-unit index.
  uint32_t parent = 0;  // Index of the enclosing span, or kNoParent.
  Layer layer = Layer::kReplayLoop;
};

class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};

  // Opens a span whose parent is the innermost span still open.
  uint32_t Begin(Layer layer, uint64_t op);
  void End(uint32_t id);
  void Clear();

  // Per layer: summed span duration minus the part covered by child spans.
  std::array<int64_t, kNumLayers> SelfNs() const;
  // Writes every span as one tab-separated line
  // "<index> <parent|-> <op> <layer> <start_ns> <end_ns>", times relative
  // to the first span's start.
  void WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, uint64_t op)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(layer, op) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

// The expected namespace and file contents, maintained independently of
// the file system under test. Paths are absolute; "/" always exists.
class ByteModel {
 public:
  struct Entry {
    bool is_dir = false;
    std::vector<uint8_t> bytes;  // Files only.
  };

  ByteModel();

  // Applies one replayed operation and checks the file system's outcome
  // against the model: success or failure, bytes transferred, every byte
  // read, and Stat's answer. `data` is what was written or read.
  void Apply(const ssmc::TraceRecord& record, bool ok, uint64_t transferred,
             std::span<const uint8_t> data, const ssmc::FileInfo* info);
  // Mkdir outside the trace (tenant directories made before the replay).
  void Mkdir(const std::string& path);

  // Walks `fs` from the root and checks that it holds exactly the model's
  // paths, kinds and file sizes.
  void CheckNamespace(ssmc::FileSystem& fs) const;

 private:
  bool ParentIsDir(const std::string& path) const;

  std::map<std::string, Entry> entries_;
};

// Exact per-op simulated latencies (ns), in replay order.
struct OpSamples {
  std::vector<int64_t> reads;
  std::vector<int64_t> writes;
  std::map<ssmc::TenantId, std::vector<int64_t>> tenant_reads;
};

// fs entry-point calls by group (traced run).
struct FsOpCounts {
  uint64_t read = 0;
  uint64_t write = 0;
  uint64_t meta = 0;
};

struct ReplayHooks {
  SpanRecorder* spans = nullptr;
  ByteModel* model = nullptr;
  OpSamples* samples = nullptr;
  FsOpCounts* fs_ops = nullptr;
  uint64_t op_base = 0;  // Added to record indices in span op ids.
};

// Replays `trace` against `machine` the way MobileComputer::RunTrace does
// (same calls, order, payload bytes and report windowing), with `hooks`.
ssmc::ReplayReport ReplayOnMachine(ssmc::MobileComputer& machine,
                                   const ssmc::Trace& trace,
                                   const ReplayHooks& hooks);

// Throws CheckFailure naming the first field on which two reports differ:
// op, failure and byte counts, the sim-time window, per-op and per-tenant
// sample counts and latency sums, device lanes and tier read bytes.
void CheckReportsEqual(const ssmc::ReplayReport& want,
                       const ssmc::ReplayReport& got, const std::string& what);

}  // namespace perfbench

#endif  // SSMC_PERFBENCH_REPLAY_H_
