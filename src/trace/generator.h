// Synthetic file-system workload generator.
//
// Deterministically (seeded) generates traces reproducing the distributional
// facts the paper's argument relies on, as published in the trace studies it
// cites ([8] Ousterhout et al. 1985, [3] Baker et al. 1991):
//  * most files are small — file sizes draw from a bounded Pareto;
//  * most accesses are whole-file and sequential;
//  * access frequency is heavily skewed (a small hot set gets most traffic);
//  * a large share of new data dies young: short-lived files are deleted,
//    and hot file blocks are overwritten, within tens of seconds.
//
// Three calibrated profiles drive the experiments:
//  * OfficeWorkload      — mixed read/write, the E3/E6 default;
//  * WriteHotWorkload    — overwrite-heavy, stresses the write buffer & FTL;
//  * ReadMostlyWorkload  — scan-heavy, the E9 read-mostly corner.

#ifndef SSMC_SRC_TRACE_GENERATOR_H_
#define SSMC_SRC_TRACE_GENERATOR_H_

#include <cstdint>

#include "src/support/rng.h"
#include "src/trace/trace.h"

namespace ssmc {

struct WorkloadOptions {
  uint64_t seed = 42;
  Duration duration = 10 * kMinute;
  // Mean inter-arrival time between operations (exponential).
  Duration mean_interarrival = 50 * kMillisecond;

  // Namespace shape.
  int num_directories = 8;
  int initial_files = 64;

  // File sizes: bounded Pareto (alpha 1.1, the observed small-file skew)
  // between min and max.
  uint64_t min_file_bytes = 256;
  uint64_t max_file_bytes = 256 * 1024;

  // Operation mix (fractions; remainder after these is stat traffic).
  double p_read = 0.40;
  double p_write = 0.30;
  double p_create = 0.10;
  double p_delete = 0.08;

  // Fraction of reads/writes that touch the whole file sequentially.
  double p_whole_file = 0.70;
  // Zipf skew for picking which file an op touches (higher = hotter set).
  double hot_skew = 1.0;
  // Fraction of created files that are short-lived, and their mean lifetime.
  double p_short_lived = 0.6;
  Duration short_lived_mean = 20 * kSecond;
  // Partial-op transfer size (mean, exponential) for non-whole-file I/O.
  uint64_t partial_io_bytes = 2048;
};

// Calibrated profiles.
WorkloadOptions OfficeWorkload();
WorkloadOptions WriteHotWorkload();
WorkloadOptions ReadMostlyWorkload();

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadOptions options);

  // Generates the full trace, including the initial mkdir/create/write
  // population phase at t=0..population, then the steady-state mix.
  Trace Generate();

 private:
  WorkloadOptions options_;
  Rng rng_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_TRACE_GENERATOR_H_
