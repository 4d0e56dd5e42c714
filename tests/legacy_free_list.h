// The pre-index-pool storage-manager allocator: one free stack per resource,
// preloaded with n-1..0 so the lowest index pops first, frees pushed on top,
// and reservations erased from wherever they sit; plus a used flag per
// index. Superseded by IndexPool (src/storage/index_pool.h), which builds
// without filling an n-entry stack, and kept — with its allocation order and
// error codes untouched — as the reference the differential suite in
// storage_manager_test.cc replays randomized allocate/free/reserve sequences
// against, demanding identical results and free counts.
//
// Do not "fix" or optimise this class; its value is being the old behavior.

#ifndef SSMC_TESTS_LEGACY_FREE_LIST_H_
#define SSMC_TESTS_LEGACY_FREE_LIST_H_

#include <cstdint>
#include <vector>

#include "src/support/status.h"

namespace ssmc {

class LegacyFreeList {
 public:
  // `exhausted` is what Allocate returns once the stack is dry
  // (RESOURCE_EXHAUSTED for DRAM pages, NO_SPACE for flash blocks).
  LegacyFreeList(uint64_t n, Status exhausted);

  uint64_t free_count() const { return free_.size(); }
  bool used(uint64_t i) const { return i < used_.size() && used_[i]; }

  Result<uint64_t> Allocate();
  // OUT_OF_RANGE past the end, FAILED_PRECONDITION on a double free.
  Status Free(uint64_t i);
  // OUT_OF_RANGE past the end, ALREADY_EXISTS when in use.
  Status Reserve(uint64_t i);

 private:
  std::vector<uint64_t> free_;
  std::vector<bool> used_;
  Status exhausted_;
};

}  // namespace ssmc

#endif  // SSMC_TESTS_LEGACY_FREE_LIST_H_
