#include "tests/legacy_free_list.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace ssmc {

LegacyFreeList::LegacyFreeList(uint64_t n, Status exhausted)
    : exhausted_(std::move(exhausted)) {
  free_.reserve(n);
  // Hand indices out from low addresses first.
  for (uint64_t i = n; i > 0; --i) {
    free_.push_back(i - 1);
  }
  used_.assign(n, false);
}

Result<uint64_t> LegacyFreeList::Allocate() {
  if (free_.empty()) {
    return exhausted_;
  }
  const uint64_t i = free_.back();
  free_.pop_back();
  used_[i] = true;
  return i;
}

Status LegacyFreeList::Free(uint64_t i) {
  if (i >= used_.size()) {
    return OutOfRangeError("no such index");
  }
  if (!used_[i]) {
    return FailedPreconditionError("double free of " + std::to_string(i));
  }
  used_[i] = false;
  free_.push_back(i);
  return Status::Ok();
}

Status LegacyFreeList::Reserve(uint64_t i) {
  if (i >= used_.size()) {
    return OutOfRangeError("no such index");
  }
  if (used_[i]) {
    return AlreadyExistsError(std::to_string(i) + " is already in use");
  }
  auto it = std::find(free_.begin(), free_.end(), i);
  assert(it != free_.end());
  free_.erase(it);
  used_[i] = true;
  return Status::Ok();
}

}  // namespace ssmc
