// Cache-line layout primitives for the hot-path memory audit.
//
// Two distinct problems, one mechanism:
//
//  - *False sharing*: two logically independent fields written by different
//    threads land on one 64-byte cache line, so every write by one core
//    invalidates the other core's line and both pay a coherence round trip.
//    The classic shape in this repo is a block of contended atomics declared
//    back to back (admission counters next to stat counters in SeeSawServer).
//
//  - *Shared-line churn around a spinning reader*: a thread polling an
//    atomic re-fetches the line on every probe; if unrelated writes keep
//    dirtying that line, the poll loop degrades into a coherence storm even
//    though the flag itself never changes.
//
// The fix is the same for both: give each contended field its own cache
// line via alignas. CacheAligned<T> packages that so call sites say what
// they mean, and scripts/check_invariants.py (rule `atomic-layout`) flags
// structs that pack contended atomics without either this annotation or a
// documented exemption.
//
// kCacheLineSize is fixed at 64 rather than read from
// std::hardware_destructive_interference_size: the interference constants
// are not ABI-stable across GCC versions (GCC even warns on use), and every
// x86-64/AArch64 target this repo builds for has 64-byte lines (some Apple
// cores have 128-byte L2 lines; a miss there costs one extra shared line,
// not correctness).
#ifndef SEESAW_COMMON_ALIGNED_H_
#define SEESAW_COMMON_ALIGNED_H_

#include <cstddef>

namespace seesaw {

/// The coherence granularity padding targets (see header comment for why
/// this is a constant and not hardware_destructive_interference_size).
inline constexpr size_t kCacheLineSize = 64;

/// Wraps a field so it owns its cache line outright: the alignas places
/// `value` at a line boundary, and the alignment rounds sizeof up to a full
/// line, so nothing before *or* after shares the line. Use for contended
/// atomics (counters bumped by many threads, flags polled by waiters) that
/// would otherwise be packed against neighbors.
///
/// Deliberately a plain aggregate — access is `x.value`, not an implicit
/// conversion — so call sites stay greppable and the wrapper can't hide in
/// arithmetic.
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};
};

static_assert(sizeof(CacheAligned<char>) == kCacheLineSize,
              "CacheAligned must round its footprint up to one full line");
static_assert(alignof(CacheAligned<char>) == kCacheLineSize,
              "CacheAligned must start on a line boundary");

}  // namespace seesaw

#endif  // SEESAW_COMMON_ALIGNED_H_
