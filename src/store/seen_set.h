// SeenSet: fixed-capacity bitset over vector ids, the concrete exclusion
// type threaded through every store lookup.
//
// The paper's interactive loop (§2.2) never re-shows a patch the user has
// already inspected, so every TopK scan must skip the seen set. A bitset
// makes the skip cheap at any density: the exact scan never tests rows one
// by one but takes the unseen runs a bitmap word at a time
// (NextUnseenRuns), so a mostly-seen table costs a walk over its words
// plus the few unseen rows, and other backends test single ids with one
// AND (Test).
#ifndef SEESAW_STORE_SEEN_SET_H_
#define SEESAW_STORE_SEEN_SET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace seesaw::store {

/// Bitset over ids [0, capacity). Default-constructed sets are empty with
/// capacity 0; Test() on an id at or past capacity reports "not seen", so an
/// empty SeenSet is the natural "no exclusions" value.
class SeenSet {
 public:
  SeenSet() = default;
  explicit SeenSet(size_t capacity) { Resize(capacity); }

  /// Grows (or shrinks) to `capacity` ids; newly covered ids start unseen.
  void Resize(size_t capacity);

  /// Marks `id` as seen. `id` must be < capacity().
  void Set(uint32_t id);

  /// Unmarks `id`. `id` must be < capacity().
  void Reset(uint32_t id);

  /// Whether `id` is seen; ids at or past capacity are never seen.
  bool Test(uint32_t id) const {
    return id < capacity_ &&
           (words_[id >> 6] >> (id & 63) & uint64_t{1}) != 0;
  }

  /// Unmarks every id (capacity is unchanged).
  void Clear();

  /// The bits of [begin, end) as a new SeenSet over local ids [0, end-begin):
  /// out.Test(i) == this->Test(begin + i). Ids at or past this set's
  /// capacity read as unseen, so slicing past the end is well defined (an
  /// empty global set slices to an empty local set of any size). This is how
  /// ShardedStore derives each child's exclusion view from the session's
  /// global seen set; word-shift copy, O((end-begin)/64).
  SeenSet Slice(uint32_t begin, uint32_t end) const;

  /// A half-open interval [begin, end) of consecutive unseen ids.
  struct Run {
    uint32_t begin;
    uint32_t end;
  };

  /// The one seen-run walk of the store scan, a chunk at a time: writes up
  /// to out.size() maximal runs of consecutive unseen ids in [*pos, end)
  /// to `out`, each chopped into pieces of at most `max_run` ids, advances
  /// *pos past the last run written and returns how many were written (0
  /// when none are left). Resuming from *pos yields exactly the runs one
  /// large-enough call would. Ids at or past capacity are unseen, matching
  /// Test(). Walks the bitmap a word at a time.
  size_t NextUnseenRuns(uint32_t* pos, uint32_t end, uint32_t max_run,
                        std::span<Run> out) const;

  /// The backing bit words, least-significant bit of words()[0] is id 0;
  /// exactly ceil(capacity/64) entries with every bit past capacity zero.
  /// This is the serialization surface the wire protocol ships shard
  /// exclusions through (net/wire.h) — word order and the zero-padding
  /// invariant are wire contract.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Rebuilds a set from its words() serialization. `words` must hold
  /// exactly ceil(capacity/64) entries; bits past capacity are cleared (a
  /// hostile payload cannot smuggle out-of-range ids) and count() is
  /// recomputed. The inverse of words() for well-formed input.
  static SeenSet FromWords(size_t capacity, std::vector<uint64_t> words);

  size_t capacity() const { return capacity_; }

  /// Number of seen ids (maintained incrementally; O(1)).
  size_t count() const { return count_; }

  bool empty() const { return count_ == 0; }

  /// Equal when capacity matches and exactly the same ids are marked.
  /// O(capacity/64); bits past capacity are always zero, so word compare is
  /// exact. Used to validate speculative-prefetch snapshots.
  friend bool operator==(const SeenSet& a, const SeenSet& b) {
    return a.capacity_ == b.capacity_ && a.words_ == b.words_;
  }

 private:
  std::vector<uint64_t> words_;
  size_t capacity_ = 0;
  size_t count_ = 0;
};

/// Shared "no exclusions" instance for convenience overloads.
const SeenSet& EmptySeenSet();

}  // namespace seesaw::store

#endif  // SEESAW_STORE_SEEN_SET_H_
