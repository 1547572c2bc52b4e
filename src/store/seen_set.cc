#include "store/seen_set.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace seesaw::store {

void SeenSet::Resize(size_t capacity) {
  words_.resize((capacity + 63) / 64, 0);
  capacity_ = capacity;
  // Drop bits past the new capacity so count_ stays consistent.
  if (capacity % 64 != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (capacity % 64)) - 1;
  }
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
  count_ = c;
}

void SeenSet::Set(uint32_t id) {
  SEESAW_CHECK_LT(id, capacity_);
  uint64_t& w = words_[id >> 6];
  uint64_t bit = uint64_t{1} << (id & 63);
  if ((w & bit) == 0) {
    w |= bit;
    ++count_;
  }
}

void SeenSet::Reset(uint32_t id) {
  SEESAW_CHECK_LT(id, capacity_);
  uint64_t& w = words_[id >> 6];
  uint64_t bit = uint64_t{1} << (id & 63);
  if ((w & bit) != 0) {
    w &= ~bit;
    --count_;
  }
}

SeenSet SeenSet::Slice(uint32_t begin, uint32_t end) const {
  SEESAW_CHECK_LE(begin, end);
  SeenSet out(end - begin);
  if (out.capacity_ == 0 || begin >= capacity_) return out;

  // Bits [begin, limit) exist in this set; everything past limit is unseen
  // and stays zero in the fresh slice.
  const size_t limit = std::min<size_t>(end, capacity_);
  const size_t nbits = limit - begin;
  const size_t first_word = begin >> 6;
  const size_t shift = begin & 63;
  const size_t out_words = (nbits + 63) / 64;
  for (size_t w = 0; w < out_words; ++w) {
    uint64_t bits = words_[first_word + w] >> shift;
    if (shift != 0 && first_word + w + 1 < words_.size()) {
      bits |= words_[first_word + w + 1] << (64 - shift);
    }
    out.words_[w] = bits;
  }
  // Mask stray bits past nbits: they belong to ids outside [begin, limit)
  // and would corrupt count()/operator== otherwise.
  if (size_t tail = nbits & 63; tail != 0) {
    out.words_[out_words - 1] &= (uint64_t{1} << tail) - 1;
  }
  size_t c = 0;
  for (uint64_t w : out.words_) c += static_cast<size_t>(std::popcount(w));
  out.count_ = c;
  return out;
}

size_t SeenSet::NextUnseenRuns(uint32_t* pos, uint32_t end, uint32_t max_run,
                               std::span<Run> out) const {
  SEESAW_CHECK_GT(max_run, uint32_t{0});
  // First id in [from, limit) whose seen bit equals `want_seen`, or limit.
  // Bits past capacity are stored zero and read as unseen — same as Test().
  auto next = [&](uint32_t from, uint32_t limit, bool want_seen) {
    const uint64_t flip = want_seen ? 0 : ~uint64_t{0};
    while (from < limit) {
      if (from >= capacity_) return want_seen ? limit : from;
      const uint64_t bits = (words_[from >> 6] ^ flip) >> (from & 63);
      if (bits != 0) {
        const uint64_t hit =
            static_cast<uint64_t>(from) + std::countr_zero(bits);
        return hit < limit ? static_cast<uint32_t>(hit) : limit;
      }
      from = (from | 63) == UINT32_MAX ? limit : (from | 63) + 1;
    }
    return limit;
  };
  size_t filled = 0;
  uint32_t p = *pos;
  while (filled < out.size()) {
    const uint32_t start = next(p, end, /*want_seen=*/false);
    if (start >= end) {
      p = end;
      break;
    }
    const uint32_t cap =
        start + static_cast<uint32_t>(std::min<uint64_t>(max_run, end - start));
    p = next(start + 1, cap, /*want_seen=*/true);
    out[filled++] = Run{start, p};
  }
  *pos = p;
  return filled;
}

void SeenSet::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  count_ = 0;
}

SeenSet SeenSet::FromWords(size_t capacity, std::vector<uint64_t> words) {
  SEESAW_CHECK_EQ(words.size(), (capacity + 63) / 64);
  SeenSet out;
  out.words_ = std::move(words);
  out.capacity_ = capacity;
  // Clear bits past capacity (a decoded payload is untrusted) so Test(),
  // count() and operator== keep their invariants.
  if (capacity % 64 != 0 && !out.words_.empty()) {
    out.words_.back() &= (uint64_t{1} << (capacity % 64)) - 1;
  }
  size_t c = 0;
  for (uint64_t w : out.words_) c += static_cast<size_t>(std::popcount(w));
  out.count_ = c;
  return out;
}

const SeenSet& EmptySeenSet() {
  static const SeenSet empty;
  return empty;
}

}  // namespace seesaw::store
