#include "store/vector_store.h"

#include <unordered_set>

namespace seesaw::store {

double RecallAgainst(const std::vector<SearchResult>& got,
                     const std::vector<SearchResult>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<uint32_t> got_ids;
  got_ids.reserve(got.size() * 2);
  for (const SearchResult& g : got) got_ids.insert(g.id);
  // Dedup truth before counting: set membership is not consumed, so a truth
  // id repeated r times used to count r hits against a single candidate and
  // inflate recall.
  std::unordered_set<uint32_t> truth_ids;
  truth_ids.reserve(truth.size() * 2);
  for (const SearchResult& t : truth) truth_ids.insert(t.id);
  size_t hits = 0;
  for (uint32_t id : truth_ids) hits += got_ids.count(id);
  return static_cast<double>(hits) / static_cast<double>(truth_ids.size());
}

}  // namespace seesaw::store
