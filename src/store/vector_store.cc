#include "store/vector_store.h"

#include <algorithm>
#include <unordered_set>

#include "common/thread_pool.h"

namespace seesaw::store {

namespace {

/// Keeps the best k of `merged` under BetterResult, best first.
std::vector<SearchResult> MergeTopK(std::vector<SearchResult> merged,
                                    size_t k) {
  if (merged.size() <= k) {
    std::sort(merged.begin(), merged.end(), BetterResult);
    return merged;
  }
  std::partial_sort(merged.begin(), merged.begin() + k, merged.end(),
                    BetterResult);
  merged.resize(k);
  return merged;
}

}  // namespace

std::vector<std::vector<SearchResult>> ScatterTopK(
    size_t num_parts, size_t num_queries, size_t k, ThreadPool* pool,
    std::span<const size_t> part_nodes, const PartScan& scan_part) {
  // parts[p] is written only by part p's task, and read after all finish.
  std::vector<std::vector<std::vector<SearchResult>>> parts(num_parts);
  auto run = [&](size_t p) { parts[p] = scan_part(p); };
  if (num_parts == 1 || pool == nullptr || pool->num_threads() <= 1) {
    for (size_t p = 0; p < num_parts; ++p) run(p);
  } else {
    std::vector<TaskHandle> handles;
    handles.reserve(num_parts);
    for (size_t p = 0; p < num_parts; ++p) {
      auto task = [&run, p] { run(p); };
      handles.push_back(part_nodes.empty()
                            ? pool->SubmitWithResult(task)
                            : pool->SubmitWithResult(task, part_nodes[p]));
    }
    // Back to front: this thread runs the parts still queued and parks only
    // on parts a worker already scans.
    for (auto it = handles.rbegin(); it != handles.rend(); ++it) it->Wait();
  }

  std::vector<std::vector<SearchResult>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<SearchResult> merged;
    for (auto& part : parts) {
      if (part.size() != num_queries) continue;  // stopped early or failed
      if (merged.empty()) {
        merged = std::move(part[q]);
      } else {
        merged.insert(merged.end(), part[q].begin(), part[q].end());
      }
    }
    out[q] = MergeTopK(std::move(merged), k);
  }
  return out;
}

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
