#include "store/annoy_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "common/check.h"
#include "common/thread_pool.h"

namespace seesaw::store {

using linalg::VecSpan;

StatusOr<AnnoyIndex> AnnoyIndex::Build(const AnnoyOptions& options,
                                       linalg::MatrixF vectors) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("AnnoyIndex: empty vector table");
  }
  if (options.num_trees < 1) {
    return Status::InvalidArgument("AnnoyIndex: num_trees must be >= 1");
  }
  if (options.leaf_size < 2) {
    return Status::InvalidArgument("AnnoyIndex: leaf_size must be >= 2");
  }
  AnnoyIndex index(options, std::move(vectors));
  Rng rng(options.seed);
  const size_t n = index.vectors_.rows();
  index.leaf_items_.reserve(n * options.num_trees);

  std::vector<uint32_t> items(n);
  for (int t = 0; t < options.num_trees; ++t) {
    for (size_t i = 0; i < n; ++i) items[i] = static_cast<uint32_t>(i);
    Rng tree_rng = rng.Fork();
    index.roots_.push_back(
        index.BuildSubtree(items, 0, n, /*depth=*/0, tree_rng));
  }
  return index;
}

int32_t AnnoyIndex::BuildSubtree(std::vector<uint32_t>& items, size_t begin,
                                 size_t end, int depth, Rng& rng) {
  const size_t count = end - begin;
  const size_t d = vectors_.cols();
  // Depth cap guards against degenerate splits on duplicated vectors.
  constexpr int kMaxDepth = 64;
  if (count <= static_cast<size_t>(options_.leaf_size) || depth >= kMaxDepth) {
    Node leaf;
    leaf.items_begin = static_cast<uint32_t>(leaf_items_.size());
    for (size_t i = begin; i < end; ++i) leaf_items_.push_back(items[i]);
    leaf.items_end = static_cast<uint32_t>(leaf_items_.size());
    nodes_.push_back(leaf);
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  // Two-means style split: the perpendicular bisector of two random points.
  size_t ia = begin + static_cast<size_t>(
                          rng.UniformInt(0, static_cast<int64_t>(count) - 1));
  size_t ib = ia;
  for (int tries = 0; tries < 8 && ib == ia; ++tries) {
    ib = begin + static_cast<size_t>(
                     rng.UniformInt(0, static_cast<int64_t>(count) - 1));
  }
  VecSpan a = vectors_.Row(items[ia]);
  VecSpan b = vectors_.Row(items[ib]);

  std::vector<float> normal(d);
  float bias = 0.0f;
  bool degenerate = true;
  for (size_t j = 0; j < d; ++j) {
    normal[j] = a[j] - b[j];
    if (std::abs(normal[j]) > 1e-9f) degenerate = false;
  }
  if (!degenerate) {
    linalg::NormalizeInPlace(linalg::MutVecSpan(normal.data(), normal.size()));
    // Angular split (Annoy's mode for unit vectors): hyperplane through the
    // origin, so the margin is a pure cosine quantity.
    bias = 0.0f;
  } else {
    // All sampled pairs identical: random hyperplane through the centroid.
    Rng jitter = rng.Fork();
    auto rand_dir = [&jitter, d]() {
      std::vector<float> v(d);
      for (size_t j = 0; j < d; ++j)
        v[j] = static_cast<float>(jitter.Gaussian());
      linalg::NormalizeInPlace(linalg::MutVecSpan(v.data(), v.size()));
      return v;
    };
    normal = rand_dir();
    bias = 0.0f;
  }

  // Partition items by hyperplane side; ties split randomly for balance.
  size_t mid = begin;
  {
    std::vector<uint32_t> left, right;
    left.reserve(count);
    right.reserve(count);
    for (size_t i = begin; i < end; ++i) {
      float margin = bias + linalg::Dot(VecSpan(normal), vectors_.Row(items[i]));
      bool go_left = margin > 0 || (margin == 0 && rng.Bernoulli(0.5));
      (go_left ? left : right).push_back(items[i]);
    }
    // A lopsided split (all one side) would recurse forever; force a random
    // halving instead.
    if (left.empty() || right.empty()) {
      left.clear();
      right.clear();
      for (size_t i = begin; i < end; ++i) {
        (((i - begin) % 2 == 0) ? left : right).push_back(items[i]);
      }
    }
    std::copy(left.begin(), left.end(), items.begin() + begin);
    std::copy(right.begin(), right.end(),
              items.begin() + begin + left.size());
    mid = begin + left.size();
  }

  uint32_t hp_offset = static_cast<uint32_t>(hyperplanes_.size());
  hyperplanes_.insert(hyperplanes_.end(), normal.begin(), normal.end());

  int32_t left_id = BuildSubtree(items, begin, mid, depth + 1, rng);
  int32_t right_id = BuildSubtree(items, mid, end, depth + 1, rng);

  Node node;
  node.left = left_id;
  node.right = right_id;
  node.bias = bias;
  node.hyperplane_offset = hp_offset;
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size() - 1);
}

std::vector<SearchResult> AnnoyIndex::QueryOne(
    VecSpan query, size_t k, const SeenSet& seen,
    const ScanControl& control) const {
  SEESAW_CHECK_EQ(query.size(), vectors_.cols());
  if (control.ShouldStop()) return {};
  const size_t d = vectors_.cols();
  size_t search_k = options_.search_k != 0
                        ? options_.search_k
                        : static_cast<size_t>(options_.num_trees) * k * 8;
  search_k = std::max(search_k, k);

  // Best-first traversal over the forest: priority = smallest margin on the
  // path (how confidently the query lies on this side of every split).
  struct QueueEntry {
    float priority;
    int32_t node;
    bool operator<(const QueueEntry& o) const { return priority < o.priority; }
  };
  std::priority_queue<QueueEntry> frontier;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (int32_t root : roots_) frontier.push({kInf, root});

  // Candidate set deduplicated across trees so the search_k budget buys
  // distinct vectors.
  std::unordered_set<uint32_t> visited;
  std::vector<uint32_t> candidates;
  visited.reserve(search_k * 2);
  candidates.reserve(search_k * 2);
  while (!frontier.empty() && candidates.size() < search_k) {
    QueueEntry e = frontier.top();
    frontier.pop();
    const Node& node = nodes_[e.node];
    if (node.left < 0) {
      for (uint32_t i = node.items_begin; i < node.items_end; ++i) {
        if (visited.insert(leaf_items_[i]).second) {
          candidates.push_back(leaf_items_[i]);
        }
      }
      continue;
    }
    VecSpan normal(hyperplanes_.data() + node.hyperplane_offset, d);
    float margin = node.bias + linalg::Dot(normal, query);
    int32_t near = margin > 0 ? node.left : node.right;
    int32_t far = margin > 0 ? node.right : node.left;
    frontier.push({e.priority, near});
    frontier.push({std::min(e.priority, std::abs(margin)), far});
  }

  // Second checkpoint before the exact scoring pass: a cancel delivered
  // during the traversal skips the candidate scoring entirely.
  if (control.ShouldStop()) return {};
  std::vector<SearchResult> scored;
  scored.reserve(candidates.size());
  for (uint32_t id : candidates) {
    if (seen.Test(id)) continue;
    scored.push_back({id, linalg::Dot(vectors_.Row(id), query)});
  }
  size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    BetterResult);
  scored.resize(keep);
  return scored;
}

std::vector<std::vector<SearchResult>> AnnoyIndex::TopKBatch(
    std::span<const VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  std::vector<std::vector<SearchResult>> out(queries.size());
  auto run_query = [&](size_t q) {
    if (control.ShouldStop()) return;
    out[q] = QueryOne(queries[q], k, seen, control);
  };
  if (pool != nullptr && pool->num_threads() > 1 && queries.size() > 1) {
    pool->ParallelFor(queries.size(), [&](size_t begin, size_t end) {
      for (size_t q = begin; q < end; ++q) run_query(q);
    });
  } else {
    for (size_t q = 0; q < queries.size(); ++q) run_query(q);
  }
  return out;
}

}  // namespace seesaw::store
