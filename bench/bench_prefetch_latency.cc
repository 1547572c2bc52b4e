// Think-time speculative prefetch: perceived NextBatch latency and hit rate,
// prefetch off vs on, across store backends.
//
// The paper's latency analysis (§2.4, Table 6) measures what the user waits
// on between feedback rounds. With simulated per-image think time, the
// speculative pipeline overlaps the next lookup with inspection: a hit turns
// the perceived NextBatch latency into a handle wait, a miss recomputes
// synchronously and costs the same as prefetch-off. The zero-shot rows
// measure the same-query speculation; the seesaw rows measure speculation
// *through the refit* — the aligner runs during think time and the scan uses
// the predicted post-refit query, so `hit_rate_post_refit` was identically 0
// before refit speculation and should approach 1 with it. Refit() adopts the
// speculative fit instead of fitting again (`refit_adopted`), so
// `perceived_refit_ms` drops from a full fit to a handle wait. Every
// (backend, variant) cell also asserts the prefetch-on relevance sequence is
// identical to the prefetch-off one — speculation must never change results.
//
//   ./bench_prefetch_latency [--scale=0.3] [--dim=64] [--batch=8]
//                            [--think_ms=20] [--threads=0] [--shards=4]
//                            [--csv] [--json]
//
// With --csv, one
//   backend,variant,prefetch,hit_rate,hit_rate_post_refit,refit_fits,
//   refit_matches,refit_adopted,perceived_nextbatch_ms,perceived_refit_ms,
//   total_wait_ms
// row per cell goes to stdout (after a header) and the table is skipped.
// With --json, each cell is one JSON object per line (same fields plus
// think_ms); scripts/run_bench_suite.sh --json collects them into
// BENCH_prefetch.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/embedded_dataset.h"
#include "core/seesaw_searcher.h"
#include "data/profiles.h"
#include "eval/task_runner.h"

namespace seesaw::bench {
namespace {

struct PrefetchArgs {
  double scale = 0.3;
  size_t dim = 64;
  size_t batch = 8;
  double think_ms = 20.0;
  size_t threads = 0;  // 0 = hardware default
  size_t shards = 4;   // sharded-backend row
  bool csv = false;
  bool json = false;

  static PrefetchArgs Parse(int argc, char** argv) {
    PrefetchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--scale=", 8) == 0) args.scale = std::atof(a + 8);
      if (std::strncmp(a, "--dim=", 6) == 0) args.dim = std::atoi(a + 6);
      if (std::strncmp(a, "--batch=", 8) == 0) args.batch = std::atoi(a + 8);
      if (std::strncmp(a, "--think_ms=", 11) == 0) {
        args.think_ms = std::atof(a + 11);
      }
      if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      }
      if (std::strncmp(a, "--shards=", 9) == 0) args.shards = std::atoi(a + 9);
      if (std::strcmp(a, "--csv") == 0) args.csv = true;
      if (std::strcmp(a, "--json") == 0) args.json = true;
    }
    return args;
  }
};

struct CellResult {
  double hit_rate = 0.0;             // all consumed speculations
  double hit_rate_post_refit = 0.0;  // consumed with a predicted query
  size_t refit_fits = 0;             // speculative aligner fits launched
  size_t refit_matches = 0;          // refits landing on the predicted bits
  size_t refit_adopted = 0;          // refits installing the speculative fit
  double perceived_nextbatch_ms = 0.0;  // mean per round
  double perceived_refit_ms = 0.0;      // mean per round
  double total_wait_ms = 0.0;           // mean perceived per task
  std::vector<std::vector<char>> relevance;  // per concept, parity key
};

/// Drives every concept through a fresh searcher sharing `pool`, prefetch
/// per `policy`, and aggregates latency + speculation accounting.
CellResult RunCell(const core::EmbeddedDataset& embedded,
                   const data::Dataset& dataset,
                   const std::vector<size_t>& concepts,
                   const core::SeeSawOptions& base_options,
                   bool prefetch_enabled, const PrefetchArgs& args,
                   ThreadPool* pool) {
  eval::TaskOptions task;
  task.target_positives = 10;
  task.max_images = 60;
  task.batch_size = args.batch;
  task.think_seconds_per_image = args.think_ms / 1e3;

  core::SeeSawOptions options = base_options;
  options.prefetch.enabled = prefetch_enabled;

  CellResult cell;
  size_t hits = 0;
  size_t hits_post_refit = 0;
  size_t rounds = 0;
  double nextbatch_seconds = 0;
  double refit_seconds = 0;
  double perceived_seconds = 0;
  for (size_t concept_id : concepts) {
    core::SeeSawSearcher searcher(embedded, embedded.TextQuery(concept_id),
                                  options);
    searcher.set_thread_pool(pool);
    eval::TaskResult r =
        eval::RunSearchTask(searcher, dataset, concept_id, task);
    const core::PrefetchStats& stats = searcher.prefetch_stats();
    hits += stats.hits;
    hits_post_refit += stats.hits_post_refit;
    cell.refit_fits += stats.refit_fits;
    cell.refit_matches += stats.refit_matches;
    cell.refit_adopted += stats.refit_adopted;
    rounds += r.rounds;
    nextbatch_seconds += r.nextbatch_seconds;
    refit_seconds += r.refit_seconds;
    perceived_seconds += r.perceived_seconds;
    cell.relevance.push_back(r.relevance);
  }
  // A speculation can only serve rounds after the first of each task.
  size_t hit_opportunities = rounds > concepts.size()
                                 ? rounds - concepts.size()
                                 : 0;
  if (hit_opportunities > 0) {
    cell.hit_rate = static_cast<double>(hits) /
                    static_cast<double>(hit_opportunities);
    cell.hit_rate_post_refit = static_cast<double>(hits_post_refit) /
                               static_cast<double>(hit_opportunities);
  }
  cell.perceived_nextbatch_ms =
      rounds > 0 ? nextbatch_seconds * 1e3 / static_cast<double>(rounds) : 0;
  cell.perceived_refit_ms =
      rounds > 0 ? refit_seconds * 1e3 / static_cast<double>(rounds) : 0;
  cell.total_wait_ms =
      perceived_seconds * 1e3 / static_cast<double>(concepts.size());
  return cell;
}

int Run(int argc, char** argv) {
  PrefetchArgs args = PrefetchArgs::Parse(argc, argv);

  auto profile = data::BddLikeProfile(args.scale);
  profile.embedding_dim = args.dim;
  auto ds = data::Dataset::Generate(profile);
  SEESAW_CHECK(ds.ok()) << ds.status().ToString();
  auto concepts = ds->EvaluableConcepts(3);
  SEESAW_CHECK(!concepts.empty());
  if (concepts.size() > 6) concepts.resize(6);

  struct Variant {
    const char* name;
    core::SeeSawOptions options;
  };
  core::SeeSawOptions zero;
  zero.update_query = false;
  const std::vector<Variant> variants = {{"zero-shot", zero},
                                         {"seesaw", core::SeeSawOptions{}}};
  const core::StoreBackend backends[] = {
      core::StoreBackend::kExact, core::StoreBackend::kSharded,
      core::StoreBackend::kIvf, core::StoreBackend::kAnnoy};
  const char* backend_names[] = {"exact", "sharded", "ivf", "annoy"};

  ThreadPool pool(args.threads == 0 ? ThreadPool::DefaultThreads()
                                    : args.threads);

  if (args.csv) {
    std::printf(
        "backend,variant,prefetch,hit_rate,hit_rate_post_refit,refit_fits,"
        "refit_matches,refit_adopted,perceived_nextbatch_ms,"
        "perceived_refit_ms,total_wait_ms\n");
  } else if (!args.json) {
    std::printf(
        "Prefetch latency: scale=%.2f dim=%zu batch=%zu think=%.1fms "
        "threads=%zu shards=%zu concepts=%zu\n",
        args.scale, args.dim, args.batch, args.think_ms, pool.num_threads(),
        args.shards, concepts.size());
    std::printf("%-8s %-10s %-9s %9s %10s %7s %22s %18s %14s\n", "backend",
                "variant", "prefetch", "hit_rate", "post_refit", "adopted",
                "perceived_nextbatch_ms", "perceived_refit_ms",
                "total_wait_ms");
  }

  for (size_t b = 0; b < 4; ++b) {
    core::PreprocessOptions pre;
    pre.multiscale.enabled = false;
    pre.build_md = false;
    pre.backend = backends[b];
    pre.sharded.num_shards = args.shards;
    auto embedded = core::EmbeddedDataset::Build(*ds, pre);
    SEESAW_CHECK(embedded.ok()) << embedded.status().ToString();

    for (const Variant& variant : variants) {
      CellResult off = RunCell(*embedded, *ds, concepts, variant.options,
                               /*prefetch_enabled=*/false, args, &pool);
      CellResult on = RunCell(*embedded, *ds, concepts, variant.options,
                              /*prefetch_enabled=*/true, args, &pool);
      // Speculation must never change what the user sees.
      SEESAW_CHECK(off.relevance == on.relevance)
          << backend_names[b] << "/" << variant.name
          << ": prefetch changed the result sequence";
      for (int prefetch = 0; prefetch < 2; ++prefetch) {
        const CellResult& cell = prefetch ? on : off;
        if (args.csv) {
          std::printf("%s,%s,%s,%.3f,%.3f,%zu,%zu,%zu,%.4f,%.4f,%.3f\n",
                      backend_names[b], variant.name, prefetch ? "on" : "off",
                      cell.hit_rate, cell.hit_rate_post_refit,
                      cell.refit_fits, cell.refit_matches, cell.refit_adopted,
                      cell.perceived_nextbatch_ms, cell.perceived_refit_ms,
                      cell.total_wait_ms);
        } else if (args.json) {
          std::printf(
              "{\"backend\":\"%s\",\"variant\":\"%s\",\"prefetch\":\"%s\","
              "\"think_ms\":%.3f,\"hit_rate\":%.3f,"
              "\"hit_rate_post_refit\":%.3f,\"refit_fits\":%zu,"
              "\"refit_matches\":%zu,\"refit_adopted\":%zu,"
              "\"perceived_nextbatch_ms\":%.4f,"
              "\"perceived_refit_ms\":%.4f,\"total_wait_ms\":%.3f}\n",
              backend_names[b], variant.name, prefetch ? "on" : "off",
              args.think_ms, cell.hit_rate, cell.hit_rate_post_refit,
              cell.refit_fits, cell.refit_matches, cell.refit_adopted,
              cell.perceived_nextbatch_ms, cell.perceived_refit_ms,
              cell.total_wait_ms);
        } else {
          std::printf(
              "%-8s %-10s %-9s %9.3f %10.3f %7zu %22.4f %18.4f %14.3f\n",
              backend_names[b], variant.name, prefetch ? "on" : "off",
              cell.hit_rate, cell.hit_rate_post_refit, cell.refit_adopted,
              cell.perceived_nextbatch_ms, cell.perceived_refit_ms,
              cell.total_wait_ms);
        }
      }
    }
  }
  if (!args.json) {
    std::printf(
        "%sparity: prefetch-on == prefetch-off result sequences for every "
        "cell\n",
        args.csv ? "# " : "");
  }
  return 0;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) { return seesaw::bench::Run(argc, argv); }
