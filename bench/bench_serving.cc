// Multi-tenant serving benchmark: closed-loop worker scaling of the
// ServingEngine (DESIGN.md §13).
//
// For each beam width in {1, 5} and worker count in {1, 2, 4, 8}, a
// fresh engine serves a fixed number of queries from 2 x workers
// closed-loop clients (each submits, waits for the answer, submits the
// next). Reports, and writes to BENCH_serving.json:
//   - completed QPS and e2e p50/p99 per (beam, workers) cell;
//   - the scaling ratio QPS(w) / QPS(1) per beam width;
//   - the commit, nproc and ISA tier the binary ran with (StampMachine),
//     so the record says which machine and code it describes.
//
//   ./build/bench/bench_serving [--smoke]
//
// --smoke trains a tiny corpus, submits the smoke queries concurrently
// through the engine and asserts every ServedResult is bitwise
// identical (tokens, float score bits, statuses) to the sequential
// pipeline.Query() answer, then skips the JSON write; CI uses it to
// gate Release builds. The committed BENCH_serving.json comes from a
// full local run.

#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
// Closed-loop clients block in Ticket::Take(), which the shared compute
// pool must never do; the bench drives the engine the way external
// clients would.
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "common/thread_pool.h"
#include "serving/serving.h"

namespace nlidb {
namespace bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// q-th percentile (0..1) of `samples`; sorts a copy.
uint64_t PercentileNs(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

core::QueryRequest RequestFor(const data::Example& ex) {
  core::QueryRequest request;
  request.schema_ref = core::SchemaRef::Table(ex.table.get());
  request.tokens = ex.tokens;
  request.collect_timings = false;
  return request;
}

struct LoadStats {
  double qps = 0.0;  // successfully answered queries / wall second
  long long ok = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

/// Serves `queries` requests through a fresh `workers`-worker engine
/// from 2 x workers closed-loop clients cycling through `corpus`.
LoadStats RunClosedLoop(const core::NlidbPipeline& pipeline,
                        const data::Dataset& corpus, int workers,
                        int queries) {
  serving::ServingOptions options;
  options.num_workers = workers;
  serving::ServingEngine engine(pipeline, options);

  const int num_clients = 2 * workers;
  std::atomic<int> next{0};
  std::vector<std::vector<uint64_t>> e2e(num_clients);
  // nlidb-lint: disable(raw-thread)
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  const uint64_t start = NowNs();
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = next.fetch_add(1); i < queries; i = next.fetch_add(1)) {
        const data::Example& ex = corpus.examples[i % corpus.examples.size()];
        serving::ServedResult served = engine.Query(RequestFor(ex));
        if (served.status.ok()) e2e[c].push_back(served.e2e_ns);
      }
    });
  }
  for (auto& client : clients) client.join();
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  engine.Shutdown();

  std::vector<uint64_t> all;
  for (const auto& shard : e2e) all.insert(all.end(), shard.begin(), shard.end());
  LoadStats stats;
  stats.ok = static_cast<long long>(all.size());
  stats.qps = wall_s > 0 ? static_cast<double>(stats.ok) / wall_s : 0.0;
  stats.p50_ns = PercentileNs(all, 0.5);
  stats.p99_ns = PercentileNs(all, 0.99);
  return stats;
}

/// Smoke gate: submit every smoke query through the engine several
/// times concurrently and require each ServedResult to match the
/// sequential pipeline answer bit for bit: same s^a tokens, same
/// translate_score float bits, same statuses.
bool SmokeEquivalence(const core::NlidbPipeline& pipeline,
                      const data::Dataset& corpus, int limit) {
  struct Expected {
    const data::Example* example;
    StatusOr<core::QueryResult> sequential;
  };
  std::vector<Expected> expected;
  int n = 0;
  for (const data::Example& ex : corpus.examples) {
    expected.push_back({&ex, pipeline.Query(RequestFor(ex))});
    if (++n >= limit) break;
  }

  serving::ServingOptions options;
  options.num_workers = 4;
  serving::ServingEngine engine(pipeline, options);

  const int kRounds = 4;
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  std::vector<size_t> which;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < expected.size(); ++i) {
      tickets.push_back(engine.Submit(RequestFor(*expected[i].example)));
      which.push_back(i);
    }
  }
  int compared = 0;
  for (size_t t = 0; t < tickets.size(); ++t) {
    serving::ServedResult served = tickets[t]->Take();
    const Expected& exp = expected[which[t]];
    if (served.status.ok() != exp.sequential.ok()) {
      std::printf("SMOKE FAIL: query %zu status diverged (%s vs %s)\n",
                  which[t], served.status.ToString().c_str(),
                  exp.sequential.status().ToString().c_str());
      return false;
    }
    if (!served.status.ok()) continue;
    const core::QueryResult& seq = exp.sequential.value();
    if (served.result.annotated_sql != seq.annotated_sql) {
      std::printf("SMOKE FAIL: query %zu decoded s^a diverged\n", which[t]);
      return false;
    }
    uint32_t served_bits = 0;
    uint32_t seq_bits = 0;
    std::memcpy(&served_bits, &served.result.translate_score,
                sizeof(served_bits));
    std::memcpy(&seq_bits, &seq.translate_score, sizeof(seq_bits));
    if (served_bits != seq_bits) {
      std::printf(
          "SMOKE FAIL: query %zu score bits diverged (%08x vs %08x)\n",
          which[t], served_bits, seq_bits);
      return false;
    }
    ++compared;
  }
  std::printf("smoke: engine matched sequential on %d served queries\n",
              compared);
  return true;
}

int RunSmoke() {
  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>(48);
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = core::ModelConfig::Tiny();
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);
  ThreadPool::SetGlobalParallelism(1);
  const bool ok = SmokeEquivalence(*pipeline, env.splits.test, 4);
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
  return ok ? 0 : 1;
}

int Run() {
  // The perfbench corpus shape (36 tables, Small model): per-query cost
  // is model-bound, so the sweep measures how the engine spreads real
  // decode work over cores rather than harness overhead.
  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = EnvTables(36);
  gc.questions_per_table = 8;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);

  const int queries = 1200;
  FlatJson json;
  StampMachine(json);
  json.Set("serving_queries", queries);
  json.Set("serving_test_examples",
           static_cast<int>(env.splits.test.examples.size()));

  for (const int beam : {1, 5}) {
    // beam_width only affects inference, and training is seeded, so the
    // two pipelines carry identical weights.
    env.config = core::ModelConfig::Small();
    env.config.word_dim = env.provider->dim();
    env.config.beam_width = beam;
    auto pipeline = TrainPipeline(env);
    // Workers are the unit of concurrency under test; the inner compute
    // pool stays at 1 thread so the two parallelism layers do not fight
    // over cores (the kernel contract keeps results identical either
    // way).
    ThreadPool::SetGlobalParallelism(1);
    // Warm caches (embeddings, column stats) outside the timed runs.
    RunClosedLoop(*pipeline, env.splits.test, 1,
                  static_cast<int>(env.splits.test.examples.size()));

    double qps_w1 = 0.0;
    for (const int workers : {1, 2, 4, 8}) {
      const LoadStats stats =
          RunClosedLoop(*pipeline, env.splits.test, workers, queries);
      if (workers == 1) qps_w1 = stats.qps;
      const double scaling = qps_w1 > 0 ? stats.qps / qps_w1 : 0.0;
      const std::string sfx =
          "beam" + std::to_string(beam) + "_w" + std::to_string(workers);
      std::printf(
          "beam %d  w%d  %7.0f qps  ok %4lld/%d  p50 %7.2f ms  "
          "p99 %7.2f ms  x%.2f vs w1\n",
          beam, workers, stats.qps, stats.ok, queries, stats.p50_ns / 1e6,
          stats.p99_ns / 1e6, scaling);
      json.Set("serving_qps_" + sfx, stats.qps);
      json.Set("serving_ok_" + sfx, stats.ok);
      json.Set("serving_p50_ns_" + sfx, static_cast<double>(stats.p50_ns));
      json.Set("serving_p99_ns_" + sfx, static_cast<double>(stats.p99_ns));
      json.Set("serving_scaling_" + sfx, scaling);
    }
    ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
  }

  if (!json.Save(ServingJsonPath())) {
    std::printf("cannot write %s\n", ServingJsonPath());
    return 1;
  }
  std::printf("wrote %s (%zu keys)\n", ServingJsonPath(), json.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  nlidb::bench::PrintHeader("Multi-tenant serving: closed-loop worker scaling");
  return smoke ? nlidb::bench::RunSmoke() : nlidb::bench::Run();
}
