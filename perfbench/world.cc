// Data, set-up, stamping and reporting of the NLIDB benchmark.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "attack/mutator.h"
#include "bench.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/persistence.h"
#include "data/domain.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "serving/serving.h"
#include "sql/executor.h"

namespace nlidb {
namespace perfbench {

// The data is fixed by these constants; --seed shapes the traffic only
// (question order, arrival times, deadline tiers, onboarding order), so
// accuracy and per-request work compare across seeds and the bounds on
// them can stay tight. README.md records the resulting sizes.
namespace {

constexpr uint64_t kCorpusSeed = 1;     // training corpus
constexpr int kCorpusTables = 36;       // 70% train split -> ~200 examples
constexpr int kQuestionsPerTable = 8;
constexpr int kTrainProbeExamples = 8;  // retrained in every set-up

constexpr uint64_t kPoolSeed = 2;       // interactive / serve_open tables
constexpr int kPoolTables = 40;
constexpr int kPoolOnboardTables = 300; // first_answer_ms probe tables

constexpr uint64_t kRegistrySeed = 3;   // routed_onboard registry
constexpr int kRegistryTables = 1000;
constexpr int kRegistryOnboardTables = 600;
constexpr int kRegistryRows = 48;       // generator default is 12
constexpr int kWideEvery = 8;           // every 8th table is widened
constexpr int kWideColumns = 22;        // > default shortlist_k (16)

constexpr int kWarmupQueries = 16;

const WorkloadSpec kWorkloads[] = {
    {"interactive", /*routed=*/false, /*open_loop=*/false,
     /*latency_limit_ms=*/50.0},
    {"serve_open", false, true, 100.0},
    {"routed_onboard", true, false, 100.0},
};

data::GeneratorConfig CorpusConfig() {
  data::GeneratorConfig gc;
  gc.num_tables = kCorpusTables;
  gc.questions_per_table = kQuestionsPerTable;
  gc.seed = kCorpusSeed;
  return gc;
}

core::ModelConfig BenchModelConfig(const text::EmbeddingProvider& provider,
                                   bool greedy) {
  core::ModelConfig config = core::ModelConfig::Small();
  config.word_dim = provider.dim();
  if (greedy) config.beam_width = 1;
  return config;
}

std::shared_ptr<text::EmbeddingProvider> MakeProvider() {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);
  return provider;
}

/// Copy of `table` with filler columns appended up to kWideColumns, the
/// way bench_schema_scale builds its wide tables. Original columns keep
/// their indices, so the gold queries of the table's questions still
/// hold and return the same rows.
std::shared_ptr<const sql::Table> Widen(const sql::Table& table) {
  static const char* kFillers[] = {
      "population", "director", "county",   "film",   "year",   "price",
      "team",       "city",     "color",    "author", "title",  "length",
      "weight",     "height",   "speed",    "genre",  "artist", "album",
      "country",    "capital",  "river",    "mountain", "animal", "flower"};
  sql::Schema schema = table.schema();
  std::vector<std::string> added;
  for (const char* word : kFillers) {
    if (schema.num_columns() >= kWideColumns) break;
    if (schema.ColumnIndex(word) >= 0) continue;
    schema.AddColumn({word, sql::DataType::kText});
    added.push_back(word);
  }
  auto wide = std::make_shared<sql::Table>(table.name(), schema);
  for (int r = 0; r < table.num_rows(); ++r) {
    std::vector<sql::Value> row = table.Row(r);
    for (size_t i = 0; i < added.size(); ++i) {
      row.push_back(sql::Value::Text(added[i] + " " +
                                     std::to_string((r * 7 + i) % 23)));
    }
    if (!wide->AddRow(std::move(row)).ok()) return nullptr;
  }
  return wide;
}

bool GoldRows(const data::Example& ex, std::vector<sql::Value>* rows) {
  StatusOr<std::vector<sql::Value>> gold = sql::Execute(ex.query, *ex.table);
  if (!gold.ok()) return false;
  *rows = std::move(gold).value();
  return true;
}

/// Generates the workload's tables and questions (not yet registered).
bool BuildData(const WorkloadSpec& spec, World& w) {
  data::GeneratorConfig gc;
  if (spec.routed) {
    gc.num_tables = kRegistryTables + kRegistryOnboardTables;
    gc.questions_per_table = 1;
    gc.rows_per_table = kRegistryRows;
    gc.seed = kRegistrySeed;
  } else {
    gc.num_tables = kPoolTables + kPoolOnboardTables;
    gc.questions_per_table = kQuestionsPerTable;
    gc.seed = kPoolSeed;
  }
  w.rows_per_table = gc.rows_per_table;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  data::Dataset all = gen.Generate();
  const int registered = spec.routed ? kRegistryTables : kPoolTables;

  if (spec.routed) {
    for (size_t t = 0; t < all.tables.size(); ++t) {
      if (t % kWideEvery != 0) continue;
      std::shared_ptr<const sql::Table> wide = Widen(*all.tables[t]);
      if (wide == nullptr) return false;
      for (data::Example& ex : all.examples) {
        if (ex.table == all.tables[t]) ex.table = wide;
      }
      all.tables[t] = wide;
      if (static_cast<int>(t) < registered) ++w.wide_tables;
    }
  }

  // Split into registered tables (with their questions) and never-seen
  // onboarding tables (with their first question).
  std::vector<int> table_index_of;  // example -> table index
  for (const data::Example& ex : all.examples) {
    int idx = -1;
    for (size_t t = 0; t < all.tables.size() && idx < 0; ++t) {
      if (all.tables[t] == ex.table) idx = static_cast<int>(t);
    }
    table_index_of.push_back(idx);
  }
  for (int t = 0; t < static_cast<int>(all.tables.size()); ++t) {
    if (t < registered) w.corpus.tables.push_back(all.tables[t]);
  }
  std::vector<bool> onboard_taken(all.tables.size(), false);
  for (size_t i = 0; i < all.examples.size(); ++i) {
    const int t = table_index_of[i];
    if (t < 0) return false;
    if (t < registered) {
      w.corpus.examples.push_back(std::move(all.examples[i]));
    } else if (!onboard_taken[t]) {
      onboard_taken[t] = true;
      w.onboard_examples.push_back(std::move(all.examples[i]));
    }
  }
  w.registry_tables = registered;

  // routed_onboard mixes in answer-preserving mutants so context-free
  // matching misses and the classifier + influence path runs: a third of
  // the questions get a synonym swap, a third lose their column wording.
  if (spec.routed) {
    attack::MutationEngine engine(attack::MutationConfig{kRegistrySeed});
    w.extra.reserve(w.corpus.examples.size());
    for (size_t i = 0; i < w.corpus.examples.size(); ++i) {
      if (i % 3 == 0) continue;
      const attack::MutatorKind kind =
          i % 3 == 1 ? attack::MutatorKind::kSynonymSwap
                     : attack::MutatorKind::kImplicitColumn;
      Rng rng(kRegistrySeed * 1000003 + i);
      attack::Mutant m = engine.Mutate(w.corpus.examples[i], kind, rng);
      if (m.applied && attack::IsAnswerPreserving(kind)) {
        w.extra.push_back(std::move(m.example));
      }
    }
  }
  return true;
}

/// Builds the item list once ids are known. Questions whose gold query
/// cannot execute are dropped (none are expected; the count is printed).
int BuildItems(const WorkloadSpec& spec, World& w,
               const std::vector<schema::TableId>& ids) {
  int dropped = 0;
  auto add = [&](const data::Example& ex) {
    Item item;
    item.example = &ex;
    for (size_t t = 0; t < w.corpus.tables.size(); ++t) {
      if (w.corpus.tables[t] == ex.table) item.gold_id = ids[t];
    }
    item.ref = spec.routed ? schema::SchemaRef::Route()
                           : schema::SchemaRef::Id(item.gold_id);
    if (item.gold_id == schema::kInvalidTableId ||
        !GoldRows(ex, &item.gold_rows)) {
      ++dropped;
      return;
    }
    w.items.push_back(std::move(item));
  };
  // Routed questions replace their sources by the mutants where a
  // mutation applied, keeping one question per registered table.
  size_t next_extra = 0;
  for (size_t i = 0; i < w.corpus.examples.size(); ++i) {
    const data::Example& ex = w.corpus.examples[i];
    if (spec.routed && i % 3 != 0 && next_extra < w.extra.size() &&
        w.extra[next_extra].table == ex.table) {
      add(w.extra[next_extra++]);
    } else {
      add(ex);
    }
  }
  for (const data::Example& ex : w.onboard_examples) {
    Onboarding o;
    o.table = ex.table;
    o.example = &ex;
    if (!GoldRows(ex, &o.gold_rows)) {
      ++dropped;
      continue;
    }
    w.onboard.push_back(std::move(o));
  }
  return dropped;
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

}  // namespace

// ---- timing and statistics ----------------------------------------------

uint64_t NowNs() { return trace::NowNs(); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

double TailQ(size_t n) {
  if (n <= 10) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<size_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
  rng.Shuffle(order);
  return order;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CounterSnapshot::CounterSnapshot(std::vector<std::string> names)
    : names_(std::move(names)) {
  auto& reg = metrics::MetricsRegistry::Global();
  for (const std::string& name : names_) {
    base_.push_back(reg.GetCounter(name).Value());
  }
}

int64_t CounterSnapshot::Delta(const std::string& name) const {
  auto& reg = metrics::MetricsRegistry::Global();
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return reg.GetCounter(name).Value() - base_[i];
  }
  return 0;
}

const std::vector<std::string>& WorkCounterNames() {
  static const std::vector<std::string> kNames = {
      "pipeline.queries",
      "seq2seq.decode_steps",
      "seq2seq.greedy_fallbacks",
      "annotator.classifier_columns_scored",
      "annotator.influence_fanouts",
      "gemm.dispatch.avx2",
      "gemm.dispatch.base",
      "schema.stats_hits",
      "schema.stats_computed",
      "schema.shortlist_queries",
      "schema.shortlist_pruned_columns",
      "schema.route_queries",
      "sql.rows_scanned",
      "sql.executions",
      "thread_pool.parallel_fors",
      "pipeline.recovery_failures",
      "pipeline.execution_failures",
      "serving.submitted",
      "serving.admitted",
      "serving.completed",
      "serving.shed",
      "serving.cancelled",
      "serving.rejected_queue_full",
      "serving.rejected_shutdown",
      "serving.batch.ticks",
      "serving.batch.rows",
  };
  return kNames;
}

// ---- report -------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Appends `"key": value` to a JSON object under construction.
void JsonField(std::string& out, const std::string& key,
               const std::string& raw_value) {
  if (out.size() > 1) out += ", ";
  out += JsonString(key) + ": " + raw_value;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, long long samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Print(bool correct, long long attempted, long long failed) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-38s %14.6f %-6s (n=%lld)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::string metrics = "{";
  for (const Metric& m : metrics_) {
    std::string obj = "{";
    JsonField(obj, "value", JsonNumber(m.value));
    JsonField(obj, "unit", JsonString(m.unit));
    obj += "}";
    JsonField(metrics, m.name, obj);
  }
  metrics += "}";
  std::string result = "{";
  JsonField(result, "correct", correct ? "true" : "false");
  JsonField(result, "attempted", std::to_string(attempted));
  JsonField(result, "failed", std::to_string(failed));
  JsonField(result, "metrics", metrics);
  result += "}";
  std::fflush(stderr);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

// ---- world --------------------------------------------------------------

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

double EnsureModel(const std::string& cache_dir) {
  auto provider = MakeProvider();
  {
    core::NlidbPipeline probe(BenchModelConfig(*provider, false), provider);
    if (core::LoadPipeline(probe, cache_dir).ok()) return 0.0;
  }
  const uint64_t t0 = NowNs();
  data::Splits splits = data::GenerateWikiSqlSplits(CorpusConfig());
  core::NlidbPipeline pipeline(BenchModelConfig(*provider, false), provider);
  pipeline.Train(splits.train);
  Status saved = core::SavePipeline(pipeline, cache_dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot save the model to %s: %s\n",
                 cache_dir.c_str(), saved.ToString().c_str());
    return -1.0;
  }
  const double seconds = Seconds(t0, NowNs());
  std::printf("[model] trained on %zu examples in %.1f s, cached in %s\n",
              splits.train.size(), seconds, cache_dir.c_str());
  return seconds;
}

std::unique_ptr<World> SetUp(const WorkloadSpec& spec,
                             const std::string& cache_dir) {
  auto w = std::make_unique<World>();
  const uint64_t t0 = NowNs();
  w->provider = MakeProvider();
  data::Splits splits = data::GenerateWikiSqlSplits(CorpusConfig());
  if (!BuildData(spec, *w)) {
    std::fprintf(stderr, "set-up: data generation failed\n");
    return nullptr;
  }
  const uint64_t t1 = NowNs();

  // Training runs in full once per checkout (EnsureModel); every set-up
  // retrains on a fixed slice so backward-pass cost stays in setup_s.
  const core::ModelConfig config = BenchModelConfig(*w->provider, spec.routed);
  {
    data::Dataset slice;
    slice.tables = splits.train.tables;
    for (int i = 0; i < kTrainProbeExamples &&
                    i < static_cast<int>(splits.train.examples.size());
         ++i) {
      slice.examples.push_back(splits.train.examples[i]);
    }
    core::NlidbPipeline probe(config, w->provider);
    probe.Train(slice);
  }
  const uint64_t t2 = NowNs();

  w->pipeline = std::make_unique<core::NlidbPipeline>(config, w->provider);
  Status loaded = core::LoadPipeline(*w->pipeline, cache_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "set-up: cannot load the model: %s\n",
                 loaded.ToString().c_str());
    return nullptr;
  }
  w->beam_width = config.beam_width;
  const uint64_t t3 = NowNs();

  std::vector<schema::TableId> ids;
  ids.reserve(w->corpus.tables.size());
  for (const auto& table : w->corpus.tables) {
    const uint64_t r0 = NowNs();
    StatusOr<schema::TableId> id =
        w->pipeline->mutable_registry().Register(table);
    w->register_us.push_back(static_cast<double>(NowNs() - r0) / 1e3);
    if (!id.ok()) {
      std::fprintf(stderr, "set-up: register failed: %s\n",
                   id.status().ToString().c_str());
      return nullptr;
    }
    ids.push_back(*id);
  }
  const uint64_t t4 = NowNs();

  const int dropped = BuildItems(spec, *w, ids);
  if (dropped != 0 || w->items.empty()) {
    std::fprintf(stderr, "set-up: %d questions have no executable gold\n",
                 dropped);
    return nullptr;
  }
  for (int i = 0; i < kWarmupQueries && i < static_cast<int>(w->items.size());
       ++i) {
    core::QueryRequest request;
    request.schema_ref = w->items[i].ref;
    request.question = w->items[i].example->question;
    if (!w->pipeline->Query(request).ok()) {
      std::fprintf(stderr, "set-up: warm-up query failed\n");
      return nullptr;
    }
  }
  const uint64_t t5 = NowNs();
  w->gen_s = Seconds(t0, t1);
  w->train_probe_s = Seconds(t1, t2);
  w->load_s = Seconds(t2, t3);
  w->register_s = Seconds(t3, t4);
  w->warmup_s = Seconds(t4, t5);
  return w;
}

void PrintStamp(const Args& args, const WorkloadSpec& spec, const World& w) {
  auto& reg = metrics::MetricsRegistry::Global();
  const bool avx2 = reg.GetCounter("gemm.dispatch.avx2").Value() > 0;
  const bool base = reg.GetCounter("gemm.dispatch.base").Value() > 0;
  const serving::ServingOptions serving_options;
  const schema::SchemaRegistryOptions& ro = w.pipeline->registry().options();
  std::string s = "{";
  JsonField(s, "workload", JsonString(spec.name));
  JsonField(s, "seed", std::to_string(args.seed));
  JsonField(s, "seconds", JsonNumber(args.seconds));
  JsonField(s, "trace", args.trace ? "1" : "0");
  JsonField(s, "commit", JsonString(args.commit));
  JsonField(s, "source_tree", JsonString(args.source_tree));
  JsonField(s, "nproc",
            std::to_string(std::thread::hardware_concurrency()));
  JsonField(s, "isa_tier",
            JsonString(avx2 ? "avx2" : (base ? "base" : "none")));
  JsonField(s, "model_preset", JsonString("Small"));
  JsonField(s, "beam_width", std::to_string(w.beam_width));
  JsonField(s, "pool_parallelism",
            std::to_string(w.pipeline->config().ResolveNumThreads()));
  JsonField(s, "corpus_seed", std::to_string(kCorpusSeed));
  JsonField(s, "corpus_tables", std::to_string(kCorpusTables));
  JsonField(s, "train_probe_examples", std::to_string(kTrainProbeExamples));
  JsonField(s, "data_seed",
            std::to_string(spec.routed ? kRegistrySeed : kPoolSeed));
  JsonField(s, "questions", std::to_string(w.items.size()));
  JsonField(s, "registry_tables", std::to_string(w.registry_tables));
  JsonField(s, "wide_tables", std::to_string(w.wide_tables));
  JsonField(s, "rows_per_table", std::to_string(w.rows_per_table));
  JsonField(s, "onboard_tables", std::to_string(w.onboard.size()));
  JsonField(s, "schema_mode",
            JsonString(ro.mode == schema::ScanMode::kShortlist ? "shortlist"
                                                               : "full"));
  JsonField(s, "shortlist_k", std::to_string(ro.shortlist_k));
  JsonField(s, "latency_limit_ms", JsonNumber(spec.latency_limit_ms));
  if (spec.open_loop) {
    JsonField(s, "serving_num_workers",
              std::to_string(std::thread::hardware_concurrency()));
    JsonField(s, "serving_queue_capacity",
              std::to_string(serving_options.queue_capacity));
    JsonField(s, "serving_shed_factor",
              JsonNumber(serving_options.shed_factor));
    std::string rates = "[";
    for (double r : LadderRates()) {
      if (rates.size() > 1) rates += ", ";
      rates += JsonNumber(r);
    }
    JsonField(s, "ladder_qps", rates + "]");
    JsonField(s, "reference_qps", JsonNumber(LadderRates()[0]));
  }
  s += "}";
  std::printf("stamp %s\n", s.c_str());
}

uint32_t ScoreBits(float score) {
  uint32_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

Score ScoreResult(const core::QueryResult& result, const data::Example& gold,
                  const std::vector<sql::Value>& gold_rows) {
  Score score;
  score.answered = result.query.has_value() && result.rows.has_value();
  if (result.table_name != gold.table->name()) return score;
  if (result.rows.has_value()) {
    score.ex = sql::ResultsEqual(*result.rows, gold_rows);
  }
  if (result.query.has_value()) {
    score.qm = eval::QueryMatch(*result.query, gold.query, gold.schema());
  }
  return score;
}

}  // namespace perfbench
}  // namespace nlidb
