// Traced run: replays the workload's requests by calling each layer's
// public function in pipeline order, with one span per call kept in
// memory and written out at the end, and turns spans, probe timings and
// the program's counters into the per-layer metrics.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/lockdep.h"
#include "common/metrics.h"
#include "core/annotation.h"
#include "serving/serving.h"
#include "sql/executor.h"
#include "sql/query.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace perfbench {
namespace {

constexpr int kTracedRequests = 400;
constexpr int kServingProbeRequests = 200;
/// routed_onboard: one replayed request in this many registers a
/// never-seen table first.
constexpr int kOnboardEvery = 16;
constexpr int kServingProbeClients = 2;
/// Lock classes of the serving layer whose lockdep wait histograms make
/// up serving.lock_wait_us_p99.
constexpr const char* kServingMutexes[] = {"serving.queue", "serving.ticket",
                                           "serving.batch"};
/// The stage spans of a request must cover this share of its root span.
constexpr double kMinSpanCoverage = 0.95;

struct SpanRecord {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int id = 0;
  int parent = 0;
  int request = 0;
};

/// Single-threaded span recorder: spans nest by scope.
class Tracer {
 public:
  std::vector<SpanRecord> spans;
  int current = 0;
  int request = 0;
  int next_id = 1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), parent_(tracer.current) {
    record_.name = name;
    record_.id = tracer.next_id++;
    record_.parent = parent_;
    record_.request = tracer.request;
    tracer.current = record_.id;
    record_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    record_.end_ns = NowNs();
    tracer_.current = parent_;
    tracer_.spans.push_back(record_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int parent_;
  SpanRecord record_;
};

/// What one pass over a request produced, for the replay ≡ Query() gate.
struct Answer {
  Status status;
  std::vector<std::string> tokens;
  const sql::Table* table = nullptr;
  std::vector<std::string> annotated_sql;
  uint32_t score_bits = 0;
  bool greedy_fallback = false;
  std::string sql;  // empty when recovery failed
  bool recovered = false;
  bool executed = false;
  std::vector<sql::Value> rows;
};

/// The layer-by-layer replay of NlidbPipeline::Query.
Answer Replay(const core::NlidbPipeline& p, const std::string& question,
              const schema::SchemaRef& ref, Tracer& tracer) {
  Answer a;
  const schema::SchemaRegistry& reg = p.registry();
  ScopedSpan root(tracer, "request");
  {
    ScopedSpan s(tracer, "text.tokenize");
    a.tokens = text::Tokenize(question);
  }
  StatusOr<schema::Resolution> resolution = Status::Ok();
  {
    ScopedSpan s(tracer, "schema.resolve");
    resolution = reg.Resolve(ref, a.tokens);
  }
  if (!resolution.ok()) {
    a.status = resolution.status();
    return a;
  }
  const sql::Table& table = *resolution->table;
  a.table = &table;
  const schema::TableStatsEntry* entry = nullptr;
  {
    ScopedSpan s(tracer, "schema.entry");
    entry = &reg.EntryFor(table);
  }
  std::vector<int> shortlist;
  const std::vector<int>* shortlist_ptr = nullptr;
  {
    ScopedSpan s(tracer, "schema.shortlist");
    if (reg.mode() == schema::ScanMode::kShortlist &&
        table.num_columns() > reg.options().shortlist_k) {
      shortlist = reg.ShortlistColumns(a.tokens, table);
      shortlist_ptr = &shortlist;
    }
  }
  StatusOr<core::Annotation> annotation = Status::Ok();
  {
    ScopedSpan s(tracer, "core.annotate");
    core::Annotator::AnnotateDebug debug;
    annotation = p.annotator().Annotate(a.tokens, table, entry->stats,
                                        nullptr, nullptr, &debug,
                                        shortlist_ptr);
  }
  if (!annotation.ok()) {
    a.status = annotation.status();
    return a;
  }
  std::vector<std::string> qa;
  {
    ScopedSpan s(tracer, "core.build_qa");
    qa = core::BuildAnnotatedQuestion(a.tokens, *annotation, table.schema(),
                                      p.annotation_options());
  }
  StatusOr<core::Seq2SeqTranslator::Decoded> decoded = Status::Ok();
  {
    ScopedSpan s(tracer, "core.translate");
    decoded = p.translator().Decode(qa, nullptr);
  }
  if (!decoded.ok()) {
    a.status = decoded.status();
    return a;
  }
  a.annotated_sql = decoded->tokens;
  a.score_bits = ScoreBits(decoded->score);
  a.greedy_fallback = decoded->used_greedy_fallback;
  StatusOr<sql::SelectQuery> query = Status::Ok();
  {
    ScopedSpan s(tracer, "core.recover");
    query = core::RecoverSql(a.annotated_sql, *annotation, table.schema());
  }
  if (!query.ok()) return a;
  a.recovered = true;
  a.sql = sql::ToSql(*query, table.schema());
  StatusOr<std::vector<sql::Value>> rows = Status::Ok();
  {
    ScopedSpan s(tracer, "sql.execute");
    rows = sql::Execute(*query, table);
  }
  if (rows.ok()) {
    a.executed = true;
    a.rows = std::move(rows).value();
  }
  return a;
}

Answer FromQuery(const StatusOr<core::QueryResult>& result,
                 const schema::SchemaRegistry& reg) {
  Answer a;
  a.status = result.status();
  if (!result.ok()) return a;
  a.tokens = result->tokens;
  a.table = result->table_id != schema::kInvalidTableId
                ? reg.table(result->table_id)
                : nullptr;
  a.annotated_sql = result->annotated_sql;
  a.score_bits = ScoreBits(result->translate_score);
  a.greedy_fallback = result->degraded_greedy_decode;
  a.recovered = result->query.has_value();
  if (a.recovered && a.table != nullptr) {
    a.sql = sql::ToSql(*result->query, a.table->schema());
  }
  a.executed = result->rows.has_value();
  if (a.executed) a.rows = *result->rows;
  return a;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.status.ok() != b.status.ok()) return false;
  if (!a.status.ok()) return true;
  return a.table == b.table && a.annotated_sql == b.annotated_sql &&
         a.score_bits == b.score_bits && a.recovered == b.recovered &&
         a.sql == b.sql && a.executed == b.executed &&
         (!a.executed || sql::ResultsEqual(a.rows, b.rows));
}


/// Quantile of the contended waits of all kServingMutexes together: the
/// per-class histograms share bucket bounds, so their counts add up.
/// Interpolates within the bucket as Histogram::ApproxPercentileNs does.
double MergedWaitQuantileNs(double q, long long* count) {
  auto& reg = metrics::MetricsRegistry::Global();
  std::vector<int64_t> buckets(metrics::Histogram::kNumBuckets, 0);
  int64_t total = 0;
  for (const char* name : kServingMutexes) {
    const metrics::Histogram& h =
        reg.GetHistogram(std::string("mutex.") + name + ".wait_ns");
    for (int b = 0; b < metrics::Histogram::kNumBuckets; ++b) {
      buckets[static_cast<size_t>(b)] += h.BucketCount(b);
      total += h.BucketCount(b);
    }
  }
  *count = total;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  int64_t cum = 0;
  for (int b = 0; b < metrics::Histogram::kNumBuckets - 1; ++b) {
    const int64_t in_bucket = buckets[static_cast<size_t>(b)];
    if (in_bucket > 0 && static_cast<double>(cum + in_bucket) >= target) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(
                       metrics::Histogram::BucketUpperBoundNs(b - 1));
      const double hi =
          static_cast<double>(metrics::Histogram::BucketUpperBoundNs(b));
      const double frac = std::clamp(
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket),
          0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cum += in_bucket;
  }
  return static_cast<double>(metrics::Histogram::BucketUpperBoundNs(
      metrics::Histogram::kNumBuckets - 2));
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const SpanRecord& s : spans) {
    out << "{\"request\": " << s.request << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  if (EnsureModel(args.cache_dir) < 0) return 2;
  std::unique_ptr<World> w = SetUp(spec, args.cache_dir);
  if (w == nullptr) return 2;
  PrintStamp(args, spec, *w);
  core::NlidbPipeline& pipeline = *w->pipeline;
  const schema::SchemaRegistry& reg = pipeline.registry();

  const std::vector<size_t> order = Shuffled(w->items.size(), args.seed);

  Tracer tracer;
  tracer.spans.reserve(static_cast<size_t>(kTracedRequests) * 12);
  const std::vector<std::string>& names = WorkCounterNames();
  std::vector<int64_t> work(names.size(), 0);
  std::vector<double> untraced_ms;
  std::vector<double> register_us = w->register_us;
  bool correct = true;
  long long failed = 0;
  long long recover_fail = 0, execute_fail = 0, greedy = 0;
  long long requests = 0;
  size_t next_onboard = 0;

  struct Probe {
    std::vector<std::string> tokens;
    const sql::Table* table = nullptr;
  };
  std::vector<Probe> probes;

  // Replay pass. Each request runs once through Query() (untraced) and
  // once layer by layer, alternating which goes first, and the two
  // answers must agree.
  for (int r = 0; r < kTracedRequests; ++r) {
    tracer.request = r;
    std::string question;
    schema::SchemaRef ref;
    if (spec.routed && r % kOnboardEvery == kOnboardEvery - 1 &&
        next_onboard < w->onboard.size()) {
      const Onboarding& ob = w->onboard[next_onboard++];
      const uint64_t t0 = NowNs();
      StatusOr<schema::TableId> id = schema::kInvalidTableId;
      {
        ScopedSpan s(tracer, "schema.register");
        id = pipeline.mutable_registry().Register(ob.table);
      }
      register_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!id.ok()) {
        correct = false;
        std::printf("GATE FAILED: register: %s\n",
                    id.status().ToString().c_str());
        break;
      }
      question = ob.example->question;
      ref = schema::SchemaRef::Route();
    } else {
      const Item& item = w->items[order[static_cast<size_t>(r) % order.size()]];
      question = item.example->question;
      ref = item.ref;
    }
    core::QueryRequest request;
    request.schema_ref = ref;
    request.question = question;

    Answer traced;
    Answer untraced;
    auto run_query = [&] {
      const uint64_t t0 = NowNs();
      StatusOr<core::QueryResult> result = pipeline.Query(request);
      untraced_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      untraced = FromQuery(result, reg);
    };
    auto run_replay = [&] {
      const CounterSnapshot before(names);
      traced = Replay(pipeline, question, ref, tracer);
      for (size_t i = 0; i < names.size(); ++i) {
        work[i] += before.Delta(names[i]);
      }
    };
    if (r % 2 == 0) {
      run_query();
      run_replay();
    } else {
      run_replay();
      run_query();
    }
    ++requests;
    if (!SameAnswer(traced, untraced)) {
      correct = false;
      std::printf("GATE FAILED: traced replay differs from Query() for: %s\n",
                  question.c_str());
      break;
    }
    if (!traced.status.ok()) {
      ++failed;
      continue;
    }
    recover_fail += !traced.recovered;
    execute_fail += traced.recovered && !traced.executed;
    greedy += traced.greedy_fallback;
    probes.push_back({traced.tokens, traced.table});
  }
  auto work_of = [&](const std::string& name) -> double {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<double>(work[i]);
    }
    return 0.0;
  };

  // Probe pass: the annotator's inner functions as separate timed calls
  // (after the replay, so they do not disturb its counters).
  std::vector<double> mentions_us, classifier_us, value_us;
  for (const Probe& pr : probes) {
    const sql::Table& table = *pr.table;
    uint64_t t0 = NowNs();
    (void)pipeline.annotator().DetectColumnMentions(pr.tokens, table, nullptr);
    mentions_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    std::vector<std::vector<std::string>> columns;
    for (int c = 0; c < table.num_columns(); ++c) {
      columns.push_back(table.schema().column(c).DisplayTokens());
    }
    t0 = NowNs();
    (void)pipeline.classifier().PredictBatch(pr.tokens, columns);
    classifier_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    const std::vector<sql::ColumnStatistics>& stats = reg.StatsFor(table);
    t0 = NowNs();
    (void)pipeline.value_detector().Detect(pr.tokens, stats, nullptr);
    value_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  // Serving layer. serve_open replays its rate ladder; the closed-loop
  // workloads send their requests through an engine from two closed-loop
  // clients, which gives the serving layer's hand-off cost on their
  // traffic without a queue.
  auto& mreg = metrics::MetricsRegistry::Global();
  for (const char* name : kServingMutexes) {
    mreg.GetHistogram(std::string("mutex.") + name + ".wait_ns").Reset();
  }
  mreg.GetGauge("serving.queue_depth_peak").Reset();
  CounterSnapshot serving_counters(names);
  std::vector<double> queue_wait_ms, service_ms, send_lag_ms;
  lockdep::SetEnabled(true);
  if (spec.open_loop) {
    LadderResult lr = RunLadder(*w, spec, args.seed, args.seconds);
    if (!lr.failure.empty()) {
      correct = false;
      std::printf("GATE FAILED: %s\n", lr.failure.c_str());
    }
    queue_wait_ms = lr.queue_wait_ms;
    service_ms = lr.service_ms;
    send_lag_ms = lr.send_lag_ms;
  } else {
    serving::ServingOptions options;
    options.num_workers = static_cast<int>(std::thread::hardware_concurrency());
    serving::ServingEngine engine(pipeline, options);
    struct ClientLog {
      std::vector<double> queue_wait_ms, service_ms, send_lag_ms;
      std::string error;
    };
    std::vector<ClientLog> logs(kServingProbeClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kServingProbeClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<size_t>(c)];
        uint64_t prev_end = NowNs();
        for (int r = c; r < kServingProbeRequests; r += kServingProbeClients) {
          const Item& item =
              w->items[order[static_cast<size_t>(r) % order.size()]];
          core::QueryRequest request;
          request.schema_ref = item.ref;
          request.question = item.example->question;
          const uint64_t t0 = NowNs();
          log.send_lag_ms.push_back(static_cast<double>(t0 - prev_end) / 1e6);
          serving::ServedResult served = engine.Query(std::move(request));
          prev_end = NowNs();
          if (!served.status.ok()) {
            log.error = served.status.ToString();
            return;
          }
          log.queue_wait_ms.push_back(
              static_cast<double>(served.queue_wait_ns) / 1e6);
          log.service_ms.push_back(
              static_cast<double>(served.e2e_ns - served.queue_wait_ns) / 1e6);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    engine.Shutdown();
    for (const ClientLog& log : logs) {
      if (!log.error.empty()) {
        correct = false;
        std::printf("GATE FAILED: serving probe: %s\n", log.error.c_str());
      }
      queue_wait_ms.insert(queue_wait_ms.end(), log.queue_wait_ms.begin(),
                           log.queue_wait_ms.end());
      service_ms.insert(service_ms.end(), log.service_ms.begin(),
                        log.service_ms.end());
      send_lag_ms.insert(send_lag_ms.end(), log.send_lag_ms.begin(),
                         log.send_lag_ms.end());
    }
  }
  lockdep::SetEnabled(false);
  const double submitted =
      static_cast<double>(serving_counters.Delta("serving.submitted"));

  // Span statistics: per-name durations, and how much of each request's
  // root span its stage spans cover.
  std::vector<double> root_us;
  double root_total = 0, child_total = 0;
  std::vector<std::pair<std::string, std::vector<double>>> by_name;
  auto durations = [&](const std::string& name) -> std::vector<double>& {
    for (auto& [n, v] : by_name) {
      if (n == name) return v;
    }
    by_name.emplace_back(name, std::vector<double>());
    return by_name.back().second;
  };
  std::vector<int> root_of_id(static_cast<size_t>(tracer.next_id), 0);
  for (const SpanRecord& s : tracer.spans) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    durations(s.name).push_back(us);
    if (std::string(s.name) == "request") {
      root_us.push_back(us);
      root_total += us;
      root_of_id[static_cast<size_t>(s.id)] = 1;
    }
  }
  for (const SpanRecord& s : tracer.spans) {
    if (s.parent != 0 && root_of_id[static_cast<size_t>(s.parent)] == 1) {
      child_total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  const double coverage = Ratio(child_total, root_total);
  std::printf("trace spans %zu, stage spans cover %.4f of request time\n",
              tracer.spans.size(), coverage);
  if (coverage < kMinSpanCoverage) {
    correct = false;
    std::printf("GATE FAILED: stage spans cover %.4f < %.2f of request "
                "time\n",
                coverage, kMinSpanCoverage);
  }
  auto total = [&](const std::string& name) {
    double sum = 0;
    for (double v : durations(name)) sum += v;
    return sum;
  };
  const double n = static_cast<double>(std::max<long long>(1, requests));

  Report report;
  auto p50 = [&](const std::string& name, const std::string& metric) {
    std::vector<double>& v = durations(name);
    report.Add(metric, Quantile(v, 0.5), "us", static_cast<long long>(v.size()));
  };
  auto tail = [&](const std::string& name, const std::string& metric) {
    std::vector<double>& v = durations(name);
    report.Add(metric, Quantile(v, TailQ(v.size())), "us",
               static_cast<long long>(v.size()));
  };
  const long long nr = requests;
  p50("text.tokenize", "text.tokenize_us");
  p50("schema.resolve", "schema.resolve_us");
  tail("schema.resolve", "schema.resolve_us_p99");
  p50("schema.shortlist", "schema.shortlist_us");
  report.Add("schema.shortlist_pruned_ratio",
             Ratio(work_of("schema.shortlist_pruned_columns"),
                   work_of("annotator.classifier_columns_scored") +
                       work_of("schema.shortlist_pruned_columns")),
             "ratio", nr);
  report.Add("schema.register_us", Quantile(register_us, 0.5), "us",
             static_cast<long long>(register_us.size()));
  p50("schema.entry", "schema.entry_us");
  report.Add("schema.stats_hit_ratio",
             Ratio(work_of("schema.stats_hits"),
                   work_of("schema.stats_hits") +
                       work_of("schema.stats_computed")),
             "ratio", nr);
  p50("core.annotate", "core.annotate_us");
  tail("core.annotate", "core.annotate_us_p99");
  report.Add("core.annotate_share", Ratio(total("core.annotate"), root_total),
             "ratio", nr);
  report.Add("core.column_mentions_us", Quantile(mentions_us, 0.5), "us",
             static_cast<long long>(mentions_us.size()));
  report.Add("core.classifier_us", Quantile(classifier_us, 0.5), "us",
             static_cast<long long>(classifier_us.size()));
  report.Add("core.value_detect_us", Quantile(value_us, 0.5), "us",
             static_cast<long long>(value_us.size()));
  report.Add("core.classifier_columns_per_query",
             work_of("annotator.classifier_columns_scored") / n, "count", nr);
  report.Add("core.influence_fire_ratio",
             work_of("annotator.influence_fanouts") / n, "ratio", nr);
  p50("core.build_qa", "core.build_qa_us");
  p50("core.recover", "core.recover_us");
  report.Add("core.recover_fail_ratio", recover_fail / n, "ratio", nr);
  p50("core.translate", "core.translate_us");
  tail("core.translate", "core.translate_us_p99");
  report.Add("core.translate_share",
             Ratio(total("core.translate"), root_total), "ratio", nr);
  report.Add("core.decode_steps_per_query",
             work_of("seq2seq.decode_steps") / n, "count", nr);
  report.Add("core.translate_us_per_step",
             Ratio(total("core.translate"), work_of("seq2seq.decode_steps")),
             "us", nr);
  report.Add("core.greedy_fallback_ratio", greedy / n, "ratio", nr);
  p50("sql.execute", "sql.execute_us");
  report.Add("sql.rows_scanned_per_query", work_of("sql.rows_scanned") / n,
             "count", nr);
  report.Add("sql.execute_fail_ratio", execute_fail / n, "ratio", nr);
  report.Add("serving.queue_wait_ms_p50", Quantile(queue_wait_ms, 0.5), "ms",
             static_cast<long long>(queue_wait_ms.size()));
  report.Add("serving.queue_wait_ms_p99",
             Quantile(queue_wait_ms, TailQ(queue_wait_ms.size())), "ms",
             static_cast<long long>(queue_wait_ms.size()));
  report.Add("serving.service_ms_p50", Quantile(service_ms, 0.5), "ms",
             static_cast<long long>(service_ms.size()));
  report.Add("serving.shed_ratio",
             Ratio(static_cast<double>(serving_counters.Delta("serving.shed")),
                   submitted),
             "ratio", static_cast<long long>(submitted));
  report.Add(
      "serving.rejected_ratio",
      Ratio(static_cast<double>(
                serving_counters.Delta("serving.rejected_queue_full") +
                serving_counters.Delta("serving.rejected_shutdown")),
            submitted),
      "ratio", static_cast<long long>(submitted));
  const double ticks =
      static_cast<double>(serving_counters.Delta("serving.batch.ticks"));
  report.Add(
      "serving.batch_rows_per_tick",
      Ratio(static_cast<double>(serving_counters.Delta("serving.batch.rows")),
            ticks),
      "count", static_cast<long long>(ticks));
  report.Add("serving.queue_depth_peak",
             static_cast<double>(
                 mreg.GetGauge("serving.queue_depth_peak").Value()),
             "count", static_cast<long long>(submitted));
  long long lock_waits = 0;
  const double lock_wait_ns = MergedWaitQuantileNs(0.99, &lock_waits);
  report.Add("serving.lock_wait_us_p99", lock_wait_ns / 1e3, "us",
             lock_waits);
  report.Add("tensor.gemm_calls_per_query",
             (work_of("gemm.dispatch.avx2") + work_of("gemm.dispatch.base")) /
                 n,
             "count", nr);
  report.Add("common.pool_parallel_fors_per_query",
             work_of("thread_pool.parallel_fors") / n, "count", nr);
  report.Add("load.send_lag_ms_p99",
             Quantile(send_lag_ms, TailQ(send_lag_ms.size())), "ms",
             static_cast<long long>(send_lag_ms.size()));
  report.Add("trace.overhead_ratio",
             Ratio(Quantile(root_us, 0.5) / 1e3, Quantile(untraced_ms, 0.5)),
             "ratio", static_cast<long long>(root_us.size()));

  if (!WriteSpans(args.spans_out, tracer.spans)) {
    correct = false;
    std::printf("cannot write spans to %s\n", args.spans_out.c_str());
  } else if (!args.spans_out.empty()) {
    std::printf("spans written to %s\n", args.spans_out.c_str());
  }
  report.Print(correct, requests, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
}  // namespace nlidb
