// Shared declarations of the NLIDB benchmark (see README.md in this
// directory for what each workload measures and why).
//
// The benchmark drives the shipped program from outside, the way an
// embedding application would: it trains or loads an `NlidbPipeline`,
// registers tables in its `SchemaRegistry`, sends questions through
// `Query()` or a `ServingEngine`, and reads the program's own counters
// by name from the metrics registry. It changes no program defaults.

#ifndef NLIDB_PERFBENCH_BENCH_H_
#define NLIDB_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/example.h"
#include "sql/value.h"

namespace nlidb {
namespace perfbench {

// ---- command line -------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;   // trained-model cache (created on first use)
  std::string spans_out;   // traced run: span dump (JSON lines)
  std::string commit;      // stamped into every record
  std::string source_tree; // content hash of the program sources
};

// ---- timing and statistics ----------------------------------------------

/// The program's own monotonic clock (trace::NowNs), so benchmark
/// timestamps and `ServedResult` durations share one time base.
uint64_t NowNs();

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The tail quantile the sample supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that leaves
/// ten samples above it.
double TailQ(size_t n);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// A seeded permutation of 0..n-1 (the order a client sends questions).
std::vector<size_t> Shuffled(size_t n, uint64_t seed);

/// The host's speed over the run. This benchmark runs on shared hosts
/// whose cores slow down by up to 2x for seconds to minutes at a time,
/// which moves every time the program takes with it. A sampler thread
/// times a fixed, benchmark-owned compute kernel (no program code) in
/// its own CPU time every 10 ms for the object's lifetime. A duration
/// measured at time t is multiplied by `Factor`, the kernel's nominal
/// time over its median time near t, so the benchmark reports times at
/// one nominal host speed. A program change cannot move the factor: the
/// kernel is compiled here and shares no code with the program.
class HostSpeed {
 public:
  HostSpeed();   // starts sampling
  ~HostSpeed();  // stops sampling
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Stops the sampler and waits for it; idempotent.
  void Stop();
  /// Nominal over measured kernel time near [t0_ns, t1_ns] (NowNs time
  /// base): below 1 when the host ran slow. 1 before any sample.
  double Factor(uint64_t t0_ns, uint64_t t1_ns) const;
  /// [t0_ns, t1_ns] in seconds at nominal speed.
  double NominalSeconds(uint64_t t0_ns, uint64_t t1_ns) const;
  /// Nominal over the median kernel time of the samples taken inside
  /// the given [begin, end] windows only (no widening); 1 if none.
  double FactorWithin(
      const std::vector<std::pair<uint64_t, uint64_t>>& windows) const;
  /// Sample count, kernel time quantiles and the median factor.
  std::string Summary() const;

 private:
  struct Entry {
    uint64_t at_ns;
    double kernel_ns;
  };
  void Sample();

  mutable std::mutex mu_;
  std::atomic<bool> stopping_{false};
  std::vector<Entry> samples_;  // ascending at_ns
  std::thread thread_;
};

/// Snapshot of a set of program counters, read by name so the
/// benchmark compiles against any program revision.
class CounterSnapshot {
 public:
  explicit CounterSnapshot(std::vector<std::string> names);
  /// Value of `name` now minus at construction.
  int64_t Delta(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<int64_t> base_;
};

/// The counters reported as deterministic per-request work.
const std::vector<std::string>& WorkCounterNames();

// ---- report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           long long samples);
  /// One human-readable line per metric, then the result object as the
  /// last line of standard output.
  void Print(bool correct, long long attempted, long long failed) const;

 private:
  std::vector<Metric> metrics_;
};

// ---- the workload world -------------------------------------------------

/// One question the load generator can send: its gold example, how the
/// request names its table, and the gold rows.
struct Item {
  const data::Example* example = nullptr;
  schema::SchemaRef ref;
  schema::TableId gold_id = schema::kInvalidTableId;
  std::vector<sql::Value> gold_rows;
};

/// A never-seen table plus the question asked right after registering it.
struct Onboarding {
  std::shared_ptr<const sql::Table> table;
  const data::Example* example = nullptr;
  std::vector<sql::Value> gold_rows;
};

/// Everything one set-up produces.
struct World {
  std::shared_ptr<text::EmbeddingProvider> provider;
  std::unique_ptr<core::NlidbPipeline> pipeline;
  data::Dataset corpus;             // registered tables and their questions
  std::vector<data::Example> extra; // mutants (routed_onboard)
  std::vector<Item> items;
  std::vector<data::Example> onboard_examples;
  std::vector<Onboarding> onboard;
  std::vector<double> register_us;  // per Register() call during set-up
  int beam_width = 0;
  int registry_tables = 0;
  int wide_tables = 0;
  int rows_per_table = 0;
  double gen_s = 0, train_probe_s = 0, load_s = 0, register_s = 0,
         warmup_s = 0;
};

/// Fixed description of a workload's data (the seed only shapes traffic).
struct WorkloadSpec {
  std::string name;
  bool routed = false;        // SchemaRef::Route() over a large registry
  bool open_loop = false;     // Poisson arrivals through a ServingEngine
  double latency_limit_ms = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Trains the benchmark model once per cache directory (the first run
/// in a checkout pays it) and returns the training seconds, or 0 when
/// the cache was already present. Returns a negative value on failure.
double EnsureModel(const std::string& cache_dir);

/// One timed set-up: corpus generation, a short training pass, model
/// load, table registration and warm-up. nullptr on failure.
std::unique_ptr<World> SetUp(const WorkloadSpec& spec,
                             const std::string& cache_dir);

/// Stamp printed before the result: commit, cores, ISA tier, model,
/// corpus, registry and serving configuration.
void PrintStamp(const Args& args, const WorkloadSpec& spec, const World& w);

/// Decode score bits, for bit-exact comparisons.
uint32_t ScoreBits(float score);

/// True when `result` answers `rows` correctly by execution and its SQL
/// matches the gold query canonically.
struct Score {
  bool answered = false;  // recovered and executed
  bool ex = false;
  bool qm = false;
};
Score ScoreResult(const core::QueryResult& result, const data::Example& gold,
                  const std::vector<sql::Value>& gold_rows);

// ---- runs ---------------------------------------------------------------

/// Untraced run: measures the end-to-end metrics. Returns the exit code.
int RunUntraced(const Args& args, const WorkloadSpec& spec);

/// Traced run: replays requests layer by layer and reports per-layer
/// metrics. Returns the exit code.
int RunTraced(const Args& args, const WorkloadSpec& spec);

/// Open-loop ladder through a ServingEngine (serve_open); shared by the
/// untraced run and the traced run's serving phase.
struct LadderResult {
  std::string failure;             // empty when every gate held
  long long attempted = 0, failed = 0, answered_errors = 0;
  long long warm_sent = 0;
  double max_qps_at_slo = 0;
  /// OK answers per second while saturated at the top rate: answers
  /// resolved during the top rung's send window, after its first
  /// quarter (in which the queue fills), per second.
  double saturated_qps = 0;
  /// The top rung's counting window and the OK answers resolved in it.
  uint64_t saturated_begin_ns = 0, saturated_end_ns = 0;
  long long saturated_ok = 0;
  /// Idle pauses right before and after the top rung: the host's speed
  /// for it is read there, because during it the program keeps every
  /// core busy and the kernel would read that load too.
  std::vector<std::pair<uint64_t, uint64_t>> idle_windows;
  double ref_attain = 0;
  std::vector<double> ref_latency_ms;  // OK requests at the reference rate
  std::vector<uint64_t> ref_sent_ns;   // their scheduled send times
  /// Requests, error statuses and unanswered OKs on the rungs below
  /// capacity (ok_rate); the rungs above shed by design.
  long long sub_attempted = 0, sub_failed = 0, sub_answered_errors = 0;
  long long ex_ok = 0, qm_ok = 0, scored = 0;
  std::vector<double> send_lag_ms;
  std::vector<double> queue_wait_ms, service_ms;
  long long route_hits = 0;
  std::vector<double> first_answer_ms;  // onboarding probes
  std::vector<uint64_t> first_answer_at_ns;  // their Register() times
};
LadderResult RunLadder(World& w, const WorkloadSpec& spec,
                       uint64_t seed, double seconds);

/// Offered rates of the serve_open ladder, ascending (requests/s). The
/// lowest is the reference rate.
const std::vector<double>& LadderRates();

}  // namespace perfbench
}  // namespace nlidb

#endif  // NLIDB_PERFBENCH_BENCH_H_
