// Untraced runs: closed-loop clients (interactive, routed_onboard) and
// the open-loop rate ladder through a ServingEngine (serve_open). These
// give the end-to-end metrics.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "serving/serving.h"

namespace nlidb {
namespace perfbench {
namespace {

constexpr int kSetups = 5;  // setup_s is the median of these
constexpr uint64_t kOnboardIntervalNs = 100000000;  // routed_onboard
// first_answer_ms on the direct-ref workloads: one probe per this many
// request slots (interactive) or reference-rate arrivals (serve_open).
constexpr int kProbeEverySlots = 25;
constexpr int kProbeEveryArrivals = 10;
/// A run whose generator fell behind its schedule by more than this
/// share of the latency limit (p99) measured the generator, not the
/// program; it is reported invalid and fails.
constexpr double kMaxSendLagShare = 0.25;
/// serve_open: idle pause before and after the top rung, in which the
/// host's speed for that rung is read.
constexpr uint64_t kIdlePauseNs = 500000000;

void SleepUntil(uint64_t at_ns) {
  const uint64_t now = NowNs();
  if (at_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at_ns - now));
  }
}

/// What sequential `Query()` returned for one item: the serve_open
/// bit-exactness oracle.
struct Expected {
  bool ok = false;
  std::vector<std::string> annotated_sql;
  uint32_t score_bits = 0;
};

std::vector<Expected> SequentialOracle(const World& w) {
  std::vector<Expected> oracle(w.items.size());
  for (size_t i = 0; i < w.items.size(); ++i) {
    core::QueryRequest request;
    request.schema_ref = w.items[i].ref;
    request.question = w.items[i].example->question;
    StatusOr<core::QueryResult> result = w.pipeline->Query(request);
    oracle[i].ok = result.ok();
    if (result.ok()) {
      oracle[i].annotated_sql = result->annotated_sql;
      oracle[i].score_bits = ScoreBits(result->translate_score);
    }
  }
  return oracle;
}

/// Register a never-seen table, then ask its first question; returns
/// the milliseconds from Register() to rows (negative on failure).
double FirstAnswerMs(core::NlidbPipeline& pipeline, const Onboarding& o,
                     bool routed, core::QueryResult* out, Status* status) {
  const uint64_t t0 = NowNs();
  StatusOr<schema::TableId> id = pipeline.mutable_registry().Register(o.table);
  if (!id.ok()) {
    *status = id.status();
    return -1.0;
  }
  core::QueryRequest request;
  request.schema_ref =
      routed ? schema::SchemaRef::Route() : schema::SchemaRef::Id(*id);
  request.question = o.example->question;
  StatusOr<core::QueryResult> result = pipeline.Query(request);
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  *status = result.status();
  if (result.ok()) *out = std::move(result).value();
  return ms;
}

struct Tally {
  long long attempted = 0, status_failed = 0, answered = 0, ok_within = 0;
  long long ex = 0, qm = 0, route_hits = 0;
  void Add(const Status& status, const core::QueryResult* result,
           const data::Example& gold, const std::vector<sql::Value>& rows,
           schema::TableId gold_id, double latency_ms, double limit_ms) {
    ++attempted;
    if (!status.ok()) {
      ++status_failed;
      return;
    }
    if (latency_ms <= limit_ms) ++ok_within;
    const Score s = ScoreResult(*result, gold, rows);
    answered += s.answered;
    ex += s.ex;
    qm += s.qm;
    route_hits += result->table_id == gold_id;
  }
  long long ok() const { return attempted - status_failed; }
};

void PrintWork(const CounterSnapshot& snap, long long requests) {
  for (const std::string& name : WorkCounterNames()) {
    const int64_t d = snap.Delta(name);
    if (d == 0) continue;
    std::printf("work %-38s %12.3f per request (total %lld over %lld)\n",
                name.c_str(), Ratio(static_cast<double>(d), requests),
                static_cast<long long>(d),
                requests);
  }
}

}  // namespace

namespace {

/// One phase of the open-loop schedule: an offered rate and its share
/// of --seconds.
struct Rung {
  double rate;
  double share;
};

// The fixed, absolute ladder (requests/s). On a 4-core shared host the
// program as of this benchmark saturates at 140-550 requests/s (the
// host's speed drifts by that much over tens of minutes), and with the
// cross-request batcher its latency already doubles at half that load.
// So it passes 60 and fails 1000 with room on both sides, and
// max_qps_at_slo does not flip between runs; a 2.5x capacity gain passes
// 1000 on a fast host and still fails 2500. The lowest rung is the
// reference rate: requests rarely overlap there, and it gets most of the
// time because its tail percentile needs samples. The top rung runs long
// enough to measure saturated throughput.
constexpr Rung kWarmup = {30, 1.0 / 24};
constexpr Rung kLadder[] = {
    {30, 14.0 / 24}, {60, 3.0 / 24}, {1000, 2.0 / 24}, {2500, 4.0 / 24}};
constexpr int kRungs = static_cast<int>(sizeof(kLadder) / sizeof(kLadder[0]));
/// The rungs below capacity, which every host passes: ok_rate counts
/// these. The rungs above capacity shed by design, and how much they
/// shed is capacity (throughput_qps, max_qps_at_slo), not errors.
constexpr int kSubCapacityRungs = 2;

}  // namespace

const std::vector<double>& LadderRates() {
  static const std::vector<double> kRates = [] {
    std::vector<double> rates;
    for (const Rung& r : kLadder) rates.push_back(r.rate);
    return rates;
  }();
  return kRates;
}

LadderResult RunLadder(World& w, const WorkloadSpec& spec,
                       uint64_t seed, double seconds) {
  LadderResult out;
  const std::vector<Expected> oracle = SequentialOracle(w);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const uint64_t limit_ns =
      static_cast<uint64_t>(spec.latency_limit_ms * 1e6);

  // Phase 0 is the warm-up; phase 1 + r is rung r.
  struct Phase {
    double rate = 0;
    double seconds = 0;
    long long sent = 0, ok = 0, ok_within = 0, failed = 0;
    long long backlog_at_end = 0;
    // OK answers resolved inside [window_begin, window_end): the send
    // window minus its first quarter, in which the queue fills.
    uint64_t window_begin_ns = 0, window_end_ns = 0;
    long long ok_in_window = 0;
    long long answered_errors = 0;
    std::vector<double> latency_ms;
    std::vector<uint64_t> sent_ns;  // scheduled send time per latency_ms
  };
  std::vector<Phase> phases(static_cast<size_t>(kRungs + 1));
  phases[0].rate = kWarmup.rate;
  phases[0].seconds = kWarmup.share * seconds;
  for (int r = 0; r < kRungs; ++r) {
    phases[r + 1].rate = kLadder[r].rate;
    phases[r + 1].seconds = kLadder[r].share * seconds;
  }

  struct Sent {
    std::shared_ptr<serving::ServingEngine::Ticket> ticket;
    size_t item = 0;
    size_t phase = 0;
    uint64_t lag_ns = 0;
    uint64_t submit_ns = 0;
    // first_answer_ms probe: Register() started at probe_start_ns.
    bool probe = false;
    uint64_t probe_start_ns = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> inbox;
  bool done_sending = false;
  std::atomic<long long> collected{0};

  CounterSnapshot counters(WorkCounterNames());
  serving::ServingOptions options;
  options.num_workers = nproc;
  serving::ServingEngine engine(*w.pipeline, options);

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::vector<size_t> order = Shuffled(w.items.size(), seed);
  std::string failure;

  // Collector: takes tickets in send order, checks each OK answer
  // against the sequential oracle bit for bit, and scores it.
  std::thread collector([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inbox.empty() || done_sending; });
        if (inbox.empty()) return;
        s = std::move(inbox.front());
        inbox.pop_front();
      }
      serving::ServedResult served = s.ticket->Take();
      if (s.probe) {
        if (served.status.ok()) {
          out.first_answer_ms.push_back(
              static_cast<double>(s.submit_ns + served.e2e_ns -
                                  s.probe_start_ns) /
              1e6);
          out.first_answer_at_ns.push_back(s.probe_start_ns);
        } else {
          std::lock_guard<std::mutex> lock(mu);
          if (failure.empty()) {
            failure = "onboarding probe failed: " + served.status.ToString();
          }
        }
        collected.fetch_add(1, std::memory_order_release);
        cv.notify_all();
        continue;
      }
      const Item& item = w.items[s.item];
      const Expected& exp = oracle[s.item];
      Phase& ph = phases[s.phase];
      const double latency_ms =
          static_cast<double>(s.lag_ns + served.e2e_ns) / 1e6;
      if (served.status.ok()) {
        ++ph.ok;
        ph.latency_ms.push_back(latency_ms);
        ph.sent_ns.push_back(s.submit_ns - s.lag_ns);
        const uint64_t done = s.submit_ns + served.e2e_ns;
        if (done >= ph.window_begin_ns && done < ph.window_end_ns) {
          ++ph.ok_in_window;
        }
        if (s.lag_ns + served.e2e_ns <= limit_ns) ++ph.ok_within;
        if (!exp.ok || served.result.annotated_sql != exp.annotated_sql ||
            ScoreBits(served.result.translate_score) != exp.score_bits) {
          std::lock_guard<std::mutex> lock(mu);
          if (failure.empty()) {
            failure = "served answer differs from sequential Query() for: " +
                      item.example->question;
          }
        }
        if (s.phase > 0) {
          const Score sc =
              ScoreResult(served.result, *item.example, item.gold_rows);
          out.ex_ok += sc.ex;
          out.qm_ok += sc.qm;
          ++out.scored;
          out.route_hits += served.result.table_id == item.gold_id;
          if (!sc.answered) {
            ++out.answered_errors;
            ++ph.answered_errors;
          }
          out.queue_wait_ms.push_back(
              static_cast<double>(served.queue_wait_ns) / 1e6);
          out.service_ms.push_back(
              static_cast<double>(served.e2e_ns - served.queue_wait_ns) /
              1e6);
        }
      } else {
        ++ph.failed;
      }
      collected.fetch_add(1, std::memory_order_release);
      cv.notify_all();
    }
  });

  // Pacing submitter: Poisson arrivals per phase; each request is timed
  // from its scheduled send time. Phases are separated by a drain so a
  // rung starts with an empty queue.
  auto& reg = metrics::MetricsRegistry::Global();
  auto resolved = [&] {
    return reg.GetCounter("serving.completed").Value() +
           reg.GetCounter("serving.shed").Value() +
           reg.GetCounter("serving.cancelled").Value() +
           reg.GetCounter("serving.rejected_queue_full").Value() +
           reg.GetCounter("serving.rejected_shutdown").Value();
  };
  long long probes_sent = 0;
  std::thread submitter([&] {
    size_t next_probe = 0;
    size_t next_item = 0;
    long long arrivals = 0;
    long long total_sent = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
      Phase& ph = phases[p];
      if (p + 1 == phases.size()) {
        const uint64_t idle = NowNs();
        SleepUntil(idle + kIdlePauseNs);
        out.idle_windows.push_back({idle, NowNs()});
      }
      const long long submitted0 = reg.GetCounter("serving.submitted").Value();
      const long long resolved0 = resolved();
      const uint64_t start = NowNs();
      const uint64_t end = start + static_cast<uint64_t>(ph.seconds * 1e9);
      long long phase_probes = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        ph.window_begin_ns = start + (end - start) / 4;
        ph.window_end_ns = end;
      }
      double t = static_cast<double>(start);
      for (;;) {
        const double u = static_cast<double>(rng.NextFloat());
        t += -std::log(1.0 - u) / ph.rate * 1e9;
        const uint64_t at = static_cast<uint64_t>(t);
        if (at >= end) break;
        const bool with_deadline = rng.NextFloat() < 0.5f;
        const size_t item = order[next_item++ % order.size()];
        SleepUntil(at);
        Sent s;
        core::QueryRequest request;
        // At the reference rate every 10th arrival onboards a
        // never-seen table and asks it its first question (first_answer_ms;
        // not one of the rung's requests).
        if (p == 1 &&
            ++arrivals % kProbeEveryArrivals == 0 &&
            next_probe < w.onboard.size()) {
          const Onboarding& ob = w.onboard[next_probe++];
          s.probe = true;
          s.probe_start_ns = NowNs();
          StatusOr<schema::TableId> id =
              w.pipeline->mutable_registry().Register(ob.table);
          request.schema_ref =
              schema::SchemaRef::Id(id.ok() ? *id : schema::kInvalidTableId);
          request.question = ob.example->question;
          s.submit_ns = NowNs();
          s.ticket = engine.Submit(std::move(request));
          ++probes_sent;
          ++phase_probes;
          std::lock_guard<std::mutex> lock(mu);
          inbox.push_back(std::move(s));
          cv.notify_all();
          continue;
        }
        const uint64_t now = NowNs();
        const uint64_t lag = now > at ? now - at : 0;
        request.schema_ref = w.items[item].ref;
        request.question = w.items[item].example->question;
        if (with_deadline) {
          request.deadline =
              Deadline::AfterNanos(lag < limit_ns ? limit_ns - lag : 0);
        }
        s.submit_ns = now;
        s.ticket = engine.Submit(std::move(request));
        s.item = item;
        s.phase = p;
        s.lag_ns = lag;
        if (p > 0) out.send_lag_ms.push_back(static_cast<double>(lag) / 1e6);
        {
          std::lock_guard<std::mutex> lock(mu);
          inbox.push_back(std::move(s));
        }
        cv.notify_all();
        ++ph.sent;
      }
      ph.backlog_at_end = (reg.GetCounter("serving.submitted").Value() -
                           submitted0) - (resolved() - resolved0);
      total_sent += ph.sent + phase_probes;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return collected.load(std::memory_order_acquire) == total_sent;
        });
      }
    }
    const uint64_t idle = NowNs();
    SleepUntil(idle + kIdlePauseNs);
    out.idle_windows.push_back({idle, NowNs()});
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
    cv.notify_all();
  });
  submitter.join();
  collector.join();
  engine.Shutdown();

  // Counter decomposition must balance exactly once the engine is idle.
  const long long submitted = counters.Delta("serving.submitted");
  const long long admitted = counters.Delta("serving.admitted");
  const long long rejected = counters.Delta("serving.rejected_queue_full") +
                             counters.Delta("serving.rejected_shutdown");
  const long long finished = counters.Delta("serving.completed") +
                             counters.Delta("serving.shed") +
                             counters.Delta("serving.cancelled");
  long long sent_total = 0;
  for (const Phase& ph : phases) sent_total += ph.sent;
  sent_total += probes_sent;
  if (submitted != admitted + rejected || admitted != finished ||
      submitted != sent_total) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "serving counters do not balance: sent %lld submitted %lld "
                  "admitted %lld rejected %lld finished %lld",
                  sent_total, submitted, admitted, rejected, finished);
    if (failure.empty()) failure = buf;
  }

  out.warm_sent = phases[0].sent;
  std::printf("phase warm-up     rate %7.1f qps  sent %5lld  ok %5lld  "
              "failed %5lld\n",
              phases[0].rate, phases[0].sent, phases[0].ok, phases[0].failed);
  for (int r = 0; r < kRungs; ++r) {
    const Phase& ph = phases[r + 1];
    const double attain = Ratio(ph.ok_within, ph.sent);
    const bool backlog_ok =
        ph.backlog_at_end <=
        nproc + static_cast<long long>(ph.rate * spec.latency_limit_ms / 1e3);
    const bool pass = attain >= 0.99 && backlog_ok;
    if (pass) out.max_qps_at_slo = ph.rate;
    out.attempted += ph.sent;
    out.failed += ph.failed;
    if (r < kSubCapacityRungs) {
      out.sub_attempted += ph.sent;
      out.sub_failed += ph.failed;
      out.sub_answered_errors += ph.answered_errors;
    }
    if (r == 0) {
      out.ref_attain = attain;
      out.ref_latency_ms = ph.latency_ms;
      out.ref_sent_ns = ph.sent_ns;
    }
    if (r == kRungs - 1) {
      out.saturated_qps =
          static_cast<double>(ph.ok_in_window) * 1e9 /
          static_cast<double>(ph.window_end_ns - ph.window_begin_ns);
      out.saturated_begin_ns = ph.window_begin_ns;
      out.saturated_end_ns = ph.window_end_ns;
      out.saturated_ok = ph.ok_in_window;
    }
    std::printf("phase rung %d%s rate %7.1f qps  sent %5lld  ok %5lld  "
                "failed %5lld  within-limit %.4f  p50 %8.2f ms  backlog %lld"
                "  %s\n",
                r, r == 0 ? "*" : " ", ph.rate, ph.sent, ph.ok,
                ph.failed, attain, Quantile(ph.latency_ms, 0.5),
                ph.backlog_at_end, pass ? "PASS" : "fail");
  }
  const double lag_p99 = Quantile(out.send_lag_ms, 0.99);
  const bool valid = lag_p99 <= kMaxSendLagShare * spec.latency_limit_ms;
  std::printf("load send_lag_p99 %.3f ms (limit %.1f ms) -> run %s\n",
              lag_p99, kMaxSendLagShare * spec.latency_limit_ms,
              valid ? "valid" : "INVALID");
  if (!valid && failure.empty()) {
    failure = "load generator ran late: send lag p99 above the stated share "
              "of the latency limit";
  }
  out.failure = failure;
  return out;
}

namespace {

/// Scales each of `ms`, measured from `at_ns[i]`, to nominal host speed.
std::vector<double> Nominal(const HostSpeed& host,
                            const std::vector<double>& ms,
                            const std::vector<uint64_t>& at_ns) {
  std::vector<double> out(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    out[i] = ms[i] * host.Factor(at_ns[i],
                                 at_ns[i] + static_cast<uint64_t>(ms[i] * 1e6));
  }
  return out;
}

}  // namespace

int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  HostSpeed host;
  if (EnsureModel(args.cache_dir) < 0) return 2;

  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const uint64_t t0 = NowNs();
    w = SetUp(spec, args.cache_dir);
    if (w == nullptr) return 2;
    const uint64_t t1 = NowNs();
    setup_s.push_back(host.NominalSeconds(t0, t1));
    std::printf("[setup %d] %.3f s (wall %.3f s): generate %.3f  train-slice "
                "%.3f  load %.3f  register %.3f  warm-up %.3f\n",
                i, setup_s.back(), static_cast<double>(t1 - t0) / 1e9,
                w->gen_s, w->train_probe_s, w->load_s, w->register_s,
                w->warmup_s);
  }
  PrintStamp(args, spec, *w);

  Report report;
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  report.Add("setup_s", Quantile(setup_s, 0.5), "s",
             static_cast<long long>(setup_s.size()));
  CounterSnapshot work(WorkCounterNames());
  long long work_requests = 0;

  if (spec.open_loop) {
    LadderResult lr = RunLadder(*w, spec, args.seed, args.seconds);
    work_requests = lr.warm_sent + lr.attempted;
    std::printf("phase measured    sent %5lld  ok %5lld  failed %5lld\n",
                lr.attempted, lr.attempted - lr.failed, lr.failed);
    const size_t n = lr.ref_latency_ms.size();
    const std::vector<double> latency =
        Nominal(host, lr.ref_latency_ms, lr.ref_sent_ns);
    std::printf("wall latency_p50 %.3f ms  saturated %.1f req/s\n",
                Quantile(lr.ref_latency_ms, 0.5), lr.saturated_qps);
    report.Add("latency_p50_ms", Quantile(latency, 0.5), "ms",
               static_cast<long long>(n));
    report.Add("latency_p99_ms", Quantile(latency, TailQ(n)), "ms",
               static_cast<long long>(n));
    report.Add("throughput_qps",
               Ratio(static_cast<double>(lr.saturated_ok),
                     static_cast<double>(lr.saturated_end_ns -
                                         lr.saturated_begin_ns) /
                         1e9 * host.FactorWithin(lr.idle_windows)),
               "req/s", static_cast<long long>(lr.attempted));
    report.Add("max_qps_at_slo", lr.max_qps_at_slo, "req/s",
               static_cast<long long>(LadderRates().size()));
    report.Add("slo_attain", lr.ref_attain, "ratio",
               static_cast<long long>(n));
    report.Add("ok_rate",
               Ratio(lr.sub_attempted - lr.sub_failed - lr.sub_answered_errors,
                     lr.sub_attempted),
               "ratio", lr.sub_attempted);
    report.Add("ex_acc", Ratio(lr.ex_ok, lr.scored), "ratio", lr.scored);
    report.Add("qm_acc", Ratio(lr.qm_ok, lr.scored), "ratio", lr.scored);
    report.Add("route_acc1", Ratio(lr.route_hits, lr.scored), "ratio",
               lr.scored);
    report.Add("first_answer_ms",
               Quantile(Nominal(host, lr.first_answer_ms,
                                lr.first_answer_at_ns),
                        0.5),
               "ms", static_cast<long long>(lr.first_answer_ms.size()));
    attempted = lr.attempted;
    failed = lr.failed;
    if (!lr.failure.empty()) {
      correct = false;
      std::printf("GATE FAILED: %s\n", lr.failure.c_str());
    }
  } else {
    // Closed loop, one client: the next request is sent when the
    // previous one returns. Every 100 ms, routed_onboard's next request is
    // Register() of a never-seen table plus a routed question about it.
    // interactive instead spends every 25th slot on a first_answer
    // probe (Register() plus a question by id), which is not one of its
    // requests and whose time is left out of its throughput (until the
    // probe tables run out).
    const std::vector<size_t> order = Shuffled(w->items.size(), args.seed);
    const std::vector<size_t> onboard_order =
        Shuffled(w->onboard.size(), args.seed + 1);
    // Each answer is scored right after it returns and then dropped, so
    // the client holds no results and rss_peak_mb stays the program's.
    struct Outcome {
      Status status;
      core::QueryResult result;
      const data::Example* gold = nullptr;
      const std::vector<sql::Value>* gold_rows = nullptr;
      schema::TableId gold_id = schema::kInvalidTableId;
      double latency_ms = 0;
      uint64_t at_ns = 0;
    };
    Tally tally;
    std::vector<double> latency;
    std::vector<uint64_t> latency_at;
    latency.reserve(16384);
    latency_at.reserve(16384);
    std::vector<double> first_answer_ms;
    std::vector<uint64_t> first_answer_at;
    size_t next = 0;
    size_t next_onboard = 0;
    double probe_s = 0;  // at nominal speed
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(args.seconds * 1e9);
    uint64_t onboard_at = start + kOnboardIntervalNs;
    for (long long slot = 0; NowNs() < end; ++slot) {
      // Onboarding is paced by time, not by request count, so the
      // registry grows by the same number of tables in every run however
      // fast the program answers.
      const bool onboarding = spec.routed && NowNs() >= onboard_at;
      if (onboarding) onboard_at += kOnboardIntervalNs;
      const bool probing = !spec.routed &&
                           slot % kProbeEverySlots == kProbeEverySlots - 1 &&
                           next_onboard < onboard_order.size();
      if (onboarding && next_onboard >= onboard_order.size()) {
        correct = false;
        std::printf("GATE FAILED: onboarding tables exhausted\n");
        break;
      }
      Outcome o;
      if (onboarding || probing) {
        const Onboarding& ob = w->onboard[onboard_order[next_onboard++]];
        const uint64_t t0 = NowNs();
        o.latency_ms = FirstAnswerMs(*w->pipeline, ob, spec.routed,
                                     &o.result, &o.status);
        o.at_ns = t0;
        if (o.status.ok()) {
          first_answer_ms.push_back(o.latency_ms);
          first_answer_at.push_back(t0);
        }
        o.gold = ob.example;
        o.gold_rows = &ob.gold_rows;
        o.gold_id = w->pipeline->registry().Find(ob.table->name());
        if (probing) {
          probe_s += host.NominalSeconds(t0, NowNs());
          if (!o.status.ok()) {
            correct = false;
            std::printf("GATE FAILED: onboarding probe: %s\n",
                        o.status.ToString().c_str());
            break;
          }
          continue;
        }
      } else {
        const Item& item = w->items[order[next++ % order.size()]];
        core::QueryRequest request;
        request.schema_ref = item.ref;
        request.question = item.example->question;
        const uint64_t t0 = NowNs();
        StatusOr<core::QueryResult> result = w->pipeline->Query(request);
        o.latency_ms = static_cast<double>(NowNs() - t0) / 1e6;
        o.at_ns = t0;
        o.status = result.status();
        if (result.ok()) o.result = std::move(result).value();
        o.gold = item.example;
        o.gold_rows = &item.gold_rows;
        o.gold_id = item.gold_id;
      }
      tally.Add(o.status, &o.result, *o.gold, *o.gold_rows, o.gold_id,
                o.latency_ms, spec.latency_limit_ms);
      if (o.status.ok()) {
        latency.push_back(o.latency_ms);
        latency_at.push_back(o.at_ns);
      }
    }
    const uint64_t stop = NowNs();
    const double elapsed = host.NominalSeconds(start, stop) - probe_s;
    std::printf("wall latency_p50 %.3f ms  throughput %.1f req/s\n",
                Quantile(latency, 0.5),
                tally.attempted / (static_cast<double>(stop - start) / 1e9));
    latency = Nominal(host, latency, latency_at);
    first_answer_ms = Nominal(host, first_answer_ms, first_answer_at);
    work_requests = tally.attempted;
    const size_t n = latency.size();
    report.Add("latency_p50_ms", Quantile(latency, 0.5), "ms",
               static_cast<long long>(n));
    report.Add("latency_p99_ms", Quantile(latency, TailQ(n)), "ms",
               static_cast<long long>(n));
    report.Add("throughput_qps", tally.attempted / elapsed, "req/s",
               tally.attempted);
    report.Add("max_qps_at_slo", tally.ok_within / elapsed, "req/s",
               tally.attempted);
    report.Add("slo_attain", Ratio(tally.ok_within, tally.attempted), "ratio",
               tally.attempted);
    report.Add("ok_rate", Ratio(tally.answered, tally.attempted), "ratio",
               tally.attempted);
    report.Add("ex_acc", Ratio(tally.ex, tally.ok()), "ratio", tally.ok());
    report.Add("qm_acc", Ratio(tally.qm, tally.ok()), "ratio", tally.ok());
    report.Add("route_acc1", Ratio(tally.route_hits, tally.ok()), "ratio",
               tally.ok());
    report.Add("first_answer_ms", Quantile(first_answer_ms, 0.5), "ms",
               static_cast<long long>(first_answer_ms.size()));
    attempted = tally.attempted;
    failed = tally.status_failed;
  }
  report.Add("rss_peak_mb", PeakRssMb(), "MB", 1);
  host.Stop();
  std::printf("%s\n", host.Summary().c_str());
  PrintWork(work, work_requests);
  if (failed > 0) {
    std::printf("note: %lld of %lld requests returned an error status\n",
                failed, attempted);
  }
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
}  // namespace nlidb
