// Lock-discipline analyzer tests (src/common/lockdep.{h,cc}): seeded
// ABBA inversion detection from a single benign execution, CondVar
// stuck-wait watchdog, per-name mutex metrics, and the disabled-path
// contract. Each test toggles the detector explicitly and resets the
// graph so seeded inversions never poison later assertions.

#include "common/lockdep.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"

#if defined(__SANITIZE_THREAD__)
#define NLIDB_LOCKDEP_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NLIDB_LOCKDEP_TEST_TSAN 1
#endif
#endif

#ifdef NLIDB_LOCKDEP_TEST_TSAN
// DisabledSequencesAreInvisible runs a deliberate ABBA sequence to prove
// the disabled detector stays silent. TSan's own lock-order detector
// sees the same inversion and fails the binary (exit 66). The inversion
// is the point of the case, so TSan is told it is intended; the case and
// its assertion are unchanged. TSan symbolizes the gtest body as plain
// `TestBody`, so the entry keys on this file instead of the test name.
// The other cases take their mutexes with the detector on, through
// lockdep's try_lock-first slow path, and TSan adds no lock-order edge
// for a successful try_lock; an inversion among lockdep's own internal
// mutexes would still surface in every other binary the TSan leg runs.
extern "C" const char* __tsan_default_suppressions() {
  return "deadlock:tests/common/lockdep_test.cc\n";
}
#endif

namespace nlidb {
namespace {

/// RAII detector scope: on at construction, reports/graph wiped and
/// detector returned to its entry state on destruction.
class DetectorScope {
 public:
  DetectorScope() : was_enabled_(lockdep::Enabled()) {
    lockdep::ResetGraphForTest();
    lockdep::ClearReports();
    lockdep::SetEnabled(true);
  }
  ~DetectorScope() {
    lockdep::ResetGraphForTest();
    lockdep::ClearReports();
    lockdep::SetEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

std::vector<lockdep::Report> ReportsOfKind(lockdep::Report::Kind kind) {
  std::vector<lockdep::Report> out;
  for (const lockdep::Report& r : lockdep::Reports()) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

TEST(LockdepTest, DisabledUnlessEnvironmentOptsIn) {
  if (std::getenv("NLIDB_DEADLOCK") == nullptr &&
      !lockdep::Enabled()) {
    // The shipped default: detector off, Mutex::Lock pays one relaxed
    // atomic load. (CI legs that export NLIDB_DEADLOCK=on skip this.)
    EXPECT_FALSE(lockdep::Enabled());
    EXPECT_FALSE(lockdep::FatalReports());
  }
}

TEST(LockdepTest, BenignNestingProducesNoReports) {
  DetectorScope detector;
  Mutex outer{"test.nest_outer"};
  Mutex inner{"test.nest_inner"};
  for (int i = 0; i < 3; ++i) {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
  }
  EXPECT_TRUE(lockdep::Reports().empty());
}

TEST(LockdepTest, SeededAbbaInversionReportedWithBothStacks) {
  DetectorScope detector;
  Mutex a{"test.abba_a"};
  Mutex b{"test.abba_b"};
  {
    // Teach the detector a -> b.
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    // Invert to b -> a. Timing never deadlocks (single thread), but the
    // order cycle must be reported the moment it closes.
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  const auto inversions =
      ReportsOfKind(lockdep::Report::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  const lockdep::Report& r = inversions[0];
  // Both lock classes are named, in the report fields and in the
  // rendered cycle.
  EXPECT_NE(r.message.find("test.abba_a"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("test.abba_b"), std::string::npos) << r.message;
  EXPECT_NE(r.cycle.find("test.abba_a"), std::string::npos) << r.cycle;
  EXPECT_NE(r.cycle.find("test.abba_b"), std::string::npos) << r.cycle;
  // BOTH acquisition stacks: the recorded a -> b edge and the inverting
  // acquisition.
  EXPECT_FALSE(r.first_stack.empty());
  EXPECT_FALSE(r.second_stack.empty());
  // The artifact rendering carries the whole story.
  const std::string rendered = lockdep::RenderReports();
  EXPECT_NE(rendered.find("test.abba_a"), std::string::npos);
  EXPECT_NE(rendered.find("test.abba_b"), std::string::npos);
}

TEST(LockdepTest, InversionReportedOncePerClassPair) {
  DetectorScope detector;
  Mutex a{"test.once_a"};
  Mutex b{"test.once_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  for (int i = 0; i < 4; ++i) {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  EXPECT_EQ(ReportsOfKind(lockdep::Report::Kind::kOrderInversion).size(),
            1u);
}

TEST(LockdepTest, TransitiveCycleDetected) {
  DetectorScope detector;
  Mutex a{"test.tri_a"};
  Mutex b{"test.tri_b"};
  Mutex c{"test.tri_c"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_c(c);
  }
  {
    // c -> a closes a -> b -> c -> a without any direct a/c inversion.
    MutexLock hold_c(c);
    MutexLock hold_a(a);
  }
  const auto inversions =
      ReportsOfKind(lockdep::Report::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  EXPECT_NE(inversions[0].cycle.find("test.tri_b"), std::string::npos)
      << inversions[0].cycle;
}

TEST(LockdepTest, TryLockFeedsHeldSetWithoutFalsePositives) {
  DetectorScope detector;
  Mutex a{"test.try_a"};
  Mutex b{"test.try_b"};
  {
    ASSERT_TRUE(a.TryLock());
    MutexLock hold_b(b);
    a.Unlock();  // nlidb-lint: disable(naked-lock)
  }
  {
    MutexLock hold_b(b);
    ASSERT_TRUE(a.TryLock());
    a.Unlock();  // nlidb-lint: disable(naked-lock)
  }
  // try_lock acquisitions may not *wait*, so the b-held -> a acquisition
  // cannot deadlock and must not be reported as an inversion.
  EXPECT_TRUE(
      ReportsOfKind(lockdep::Report::Kind::kOrderInversion).empty());
}

TEST(LockdepTest, CondVarWatchdogReportsStuckWait) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(50);
  Mutex mu{"test.watchdog"};
  CondVar cv;
  {
    MutexLock hold(mu);
    // Nobody notifies: the watchdog round times out, reports, and
    // returns like a spurious wakeup.
    cv.Wait(mu);
  }
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  const auto stuck = ReportsOfKind(lockdep::Report::Kind::kStuckWait);
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_NE(stuck[0].first_mutex.find("test.watchdog"), std::string::npos);
  EXPECT_NE(stuck[0].message.find("test.watchdog"), std::string::npos);
}

TEST(LockdepTest, NotifiedWaitDoesNotReport) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(5000);
  Mutex mu{"test.notified"};
  CondVar cv;
  bool ready = false;
  // Chunk 0 runs on the calling thread (waiter), chunk 1 on the pool
  // worker (notifier) — a notify well inside the watchdog window.
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (i == 0) {
        MutexLock hold(mu);
        cv.Wait(mu, [&] { return ready; });
      } else {
        MutexLock hold(mu);
        ready = true;
        cv.NotifyAll();
      }
    }
  });
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  EXPECT_TRUE(ReportsOfKind(lockdep::Report::Kind::kStuckWait).empty());
}

TEST(LockdepTest, IdleWaitIsWatchdogExempt) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(50);
  Mutex mu{"test.idle"};
  CondVar cv;
  bool ready = false;
  // The notify lands well AFTER the 50ms watchdog window: a plain Wait
  // would file a stuck-wait report, an idle park must not (this is the
  // worker-pool / serving-queue steady state).
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (i == 0) {
        MutexLock hold(mu);
        cv.WaitIdle(mu, [&] { return ready; });
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        MutexLock hold(mu);
        ready = true;
        cv.NotifyAll();
      }
    }
  });
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  EXPECT_TRUE(ReportsOfKind(lockdep::Report::Kind::kStuckWait).empty());
}

TEST(LockdepTest, NamedMutexMetricsRecorded) {
  DetectorScope detector;
  Mutex mu{"test.metrics_probe"};
  for (int i = 0; i < 5; ++i) {
    MutexLock hold(mu);
  }
  auto& held =
      metrics::MetricsRegistry::Global().GetHistogram(
          "mutex.test.metrics_probe.held_ns");
  EXPECT_GE(held.Count(), 5);
  EXPECT_GE(metrics::MetricsRegistry::Global()
                .GetCounter("lockdep.acquisitions")
                .Value(),
            5);
}

TEST(LockdepTest, HeldSetOverflowIsCountedAndUnwindsCleanly) {
  // Nesting deeper than the per-thread held stack holds: the extra
  // acquisitions are counted and left untracked, and unwinding leaves
  // the stack empty (no stale entry invents an ordering afterwards).
  DetectorScope detector;
  metrics::Counter& overflow =
      metrics::MetricsRegistry::Global().GetCounter("lockdep.held_overflow");
  const int64_t overflow_before = overflow.Value();
  constexpr int kDepth = 40;
  std::vector<std::string> names;
  for (int i = 0; i < kDepth; ++i) {
    names.push_back("test.deep_" + std::to_string(i));
  }
  std::vector<std::unique_ptr<Mutex>> mus;
  for (const std::string& name : names) {
    mus.push_back(std::make_unique<Mutex>(name.c_str()));
  }
  std::vector<std::unique_ptr<MutexLock>> holds;
  for (auto& mu : mus) holds.push_back(std::make_unique<MutexLock>(*mu));
  while (!holds.empty()) holds.pop_back();  // innermost first
  EXPECT_GT(overflow.Value(), overflow_before);
  Mutex probe{"test.deep_probe"};
  {
    MutexLock hold_probe(probe);
    MutexLock hold_first(*mus.front());
  }
  EXPECT_TRUE(lockdep::Reports().empty());
}

TEST(LockdepTest, ClearReportsKeepsLearnedOrder) {
  DetectorScope detector;
  Mutex a{"test.retain_a"};
  Mutex b{"test.retain_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  lockdep::ClearReports();
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  // The a -> b ordering learned before ClearReports still convicts the
  // inversion: only reports are dropped, not the graph.
  EXPECT_EQ(ReportsOfKind(lockdep::Report::Kind::kOrderInversion).size(),
            1u);
}

TEST(LockdepTest, DisabledSequencesAreInvisible) {
  DetectorScope detector;
  lockdep::SetEnabled(false);
  Mutex a{"test.dark_a"};
  Mutex b{"test.dark_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  EXPECT_TRUE(lockdep::Reports().empty());
}

}  // namespace
}  // namespace nlidb
