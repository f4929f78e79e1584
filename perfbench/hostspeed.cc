// Host-speed reference: a fixed, benchmark-owned compute kernel timed
// on its own thread through the whole run, so the run's times can be
// expressed at one nominal host speed (see README.md, "Host speed").

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace nlidb {
namespace perfbench {
namespace {

/// A round figure near the kernel's CPU time on a 4-core x86-64 VM
/// running at its fast speed (220-235 us). Times are reported as if
/// every sample had read this.
constexpr double kNominalKernelNs = 250000.0;
/// Pause between samples. With a kernel of about 0.25 ms this keeps the
/// sampler near 2.5% of one core.
constexpr auto kSamplePeriod = std::chrono::milliseconds(10);
/// A time is scaled by the median of the samples within this distance
/// of it, widened until it holds at least kMinSamples.
constexpr uint64_t kWindowNs = 150000000;
constexpr size_t kMinSamples = 9;

uint64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

constexpr int kN = 48;        // square product size (fits in L1)
constexpr int kProducts = 8;  // products per sample

/// The float half of the kernel: small dense products, the shape of the
/// classifier's and decoder's GEMMs.
inline __attribute__((always_inline)) void FloatWork(float* a,
                                                     const float* b,
                                                     float* c) {
  for (int rep = 0; rep < kProducts; ++rep) {
    std::fill(c, c + kN * kN, 0.0f);
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float aik = a[i * kN + k];
        const float* brow = b + k * kN;
        float* crow = c + i * kN;
        for (int j = 0; j < kN; ++j) crow[j] += aik * brow[j];
      }
    }
    a[(rep * 97) % (kN * kN)] = c[(rep * 31) % (kN * kN)] * 1e-3f;
  }
}

// The products run twice: once in the AVX2 build the program's GEMMs use
// where the CPU has it, and once in the baseline (SSE) build the rest of
// the program's float code gets. Under a busy neighbour the baseline
// build slows by up to 1.7x on a shared 4-core VM while the AVX2 build
// barely moves; the program slows as well.
#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void FloatWorkAvx2(float* a,
                                                       const float* b,
                                                       float* c) {
  FloatWork(a, b, c);
}
#endif

void FloatWorkBase(float* a, const float* b, float* c) { FloatWork(a, b, c); }

/// The kernel mixes the program's kinds of work: the float products
/// above in both builds and byte hashing with table lookups (tokenising,
/// matching, routing). It keeps to about 30 KiB, so it reads the speed
/// of its core and not the memory traffic of the program beside it. Its
/// result feeds the next call so no part can be dropped.
class Kernel {
 public:
  Kernel() : a_(kN * kN), b_(kN * kN), c_(kN * kN), bytes_(8192),
             table_(1024) {
    for (int i = 0; i < kN * kN; ++i) {
      a_[i] = static_cast<float>((i * 7) % 13) * 0.125f - 0.75f;
      b_[i] = static_cast<float>((i * 5) % 11) * 0.1f - 0.5f;
    }
    for (size_t i = 0; i < bytes_.size(); ++i) {
      bytes_[i] = static_cast<unsigned char>('a' + (i * 31 + i / 7) % 26);
    }
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      float_work_ = FloatWorkAvx2;
    }
#endif
  }

  uint64_t Run(uint64_t salt) {
    a_[salt % a_.size()] = 0.25f;
    float_work_(a_.data(), b_.data(), c_.data());
    FloatWorkBase(a_.data(), b_.data(), c_.data());
    uint64_t h = 1469598103934665603ULL ^ salt;
    for (int rep = 0; rep < 4; ++rep) {
      for (size_t i = 0; i < bytes_.size(); ++i) {
        h = (h ^ bytes_[i]) * 1099511628211ULL;
        if ((i & 7) == 7) {
          uint32_t& slot = table_[h % table_.size()];
          slot = slot * 2654435761u + static_cast<uint32_t>(h >> 32);
        }
      }
    }
    return h ^ table_[salt % table_.size()] ^
           static_cast<uint64_t>(c_[salt % c_.size()] != 0.0f);
  }

 private:
  void (*float_work_)(float*, const float*, float*) = FloatWorkBase;
  std::vector<float> a_, b_, c_;
  std::vector<unsigned char> bytes_;
  std::vector<uint32_t> table_;
};

}  // namespace

HostSpeed::HostSpeed() : thread_([this] { Sample(); }) {}

HostSpeed::~HostSpeed() { Stop(); }

void HostSpeed::Stop() {
  if (stopping_.exchange(true)) return;
  thread_.join();
}

void HostSpeed::Sample() {
  Kernel kernel;
  uint64_t salt = 1;
  while (!stopping_.load()) {
    const uint64_t at = NowNs();
    const uint64_t cpu0 = ThreadCpuNs();
    salt = kernel.Run(salt) | 1;
    const uint64_t cpu1 = ThreadCpuNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({at, static_cast<double>(cpu1 - cpu0)});
    }
    std::this_thread::sleep_for(kSamplePeriod);
  }
}

double HostSpeed::Factor(uint64_t t0_ns, uint64_t t1_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 1.0;
  if (t1_ns < t0_ns) t1_ns = t0_ns;
  std::vector<double> window;
  for (uint64_t pad = kWindowNs;; pad *= 2) {
    const uint64_t lo = t0_ns > pad ? t0_ns - pad : 0;
    const uint64_t hi = t1_ns + pad;
    auto first = std::lower_bound(
        samples_.begin(), samples_.end(), lo,
        [](const Entry& e, uint64_t t) { return e.at_ns < t; });
    auto last = std::upper_bound(
        samples_.begin(), samples_.end(), hi,
        [](uint64_t t, const Entry& e) { return t < e.at_ns; });
    if (last - first >= static_cast<long>(kMinSamples) ||
        (first == samples_.begin() && last == samples_.end())) {
      window.clear();
      for (auto it = first; it != last; ++it) window.push_back(it->kernel_ns);
      break;
    }
  }
  return kNominalKernelNs / Quantile(window, 0.5);
}

double HostSpeed::NominalSeconds(uint64_t t0_ns, uint64_t t1_ns) const {
  constexpr uint64_t kStep = 50000000;
  double seconds = 0;
  for (uint64_t t = t0_ns; t < t1_ns; t += kStep) {
    const uint64_t end = std::min(t1_ns, t + kStep);
    seconds += static_cast<double>(end - t) / 1e9 * Factor(t, end);
  }
  return seconds;
}

double HostSpeed::FactorWithin(
    const std::vector<std::pair<uint64_t, uint64_t>>& windows) const {
  std::vector<double> ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : samples_) {
      for (const auto& w : windows) {
        if (e.at_ns >= w.first && e.at_ns <= w.second) {
          ns.push_back(e.kernel_ns);
          break;
        }
      }
    }
  }
  return ns.empty() ? 1.0 : kNominalKernelNs / Quantile(ns, 0.5);
}

std::string HostSpeed::Summary() const {
  std::vector<double> ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : samples_) ns.push_back(e.kernel_ns);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "host speed: %zu kernel samples, p10/p50/p90 %.1f/%.1f/%.1f "
                "us (nominal %.1f us), median factor %.4f",
                ns.size(), Quantile(ns, 0.1) / 1e3, Quantile(ns, 0.5) / 1e3,
                Quantile(ns, 0.9) / 1e3, kNominalKernelNs / 1e3,
                ns.empty() ? 1.0 : kNominalKernelNs / Quantile(ns, 0.5));
  return buf;
}

}  // namespace perfbench
}  // namespace nlidb
