// Exhaustive check of the kernel-tier tanh: every one of the 2^32 float
// bit patterns through the scalar port, the base tier and the AVX2 tier,
// each compared bitwise (NaN payloads included) with the host libm's
// std::tanh. Built with the tests but not registered with ctest (about
// 45 s on 4 cores); run it when the kernel or the toolchain changes:
//
//   ./build/tests/tanh_exhaustive_check [threads]
//
// Exits 0 only when all three report 0 mismatches. Only meaningful on a
// libm whose tanhf is glibc's fdlibm algorithm (glibc <= 2.40); on other
// libms the mismatch counts measure how far that libm is from fdlibm.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

namespace {

constexpr uint64_t kAll = uint64_t{1} << 32;
constexpr int kSlices = 4096;  // kAll / kSlices inputs each
constexpr int kChunk = 4099;   // odd, so every tail length occurs

struct Counts {
  uint64_t scalar = 0;
  uint64_t base = 0;
  uint64_t avx2 = 0;
};

void CheckRange(uint64_t begin, uint64_t end, Counts* counts) {
  std::vector<float> in(kChunk), base(kChunk), avx2(kChunk);
  uint64_t bad_scalar = 0, bad_base = 0, bad_avx2 = 0;
  for (uint64_t u = begin; u < end; u += kChunk) {
    const int n = static_cast<int>(std::min<uint64_t>(kChunk, end - u));
    for (int i = 0; i < n; ++i) {
      in[i] = std::bit_cast<float>(static_cast<uint32_t>(u + i));
    }
    std::copy(in.begin(), in.begin() + n, base.begin());
    std::copy(in.begin(), in.begin() + n, avx2.begin());
    nlidb::gemm::base::TanhInPlace(base.data(), n);
    nlidb::gemm::avx2::TanhInPlace(avx2.data(), n);
    for (int i = 0; i < n; ++i) {
      const uint32_t want = std::bit_cast<uint32_t>(std::tanh(in[i]));
      const uint32_t scalar =
          std::bit_cast<uint32_t>(nlidb::gemm::base::TanhScalar(in[i]));
      if (scalar != want && bad_scalar++ < 3) {
        std::printf("scalar mismatch at 0x%08x: 0x%08x vs libm 0x%08x\n",
                    std::bit_cast<uint32_t>(in[i]), scalar, want);
      }
      bad_base += std::bit_cast<uint32_t>(base[i]) != want;
      bad_avx2 += std::bit_cast<uint32_t>(avx2[i]) != want;
    }
  }
  counts->scalar = bad_scalar;
  counts->base = bad_base;
  counts->avx2 = bad_avx2;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::max(1, std::atoi(argv[1]))
                               : nlidb::ThreadPool::DefaultParallelism();
  std::printf("tanh exhaustive check: 2^32 inputs, %d threads, avx2 tier %s\n",
              threads,
              nlidb::gemm::avx2::Available() ? "native" : "unavailable "
                                                          "(forwards to base)");
  // One Counts per slice, summed afterwards: no shared writes.
  std::vector<Counts> per_slice(kSlices);
  constexpr uint64_t kSpan = kAll / kSlices;
  nlidb::ThreadPool pool(threads);
  pool.ParallelFor(0, kSlices, [&](int sb, int se) {
    for (int s = sb; s < se; ++s) {
      CheckRange(kSpan * s, kSpan * (s + 1), &per_slice[s]);
    }
  });
  Counts counts;
  for (const Counts& c : per_slice) {
    counts.scalar += c.scalar;
    counts.base += c.base;
    counts.avx2 += c.avx2;
  }
  std::printf("mismatches vs std::tanh: scalar %llu, base %llu, avx2 %llu\n",
              static_cast<unsigned long long>(counts.scalar),
              static_cast<unsigned long long>(counts.base),
              static_cast<unsigned long long>(counts.avx2));
  const bool ok = counts.scalar == 0 && counts.base == 0 && counts.avx2 == 0;
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
