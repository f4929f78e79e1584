// Bitwise tests for the kernel-tier tanh (gemm_kernels.inc): both tiers'
// vector TanhInPlace against the scalar port, and the scalar port
// against the host libm's tanhf when that libm runs the same fdlibm
// algorithm. Inputs are a strided sweep over all float bit patterns plus
// dense windows around every branch threshold of tanhf and expm1f. The
// full 2^32 sweep lives in tanh_exhaustive_check (not part of ctest).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace {

using TanhInPlaceFn = void (*)(float*, int);

// Float bit patterns of |x| where tanhf or the expm1f it calls changes
// branch. expm1f sees u = 2|x|, so its bounds on u map to x bit patterns
// one exponent step lower (halving subtracts 1 << 23).
std::vector<uint32_t> Thresholds() {
  std::vector<uint32_t> out = {
      0x24000000u,  // |x| < 2^-55: x * (1 + x)
      0x3f800000u,  // |x| >= 1: 1 - 2/(t+2)
      0x41b00000u,  // |x| >= 22: 1 - tiny
  };
  for (const uint32_t u : {0x33000000u, 0x3eb17218u, 0x3f851592u}) {
    out.push_back(u);             // the bound itself, as an input
    out.push_back(u - 0x800000u);  // the x with 2|x| at the bound
  }
  // expm1f's k = round(u / ln2) switches between its k < 23, k <= 56 and
  // k > 56 branches at u = (k - 1/2) ln2.
  for (const int k : {23, 57}) {
    const float x = 0.5f * (static_cast<float>(k) - 0.5f) * 0.69314718f;
    out.push_back(std::bit_cast<uint32_t>(x));
  }
  return out;
}

// ~2^26 strided bit patterns (an odd stride, so low mantissa bits vary),
// +-4096-ulp windows around each threshold in both signs, and the special
// values.
std::vector<float> TestInputs() {
  std::vector<uint32_t> bits;
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 61) {
    bits.push_back(static_cast<uint32_t>(u));
  }
  for (const uint32_t t : Thresholds()) {
    for (uint32_t u = t - 4096; u <= t + 4096; ++u) {
      bits.push_back(u);
      bits.push_back(u | 0x80000000u);
    }
  }
  const uint32_t specials[] = {
      0x00000000u, 0x80000000u,  // +-0
      0x00000001u, 0x80000001u, 0x00400000u, 0x007fffffu,  // subnormals
      0x807fffffu, 0x00800000u,                            // min normal
      0x7f800000u, 0xff800000u,                            // +-inf
      0x7fc00000u, 0xffc00000u, 0x7fc12345u,               // quiet NaN
      0x7f800001u, 0xff800001u, 0x7fa00000u,               // signalling
      0x7f7fffffu, 0xff7fffffu,                            // +-max
  };
  bits.insert(bits.end(), std::begin(specials), std::end(specials));
  std::vector<float> out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    out[i] = std::bit_cast<float>(bits[i]);
  }
  return out;
}

const std::vector<float>& Inputs() {
  static const std::vector<float> inputs = TestInputs();
  return inputs;
}

// The scalar port as an in-place kernel, to run it where a tier would.
void ScalarPortInPlace(float* x, int n) {
  for (int i = 0; i < n; ++i) x[i] = gemm::base::TanhScalar(x[i]);
}

std::string Hex(float f) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", std::bit_cast<uint32_t>(f));
  return buf;
}

// `fn` applied to the inputs in calls of `chunk` elements (all at once
// when 0). A chunk shorter than a tier's vector runs only its scalar tail.
std::vector<float> Applied(TanhInPlaceFn fn, int chunk = 0) {
  std::vector<float> out = Inputs();
  const int n = static_cast<int>(out.size());
  const int step = chunk > 0 ? chunk : n;
  for (int i = 0; i < n; i += step) {
    fn(out.data() + i, std::min(step, n - i));
  }
  return out;
}

const std::vector<float>& ScalarPortOutputs() {
  static const std::vector<float> outputs = Applied(&ScalarPortInPlace);
  return outputs;
}

// Counts bitwise mismatches (NaN payloads included) between `got` and
// `want`, reporting the first few.
int CountMismatches(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  int bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i]) &&
        ++bad <= 5) {
      ADD_FAILURE() << what << ": tanh(" << Hex(Inputs()[i])
                    << ") = " << Hex(got[i]) << ", want " << Hex(want[i]);
    }
  }
  return bad;
}

TEST(TanhKernelTest, BothTiersMatchScalarPortBitwise) {
  const std::vector<float>& want = ScalarPortOutputs();
  EXPECT_EQ(CountMismatches(Applied(&gemm::base::TanhInPlace), want, "base"),
            0);
  EXPECT_EQ(CountMismatches(Applied(&gemm::avx2::TanhInPlace), want, "avx2"),
            0);
  EXPECT_EQ(CountMismatches(Applied(&TanhInPlace), want, "dispatched"), 0);
  // Each tier TU compiles its own copy of the scalar port for its tail;
  // 7-element calls run all of the AVX2 copy and 3/7 of the base one.
  EXPECT_EQ(CountMismatches(Applied(&gemm::avx2::TanhInPlace, 7), want,
                            "avx2 tail"),
            0);
  EXPECT_EQ(CountMismatches(Applied(&gemm::base::TanhInPlace, 7), want,
                            "base tail"),
            0);
}

TEST(TanhKernelTest, OddLengthsAndOffsetsCoverTheTail) {
  // Every length up to past two AVX2 vector pairs, at every start offset
  // within a vector: exercises the two-vector loop, the single vector
  // and the scalar tail, unaligned.
  std::vector<float> src(96);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = std::sin(static_cast<float>(i) * 0.731f) * 6.0f;
  }
  for (const TanhInPlaceFn fn : {&gemm::base::TanhInPlace,
                                 &gemm::avx2::TanhInPlace}) {
    for (int offset = 0; offset < 8; ++offset) {
      for (int len = 0; len <= 40; ++len) {
        std::vector<float> buf = src;
        fn(buf.data() + offset, len);
        for (int i = 0; i < static_cast<int>(buf.size()); ++i) {
          const bool inside = i >= offset && i < offset + len;
          const float want = inside ? gemm::base::TanhScalar(src[i]) : src[i];
          ASSERT_EQ(std::bit_cast<uint32_t>(buf[i]),
                    std::bit_cast<uint32_t>(want))
              << "offset " << offset << " len " << len << " index " << i;
        }
      }
    }
  }
}

// glibc's tanhf is the fdlibm algorithm (s_tanhf.c calling s_expm1f.c)
// through 2.40; later releases move float functions to correctly rounded
// implementations, so the libm comparison only runs up to 2.40.
bool HostTanhfIsFdlibm(std::string* why) {
#if defined(__GLIBC__)
  const char* version = gnu_get_libc_version();
  int major = 0;
  int minor = 0;
  const bool parsed = std::sscanf(version, "%d.%d", &major, &minor) == 2;
  *why = std::string("glibc ") + version;
  return parsed && major == 2 && minor <= 40;
#else
  *why = "not glibc";
  return false;
#endif
}

TEST(TanhKernelTest, ScalarPortMatchesFdlibmHostTanhf) {
  std::string why;
  if (!HostTanhfIsFdlibm(&why)) {
    std::printf("[tanh] %s: host tanhf is not the fdlibm algorithm; "
                "skipping the libm comparison\n",
                why.c_str());
    GTEST_SKIP() << why;
  }
  std::printf("[tanh] %s: host tanhf is the fdlibm algorithm; comparing "
              "the scalar port against std::tanh on %zu inputs\n",
              why.c_str(), Inputs().size());
  std::vector<float> libm = Inputs();
  for (float& x : libm) x = std::tanh(x);
  EXPECT_EQ(CountMismatches(ScalarPortOutputs(), libm, "scalar port vs libm"),
            0);
}

}  // namespace
}  // namespace nlidb
