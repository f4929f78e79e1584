// AVX2 kernel tier: compiled at -march=x86-64-v3 when the compiler
// supports it (CMakeLists.txt), with -ffp-contract=off so the FMA units
// are never used — vector lanes round exactly like the baseline tier and
// results stay bitwise identical across machines. Selected at runtime by
// Available(); when this TU is built without AVX2 (non-x86 target or old
// compiler) it degrades to thin forwarders onto the base tier.

#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include "tensor/gemm_tiles.h"

#define NLIDB_GEMM_NS avx2
#define NLIDB_GEMM_VEC VecF8
#define NLIDB_GEMM_MR 6
#include "tensor/gemm_kernels.inc"

namespace nlidb {
namespace gemm {
namespace avx2 {

bool Available() { return __builtin_cpu_supports("avx2"); }

}  // namespace avx2
}  // namespace gemm
}  // namespace nlidb

#else  // !(__x86_64__ && __AVX2__)

namespace nlidb {
namespace gemm {
namespace avx2 {

bool Available() { return false; }

void RowsAB(const float* a, const float* b, float* out, int ib, int ie, int k,
            int n) {
  base::RowsAB(a, b, out, ib, ie, k, n);
}

void RowsABt(const float* a, const float* b, float* out, int ib, int ie, int k,
             int n) {
  base::RowsABt(a, b, out, ib, ie, k, n);
}

void RowsAtB(const float* a, const float* b, float* out, int ib, int ie, int k,
             int m, int n) {
  base::RowsAtB(a, b, out, ib, ie, k, m, n);
}

void TanhInPlace(float* x, int n) { base::TanhInPlace(x, n); }

}  // namespace avx2
}  // namespace gemm
}  // namespace nlidb

#endif
