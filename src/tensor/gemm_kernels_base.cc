// Baseline kernel tier: compiled at the toolchain's default target so it
// runs on any machine the binary does. Build flags (see CMakeLists.txt):
// -O3 -funroll-loops -ffp-contract=off.

#include "tensor/gemm_kernels.h"  // IWYU pragma: keep
#include "tensor/gemm_tiles.h"

#define NLIDB_GEMM_NS base
#define NLIDB_GEMM_VEC VecF4
#define NLIDB_GEMM_MR 4
#include "tensor/gemm_kernels.inc"

namespace nlidb {
namespace gemm {
namespace base {

float TanhScalar(float x) { return TanhScalarImpl(x); }

}  // namespace base
}  // namespace gemm
}  // namespace nlidb
