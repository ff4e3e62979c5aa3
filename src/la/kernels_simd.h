#ifndef MATOPT_LA_KERNELS_SIMD_H_
#define MATOPT_LA_KERNELS_SIMD_H_

#include <cstdint>

#include "la/dense_matrix.h"

namespace matopt::simdk {

/// Internal interface of the vectorized kernel TU (la/kernels_simd.cc,
/// compiled with -mavx2 when CMake feature detection succeeds). Callers
/// must gate on SimdEnabled() (la/simd.h): the stub build of these
/// functions aborts, because reaching them means the dispatch layer is
/// broken, not that the fallback should run.
///
/// Contract (DESIGN.md §13): every function produces bit-identical output
/// to the scalar kernel it accelerates. For GEMM this means each output
/// element accumulates its k terms in ascending order, one IEEE multiply
/// followed by one IEEE add per term — vectorization is over *columns*
/// (independent output elements), never over the k reduction.

/// True when this TU was compiled with the AVX2 microkernels.
bool Compiled();

/// Cache-blocked, packed, register-tiled GEMM: c[i][j] += sum_k a*b over
/// the full m x k x n problem, parallelized over row blocks on the
/// default pool. `c_stride` is the row pitch of the output buffer (cols
/// for a DenseMatrix, the parent pitch for a DenseBlockView). Packing
/// buffers come from the BufferPool.
void GemmAccumulateBlocked(const DenseMatrix& a, const DenseMatrix& b,
                           double* c, int64_t c_stride);

/// Columns of P·I one triangular-solve panel of the LU inverse carries:
/// four ymm lanes of accumulators per row.
inline constexpr int64_t kLuSolvePanel = 16;

/// Both triangular solves of the LU inverse over one column panel, in
/// place. `y` is n x kLuSolvePanel row-major and holds columns of P·I on
/// entry and the matching columns of the inverse on return; `lu` is the
/// n x n factor (unit-lower L below the diagonal, U on and above). Each
/// row subtracts its terms in ascending column order, one multiply then
/// one subtract per term, and back-substitution rows end with one divide
/// by u_ii — the per-column scalar solve's operation sequence, vectorized
/// across the panel's independent columns.
void LuSolvePanel(const double* lu, int64_t n, double* y);

enum class ZipKind { kAdd, kSub, kMul, kDiv, kReluGrad };

/// o[i] = op(a[i], b[i]) over [0, count). For kReluGrad, `a` is the
/// upstream gradient and `b` the pre-activation z (matching the scalar
/// kReluGradOp argument order).
void ZipRange(ZipKind kind, const double* a, const double* b, double* o,
              int64_t count);

enum class MapKind { kRelu, kScalarMul };

/// o[i] = op(a[i]) over [0, count); `s` is the kScalarMul scalar.
void MapRange(MapKind kind, const double* a, double s, double* o,
              int64_t count);

/// One row of the bias epilogue: o[c] = in[c] + v[c], clamped at zero
/// when `relu` (the fused BiasRelu path).
void BiasRowRange(const double* in, const double* v, double* o, int64_t cols,
                  bool relu);

/// Fused relu-grad + Hadamard: with t = (z[i] > 0 ? u[i] : 0),
/// o[i] = other[i] * t when `other_is_lhs`, else t * other[i].
void ReluGradHadamardRange(const double* z, const double* u,
                           const double* other, double* o, int64_t count,
                           bool other_is_lhs);

}  // namespace matopt::simdk

#endif  // MATOPT_LA_KERNELS_SIMD_H_
