#ifndef MATOPT_LA_KERNELS_H_
#define MATOPT_LA_KERNELS_H_

#include "common/status.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

namespace matopt {

/// Local dense linear-algebra kernels. These are the computational leaves
/// of every atomic computation implementation: distributed implementations
/// apply them per tuple and combine the results relationally.

/// Returns A * B. Requires a.cols() == b.rows().
DenseMatrix Gemm(const DenseMatrix& a, const DenseMatrix& b);

/// C += A * B.
void GemmAccumulate(const DenseMatrix& a, const DenseMatrix& b,
                    DenseMatrix* c);

/// C_view += A * B, accumulating straight into a block view of the
/// caller's buffer (e.g. an output strip). Same loop order — and therefore
/// bit-identical results — as the DenseMatrix* overload.
void GemmAccumulate(const DenseMatrix& a, const DenseMatrix& b,
                    DenseBlockView c);

DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix Sub(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix Hadamard(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix ElemDiv(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix ScalarMul(const DenseMatrix& a, double s);
DenseMatrix Transpose(const DenseMatrix& a);
DenseMatrix Relu(const DenseMatrix& a);

/// Derivative of relu evaluated at pre-activation `z`, multiplied
/// element-wise into `upstream`: out = upstream .* (z > 0).
DenseMatrix ReluGrad(const DenseMatrix& z, const DenseMatrix& upstream);

/// In-place element-wise variants. `out` must already have the result
/// shape and may alias either input; every element is overwritten with
/// exactly the value the out-of-place kernel would produce. The executor
/// uses these to reuse a dying operand's buffer instead of allocating.
void AddInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out);
void SubInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out);
void HadamardInto(const DenseMatrix& a, const DenseMatrix& b,
                  DenseMatrix* out);
void ElemDivInto(const DenseMatrix& a, const DenseMatrix& b,
                 DenseMatrix* out);
void ReluGradInto(const DenseMatrix& z, const DenseMatrix& upstream,
                  DenseMatrix* out);
void ScalarMulInto(const DenseMatrix& a, double s, DenseMatrix* out);
void ReluInto(const DenseMatrix& a, DenseMatrix* out);
void SigmoidInto(const DenseMatrix& a, DenseMatrix* out);
void ExpInto(const DenseMatrix& a, DenseMatrix* out);
void SoftmaxInto(const DenseMatrix& a, DenseMatrix* out);
void BroadcastRowAddInto(const DenseMatrix& a, const DenseMatrix& vec,
                         DenseMatrix* out);

/// Fused bias-add + relu: out = max(a + vec_broadcast, 0). Bit-identical
/// to Relu(BroadcastRowAdd(a, vec)).
DenseMatrix BiasRelu(const DenseMatrix& a, const DenseMatrix& vec);
void BiasReluInto(const DenseMatrix& a, const DenseMatrix& vec,
                  DenseMatrix* out);

/// Fused relu-grad + Hadamard for the backprop hot path. With
/// t = (z > 0 ? upstream : 0), returns other .* t when `other_is_lhs`
/// and t .* other otherwise — bit-identical to
/// Hadamard(other, ReluGrad(z, upstream)) resp. Hadamard(ReluGrad(...),
/// other), including signed-zero propagation (t is computed first, then
/// multiplied, never short-circuited).
DenseMatrix ReluGradHadamard(const DenseMatrix& z, const DenseMatrix& upstream,
                             const DenseMatrix& other, bool other_is_lhs);
void ReluGradHadamardInto(const DenseMatrix& z, const DenseMatrix& upstream,
                          const DenseMatrix& other, bool other_is_lhs,
                          DenseMatrix* out);

/// Row-wise softmax with the usual max-subtraction for stability.
DenseMatrix Softmax(const DenseMatrix& a);

DenseMatrix Sigmoid(const DenseMatrix& a);
DenseMatrix Exp(const DenseMatrix& a);

/// Column vector (rows x 1) of row sums.
DenseMatrix RowSum(const DenseMatrix& a);

/// Row vector (1 x cols) of column sums.
DenseMatrix ColSum(const DenseMatrix& a);

/// out(r, c) = a(r, c) + vec(0, c); vec must be 1 x a.cols().
DenseMatrix BroadcastRowAdd(const DenseMatrix& a, const DenseMatrix& vec);

/// Inverse of a square matrix by LU decomposition with partial pivoting:
/// a blocked right-looking LU whose trailing updates run on the GEMM
/// kernel, then triangular solves over column panels of P·I. Every output
/// element sees the unblocked textbook algorithm's operation sequence, so
/// whenever the factors stay finite the result is bit-identical to it
/// (fuzz::ReferenceInverse) on every kernel path and thread count. Tallies KernelCounters' inverse_* fields
/// (2n^3 flops); its internal GEMMs stay out of the gemm_* tallies.
/// Fails with InvalidArgument when the matrix is singular or not square.
Result<DenseMatrix> Inverse(const DenseMatrix& a);

/// Identity matrix of order n.
DenseMatrix Identity(int64_t n);

/// Fault injection for the differential-fuzzing meta-test: when `delta` is
/// non-zero, every caller's GemmAccumulate (and therefore Gemm) perturbs
/// element (0, 0) of its output by `delta` after the correct accumulation;
/// the trailing-update GEMMs inside Inverse are not perturbed. The fuzz
/// reference interpreter evaluates with its own independent kernels,
/// inverse included, so an injected fault surfaces as an
/// execution-vs-reference mismatch that the harness must detect and
/// shrink. Always 0.0 in production; the hot-path cost is one relaxed
/// atomic load per GemmAccumulate call.
void SetKernelFaultDelta(double delta);
double KernelFaultDelta();

}  // namespace matopt

#endif  // MATOPT_LA_KERNELS_H_
