#include "la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/buffer_pool.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "la/kernel_grain.h"
#include "la/kernel_stats.h"
#include "la/kernels_simd.h"
#include "la/simd.h"

namespace matopt {

namespace {

/// See SetKernelFaultDelta: non-zero only inside the fuzz meta-test.
std::atomic<double> g_kernel_fault_delta{0.0};

}  // namespace

void SetKernelFaultDelta(double delta) {
  g_kernel_fault_delta.store(delta, std::memory_order_relaxed);
}

double KernelFaultDelta() {
  return g_kernel_fault_delta.load(std::memory_order_relaxed);
}

namespace {

// Grain policy (kParallelFlopThreshold, kElemGrain, RowGrain, GemmRowGrain)
// lives in la/kernel_grain.h; every grain depends only on the shape, so
// partitioning is bit-identical at every thread count.

/// Rows of B kept hot per pass of the scalar blocked Gemm inner loops.
constexpr int64_t kGemmKBlock = 256;

/// Below this flop count the blocked SIMD GEMM's packing overhead is not
/// worth it and the scalar kernel runs; both paths are bit-identical, so
/// the threshold is a pure performance knob.
constexpr int64_t kSimdGemmMinFlops = 1 << 14;

template <typename F>
void MapWithInto(const DenseMatrix& a, DenseMatrix* out, F f) {
  const double* pa = a.data();
  double* po = out->data();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i]);
  });
}

template <typename F>
DenseMatrix MapWith(const DenseMatrix& a, F f) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  MapWithInto(a, &out, f);
  return out;
}

/// C[r0:r1) += A[r0:r1) * B with the i-k-j loop order (unit-stride streams
/// over B's rows), k-blocked so a kGemmKBlock-row panel of B is reused
/// across the whole row range. Ascending k within ascending k-blocks keeps
/// every c(i, j) accumulation in exactly the seed kernel's order.
/// `skip_zeros` re-enables the zero-skip for mostly-zero left operands;
/// the dense path stays branch-free so the j loop vectorizes.
template <bool skip_zeros, typename Out>
void GemmAccumulateRows(const DenseMatrix& a, const DenseMatrix& b, Out* c,
                        int64_t r0, int64_t r1) {
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  for (int64_t kb = 0; kb < k; kb += kGemmKBlock) {
    const int64_t ke = std::min(k, kb + kGemmKBlock);
    for (int64_t i = r0; i < r1; ++i) {
      double* c_row = c->row(i);
      const double* a_row = a.row(i);
      for (int64_t p = kb; p < ke; ++p) {
        const double av = a_row[p];
        if constexpr (skip_zeros) {
          if (av == 0.0) continue;
        }
        const double* b_row = b.row(p);
        for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
      }
    }
  }
}

inline double* OutData(DenseMatrix* c) { return c->data(); }
inline int64_t OutStride(const DenseMatrix* c) { return c->cols(); }
inline double* OutData(DenseBlockView* c) { return c->data; }
inline int64_t OutStride(const DenseBlockView* c) { return c->stride; }

/// Returns true when the vectorized blocked path ran (for the roofline
/// counters); either path writes bit-identical output.
template <typename Out>
bool GemmAccumulateImpl(const DenseMatrix& a, const DenseMatrix& b, Out* c) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  const double flops = 2.0 * static_cast<double>(m) * k * n;

  // The zero-skip only pays when the lhs is mostly zeros (e.g. relu
  // output fed through a dense layout); for dense inputs the branch-free
  // inner loop vectorizes. Sample at most 4096 strided entries: small
  // repeated GEMMs stop paying a full O(mk) pass, and either branch
  // produces bit-identical results so a flipped decision is harmless.
  bool skip_zeros = false;
  const int64_t total = m * k;
  if (total > 0) {
    const int64_t samples = std::min<int64_t>(total, 4096);
    const int64_t stride = total / samples;
    int64_t zeros = 0;
    const double* pa = a.data();
    for (int64_t s = 0; s < samples; ++s) zeros += (pa[s * stride] == 0.0);
    skip_zeros = zeros * 8 > samples * 7;  // > 87.5% zeros
  }

  // Mostly-dense, wide-enough problems go to the cache-blocked AVX2
  // microkernels; the zero-skip path keeps its scalar branchy loop (the
  // skip destroys the dense column streams the microkernel relies on).
  if (!skip_zeros && m > 0 && n >= 8 && flops >= kSimdGemmMinFlops &&
      SimdEnabled()) {
    simdk::GemmAccumulateBlocked(a, b, OutData(c), OutStride(c));
    return true;
  }

  auto run_rows = [&](int64_t r0, int64_t r1) {
    if (skip_zeros) {
      GemmAccumulateRows<true>(a, b, c, r0, r1);
    } else {
      GemmAccumulateRows<false>(a, b, c, r0, r1);
    }
  };
  if (flops < kParallelFlopThreshold) {
    run_rows(0, m);
    return false;
  }
  ParallelFor(0, m, GemmRowGrain(m, k, n), run_rows);
  return false;
}

/// Shape-derived roofline tally shared by the GemmAccumulate overloads:
/// 2mkn useful flops, cold-operand traffic of A + B reads and a C
/// read+write (the accumulate), and the wall-clock the call took.
void CountGemm(const DenseMatrix& a, const DenseMatrix& b, double seconds,
               bool simd) {
  const double m = static_cast<double>(a.rows());
  const double k = static_cast<double>(a.cols());
  const double n = static_cast<double>(b.cols());
  kernel_stats_internal::AddGemm(2.0 * m * k * n,
                                 8.0 * (m * k + k * n + 2.0 * m * n), seconds,
                                 simd);
}

}  // namespace

void GemmAccumulate(const DenseMatrix& a, const DenseMatrix& b,
                    DenseMatrix* c) {
  Stopwatch sw;
  const bool simd = GemmAccumulateImpl(a, b, c);
  CountGemm(a, b, sw.ElapsedSeconds(), simd);
  const double fault = KernelFaultDelta();
  if (fault != 0.0 && a.rows() > 0 && b.cols() > 0) c->row(0)[0] += fault;
}

void GemmAccumulate(const DenseMatrix& a, const DenseMatrix& b,
                    DenseBlockView c) {
  Stopwatch sw;
  const bool simd = GemmAccumulateImpl(a, b, &c);
  CountGemm(a, b, sw.ElapsedSeconds(), simd);
  const double fault = KernelFaultDelta();
  if (fault != 0.0 && a.rows() > 0 && b.cols() > 0) c.row(0)[0] += fault;
}

DenseMatrix Gemm(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), b.cols());
  GemmAccumulate(a, b, &out);
  return out;
}

namespace {

constexpr auto kAddOp = [](double x, double y) { return x + y; };
constexpr auto kSubOp = [](double x, double y) { return x - y; };
constexpr auto kMulOp = [](double x, double y) { return x * y; };
constexpr auto kDivOp = [](double x, double y) { return x / y; };
constexpr auto kReluGradOp = [](double up, double zz) {
  return zz > 0.0 ? up : 0.0;
};
constexpr auto kReluOp = [](double x) { return x > 0.0 ? x : 0.0; };
constexpr auto kSigmoidOp = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
constexpr auto kExpOp = [](double x) { return std::exp(x); };

/// Element-wise zip with SIMD dispatch: identical ParallelFor chunking on
/// both paths, and every vector op is IEEE-exact per element, so the two
/// paths are bit-identical. Tallies one flop and three streamed doubles
/// per element for the roofline counters.
template <typename F>
void ZipDispatch(simdk::ZipKind kind, const DenseMatrix& a,
                 const DenseMatrix& b, DenseMatrix* out, F f) {
  const bool simd = SimdEnabled();
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out->data();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    if (simd) {
      simdk::ZipRange(kind, pa + i0, pb + i0, po + i0, i1 - i0);
    } else {
      for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i], pb[i]);
    }
  });
  kernel_stats_internal::AddElem(static_cast<double>(a.size()),
                                 24.0 * static_cast<double>(a.size()), simd);
}

/// Element-wise map with SIMD dispatch; `s` is the kScalarMul scalar
/// (ignored by kRelu).
template <typename F>
void MapDispatch(simdk::MapKind kind, const DenseMatrix& a, double s,
                 DenseMatrix* out, F f) {
  const bool simd = SimdEnabled();
  const double* pa = a.data();
  double* po = out->data();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    if (simd) {
      simdk::MapRange(kind, pa + i0, s, po + i0, i1 - i0);
    } else {
      for (int64_t i = i0; i < i1; ++i) po[i] = f(pa[i]);
    }
  });
  kernel_stats_internal::AddElem(static_cast<double>(a.size()),
                                 16.0 * static_cast<double>(a.size()), simd);
}

/// Roofline tally for the kernels that stay scalar (transcendental maps,
/// reductions): flops are approximate "one per element per op" counts.
void CountScalarElem(double flops, double bytes) {
  kernel_stats_internal::AddElem(flops, bytes, /*simd=*/false);
}

}  // namespace

DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  AddInto(a, b, &out);
  return out;
}

DenseMatrix Sub(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  SubInto(a, b, &out);
  return out;
}

DenseMatrix Hadamard(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  HadamardInto(a, b, &out);
  return out;
}

DenseMatrix ElemDiv(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  ElemDivInto(a, b, &out);
  return out;
}

DenseMatrix ScalarMul(const DenseMatrix& a, double s) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  ScalarMulInto(a, s, &out);
  return out;
}

void AddInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out) {
  ZipDispatch(simdk::ZipKind::kAdd, a, b, out, kAddOp);
}

void SubInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out) {
  ZipDispatch(simdk::ZipKind::kSub, a, b, out, kSubOp);
}

void HadamardInto(const DenseMatrix& a, const DenseMatrix& b,
                  DenseMatrix* out) {
  ZipDispatch(simdk::ZipKind::kMul, a, b, out, kMulOp);
}

void ElemDivInto(const DenseMatrix& a, const DenseMatrix& b,
                 DenseMatrix* out) {
  ZipDispatch(simdk::ZipKind::kDiv, a, b, out, kDivOp);
}

void ReluGradInto(const DenseMatrix& z, const DenseMatrix& upstream,
                  DenseMatrix* out) {
  ZipDispatch(simdk::ZipKind::kReluGrad, upstream, z, out, kReluGradOp);
}

void ScalarMulInto(const DenseMatrix& a, double s, DenseMatrix* out) {
  MapDispatch(simdk::MapKind::kScalarMul, a, s, out,
              [s](double x) { return x * s; });
}

void ReluInto(const DenseMatrix& a, DenseMatrix* out) {
  MapDispatch(simdk::MapKind::kRelu, a, 0.0, out, kReluOp);
}

void SigmoidInto(const DenseMatrix& a, DenseMatrix* out) {
  MapWithInto(a, out, kSigmoidOp);
  CountScalarElem(static_cast<double>(a.size()),
                  16.0 * static_cast<double>(a.size()));
}

void ExpInto(const DenseMatrix& a, DenseMatrix* out) {
  MapWithInto(a, out, kExpOp);
  CountScalarElem(static_cast<double>(a.size()),
                  16.0 * static_cast<double>(a.size()));
}

DenseMatrix Transpose(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  DenseMatrix out = DenseMatrix::Pooled(n, m);
  constexpr int64_t kTile = 64;
  // Tiled copy: both the read and the write touch at most a kTile-wide
  // stripe, keeping one side cache-resident. Parallel over row-tile bands.
  auto do_rows = [&](int64_t rb0, int64_t rb1) {
    for (int64_t rb = rb0; rb < rb1; rb += kTile) {
      const int64_t re = std::min(rb1, rb + kTile);
      for (int64_t cb = 0; cb < n; cb += kTile) {
        const int64_t ce = std::min(n, cb + kTile);
        for (int64_t r = rb; r < re; ++r) {
          for (int64_t c = cb; c < ce; ++c) out(c, r) = a(r, c);
        }
      }
    }
  };
  if (m * n < kParallelFlopThreshold) {
    do_rows(0, m);
  } else {
    int64_t grain =
        std::max<int64_t>(kTile, (kElemGrain / std::max<int64_t>(1, n) +
                                  kTile - 1) /
                                     kTile * kTile);
    ParallelFor(0, m, grain, do_rows);
  }
  return out;
}

DenseMatrix Relu(const DenseMatrix& a) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  ReluInto(a, &out);
  return out;
}

DenseMatrix ReluGrad(const DenseMatrix& z, const DenseMatrix& upstream) {
  DenseMatrix out = DenseMatrix::Pooled(z.rows(), z.cols());
  ReluGradInto(z, upstream, &out);
  return out;
}

void SoftmaxInto(const DenseMatrix& a, DenseMatrix* out) {
  const int64_t cols = a.cols();
  ParallelFor(0, a.rows(), RowGrain(a.rows(), cols),
              [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* in = a.row(r);
      double* o = out->row(r);
      double mx = *std::max_element(in, in + cols);
      double sum = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        o[c] = std::exp(in[c] - mx);
        sum += o[c];
      }
      for (int64_t c = 0; c < cols; ++c) o[c] /= sum;
    }
  });
  CountScalarElem(4.0 * static_cast<double>(a.size()),
                  16.0 * static_cast<double>(a.size()));
}

DenseMatrix Softmax(const DenseMatrix& a) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  SoftmaxInto(a, &out);
  return out;
}

DenseMatrix Sigmoid(const DenseMatrix& a) { return MapWith(a, kSigmoidOp); }

DenseMatrix Exp(const DenseMatrix& a) { return MapWith(a, kExpOp); }

DenseMatrix RowSum(const DenseMatrix& a) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), 1);
  const int64_t cols = a.cols();
  ParallelFor(0, a.rows(), RowGrain(a.rows(), cols),
              [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* in = a.row(r);
      double s = 0.0;
      for (int64_t c = 0; c < cols; ++c) s += in[c];
      out(r, 0) = s;
    }
  });
  CountScalarElem(static_cast<double>(a.size()),
                  8.0 * static_cast<double>(a.size()));
  return out;
}

DenseMatrix ColSum(const DenseMatrix& a) {
  DenseMatrix out = DenseMatrix::Pooled(1, a.cols());
  // Partitioned over disjoint column stripes; each column still
  // accumulates its rows in ascending order, matching the sequential sum.
  const int64_t rows = a.rows();
  int64_t grain = std::max<int64_t>(16, RowGrain(a.cols(), rows));
  ParallelFor(0, a.cols(), grain, [&](int64_t c0, int64_t c1) {
    double* o = out.row(0);
    for (int64_t r = 0; r < rows; ++r) {
      const double* in = a.row(r);
      for (int64_t c = c0; c < c1; ++c) o[c] += in[c];
    }
  });
  CountScalarElem(static_cast<double>(a.size()),
                  8.0 * static_cast<double>(a.size()));
  return out;
}

void BroadcastRowAddInto(const DenseMatrix& a, const DenseMatrix& vec,
                         DenseMatrix* out) {
  const int64_t cols = a.cols();
  const double* v = vec.row(0);
  const bool simd = SimdEnabled();
  ParallelFor(0, a.rows(), RowGrain(a.rows(), cols),
              [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* in = a.row(r);
      double* o = out->row(r);
      if (simd) {
        simdk::BiasRowRange(in, v, o, cols, /*relu=*/false);
      } else {
        for (int64_t c = 0; c < cols; ++c) o[c] = in[c] + v[c];
      }
    }
  });
  kernel_stats_internal::AddElem(static_cast<double>(a.size()),
                                 16.0 * static_cast<double>(a.size()), simd);
}

DenseMatrix BroadcastRowAdd(const DenseMatrix& a, const DenseMatrix& vec) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  BroadcastRowAddInto(a, vec, &out);
  return out;
}

void BiasReluInto(const DenseMatrix& a, const DenseMatrix& vec,
                  DenseMatrix* out) {
  const int64_t cols = a.cols();
  const double* v = vec.row(0);
  const bool simd = SimdEnabled();
  ParallelFor(0, a.rows(), RowGrain(a.rows(), cols),
              [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const double* in = a.row(r);
      double* o = out->row(r);
      if (simd) {
        simdk::BiasRowRange(in, v, o, cols, /*relu=*/true);
      } else {
        for (int64_t c = 0; c < cols; ++c) {
          const double s = in[c] + v[c];
          o[c] = s > 0.0 ? s : 0.0;
        }
      }
    }
  });
  kernel_stats_internal::AddElem(2.0 * static_cast<double>(a.size()),
                                 16.0 * static_cast<double>(a.size()), simd);
}

DenseMatrix BiasRelu(const DenseMatrix& a, const DenseMatrix& vec) {
  DenseMatrix out = DenseMatrix::Pooled(a.rows(), a.cols());
  BiasReluInto(a, vec, &out);
  return out;
}

void ReluGradHadamardInto(const DenseMatrix& z, const DenseMatrix& upstream,
                          const DenseMatrix& other, bool other_is_lhs,
                          DenseMatrix* out) {
  const double* pz = z.data();
  const double* pu = upstream.data();
  const double* po = other.data();
  double* pr = out->data();
  // t is materialized before the multiply so signed zeros and NaNs
  // propagate exactly as in the unfused Hadamard(ReluGrad(...), other).
  const bool simd = SimdEnabled();
  if (simd) {
    ParallelFor(0, z.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
      simdk::ReluGradHadamardRange(pz + i0, pu + i0, po + i0, pr + i0,
                                   i1 - i0, other_is_lhs);
    });
  } else if (other_is_lhs) {
    ParallelFor(0, z.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const double t = pz[i] > 0.0 ? pu[i] : 0.0;
        pr[i] = po[i] * t;
      }
    });
  } else {
    ParallelFor(0, z.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const double t = pz[i] > 0.0 ? pu[i] : 0.0;
        pr[i] = t * po[i];
      }
    });
  }
  kernel_stats_internal::AddElem(2.0 * static_cast<double>(z.size()),
                                 32.0 * static_cast<double>(z.size()), simd);
}

DenseMatrix ReluGradHadamard(const DenseMatrix& z, const DenseMatrix& upstream,
                             const DenseMatrix& other, bool other_is_lhs) {
  DenseMatrix out = DenseMatrix::Pooled(z.rows(), z.cols());
  ReluGradHadamardInto(z, upstream, other, other_is_lhs, &out);
  return out;
}

namespace {

/// Columns per LU panel: the unblocked partial-pivot loop factors one
/// panel, then a single rank-kLuPanel GEMM applies it to the trailing
/// block. A shape-only constant, like every grain.
constexpr int64_t kLuPanel = 64;

/// Factors panel columns [k0, k1) of `lu` in place with the unblocked
/// right-looking loop: pivot search, full-row swap, multiplier divide and
/// the rank-1 update, restricted to the panel's own columns (the columns
/// right of it are brought up to date by UpdateTrailing). Row swaps commute
/// with those pending updates, since a row carries its multipliers along.
/// Returns false on an exact-zero pivot.
bool FactorPanel(DenseMatrix* lu, std::vector<int64_t>* perm, int64_t k0,
                 int64_t k1) {
  const int64_t n = lu->rows();
  for (int64_t k = k0; k < k1; ++k) {
    int64_t pivot = k;
    double best = std::abs((*lu)(k, k));
    for (int64_t r = k + 1; r < n; ++r) {
      if (std::abs((*lu)(r, k)) > best) {
        best = std::abs((*lu)(r, k));
        pivot = r;
      }
    }
    if (best == 0.0) return false;
    if (pivot != k) {
      std::swap_ranges(lu->row(k), lu->row(k) + n, lu->row(pivot));
      std::swap((*perm)[k], (*perm)[pivot]);
    }
    auto eliminate = [&](int64_t r0, int64_t r1) {
      const double* pivot_row = lu->row(k);
      for (int64_t r = r0; r < r1; ++r) {
        double* row = lu->row(r);
        row[k] /= pivot_row[k];
        const double f = row[k];
        if (f == 0.0) continue;
        for (int64_t c = k + 1; c < k1; ++c) row[c] -= f * pivot_row[c];
      }
    };
    const int64_t rows = n - k - 1;
    const int64_t width = k1 - k;
    if (rows * width < kParallelFlopThreshold) {
      eliminate(k + 1, n);
    } else {
      ParallelFor(k + 1, n,
                  std::max<int64_t>(8, kParallelFlopThreshold / (4 * width)),
                  eliminate);
    }
  }
  return true;
}

/// Applies the eliminations of factored panel [k0, k1) to every column
/// right of it, in the unblocked loop's per-element order. The panel's
/// own rows (U12) take the updates of the panel rows above them, row by
/// row with ascending k. The trailing block takes A22 += (-L21) * U12
/// through the blocked GEMM: with contraction off, c + (-l) * u rounds
/// exactly like c - l * u, and the GEMM adds its k terms in ascending
/// order. The one departure is an exact-zero multiplier, which the
/// unblocked loop skips and the GEMM applies; for finite factors that
/// adds a signed zero, which can only flip the sign of a zero entry. No
/// later step can see that sign: pivoting compares magnitudes, a zero
/// multiplier is skipped either way, and in the solves a zero factor
/// entry only forms zero products, subtracted from accumulators that are
/// never -0 (they start at +0 or 1 and only a -0 minus +0 yields -0).
void UpdateTrailing(DenseMatrix* lu, int64_t k0, int64_t k1) {
  const int64_t n = lu->rows();
  const int64_t w = k1 - k0;
  const int64_t rest = n - k1;
  ParallelFor(k1, n, std::max(w, kParallelFlopThreshold / (w * w)),
              [&](int64_t c0, int64_t c1) {
                for (int64_t i = k0 + 1; i < k1; ++i) {
                  double* row = lu->row(i);
                  for (int64_t k = k0; k < i; ++k) {
                    const double f = row[k];
                    if (f == 0.0) continue;
                    const double* pivot_row = lu->row(k);
                    for (int64_t c = c0; c < c1; ++c) {
                      row[c] -= f * pivot_row[c];
                    }
                  }
                }
              });

  DenseMatrix neg_l21 = DenseMatrix::Pooled(rest, w);
  DenseMatrix u12 = DenseMatrix::Pooled(w, rest);
  for (int64_t r = 0; r < rest; ++r) {
    const double* l = lu->row(k1 + r) + k0;
    double* dst = neg_l21.row(r);
    for (int64_t p = 0; p < w; ++p) dst[p] = -l[p];
  }
  for (int64_t p = 0; p < w; ++p) {
    std::copy(lu->row(k0 + p) + k1, lu->row(k0 + p) + n, u12.row(p));
  }
  DenseBlockView a22 = lu->MutableBlock(k1, k1, rest, rest);
  GemmAccumulateImpl(neg_l21, u12, &a22);
  neg_l21.Recycle();
  u12.Recycle();
}

/// Scalar twin of simdk::LuSolvePanel: the same per-element operation
/// sequence, accumulated in a local row tile.
void LuSolvePanelScalar(const double* lu, int64_t n, double* y) {
  constexpr int64_t kW = simdk::kLuSolvePanel;
  double t[kW];
  for (int64_t i = 0; i < n; ++i) {
    const double* l = lu + i * n;
    std::copy(y + i * kW, y + (i + 1) * kW, t);
    for (int64_t c = 0; c < i; ++c) {
      const double* yc = y + c * kW;
      for (int64_t j = 0; j < kW; ++j) t[j] -= l[c] * yc[j];
    }
    std::copy(t, t + kW, y + i * kW);
  }
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* u = lu + i * n;
    std::copy(y + i * kW, y + (i + 1) * kW, t);
    for (int64_t c = i + 1; c < n; ++c) {
      const double* yc = y + c * kW;
      for (int64_t j = 0; j < kW; ++j) t[j] -= u[c] * yc[j];
    }
    for (int64_t j = 0; j < kW; ++j) y[i * kW + j] = t[j] / u[i];
  }
}

}  // namespace

Result<DenseMatrix> Inverse(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse requires a square matrix");
  }
  Stopwatch sw;
  const int64_t n = a.rows();
  DenseMatrix lu = a;
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[i] = i;

  // Blocked right-looking LU with partial pivoting, in place.
  for (int64_t k0 = 0; k0 < n; k0 += kLuPanel) {
    const int64_t k1 = std::min(n, k0 + kLuPanel);
    if (!FactorPanel(&lu, &perm, k0, k1)) {
      return Status::InvalidArgument("Inverse of a singular matrix");
    }
    if (k1 < n) UpdateTrailing(&lu, k0, k1);
  }

  // Solve LU X = P over independent kLuSolvePanel-column panels of P·I;
  // columns past n in the last panel are zero padding.
  constexpr int64_t kW = simdk::kLuSolvePanel;
  const bool simd = SimdEnabled();
  DenseMatrix out = DenseMatrix::Pooled(n, n);
  ParallelFor(0, (n + kW - 1) / kW, 1, [&](int64_t p0, int64_t p1) {
    std::vector<double> y = BufferPool::Default().AcquireZeroed(n * kW);
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * kW;
      const int64_t w = std::min(kW, n - j0);
      std::fill(y.begin(), y.end(), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        if (perm[i] >= j0 && perm[i] < j0 + w) y[i * kW + perm[i] - j0] = 1.0;
      }
      if (simd) {
        simdk::LuSolvePanel(lu.data(), n, y.data());
      } else {
        LuSolvePanelScalar(lu.data(), n, y.data());
      }
      for (int64_t i = 0; i < n; ++i) {
        std::copy(y.data() + i * kW, y.data() + i * kW + w, out.row(i) + j0);
      }
    }
    BufferPool::Default().Release(std::move(y));
  });
  const double dn = static_cast<double>(n);
  kernel_stats_internal::AddInverse(2.0 * dn * dn * dn, sw.ElapsedSeconds(),
                                    simd);
  return out;
}

DenseMatrix Identity(int64_t n) {
  DenseMatrix out(n, n);
  for (int64_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

}  // namespace matopt
