#include "la/kernels_simd.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "la/kernel_grain.h"
#include "la/simd.h"

#ifdef MATOPT_HAVE_AVX2
#include <immintrin.h>
#endif

namespace matopt {

namespace {

// -1 = no override (environment decides), 0 = forced scalar,
// 1 = forced vectorized. Same shape as the BufferPool override.
std::atomic<int> g_simd_override{-1};

bool ReadEnvEnabled() {
  const char* env = std::getenv("MATOPT_SIMD");
  return env == nullptr || env[0] != '0';
}

}  // namespace

bool SimdCompiled() {
#ifdef MATOPT_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool SimdSupportedByCpu() {
#ifdef MATOPT_HAVE_AVX2
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

bool SimdEnabled() {
  if (!SimdCompiled() || !SimdSupportedByCpu()) return false;
  const int override_value = g_simd_override.load(std::memory_order_relaxed);
  if (override_value >= 0) return override_value != 0;
  return ReadEnvEnabled();
}

void OverrideSimdEnabled(bool enabled) {
  g_simd_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void ClearSimdOverride() {
  g_simd_override.store(-1, std::memory_order_relaxed);
}

const char* SimdIsaName() { return SimdEnabled() ? "avx2" : "scalar"; }

namespace simdk {

bool Compiled() { return SimdCompiled(); }

#ifdef MATOPT_HAVE_AVX2

namespace {

constexpr int64_t kMC = kGemmRowBlock;  // rows of A packed per block
constexpr int64_t kKC = 256;            // k depth per packed block
constexpr int kMR = 6;                  // microkernel rows (kMC % kMR == 0)
constexpr int kNR = 8;                  // microkernel cols (two ymm lanes)

static_assert(kMC % kMR == 0, "packed A group offsets assume full groups");

/// Register-tiled MR_ x 8 microkernel over one packed k block. C is
/// loaded into registers, accumulated ascending-k with a separate
/// multiply and add per term (the TU is compiled without FMA and with
/// -ffp-contract=off, so no contraction is possible), then stored —
/// never staged through a zeroed temporary, which would change the
/// rounding order. 12 accumulators + 2 B lanes + 1 broadcast = 15 ymm.
template <int MR_>
void MicroKernel(const double* ap, const double* bp, double* c,
                 int64_t c_stride, int64_t kc) {
  __m256d lo[MR_], hi[MR_];
  for (int r = 0; r < MR_; ++r) {
    lo[r] = _mm256_loadu_pd(c + r * c_stride);
    hi[r] = _mm256_loadu_pd(c + r * c_stride + 4);
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    bp += kNR;
    for (int r = 0; r < MR_; ++r) {
      const __m256d av = _mm256_broadcast_sd(ap + r);
      lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(av, b0));
      hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(av, b1));
    }
    ap += MR_;
  }
  for (int r = 0; r < MR_; ++r) {
    _mm256_storeu_pd(c + r * c_stride, lo[r]);
    _mm256_storeu_pd(c + r * c_stride + 4, hi[r]);
  }
}

void RunMicroKernel(int mr, const double* ap, const double* bp, double* c,
                    int64_t c_stride, int64_t kc) {
  switch (mr) {
    case 6: MicroKernel<6>(ap, bp, c, c_stride, kc); break;
    case 5: MicroKernel<5>(ap, bp, c, c_stride, kc); break;
    case 4: MicroKernel<4>(ap, bp, c, c_stride, kc); break;
    case 3: MicroKernel<3>(ap, bp, c, c_stride, kc); break;
    case 2: MicroKernel<2>(ap, bp, c, c_stride, kc); break;
    default: MicroKernel<1>(ap, bp, c, c_stride, kc); break;
  }
}

/// Packs the full-panel columns [0, n8) of B once, shared by every row
/// chunk. Layout: ascending k blocks, then ascending 8-wide j panels,
/// each panel kc x 8 row-major — so panel (kb, jp) starts at
/// kb * n8 + jp * kc * kNR (all preceding k blocks are full).
void PackB(const DenseMatrix& b, int64_t n8, double* pack) {
  const int64_t k = b.rows();
  const int64_t n = b.cols();
  const int64_t npanels = n8 / kNR;
  ParallelFor(0, npanels, RowGrain(npanels, kNR * k),
              [&](int64_t jp0, int64_t jp1) {
                for (int64_t kb = 0; kb < k; kb += kKC) {
                  const int64_t kc = std::min(kKC, k - kb);
                  for (int64_t jp = jp0; jp < jp1; ++jp) {
                    double* dst = pack + kb * n8 + jp * kc * kNR;
                    const double* src = b.data() + kb * n + jp * kNR;
                    for (int64_t p = 0; p < kc; ++p) {
                      _mm256_storeu_pd(dst, _mm256_loadu_pd(src));
                      _mm256_storeu_pd(dst + 4, _mm256_loadu_pd(src + 4));
                      dst += kNR;
                      src += n;
                    }
                  }
                }
              });
}

/// Packs A rows [ic, ie) x k columns [kb, kb + kc) in kMR-row groups:
/// group g occupies [g * kMR * kc, ...) with element (p, r) at
/// p * mr + r, where mr is the group's (possibly partial) height.
void PackA(const DenseMatrix& a, int64_t ic, int64_t ie, int64_t kb,
           int64_t kc, double* dst) {
  const int64_t k = a.cols();
  for (int64_t g = ic; g < ie; g += kMR) {
    const int mr = static_cast<int>(std::min<int64_t>(kMR, ie - g));
    double* gp = dst + ((g - ic) / kMR) * (kMR * kc);
    for (int r = 0; r < mr; ++r) {
      const double* arow = a.data() + (g + r) * k + kb;
      for (int64_t p = 0; p < kc; ++p) gp[p * mr + r] = arow[p];
    }
  }
}

}  // namespace

void GemmAccumulateBlocked(const DenseMatrix& a, const DenseMatrix& b,
                           double* c, int64_t c_stride) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  const int64_t n8 = n - (n % kNR);
  BufferPool& pool = BufferPool::Default();

  std::vector<double> bpack = pool.AcquireZeroed(std::max<int64_t>(1, k * n8));
  PackB(b, n8, bpack.data());

  ParallelFor(0, m, GemmRowGrain(m, k, n), [&](int64_t r0, int64_t r1) {
    std::vector<double> apack = pool.AcquireZeroed(kMC * kKC);
    for (int64_t ic = r0; ic < r1; ic += kMC) {
      const int64_t ie = std::min(r1, ic + kMC);
      for (int64_t kb = 0; kb < k; kb += kKC) {
        const int64_t kc = std::min(kKC, k - kb);
        PackA(a, ic, ie, kb, kc, apack.data());
        for (int64_t jp = 0; jp < n8 / kNR; ++jp) {
          const double* bp = bpack.data() + kb * n8 + jp * kc * kNR;
          for (int64_t g = ic; g < ie; g += kMR) {
            const int mr = static_cast<int>(std::min<int64_t>(kMR, ie - g));
            const double* ap =
                apack.data() + ((g - ic) / kMR) * (kMR * kc);
            RunMicroKernel(mr, ap, bp, c + g * c_stride + jp * kNR, c_stride,
                           kc);
          }
        }
        if (n8 < n) {
          // Column tail: scalar, ascending k within the block so the
          // overall per-element term order stays ascending.
          for (int64_t i = ic; i < ie; ++i) {
            const double* arow = a.data() + i * k + kb;
            double* crow = c + i * c_stride;
            for (int64_t p = 0; p < kc; ++p) {
              const double av = arow[p];
              const double* brow = b.data() + (kb + p) * n;
              for (int64_t j = n8; j < n; ++j) crow[j] += av * brow[j];
            }
          }
        }
      }
    }
    pool.Release(std::move(apack));
  });

  pool.Release(std::move(bpack));
}

namespace {

constexpr int kSolveLanes = static_cast<int>(kLuSolvePanel / 4);
static_assert(kLuSolvePanel % 4 == 0, "a solve panel is whole ymm lanes");

/// One row of a triangular solve: y(i, :) -= sum over c in [c0, c1) of
/// coef[c] * y(c, :), ascending c with one multiply then one subtract per
/// term, held in registers; then one divide by `*diag` when non-null.
/// The unroll pragmas keep `t` in ymm registers: at -O2 GCC leaves these
/// loops rolled and spills the tile, which doubled the solve time.
inline void SolveRow(const double* coef, int64_t c0, int64_t c1,
                     const double* diag, double* y, double* yi) {
  __m256d t[kSolveLanes];
#pragma GCC unroll 8
  for (int q = 0; q < kSolveLanes; ++q) t[q] = _mm256_loadu_pd(yi + 4 * q);
  const double* yc = y + c0 * kLuSolvePanel;
  for (int64_t c = c0; c < c1; ++c, yc += kLuSolvePanel) {
    const __m256d cv = _mm256_broadcast_sd(coef + c);
#pragma GCC unroll 8
    for (int q = 0; q < kSolveLanes; ++q) {
      t[q] = _mm256_sub_pd(t[q],
                           _mm256_mul_pd(cv, _mm256_loadu_pd(yc + 4 * q)));
    }
  }
  if (diag != nullptr) {
    const __m256d d = _mm256_broadcast_sd(diag);
    for (int q = 0; q < kSolveLanes; ++q) t[q] = _mm256_div_pd(t[q], d);
  }
  for (int q = 0; q < kSolveLanes; ++q) _mm256_storeu_pd(yi + 4 * q, t[q]);
}

}  // namespace

void LuSolvePanel(const double* lu, int64_t n, double* y) {
  // Forward substitution with the unit-lower L: rows top-down.
  for (int64_t i = 0; i < n; ++i) {
    SolveRow(lu + i * n, 0, i, nullptr, y, y + i * kLuSolvePanel);
  }
  // Back substitution with U: rows bottom-up, each ending in the divide.
  for (int64_t i = n - 1; i >= 0; --i) {
    SolveRow(lu + i * n, i + 1, n, lu + i * n + i, y, y + i * kLuSolvePanel);
  }
}

void ZipRange(ZipKind kind, const double* a, const double* b, double* o,
              int64_t count) {
  int64_t i = 0;
  switch (kind) {
    case ZipKind::kAdd:
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(
            o + i, _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
      for (; i < count; ++i) o[i] = a[i] + b[i];
      break;
    case ZipKind::kSub:
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(
            o + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
      for (; i < count; ++i) o[i] = a[i] - b[i];
      break;
    case ZipKind::kMul:
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(
            o + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
      for (; i < count; ++i) o[i] = a[i] * b[i];
      break;
    case ZipKind::kDiv:
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(
            o + i, _mm256_div_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
      for (; i < count; ++i) o[i] = a[i] / b[i];
      break;
    case ZipKind::kReluGrad: {
      // (z > 0 ? up : 0.0): ordered non-signaling GT mask, so a NaN z
      // selects 0.0 exactly like the scalar comparison.
      const __m256d zero = _mm256_setzero_pd();
      for (; i + 4 <= count; i += 4) {
        const __m256d up = _mm256_loadu_pd(a + i);
        const __m256d z = _mm256_loadu_pd(b + i);
        const __m256d mask = _mm256_cmp_pd(z, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(o + i, _mm256_and_pd(mask, up));
      }
      for (; i < count; ++i) o[i] = b[i] > 0.0 ? a[i] : 0.0;
      break;
    }
  }
}

void MapRange(MapKind kind, const double* a, double s, double* o,
              int64_t count) {
  int64_t i = 0;
  switch (kind) {
    case MapKind::kRelu: {
      // maxpd returns its second operand when either input is NaN or the
      // inputs compare equal, so max(x, +0.0) matches (x > 0 ? x : 0.0)
      // bit-for-bit on NaN, +0.0 and -0.0 alike.
      const __m256d zero = _mm256_setzero_pd();
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(o + i, _mm256_max_pd(_mm256_loadu_pd(a + i), zero));
      for (; i < count; ++i) o[i] = a[i] > 0.0 ? a[i] : 0.0;
      break;
    }
    case MapKind::kScalarMul: {
      const __m256d sv = _mm256_set1_pd(s);
      for (; i + 4 <= count; i += 4)
        _mm256_storeu_pd(o + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), sv));
      for (; i < count; ++i) o[i] = a[i] * s;
      break;
    }
  }
}

void BiasRowRange(const double* in, const double* v, double* o, int64_t cols,
                  bool relu) {
  int64_t j = 0;
  if (relu) {
    const __m256d zero = _mm256_setzero_pd();
    for (; j + 4 <= cols; j += 4)
      _mm256_storeu_pd(
          o + j, _mm256_max_pd(
                     _mm256_add_pd(_mm256_loadu_pd(in + j), _mm256_loadu_pd(v + j)),
                     zero));
    for (; j < cols; ++j) {
      const double t = in[j] + v[j];
      o[j] = t > 0.0 ? t : 0.0;
    }
  } else {
    for (; j + 4 <= cols; j += 4)
      _mm256_storeu_pd(
          o + j, _mm256_add_pd(_mm256_loadu_pd(in + j), _mm256_loadu_pd(v + j)));
    for (; j < cols; ++j) o[j] = in[j] + v[j];
  }
}

void ReluGradHadamardRange(const double* z, const double* u,
                           const double* other, double* o, int64_t count,
                           bool other_is_lhs) {
  const __m256d zero = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d zv = _mm256_loadu_pd(z + i);
    const __m256d uv = _mm256_loadu_pd(u + i);
    const __m256d ov = _mm256_loadu_pd(other + i);
    const __m256d mask = _mm256_cmp_pd(zv, zero, _CMP_GT_OQ);
    const __m256d t = _mm256_and_pd(mask, uv);
    _mm256_storeu_pd(o + i, other_is_lhs ? _mm256_mul_pd(ov, t)
                                         : _mm256_mul_pd(t, ov));
  }
  for (; i < count; ++i) {
    const double t = z[i] > 0.0 ? u[i] : 0.0;
    o[i] = other_is_lhs ? other[i] * t : t * other[i];
  }
}

#else  // !MATOPT_HAVE_AVX2

// Scalar-only build: the dispatch layer never routes here (SimdEnabled()
// is constant false), so reaching a stub is a logic error.

void GemmAccumulateBlocked(const DenseMatrix&, const DenseMatrix&, double*,
                           int64_t) {
  std::abort();
}

void LuSolvePanel(const double*, int64_t, double*) { std::abort(); }

void ZipRange(ZipKind, const double*, const double*, double*, int64_t) {
  std::abort();
}

void MapRange(MapKind, const double*, double, double*, int64_t) {
  std::abort();
}

void BiasRowRange(const double*, const double*, double*, int64_t, bool) {
  std::abort();
}

void ReluGradHadamardRange(const double*, const double*, const double*,
                           double*, int64_t, bool) {
  std::abort();
}

#endif  // MATOPT_HAVE_AVX2

}  // namespace simdk

}  // namespace matopt
