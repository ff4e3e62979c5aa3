#ifndef MATOPT_LA_SIMD_H_
#define MATOPT_LA_SIMD_H_

namespace matopt {

/// Runtime control of the vectorized kernel paths (DESIGN.md §13).
///
/// The AVX2 microkernels live in la/kernels_simd.cc, compiled with -mavx2
/// only when CMake feature detection succeeds (-DMATOPT_SIMD=OFF forces
/// the portable scalar build). At runtime the vectorized path is taken
/// when it was compiled in, the CPU reports AVX2, and neither the
/// MATOPT_SIMD environment variable (0 = scalar, 1 = vectorized) nor a
/// programmatic override says otherwise.
///
/// Every SIMD kernel follows the exact scalar kernel contract — for GEMM,
/// each output element accumulates its terms in ascending-k order, one
/// multiply followed by one add per term (no FMA contraction) — so the
/// two paths are bit-identical and the knob is output-invariant, like
/// MATOPT_THREADS / MATOPT_POOL.

/// True when la/kernels_simd.cc was built with AVX2 support.
bool SimdCompiled();

/// True when the running CPU supports the compiled vector ISA.
bool SimdSupportedByCpu();

/// Whether kernels take the vectorized path right now: the override when
/// set, else the MATOPT_SIMD environment variable, else compiled-in
/// availability AND CPU support.
bool SimdEnabled();

/// Forces SimdEnabled() for A/B runs within one process (bench_kernels,
/// the fuzz simd_off determinism oracle). Enabling when the vectorized
/// path is not available is a no-op (kernels stay scalar).
void OverrideSimdEnabled(bool enabled);
/// Restores environment-driven behaviour after OverrideSimdEnabled.
void ClearSimdOverride();

/// "avx2" when the vectorized path is active, "scalar" otherwise.
const char* SimdIsaName();

}  // namespace matopt

#endif  // MATOPT_LA_SIMD_H_
