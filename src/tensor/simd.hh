/**
 * @file
 * The packed-panel GEMM row kernel, vectorized behind a runtime
 * dispatch shim.
 *
 * rowPanel is the inner two loops of every blocked GEMM row the
 * executor runs (core/executor.cc, execGemm). Its elements are
 * independent, so vectorizing the j loop performs exactly one multiply
 * rounding and one add rounding per element — the same bits as the
 * scalar loop at every lane width, provided the compiler never
 * contracts mul+add into an FMA (the build passes -ffp-contract=off).
 * The vector kernels also hold each column strip of y in registers
 * while kk walks the panel, so y is read and written once per strip
 * rather than once per kk; the order of each element's additions is
 * unchanged.
 *
 * Dispatch: the best ISA (AVX2 on x86-64 via __builtin_cpu_supports,
 * NEON on aarch64, the portable kernel otherwise) is resolved once per
 * process. The portable kernel is also callable by name, so tests and
 * benches compare the two without a mode switch.
 */

#ifndef HECTOR_TENSOR_SIMD_HH
#define HECTOR_TENSOR_SIMD_HH

#include <cstdint>

namespace hector::tensor::simd
{

/** Name of the dispatched ISA: "avx2", "neon" or "portable". */
const char *isaName();

/** Lane count of the dispatched ISA (8 for AVX2, 4 for NEON, 1). */
int vectorWidth();

/**
 * Row x packed-panel micro-kernel. For kk in [0, kb): xv = scale *
 * xrow[kk]; zero xv skipped; y[j] += xv * panel[kk * n + j] for j in
 * [0, n). kk ascends and each output element sees one mul + one add
 * per contribution: bit-identical to the seed order at any lane
 * width. Runs the dispatched ISA's kernel.
 */
void rowPanel(float *y, const float *xrow, float scale,
              const float *panel, std::int64_t kb, std::int64_t n);

/** rowPanel's portable scalar kernel: the bitwise reference, and the
 *  only path on a CPU without AVX2 or NEON. */
void rowPanelPortable(float *y, const float *xrow, float scale,
                      const float *panel, std::int64_t kb,
                      std::int64_t n);

} // namespace hector::tensor::simd

#endif // HECTOR_TENSOR_SIMD_HH
