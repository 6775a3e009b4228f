#include "tensor/simd.hh"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define HECTOR_ISA_X86 1
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#define HECTOR_ISA_NEON 1
#endif

namespace hector::tensor::simd
{

namespace
{

// ------------------------------------------------- register-blocked
//
// The vector kernels hold a strip of y in registers across the whole
// kk walk, so each panel element costs one load, one mul and one add
// and y is read and written once per strip, not once per kk (the
// portable loop's load/store of y per kk bounds it however the
// compiler vectorizes it). Each output element still sees its
// contributions in ascending kk with zero x values skipped, one mul
// rounding and one add rounding each: the portable loop's bits.
// Written once over GCC vector extensions and instantiated per ISA;
// `xv * p` broadcasts the scalar, and -ffp-contract=off keeps the
// multiply and the add separate.

/**
 * Columns [0, A * lanes(V)) of one row: A vector accumulators loaded
 * from y, advanced over every kk, stored back. @p panel points at the
 * strip's first column; @p n is the panel's row stride.
 */
template <typename V, int A>
[[gnu::always_inline]] inline void
panelStrip(float *y, const float *xrow, float scale, const float *panel,
           std::int64_t kb, std::int64_t n)
{
    constexpr int L = sizeof(V) / sizeof(float);
    V acc[A];
    for (int a = 0; a < A; ++a)
        std::memcpy(&acc[a], y + a * L, sizeof(V));
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = scale * xrow[kk];
        if (xv == 0.0f)
            continue;
        const float *prow = panel + kk * n;
        for (int a = 0; a < A; ++a) {
            V p;
            std::memcpy(&p, prow + a * L, sizeof(V));
            acc[a] += xv * p;
        }
    }
    for (int a = 0; a < A; ++a)
        std::memcpy(y + a * L, &acc[a], sizeof(V));
}

/** rowPanel over vectors of type V: strips of 8, 4, 2 and 1 vectors,
 *  then the columns short of one vector, each walked over kk alone. */
template <typename V>
[[gnu::always_inline]] inline void
rowPanelBlocked(float *y, const float *xrow, float scale,
                const float *panel, std::int64_t kb, std::int64_t n)
{
    constexpr std::int64_t L = sizeof(V) / sizeof(float);
    std::int64_t j = 0;
    for (; j + 8 * L <= n; j += 8 * L)
        panelStrip<V, 8>(y + j, xrow, scale, panel + j, kb, n);
    if (j + 4 * L <= n) {
        panelStrip<V, 4>(y + j, xrow, scale, panel + j, kb, n);
        j += 4 * L;
    }
    if (j + 2 * L <= n) {
        panelStrip<V, 2>(y + j, xrow, scale, panel + j, kb, n);
        j += 2 * L;
    }
    if (j + L <= n) {
        panelStrip<V, 1>(y + j, xrow, scale, panel + j, kb, n);
        j += L;
    }
    for (; j < n; ++j) {
        float acc = y[j];
        for (std::int64_t kk = 0; kk < kb; ++kk) {
            const float xv = scale * xrow[kk];
            if (xv == 0.0f)
                continue;
            acc += xv * panel[kk * n + j];
        }
        y[j] = acc;
    }
}

// --------------------------------------------------------------- AVX2
//
// Compiled with a target("avx2") function attribute so the translation
// unit itself stays buildable at the baseline -march (the dispatcher
// only ever calls it after __builtin_cpu_supports("avx2")); the
// always-inline body above takes on the attribute's instruction set.

#if defined(HECTOR_ISA_X86) && defined(__GNUC__)
#define HECTOR_HAVE_AVX2_DISPATCH 1

typedef float F32x8 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void
rowPanelAvx2(float *y, const float *xrow, float scale, const float *panel,
             std::int64_t kb, std::int64_t n)
{
    rowPanelBlocked<F32x8>(y, xrow, scale, panel, kb, n);
}

bool
avx2Supported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

#endif // HECTOR_HAVE_AVX2_DISPATCH

// --------------------------------------------------------------- NEON
//
// NEON is baseline on aarch64, so no target attribute or cpuid check
// is needed.

#if defined(HECTOR_ISA_NEON)

typedef float F32x4 __attribute__((vector_size(16)));

void
rowPanelNeon(float *y, const float *xrow, float scale, const float *panel,
             std::int64_t kb, std::int64_t n)
{
    rowPanelBlocked<F32x4>(y, xrow, scale, panel, kb, n);
}

#endif // HECTOR_ISA_NEON

// ----------------------------------------------------------- dispatch

struct Dispatch
{
    void (*rowPanel)(float *, const float *, float, const float *,
                     std::int64_t, std::int64_t);
    const char *isa;
    int lanes;
};

/** Best ISA the running CPU offers, resolved once. */
const Dispatch &
best()
{
    static const Dispatch d = []() -> Dispatch {
#if defined(HECTOR_HAVE_AVX2_DISPATCH)
        if (avx2Supported())
            return {rowPanelAvx2, "avx2", 8};
#endif
#if defined(HECTOR_ISA_NEON)
        return {rowPanelNeon, "neon", 4};
#endif
        return {rowPanelPortable, "portable", 1};
    }();
    return d;
}

} // namespace

const char *
isaName()
{
    return best().isa;
}

int
vectorWidth()
{
    return best().lanes;
}

void
rowPanelPortable(float *y, const float *xrow, float scale,
                 const float *panel, std::int64_t kb, std::int64_t n)
{
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = scale * xrow[kk];
        if (xv == 0.0f)
            continue;
        const float *prow = panel + kk * n;
        for (std::int64_t j = 0; j < n; ++j)
            y[j] += xv * prow[j];
    }
}

void
rowPanel(float *y, const float *xrow, float scale, const float *panel,
         std::int64_t kb, std::int64_t n)
{
    best().rowPanel(y, xrow, scale, panel, kb, n);
}

} // namespace hector::tensor::simd
