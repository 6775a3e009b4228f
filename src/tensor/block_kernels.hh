/**
 * @file
 * Machinery of the executor's cache-blocked GEMM path.
 *
 * The executor's GEMM instances (core/executor.cc) tile the k
 * dimension in schedule-derived chunks and stream rows over a packed,
 * contiguous panel of op(W). The block size, the per-thread panel
 * buffer, the packing routine, and the dispatch-grain formula live
 * here. The bit-exactness argument (per output element, kk blocks
 * visited in ascending order with kk ascending inside each block, zero
 * x-values skipped) holds at every block size.
 */

#ifndef HECTOR_TENSOR_BLOCK_KERNELS_HH
#define HECTOR_TENSOR_BLOCK_KERNELS_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace hector::tensor::blocked
{

/**
 * k-block a GEMM schedule maps to on the host execution engine: the
 * tile edge times the per-thread coarsening factor, scaled so the
 * default schedule (tileSz 16, coarsening 1) lands on 64 (a 16 KB
 * panel at n = 64, resident in L1/L2 while every row of an i-range
 * streams over it). Changing the block size never changes results —
 * per output element the kk chunks are visited in ascending order with
 * kk ascending inside each chunk, so the accumulation order is the
 * seed's regardless of where the chunk boundaries fall — it only moves
 * the working-set/packing trade-off.
 */
inline std::int64_t
kBlockFor(int tile_sz, int coarsening)
{
    const std::int64_t blk = static_cast<std::int64_t>(tile_sz) * 4 *
                             std::max(1, coarsening);
    return std::clamp<std::int64_t>(blk, 16, 256);
}

/** The per-thread packed-weight panel, reused across kernels and
 *  launches, grown to hold @p kb x n floats. */
inline float *
panelFor(std::int64_t kb, std::int64_t n)
{
    static thread_local std::vector<float> panel;
    if (panel.size() < static_cast<std::size_t>(kb * n))
        panel.resize(static_cast<std::size_t>(kb * n));
    return panel.data();
}

/**
 * Pack rows [k0, k0+kb) of op(W) into @p panel, kk-major and
 * contiguous: panel[kk * n + j] = op(W)[k0 + kk][j].
 *
 * @param w    weight slice base
 * @param ld   leading dimension (stride between stored rows of w)
 * @param trans when true, op(W)[kk][j] = w[j * ld + kk] (transposed
 *             use, packed into contiguous form)
 */
inline void
packPanel(const float *w, std::int64_t ld, bool trans, std::int64_t k0,
          std::int64_t kb, std::int64_t n, float *panel)
{
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        float *prow = panel + kk * n;
        if (!trans) {
            std::memcpy(prow, w + (k0 + kk) * ld,
                        static_cast<std::size_t>(n) * sizeof(float));
        } else {
            for (std::int64_t j = 0; j < n; ++j)
                prow[j] = w[j * ld + (k0 + kk)];
        }
    }
}

/** Row grain that amortizes one pool dispatch against ~64k FLOPs. */
inline std::int64_t
rowGrain(std::int64_t k, std::int64_t n)
{
    const std::int64_t work = std::max<std::int64_t>(1, 2 * k * n);
    return std::max<std::int64_t>(4, 32768 / work);
}

} // namespace hector::tensor::blocked

#endif // HECTOR_TENSOR_BLOCK_KERNELS_HH
