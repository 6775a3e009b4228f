/**
 * @file
 * Tests for the packed-panel row kernel (tensor/simd): the dispatched
 * ISA reports a consistent width, and both the dispatched and the
 * portable kernel are bit-identical to a literal scalar loop across
 * tail lengths, misaligned views and zero-skipped x values.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "tensor/simd.hh"

namespace
{

using namespace hector;
namespace simd = tensor::simd;

TEST(SimdDispatch, ReportsConsistentIsaAndWidth)
{
    const std::string isa = simd::isaName();
    const int lanes = simd::vectorWidth();
    if (isa == "avx2")
        EXPECT_EQ(lanes, 8);
    else if (isa == "neon")
        EXPECT_EQ(lanes, 4);
    else {
        EXPECT_EQ(isa, "portable");
        EXPECT_EQ(lanes, 1);
    }
}

using RowPanelFn = decltype(&simd::rowPanel);

/**
 * @p kernel against a literal scalar loop across sizes that are
 * deliberately not multiples of any lane width, with offset
 * (unaligned) pointers and a zero x value that must be skipped.
 */
void
expectBitwiseAcrossTailsAndAlignment(RowPanelFn kernel)
{
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

    for (std::int64_t n :
         {1, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 40, 64, 71, 136, 200}) {
        for (std::int64_t kb : {1, 2, 7, 64}) {
            for (std::int64_t off : {0, 1, 3}) { // misalign the views
                std::vector<float> x(static_cast<std::size_t>(kb + off));
                std::vector<float> panel(
                    static_cast<std::size_t>(kb * n + off));
                std::vector<float> y_ref(
                    static_cast<std::size_t>(n + off), 0.5f);
                for (auto &v : x)
                    v = dist(rng);
                x[static_cast<std::size_t>(off)] = 0.0f; // zero-skip
                for (auto &v : panel)
                    v = dist(rng);
                std::vector<float> y = y_ref;

                // Scalar reference: the seed's exact loop.
                for (std::int64_t kk = 0; kk < kb; ++kk) {
                    const float xv =
                        1.25f * x[static_cast<std::size_t>(kk + off)];
                    if (xv == 0.0f)
                        continue;
                    for (std::int64_t j = 0; j < n; ++j)
                        y_ref[static_cast<std::size_t>(j + off)] +=
                            xv *
                            panel[static_cast<std::size_t>(kk * n + j +
                                                           off)];
                }

                kernel(y.data() + off, x.data() + off, 1.25f,
                       panel.data() + off, kb, n);
                EXPECT_EQ(std::memcmp(y_ref.data(), y.data(),
                                      y_ref.size() * sizeof(float)),
                          0)
                    << "n=" << n << " kb=" << kb << " off=" << off;
            }
        }
    }
}

TEST(SimdRowPanel, DispatchedBitwiseAcrossTailsAndAlignment)
{
    expectBitwiseAcrossTailsAndAlignment(simd::rowPanel);
}

/** The portable kernel is reachable on every host, not only on CPUs
 *  without AVX2 or NEON. */
TEST(SimdRowPanel, PortableBitwiseAcrossTailsAndAlignment)
{
    expectBitwiseAcrossTailsAndAlignment(simd::rowPanelPortable);
}

} // namespace
