/**
 * @file
 * Unit tests for the tensor substrate: storage tracking and OOM
 * semantics, and tensor shape handling.
 */

#include <gtest/gtest.h>

#include <random>

#include "tensor/memory_tracker.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace hector::tensor;

TEST(MemoryTracker, TracksLivePeakAndTotals)
{
    MemoryTracker t;
    t.onAlloc(100);
    t.onAlloc(50);
    EXPECT_EQ(t.liveBytes(), 150u);
    EXPECT_EQ(t.peakBytes(), 150u);
    t.onFree(100);
    EXPECT_EQ(t.liveBytes(), 50u);
    EXPECT_EQ(t.peakBytes(), 150u);
    t.onAlloc(25);
    EXPECT_EQ(t.peakBytes(), 150u);
    EXPECT_EQ(t.totalAllocBytes(), 175u);
    EXPECT_EQ(t.allocCount(), 3u);
}

TEST(MemoryTracker, ThrowsOomAtCapacity)
{
    MemoryTracker t(1000);
    t.onAlloc(800);
    EXPECT_THROW(t.onAlloc(300), OomError);
    EXPECT_EQ(t.oomCount(), 1u);
    // The failed allocation must not be accounted as live.
    EXPECT_EQ(t.liveBytes(), 800u);
    t.onAlloc(200); // exactly at capacity is fine
    EXPECT_EQ(t.liveBytes(), 1000u);
}

TEST(MemoryTracker, OomErrorCarriesContext)
{
    MemoryTracker t(10);
    try {
        t.onAlloc(64);
        FAIL();
    } catch (const OomError &e) {
        EXPECT_EQ(e.requestedBytes, 64u);
        EXPECT_EQ(e.capacityBytes, 10u);
    }
}

TEST(MemoryTracker, ScopeInstallsAndRestores)
{
    EXPECT_EQ(currentTracker(), nullptr);
    MemoryTracker outer;
    {
        TrackerScope s1(&outer);
        EXPECT_EQ(currentTracker(), &outer);
        MemoryTracker inner;
        {
            TrackerScope s2(&inner);
            EXPECT_EQ(currentTracker(), &inner);
            Tensor t({8, 8});
            EXPECT_EQ(inner.liveBytes(), 8u * 8u * 4u);
            EXPECT_EQ(outer.liveBytes(), 0u);
        }
        EXPECT_EQ(currentTracker(), &outer);
        // Inner tensor freed with its scope's tracker.
    }
    EXPECT_EQ(currentTracker(), nullptr);
}

TEST(MemoryTracker, TensorStorageFreesAgainstItsOwnTracker)
{
    MemoryTracker t;
    Tensor escaped;
    {
        TrackerScope scope(&t);
        escaped = Tensor({4, 4});
        EXPECT_EQ(t.liveBytes(), 64u);
    }
    // Freed after scope exit: the storage remembers its tracker.
    escaped = Tensor();
    EXPECT_EQ(t.liveBytes(), 0u);
}

TEST(Tensor, ShapeAndAccessors)
{
    Tensor t({3, 5});
    EXPECT_EQ(t.ndim(), 2);
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 5);
    EXPECT_EQ(t.numel(), 15u);
    t.at(2, 4) = 7.0f;
    EXPECT_EQ(t.data()[14], 7.0f);
    EXPECT_EQ(t.row(2)[4], 7.0f);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({17, 3});
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(Tensor, CopySharesStorageCloneDoesNot)
{
    Tensor a({2, 2});
    a.at(0, 0) = 1.0f;
    Tensor b = a;
    b.at(0, 0) = 2.0f;
    EXPECT_EQ(a.at(0, 0), 2.0f);
    Tensor c = a.clone();
    c.at(0, 0) = 3.0f;
    EXPECT_EQ(a.at(0, 0), 2.0f);
}

TEST(Tensor, ReshapeSharesStorageAndChecksCount)
{
    Tensor a({4, 6});
    Tensor b = a.reshape({2, 12});
    b.at(0, 0) = 9.0f;
    EXPECT_EQ(a.at(0, 0), 9.0f);
    EXPECT_THROW(a.reshape({5, 5}), TensorError);
}

TEST(Tensor, FullAndUniform)
{
    Tensor f = Tensor::full({3}, 2.5f);
    EXPECT_EQ(f.at(1), 2.5f);
    std::mt19937_64 rng(1);
    Tensor u = Tensor::uniform({100}, rng, 0.5f);
    for (std::size_t i = 0; i < u.numel(); ++i) {
        EXPECT_LE(u.data()[i], 0.5f);
        EXPECT_GE(u.data()[i], -0.5f);
    }
}

TEST(Tensor, AllCloseAndMaxAbsDiff)
{
    Tensor a = Tensor::full({4}, 1.0f);
    Tensor b = Tensor::full({4}, 1.0f);
    EXPECT_TRUE(allClose(a, b));
    b.at(2) = 1.5f;
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 0.5f);
    EXPECT_FALSE(allClose(a, b, 0.4f));
    EXPECT_FALSE(allClose(a, Tensor({5})));
}

} // namespace
