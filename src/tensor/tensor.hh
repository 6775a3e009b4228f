/**
 * @file
 * Minimal dense f32 tensor used throughout the Hector reproduction.
 *
 * The tensor is row-major, up to three-dimensional, and owns its
 * storage through a shared handle so views/copies are cheap and
 * exception safe. All storage registers with the thread's
 * MemoryTracker, which is how the simulated-device memory experiments
 * (Fig. 10, OOM columns) observe the footprint of every strategy.
 */

#ifndef HECTOR_TENSOR_TENSOR_HH
#define HECTOR_TENSOR_TENSOR_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "tensor/memory_tracker.hh"

namespace hector::tensor
{

/** Generic invariant-violation error for the tensor library. */
class TensorError : public std::runtime_error
{
  public:
    explicit TensorError(const std::string &what) : std::runtime_error(what)
    {}
};

/** Throwing check used across the library (user-facing errors). */
inline void
checkThat(bool cond, const std::string &msg)
{
    if (!cond)
        throw TensorError(msg);
}

/**
 * Reference-counted flat storage that reports its size to the
 * current MemoryTracker for device-footprint accounting.
 */
class Storage
{
  public:
    explicit Storage(std::size_t numel) : tracker_(currentTracker())
    {
        if (tracker_)
            tracker_->onAlloc(numel * sizeof(float));
        data_.assign(numel, 0.0f);
    }

    ~Storage()
    {
        if (tracker_)
            tracker_->onFree(data_.size() * sizeof(float));
    }

    Storage(const Storage &) = delete;
    Storage &operator=(const Storage &) = delete;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::size_t size() const { return data_.size(); }

  private:
    MemoryTracker *tracker_;
    std::vector<float> data_;
};

/**
 * Dense row-major float tensor, rank 0 to 3.
 *
 * Copying a Tensor shares storage (like a framework tensor); use
 * clone() for a deep copy. Shape is immutable after construction
 * except through reshape(), which shares storage.
 */
class Tensor
{
  public:
    /** An empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Allocates a zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape))
    {
        std::size_t n = 1;
        for (std::int64_t d : shape_) {
            checkThat(d >= 0, "negative dimension");
            n *= static_cast<std::size_t>(d);
        }
        storage_ = std::make_shared<Storage>(n);
    }

    static Tensor
    zeros(std::vector<std::int64_t> shape)
    {
        return Tensor(std::move(shape));
    }

    static Tensor
    full(std::vector<std::int64_t> shape, float value)
    {
        Tensor t(std::move(shape));
        float *p = t.data();
        for (std::size_t i = 0; i < t.numel(); ++i)
            p[i] = value;
        return t;
    }

    /** Uniform(-bound, bound) initialization with a caller-owned RNG. */
    static Tensor
    uniform(std::vector<std::int64_t> shape, std::mt19937_64 &rng,
            float bound = 0.1f)
    {
        Tensor t(std::move(shape));
        std::uniform_real_distribution<float> dist(-bound, bound);
        float *p = t.data();
        for (std::size_t i = 0; i < t.numel(); ++i)
            p[i] = dist(rng);
        return t;
    }

    bool defined() const { return storage_ != nullptr; }
    int ndim() const { return static_cast<int>(shape_.size()); }
    const std::vector<std::int64_t> &shape() const { return shape_; }

    std::int64_t
    dim(int i) const
    {
        checkThat(i >= 0 && i < ndim(), "dim index out of range");
        return shape_[static_cast<std::size_t>(i)];
    }

    std::size_t
    numel() const
    {
        if (!storage_)
            return 0;
        // Shape-derived so a view into a larger arena buffer (see
        // viewAt) reports its logical element count, not the
        // backing capacity. For ordinarily constructed tensors the two
        // are identical.
        std::size_t n = 1;
        for (std::int64_t d : shape_)
            n *= static_cast<std::size_t>(d);
        return n;
    }

    /** Elements the backing storage holds from this tensor's first
     *  element on (>= numel for views). */
    std::size_t
    capacity() const
    {
        return storage_ ? storage_->size() - offset_ : 0;
    }

    std::size_t bytes() const { return numel() * sizeof(float); }

    float *data() { return storage_ ? storage_->data() + offset_ : nullptr; }
    const float *
    data() const
    {
        return storage_ ? storage_->data() + offset_ : nullptr;
    }

    float &
    at(std::int64_t i)
    {
        assert(ndim() == 1);
        return data()[i];
    }

    float
    at(std::int64_t i) const
    {
        assert(ndim() == 1);
        return data()[i];
    }

    float &
    at(std::int64_t i, std::int64_t j)
    {
        assert(ndim() == 2);
        return data()[i * shape_[1] + j];
    }

    float
    at(std::int64_t i, std::int64_t j) const
    {
        assert(ndim() == 2);
        return data()[i * shape_[1] + j];
    }

    float &
    at(std::int64_t i, std::int64_t j, std::int64_t k)
    {
        assert(ndim() == 3);
        return data()[(i * shape_[1] + j) * shape_[2] + k];
    }

    float
    at(std::int64_t i, std::int64_t j, std::int64_t k) const
    {
        assert(ndim() == 3);
        return data()[(i * shape_[1] + j) * shape_[2] + k];
    }

    /** Pointer to row i of a rank-2 tensor (or slice i of rank 3). */
    float *
    row(std::int64_t i)
    {
        assert(ndim() >= 2);
        std::int64_t stride = 1;
        for (int d = 1; d < ndim(); ++d)
            stride *= shape_[static_cast<std::size_t>(d)];
        return data() + i * stride;
    }

    const float *
    row(std::int64_t i) const
    {
        return const_cast<Tensor *>(this)->row(i);
    }

    /** Deep copy with fresh (tracked) storage. */
    Tensor
    clone() const
    {
        Tensor t(shape_);
        const float *src = data();
        float *dst = t.data();
        for (std::size_t i = 0; i < numel(); ++i)
            dst[i] = src[i];
        return t;
    }

    /** Shares storage under a new shape with identical element count. */
    Tensor
    reshape(std::vector<std::int64_t> shape) const
    {
        std::size_t n = 1;
        for (std::int64_t d : shape)
            n *= static_cast<std::size_t>(d);
        checkThat(n == numel(), "reshape changes element count");
        Tensor t;
        t.storage_ = storage_;
        t.offset_ = offset_;
        t.shape_ = std::move(shape);
        return t;
    }

    /**
     * Shares elements [offset, offset + product(shape)) of this
     * tensor's storage under a new shape. Unlike reshape(), the view
     * may cover only part of the backing storage — this is how the
     * executor's arena hands out per-request tensors at packed offsets
     * of pooled buffers without reallocating.
     */
    Tensor
    viewAt(std::size_t offset, std::vector<std::int64_t> shape) const
    {
        std::size_t n = 1;
        for (std::int64_t d : shape) {
            checkThat(d >= 0, "viewAt: negative dimension");
            n *= static_cast<std::size_t>(d);
        }
        checkThat(storage_ != nullptr &&
                      offset_ + offset + n <= storage_->size(),
                  "viewAt exceeds storage capacity");
        Tensor t;
        t.storage_ = storage_;
        t.offset_ = offset_ + offset;
        t.shape_ = std::move(shape);
        return t;
    }

    void
    fill(float value)
    {
        float *p = data();
        for (std::size_t i = 0; i < numel(); ++i)
            p[i] = value;
    }

  private:
    std::shared_ptr<Storage> storage_;
    /** First element of this tensor in storage_ (views). */
    std::size_t offset_ = 0;
    std::vector<std::int64_t> shape_;
};

/** Max-abs difference between two same-shaped tensors. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

/** True when shapes match and every element differs by <= tol. */
bool allClose(const Tensor &a, const Tensor &b, float tol = 1e-4f);

/**
 * FNV-1a fingerprint over the tensor's shape and byte representation.
 * Operating on bytes (not float values) makes every representational
 * change visible: a sign flip, a one-ulp step, even +0 -> -0 changes
 * the checksum, which is what the serving layer's redundant-execution
 * fault detection compares. Deterministic across runs and thread
 * counts (the data itself is, by the bit-identity invariant).
 */
std::uint64_t checksum(const Tensor &t);

/** checksum() folded over a batch of tensors, order-sensitive. */
std::uint64_t checksum(const std::vector<Tensor> &ts);

} // namespace hector::tensor

#endif // HECTOR_TENSOR_TENSOR_HH
