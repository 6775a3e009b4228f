#include "core/executor.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/jit.hh"
#include "core/lowering.hh"
#include "obs/trace.hh"
#include "tensor/block_kernels.hh"
#include "tensor/simd.hh"
#include "util/thread_pool.hh"

namespace hector::core
{

using tensor::Tensor;

std::int64_t
ExecutionContext::rowsOf(RowDomain d) const
{
    switch (d) {
      case RowDomain::Edges:
        return g->numEdges();
      case RowDomain::UniquePairs:
        if (!cmap)
            throw std::runtime_error(
                "compact domain requires a CompactionMap");
        return cmap->numUnique();
      case RowDomain::Nodes:
        return g->numNodes();
    }
    throw std::logic_error("rowsOf: invalid RowDomain enum value");
}

std::int64_t
ExecutionContext::rowsOf(SlotRows r) const
{
    switch (r) {
      case SlotRows::Nodes:
        return g->numNodes();
      case SlotRows::Edges:
        return g->numEdges();
      case SlotRows::UniquePairs:
        if (!cmap)
            throw std::runtime_error(
                "compact slot requires a CompactionMap");
        return cmap->numUnique();
    }
    throw std::logic_error("rowsOf: invalid SlotRows enum value");
}

void
ExecutionContext::adoptPlan(const MemoryPlan *plan)
{
    if (plan_ != plan) {
        plan_ = plan;
        layoutValid_ = false;
        const std::size_t n = plan_ ? plan_->slots.size() : 0;
        slotViews_.assign(n, Tensor());
        slotBound_.assign(n, 0);
    }
}

void
ExecutionContext::reset(const graph::HeteroGraph *graph,
                        const graph::CompactionMap *cm, sim::Runtime *runtime,
                        std::map<std::string, Tensor> *w,
                        std::map<std::string, Tensor> *wg)
{
    g = graph;
    cmap = cm;
    rt = runtime;
    weights = w;
    weightGrads = wg;
    tensors.clear();
    rowTables_.clear();
    std::fill(slotBound_.begin(), slotBound_.end(), 0);
    std::fill(slotViews_.begin(), slotViews_.end(), Tensor());
}

const ArenaLayout &
ExecutionContext::layout()
{
    const ArenaRows rows{g->numNodes(), g->numEdges(),
                         cmap ? cmap->numUnique() : 0};
    if (!layoutValid_ || !(layout_.rows == rows)) {
        layout_ = plan_->pack(rows);
        layoutValid_ = true;
    }
    return layout_;
}

namespace
{

/** Grow @p buf to hold @p bytes: release, then allocate, so the memory
 *  tracker never counts the old and the new buffer at once. */
Tensor &
growTo(Tensor &buf, std::size_t bytes)
{
    const std::size_t n = bytes / sizeof(float);
    // !defined() matters for the zero-row case: an empty-graph slot
    // needs 0 elements, but a view still needs backing storage.
    if (!buf.defined() || buf.capacity() < n) {
        buf = Tensor();
        buf = Tensor({static_cast<std::int64_t>(n)});
    }
    return buf;
}

} // namespace

Tensor &
ExecutionContext::materializeSlot(int slot)
{
    const MemoryPlan::Slot &s =
        plan_->slots[static_cast<std::size_t>(slot)];
    if (s.backing == MemoryPlan::Backing::External)
        throw std::runtime_error(
            "materializeSlot: external slot must be bound by the caller");
    const std::int64_t rows = rowsOf(s.rows);
    const std::size_t needed =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(s.cols);
    Tensor view;
    if (s.backing == MemoryPlan::Backing::Own) {
        view = growTo(ownBuf_, needed * sizeof(float))
                   .viewAt(0, {rows, s.cols});
    } else {
        const ArenaLayout &lay = layout();
        const std::size_t off = lay.offset[static_cast<std::size_t>(slot)];
        const bool past = off >= lay.forwardBytes && needed != 0;
        const std::size_t base = past ? lay.forwardBytes : 0;
        Tensor &region = growTo(regions_[past ? 1 : 0],
                                past ? lay.totalBytes - lay.forwardBytes
                                     : lay.forwardBytes);
        view = region.viewAt((off - base) / sizeof(float), {rows, s.cols});
    }
    if (needed != 0)
        std::memset(view.data(), 0, needed * sizeof(float));
    slotViews_[static_cast<std::size_t>(slot)] = std::move(view);
    slotBound_[static_cast<std::size_t>(slot)] = 1;
    return slotViews_[static_cast<std::size_t>(slot)];
}

Tensor &
ExecutionContext::slotTensor(int slot)
{
    if (!plan_ || slot < 0 ||
        static_cast<std::size_t>(slot) >= slotViews_.size())
        throw std::logic_error("slotTensor: no such slot");
    if (!slotBound_[static_cast<std::size_t>(slot)]) {
        if (plan_->slots[static_cast<std::size_t>(slot)].backing ==
            MemoryPlan::Backing::External)
            throw std::runtime_error(
                "slotTensor: external input was never bound");
        return materializeSlot(slot);
    }
    return slotViews_[static_cast<std::size_t>(slot)];
}

void
ExecutionContext::bindExternal(const std::string &name, Tensor t)
{
    if (plan_) {
        const int slot = plan_->slotOf(name);
        if (slot >= 0) {
            slotViews_[static_cast<std::size_t>(slot)] = t;
            slotBound_[static_cast<std::size_t>(slot)] = 1;
        }
    }
    tensors.insert_or_assign(name, std::move(t));
}

Tensor &
ExecutionContext::ensureTensor(const Program &p, const std::string &var)
{
    if (rowTable(var))
        throw std::logic_error("ensureTensor: " + var +
                               " is addressed through a row table");
    if (plan_) {
        const int slot = plan_->slotOf(var);
        if (slot >= 0)
            return slotTensor(slot);
    }
    auto it = tensors.find(var);
    if (it != tensors.end())
        return it->second;
    const auto &vi = p.varInfo(var);
    std::int64_t rows = 0;
    switch (vi.space) {
      case VarSpace::NodeInput:
      case VarSpace::NodeData:
        rows = g->numNodes();
        break;
      case VarSpace::EdgeData:
        switch (vi.mat) {
          case Materialization::Vanilla:
            rows = g->numEdges();
            break;
          case Materialization::Compact:
            rows = rowsOf(RowDomain::UniquePairs);
            break;
          case Materialization::Virtual:
            throw std::runtime_error("virtual variable materialized: " +
                                     var);
        }
        break;
      case VarSpace::Param:
        throw std::runtime_error("parameter accessed as variable: " + var);
    }
    auto [nit, ok] = tensors.emplace(var, Tensor({rows, vi.cols}));
    (void)ok;
    return nit->second;
}

const Tensor *
ExecutionContext::lookup(const std::string &name) const
{
    auto it = tensors.find(name);
    if (it != tensors.end())
        return &it->second;
    if (plan_) {
        const int slot = plan_->slotOf(name);
        if (slot >= 0 && slotBound_[static_cast<std::size_t>(slot)])
            return &slotViews_[static_cast<std::size_t>(slot)];
    }
    return nullptr;
}

void
ExecutionContext::bindRowTable(const std::string &var, RowTable rows)
{
    if (static_cast<std::int64_t>(rows.size()) != g->numNodes())
        throw std::runtime_error("bindRowTable: " + var +
                                 " needs one row per node");
    for (auto &[name, table] : rowTables_)
        if (name == var) {
            table = std::move(rows);
            return;
        }
    rowTables_.emplace_back(var, std::move(rows));
}

const RowTable *
ExecutionContext::rowTable(const std::string &var) const
{
    for (const auto &[name, table] : rowTables_)
        if (name == var)
            return &table;
    return nullptr;
}

namespace
{

using tensor::blocked::packPanel;
using tensor::blocked::panelFor;

/**
 * Get-or-create a parameter-shaped tensor outside device-memory
 * accounting: weights and their gradients do not scale with the
 * dataset, so tracking them in a scaled run would distort the OOM
 * boundary (see DeviceSpec::datasetScale).
 */
Tensor &
untrackedParam(std::map<std::string, Tensor> &m, const std::string &name,
               const std::vector<std::int64_t> &shape)
{
    auto it = m.find(name);
    if (it != m.end())
        return it->second;
    tensor::TrackerScope untracked(nullptr);
    return m.emplace(name, Tensor(shape)).first->second;
}

/** Per-segment (type) iteration bounds for a GEMM instance. */
struct Segments
{
    std::vector<std::int64_t> owned;
    std::span<const std::int64_t> ptr;
    std::int64_t types = 0;
};

Segments
segmentsFor(const ExecutionContext &ctx, RowDomain rows, TypeBy by)
{
    Segments s;
    const auto &g = *ctx.g;
    switch (rows) {
      case RowDomain::Edges:
        if (by == TypeBy::Single) {
            s.owned = {0, g.numEdges()};
            s.ptr = s.owned;
            s.types = 1;
        } else {
            s.ptr = g.etypePtr();
            s.types = g.numEdgeTypes();
        }
        break;
      case RowDomain::UniquePairs:
        if (!ctx.cmap)
            throw std::runtime_error(
                "compact domain requires a CompactionMap");
        s.ptr = ctx.cmap->uniqueEtypePtr();
        s.types = g.numEdgeTypes();
        break;
      case RowDomain::Nodes:
        if (by == TypeBy::Single) {
            s.owned = {0, g.numNodes()};
            s.ptr = s.owned;
            s.types = 1;
        } else {
            s.ptr = g.ntypePtr();
            s.types = g.numNodeTypes();
        }
        break;
    }
    return s;
}

/** Row-index resolution for one access scheme. */
std::int64_t
resolveIndex(const ExecutionContext &ctx, AccessScheme scheme,
             RowDomain domain, std::int64_t r)
{
    const auto &g = *ctx.g;
    switch (scheme) {
      case AccessScheme::Identity:
        return r;
      case AccessScheme::GatherSrc:
      case AccessScheme::ScatterSrcAtomic:
        return domain == RowDomain::UniquePairs
                   ? ctx.cmap->uniqueRowIdx()[static_cast<std::size_t>(r)]
                   : g.src()[static_cast<std::size_t>(r)];
      case AccessScheme::GatherUniqueSrc:
        return ctx.cmap->uniqueRowIdx()[static_cast<std::size_t>(r)];
      case AccessScheme::GatherDst:
      case AccessScheme::ScatterDstAtomic:
        return g.dst()[static_cast<std::size_t>(r)];
      case AccessScheme::GatherEdgeToUnique:
      case AccessScheme::ScatterUniqueAtomic:
        return ctx.cmap->edgeToUnique()[static_cast<std::size_t>(r)];
    }
    return r;
}

bool
isAtomicScatter(AccessScheme s)
{
    return s == AccessScheme::ScatterDstAtomic ||
           s == AccessScheme::ScatterSrcAtomic ||
           s == AccessScheme::ScatterUniqueAtomic;
}

bool
usesIndexArray(AccessScheme s)
{
    return s != AccessScheme::Identity;
}

/** The rows of one GEMM operand: a tensor's, or a row table's. */
struct OperandRows
{
    float *base = nullptr;
    std::int64_t stride = 0;
    const RowTable *table = nullptr;

    float *
    row(std::int64_t i) const
    {
        return table ? (*table)[static_cast<std::size_t>(i)]
                     : base + i * stride;
    }
};

/** Schedule-derated compute efficiency of a GEMM instance. */
double
gemmComputeEff(const GemmInstance &gi)
{
    double eff = gi.kind == GemmKind::Outer
                     ? 0.25
                     : sim::DeviceModel::computeEfficiency(
                           sim::KernelCategory::Gemm);
    if (gi.sched.tileSz < 16)
        eff *= 0.8;
    if (gi.sched.coarsening == 2)
        eff *= 1.04;
    else if (gi.sched.coarsening >= 4)
        eff *= 1.07;
    if (gi.sched.launchBounds)
        eff *= 1.02;
    return eff;
}

/** Schedule-derated bandwidth efficiency of a GEMM instance. */
double
gemmBandwidthEff(const GemmInstance &gi)
{
    double eff = sim::DeviceModel::bandwidthEfficiency(
        sim::KernelCategory::Gemm);
    // Thread coarsening widens per-thread loads; small tiles waste
    // part of each 128B sector.
    if (gi.sched.coarsening >= 2)
        eff *= 1.05;
    if (gi.sched.tileSz < 16)
        eff *= 0.85;
    return eff;
}

double
atomicConflictFor(const ExecutionContext &ctx, AccessScheme scheme)
{
    const auto &g = *ctx.g;
    switch (scheme) {
      case AccessScheme::ScatterDstAtomic:
        return std::max(1.0, g.avgNonzeroInDegree());
      case AccessScheme::ScatterSrcAtomic:
      case AccessScheme::ScatterUniqueAtomic:
        if (ctx.cmap && ctx.cmap->numUnique() > 0)
            return std::max(1.0, static_cast<double>(g.numEdges()) /
                                     static_cast<double>(
                                         ctx.cmap->numUnique()));
        return 2.0;
      default:
        return 1.0;
    }
}

} // namespace

void
execGemm(const Program &p, const GemmInstance &gi, ExecutionContext &ctx)
{
    const Segments seg = segmentsFor(ctx, gi.rows, gi.typeBy);
    const std::int64_t total_rows = ctx.rowsOf(gi.rows);

    Tensor &w = ctx.weights->at(gi.wVar);
    // A weight vector [T, cols] is the matrix [T, 1, cols].
    const bool wvec = w.ndim() == 2;
    const std::int64_t wr = wvec ? 1 : w.dim(1);
    const std::int64_t wc = w.dim(wvec ? 1 : 2);
    const std::int64_t din = gi.din;
    const std::int64_t dout = gi.dout;

    auto tensorOf = [&](const std::string &name,
                        std::int32_t slot) -> Tensor & {
        if (ctx.plan() && slot >= 0)
            return ctx.slotTensor(slot);
        return ctx.ensureTensor(p, name);
    };
    auto operand = [&](const std::string &name,
                       std::int32_t slot) -> OperandRows {
        if (const RowTable *table = ctx.rowTable(name))
            return {nullptr, 0, table};
        Tensor &t = tensorOf(name, slot);
        std::int64_t stride = 1;
        for (int d = 1; d < t.ndim(); ++d)
            stride *= t.dim(d);
        return {t.data(), stride, nullptr};
    };

    const OperandRows x = operand(gi.xVar, gi.xSlot);

    const float *scalar = nullptr;
    if (!gi.perRowScalarVar.empty())
        scalar = tensorOf(gi.perRowScalarVar, gi.scalarSlot).data();

    // Folded weight-vector terms: a scalar row each, and the weight
    // vector's row at segment type t.
    struct Term
    {
        OperandRows var;
        const float *w;
    };
    auto termsOf = [&](const std::vector<RowWeightVec> &list) {
        std::vector<Term> out;
        for (const RowWeightVec &t : list)
            out.push_back({operand(t.var, t.slot),
                           ctx.weights->at(t.weight).data()});
        return out;
    };
    const std::vector<Term> epilogue = termsOf(gi.epilogue);
    const std::vector<Term> prologue = termsOf(gi.prologue);
    /** The epilogue of finished rows [r0, r1) of segment t: each dot
     *  sums in ascending i from 0.0f, as the DotProduct it replaces. */
    auto storeDots = [&](const OperandRows &y, std::int64_t t,
                         std::int64_t r0, std::int64_t r1) {
        for (const Term &d : epilogue) {
            const float *wrow = d.w + t * dout;
            for (std::int64_t r = r0; r < r1; ++r) {
                const float *yrow = y.row(r);
                float acc = 0.0f;
                for (std::int64_t i = 0; i < dout; ++i)
                    acc += yrow[i] * wrow[i];
                d.var.row(r)[0] = acc;
            }
        }
    };

    /** Rows [r0, r1) of segment t in the seed's exact loop order;
     *  handles every access scheme including colliding scatters. */
    auto seedRows = [&](const OperandRows &y, std::int64_t t,
                        std::int64_t r0, std::int64_t r1) {
        const float *wslice = w.data() + t * wr * wc;
        for (std::int64_t r = r0; r < r1; ++r) {
            const float *xrow =
                x.row(resolveIndex(ctx, gi.xAccess, gi.rows, r));
            float *yrow = y.row(resolveIndex(ctx, gi.yAccess, gi.rows, r));
            const float scale = scalar ? scalar[r] : 1.0f;
            if (!gi.yAccumulate)
                std::memset(yrow, 0,
                            static_cast<std::size_t>(dout) * sizeof(float));
            for (std::int64_t i = 0; i < din; ++i) {
                const float xv = scale * xrow[i];
                if (xv == 0.0f)
                    continue;
                if (!gi.transW) {
                    const float *wrow = wslice + i * wc;
                    for (std::int64_t j = 0; j < dout; ++j)
                        yrow[j] += xv * wrow[j];
                } else {
                    for (std::int64_t j = 0; j < dout; ++j)
                        yrow[j] += xv * wslice[j * wc + i];
                }
            }
        }
        storeDots(y, t, r0, r1);
    };

    /**
     * Cache-blocked rows [r0, r1) of segment t for the Identity-output
     * case: k tiled in schedule-derived chunks (kBlockFor; the plan's
     * autotuned GemmSchedule, not a fixed default) with op(W) packed
     * once per chunk into a contiguous panel. Per output element the
     * contributions arrive in ascending i with zero x-values skipped —
     * bit-identical to seedRows at every block size.
     */
    const std::int64_t kblk =
        tensor::blocked::kBlockFor(gi.sched.tileSz, gi.sched.coarsening);
    // Specialized JIT row kernel for this (direction, instance), when
    // the model carries a module; bit-identical to the generic path
    // (same accumulation order, -ffp-contract=off on both sides).
    const jit::GemmRowFn jfn =
        ctx.jit ? ctx.jit->kernel(gi.phase == sim::Phase::Backward, gi.kid)
                : nullptr;
    auto blockedRows = [&](const OperandRows &y, std::int64_t t,
                           std::int64_t r0, std::int64_t r1) {
        const float *wslice = w.data() + t * wr * wc;
        if (!gi.yAccumulate)
            for (std::int64_t r = r0; r < r1; ++r)
                std::memset(y.row(r), 0,
                            static_cast<std::size_t>(dout) * sizeof(float));
        float *panel = panelFor(kblk, dout);
        for (std::int64_t k0 = 0; k0 < din; k0 += kblk) {
            const std::int64_t kb = std::min(kblk, din - k0);
            packPanel(wslice, wc, gi.transW, k0, kb, dout, panel);
            for (std::int64_t r = r0; r < r1; ++r) {
                const float *xrow =
                    x.row(resolveIndex(ctx, gi.xAccess, gi.rows, r)) + k0;
                const float scale = scalar ? scalar[r] : 1.0f;
                float *yrow = y.row(r);
                if (jfn)
                    jfn(yrow, xrow, scale, panel,
                        static_cast<long long>(kb));
                else
                    tensor::simd::rowPanel(yrow, xrow, scale, panel, kb,
                                           dout);
            }
        }
        storeDots(y, t, r0, r1);
    };

    auto body = [&]() {
        if (gi.kind == GemmKind::Outer) {
            const OperandRows y2 = operand(gi.y2Var, gi.y2Slot);
            Tensor &grad =
                untrackedParam(*ctx.weightGrads, gi.yVar, w.shape());
            // The prologue's y2 row: g[r][j] + s[r] * w[t][j], term
            // by term, as the traversal it replaces stored it.
            std::vector<float> formed(
                prologue.empty() ? 0 : static_cast<std::size_t>(dout));
            // Every row of a segment accumulates into the same grad
            // slice: sequential keeps the deterministic order.
            for (std::int64_t t = 0; t < seg.types; ++t) {
                float *gslice = grad.data() + t * wr * wc;
                for (std::int64_t r = seg.ptr[static_cast<std::size_t>(t)];
                     r < seg.ptr[static_cast<std::size_t>(t) + 1]; ++r) {
                    const float *xrow =
                        x.row(resolveIndex(ctx, gi.xAccess, gi.rows, r));
                    const float *yrow =
                        y2.row(resolveIndex(ctx, gi.y2Access, gi.rows, r));
                    if (!prologue.empty()) {
                        std::copy(yrow, yrow + dout, formed.begin());
                        for (const Term &a : prologue) {
                            const float sv = a.var.row(r)[0];
                            const float *wrow = a.w + t * dout;
                            for (std::int64_t j = 0; j < dout; ++j)
                                formed[static_cast<std::size_t>(j)] +=
                                    sv * wrow[j];
                        }
                        yrow = formed.data();
                    }
                    for (std::int64_t i = 0; i < din; ++i) {
                        const float xv = xrow[i];
                        if (xv == 0.0f)
                            continue;
                        float *gr = gslice + i * wc;
                        for (std::int64_t j = 0; j < dout; ++j)
                            gr[j] += xv * yrow[j];
                    }
                }
            }
            return;
        }
        const OperandRows y = operand(gi.yVar, gi.ySlot);

        // Walk the segments overlapping [lo, hi), dispatching each
        // sub-range to the blocked or seed-order row kernel.
        auto rowRange = [&](std::int64_t lo, std::int64_t hi,
                            bool blocked) {
            std::int64_t t = 0;
            while (t < seg.types &&
                   seg.ptr[static_cast<std::size_t>(t) + 1] <= lo)
                ++t;
            for (; t < seg.types &&
                   seg.ptr[static_cast<std::size_t>(t)] < hi;
                 ++t) {
                const std::int64_t r0 =
                    std::max(lo, seg.ptr[static_cast<std::size_t>(t)]);
                const std::int64_t r1 = std::min(
                    hi, seg.ptr[static_cast<std::size_t>(t) + 1]);
                if (r1 <= r0)
                    continue;
                if (blocked && r1 - r0 >= 4 && din > 0 && dout > 0)
                    blockedRows(y, t, r0, r1);
                else
                    seedRows(y, t, r0, r1);
            }
        };

        if (util::seedKernelMode()) {
            rowRange(0, total_rows, false);
            return;
        }
        // Row-range parallelism requires each output row to be owned
        // by exactly one thread: true for Identity output access (row
        // r writes y[r]); scatter schemes may collide, and reordering
        // colliding accumulations would change the bits.
        if (gi.yAccess == AccessScheme::Identity && total_rows > 0) {
            util::globalPool().parallelFor(
                0, total_rows,
                [&](std::int64_t lo, std::int64_t hi) {
                    rowRange(lo, hi, true);
                },
                tensor::blocked::rowGrain(din, dout));
        } else {
            rowRange(0, total_rows, false);
        }
    };

    sim::KernelDesc desc;
    desc.name = gi.name;
    desc.category = sim::KernelCategory::Gemm;
    desc.phase = gi.phase;
    const double rows_d = static_cast<double>(total_rows);
    desc.flops = 2.0 * rows_d * static_cast<double>(din * dout) +
                 (scalar ? rows_d * static_cast<double>(dout) : 0.0);
    // Weight traffic does not scale with the dataset; scale it so that
    // its share of the kernel time matches the full-size run.
    const double weight_bytes = static_cast<double>(w.numel()) * 4.0 *
                                ctx.rt->spec().datasetScale;
    const double out_rows_bytes = rows_d * static_cast<double>(dout) * 4.0;
    // A row resolved through a row table reads its 8-byte address.
    auto tableBytes = [&](const std::string &var) {
        return ctx.rowTable(var) ? rows_d * 8.0 : 0.0;
    };
    desc.bytesRead = rows_d * static_cast<double>(din) * 4.0 +
                     (usesIndexArray(gi.xAccess) ? rows_d * 8.0 : 0.0) +
                     tableBytes(gi.xVar) + (scalar ? rows_d * 4.0 : 0.0);
    if (gi.kind == GemmKind::Outer) {
        // The y2 rows are read (through their index array when
        // gathered); the weight gradient is written once per type.
        desc.bytesRead += out_rows_bytes +
                          (usesIndexArray(gi.y2Access) ? rows_d * 8.0 : 0.0) +
                          tableBytes(gi.y2Var);
        desc.bytesWritten = weight_bytes;
    } else {
        desc.bytesRead += weight_bytes +
                          (usesIndexArray(gi.yAccess) ? rows_d * 8.0 : 0.0) +
                          tableBytes(gi.yVar);
        desc.bytesWritten = out_rows_bytes;
    }
    // A folded term reads its weight vector like any GEMM weight, and
    // per row 2 * dout flops and its one column: the epilogue writes
    // it, the prologue reads it.
    for (const auto *terms : {&gi.epilogue, &gi.prologue})
        for (const RowWeightVec &t : *terms) {
            desc.flops += 2.0 * rows_d * static_cast<double>(dout);
            desc.bytesRead += static_cast<double>(
                                  ctx.weights->at(t.weight).numel()) *
                              4.0 * ctx.rt->spec().datasetScale;
            (terms == &gi.epilogue ? desc.bytesWritten : desc.bytesRead) +=
                rows_d * 4.0;
        }
    if (isAtomicScatter(gi.yAccess)) {
        // Per-thread register accumulation over coarsened rows plus
        // warp-level aggregation cut the atomics reaching DRAM.
        desc.atomics = rows_d * static_cast<double>(dout) / 8.0;
        desc.atomicConflict = atomicConflictFor(ctx, gi.yAccess);
    }
    desc.workItems = rows_d * static_cast<double>(dout);
    desc.computeEff = gemmComputeEff(gi);
    desc.bandwidthEff = gemmBandwidthEff(gi);
    ctx.rt->launch(desc, body);
}

namespace
{

/** Per-iteration entity indices for statement evaluation. */
struct EvalPoint
{
    std::int64_t e = -1;  ///< edge id (Edges domain / grouped)
    std::int64_t u = -1;  ///< unique-pair id (UniquePairs / pair group)
    std::int64_t v = -1;  ///< node id (Nodes domain / node group)
    std::int32_t etype = 0;
    std::int32_t ntype = 0;
};

/**
 * The edge lists a grouped instance walks, in the same order on the
 * seed and fast paths: group k's edges are ids[ptr[k] .. ptr[k + 1]).
 */
struct GroupWalk
{
    bool byNode = true;
    std::span<const std::int64_t> ptr;
    std::span<const std::int64_t> ids;
    std::span<const std::int32_t> ntype;

    GroupWalk(const TraversalInstance &ti, const ExecutionContext &ctx)
        : byNode(ti.group == GroupKey::DstNode)
    {
        if (byNode) {
            ptr = ctx.g->inPtr();
            ids = ctx.g->inEdgeIds();
            ntype = ctx.g->nodeType();
        } else {
            if (!ctx.cmap)
                throw std::runtime_error(
                    "pair-grouped traversal requires a CompactionMap");
            ptr = ctx.cmap->uniquePtr();
            ids = ctx.cmap->uniqueEdgeIds();
        }
    }

    std::int64_t
    groups() const
    {
        return static_cast<std::int64_t>(ptr.size()) - 1;
    }

    /** Evaluation point of group @p k, before its edge loop. */
    EvalPoint
    enter(std::int64_t k) const
    {
        EvalPoint pt;
        if (byNode) {
            pt.v = k;
            pt.ntype = ntype[static_cast<std::size_t>(k)];
        } else {
            pt.u = k;
        }
        return pt;
    }
};

/** Resolves operand storage for traversal statements (seed path). */
class OperandResolver
{
  public:
    OperandResolver(const Program &p, ExecutionContext &ctx)
        : p_(p), ctx_(ctx)
    {}

    /** Scratch buffers for virtual (fused-away) variables. */
    float *
    scratch(const std::string &name, std::int64_t cols)
    {
        auto &buf = scratch_[name];
        if (buf.size() < static_cast<std::size_t>(cols))
            buf.assign(static_cast<std::size_t>(cols), 0.0f);
        return buf.data();
    }

    /** Restarts virtual variable @p name at +0 (its zeroed row). */
    void
    restart(const std::string &name, std::int64_t cols)
    {
        float *row = scratch(name, cols);
        std::fill(row, row + cols, 0.0f);
    }

    /** Sends writes of @p name to a zeroed row until endSum(). */
    void
    beginSum(const std::string &name, std::int64_t cols)
    {
        sums_[name].assign(static_cast<std::size_t>(cols), 0.0f);
    }

    /** Stops redirecting @p name; the row summed since beginSum(). */
    std::vector<float>
    endSum(const std::string &name)
    {
        return std::move(sums_.extract(name).mapped());
    }

    float *
    resolve(const VarRef &ref, const EvalPoint &pt, RowDomain domain)
    {
        if (auto it = sums_.find(ref.name); it != sums_.end())
            return it->second.data();
        const auto &vi = p_.varInfo(ref.name);
        if (vi.space == VarSpace::EdgeData) {
            if (vi.mat == Materialization::Virtual)
                return scratch(ref.name, vi.cols);
            Tensor &t = ctx_.ensureTensor(p_, ref.name);
            if (vi.mat == Materialization::Compact) {
                const std::int64_t row =
                    domain == RowDomain::UniquePairs
                        ? pt.u
                        : ctx_.cmap->edgeToUnique()[
                              static_cast<std::size_t>(pt.e)];
                return t.row(row);
            }
            return t.row(pt.e);
        }
        // Node-space variable: node n's row, in place when the
        // variable is addressed through a row table.
        std::int64_t n = pt.v;
        switch (ref.access) {
          case Access::ViaSrc:
            n = domain == RowDomain::UniquePairs
                    ? ctx_.cmap->uniqueRowIdx()[
                          static_cast<std::size_t>(pt.u)]
                    : ctx_.g->src()[static_cast<std::size_t>(pt.e)];
            break;
          case Access::ViaDst:
            n = ctx_.g->dst()[static_cast<std::size_t>(pt.e)];
            break;
          case Access::Direct:
            break;
        }
        if (const RowTable *table = ctx_.rowTable(ref.name))
            return (*table)[static_cast<std::size_t>(n)];
        return ctx_.ensureTensor(p_, ref.name).row(n);
    }

  private:
    const Program &p_;
    ExecutionContext &ctx_;
    std::map<std::string, std::vector<float>> scratch_;
    std::map<std::string, std::vector<float>> sums_;
};


/** Executes one statement at one evaluation point (seed path). */
void
evalStmt(const Program &p, const Stmt &s, const EvalPoint &pt,
         RowDomain domain, OperandResolver &res, ExecutionContext &ctx)
{
    auto outCols = [&]() -> std::int64_t {
        return p.vars.count(s.out.name) ? p.varInfo(s.out.name).cols : 0;
    };

    switch (s.kind) {
      case OpKind::DotProduct: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const float *b;
        std::int64_t d;
        if (!s.weight.empty()) {
            Tensor &wv = ctx.weights->at(s.weight);
            d = wv.dim(1);
            b = wv.row(pt.etype);
        } else {
            b = res.resolve(s.ins[1], pt, domain);
            d = p.varInfo(s.ins[0].name).cols;
        }
        float acc = 0.0f;
        for (std::int64_t i = 0; i < d; ++i)
            acc += a[i] * b[i];
        if (s.accumulateOut)
            out[0] += acc;
        else
            out[0] = acc;
        break;
      }
      case OpKind::Add: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const float *b = res.resolve(s.ins[1], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = a[i] + b[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Mul: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const float *b = res.resolve(s.ins[1], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = a[i] * b[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::LeakyRelu: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = a[i] > 0.0f ? a[i] : s.alpha * a[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Relu: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = a[i] > 0.0f ? a[i] : 0.0f;
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Exp: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = std::exp(a[i]);
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Divide: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const float *b = res.resolve(s.ins[1], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = a[i] / b[0];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Scale: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const std::int64_t d = outCols();
        for (std::int64_t i = 0; i < d; ++i) {
            const float v = s.alpha * a[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Copy:
      case OpKind::AccumulateSum: {
        float *out = res.resolve(s.out, pt, domain);
        const float *a = res.resolve(s.ins[0], pt, domain);
        const std::int64_t d = p.varInfo(s.ins[0].name).cols;
        const bool acc = s.accumulateOut || s.kind == OpKind::AccumulateSum;
        for (std::int64_t i = 0; i < d; ++i)
            out[i] = acc ? out[i] + a[i] : a[i];
        break;
      }
      case OpKind::AccumulateScaled: {
        float *out = res.resolve(s.out, pt, domain);
        const float *sc = res.resolve(s.ins[0], pt, domain);
        const float *vec;
        std::int64_t d;
        if (!s.weight.empty()) {
            Tensor &wv = ctx.weights->at(s.weight);
            d = wv.dim(1);
            vec = wv.row(pt.etype);
        } else {
            vec = res.resolve(s.ins[1], pt, domain);
            d = p.varInfo(s.ins[1].name).cols;
        }
        const float a = sc[0];
        for (std::int64_t i = 0; i < d; ++i)
            out[i] += a * vec[i];
        break;
      }
      case OpKind::LeakyReluBwd: {
        float *out = res.resolve(s.out, pt, domain);
        const float *gy = res.resolve(s.ins[0], pt, domain);
        const float *x = res.resolve(s.ins[1], pt, domain);
        const std::int64_t d = p.varInfo(s.ins[0].name).cols;
        for (std::int64_t i = 0; i < d; ++i)
            out[i] += gy[i] * (x[i] > 0.0f ? 1.0f : s.alpha);
        break;
      }
      case OpKind::ReluBwd: {
        float *out = res.resolve(s.out, pt, domain);
        const float *gy = res.resolve(s.ins[0], pt, domain);
        const float *x = res.resolve(s.ins[1], pt, domain);
        const std::int64_t d = p.varInfo(s.ins[0].name).cols;
        for (std::int64_t i = 0; i < d; ++i)
            out[i] += gy[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
        break;
      }
      case OpKind::DivGradDenom: {
        float *out = res.resolve(s.out, pt, domain);
        const float *gy = res.resolve(s.ins[0], pt, domain);
        const float *a = res.resolve(s.ins[1], pt, domain);
        const float *b = res.resolve(s.ins[2], pt, domain);
        out[0] += -gy[0] * a[0] / (b[0] * b[0]);
        break;
      }
      default:
        throw std::runtime_error("traversal cannot execute op " +
                                 std::string(toString(s.kind)));
    }
}

/// @name Prepared traversal execution (the fast path)
///
/// prepareTraversal() resolves every operand of every statement ONCE
/// per launch — tensor base pointer (through the stamped arena slot
/// when a plan is adopted), row-addressing mode, column counts, typed
/// weight-vector bases — so per-point evaluation is pure pointer
/// arithmetic with no string-keyed map lookups. The per-point
/// arithmetic is byte-for-byte the seed evalStmt's.
/// @{

/** How a prepared operand's row is located at an evaluation point. */
enum class RowMode : std::uint8_t
{
    Scratch,           ///< per-thread virtual-variable buffer
    Edge,              ///< row pt.e (vanilla edge data)
    CompactFromEdge,   ///< row edgeToUnique[pt.e]
    Unique,            ///< row pt.u (compact data, UniquePairs domain)
    SrcNode,           ///< row src[pt.e]
    SrcNodeFromUnique, ///< row uniqueRowIdx[pt.u]
    DstNode,           ///< row dst[pt.e]
    Node,              ///< row pt.v
    /// The node modes through a row table: table[n] for the same n.
    SrcNodeTable,
    SrcNodeFromUniqueTable,
    DstNodeTable,
    NodeTable,
};

/** Graph index arrays used by per-point row resolution. */
struct PointIndex
{
    const std::int64_t *src = nullptr;
    const std::int64_t *dst = nullptr;
    const std::int64_t *e2u = nullptr;
    const std::int64_t *uri = nullptr;
};

struct PreparedOperand
{
    float *base = nullptr;
    /** Row table of a node variable addressed in place, else null. */
    float *const *table = nullptr;
    std::int64_t cols = 0;
    std::int32_t scratch = -1;
    RowMode mode = RowMode::Edge;

    /** Locate rows by node mode @p m, through the table if any. */
    void
    atNode(RowMode m)
    {
        if (table)
            switch (m) {
              case RowMode::SrcNode:
                m = RowMode::SrcNodeTable;
                break;
              case RowMode::SrcNodeFromUnique:
                m = RowMode::SrcNodeFromUniqueTable;
                break;
              case RowMode::DstNode:
                m = RowMode::DstNodeTable;
                break;
              case RowMode::Node:
                m = RowMode::NodeTable;
                break;
              default:
                throw std::logic_error("atNode: not a node row mode");
            }
        mode = m;
    }
};

struct PreparedStmt
{
    const Stmt *s = nullptr;
    int hoistLevel = 0;
    /** Evaluation target; a level-2 statement's is its scratch
     *  accumulator row, stored to `store` after the edge loop. */
    PreparedOperand out;
    PreparedOperand store;
    PreparedOperand ins[3];
    /** Seed evalStmt's outCols() (0 when out is not a variable). */
    std::int64_t outCols = 0;
    /** Cols of ins[0] / ins[1] (kind-dependent widths). */
    std::int64_t dIn0 = 0;
    std::int64_t dIn1 = 0;
    /** Typed weight-vector rows [T, weightCols], when s->weight set. */
    const float *weightBase = nullptr;
    std::int64_t weightCols = 0;
};

/** Per-thread scratch table for one chunk of a traversal launch. */
using ScratchTable = std::vector<std::vector<float>>;

struct TraversalPrep
{
    std::vector<PreparedStmt> stmts;
    std::vector<std::int64_t> scratchCols;
    /** Scratch rows of virtual `+=` outputs, zeroed every iteration. */
    std::vector<std::int32_t> restart;
    /** Ownership predicate: safe to partition the iteration domain. */
    bool rowParallel = false;
    PointIndex ix;
};

inline float *
opPtr(const PreparedOperand &o, const EvalPoint &pt, const PointIndex &ix,
      ScratchTable &scratch)
{
    switch (o.mode) {
      case RowMode::Scratch:
        return scratch[static_cast<std::size_t>(o.scratch)].data();
      case RowMode::Edge:
        return o.base + pt.e * o.cols;
      case RowMode::CompactFromEdge:
        return o.base + ix.e2u[pt.e] * o.cols;
      case RowMode::Unique:
        return o.base + pt.u * o.cols;
      case RowMode::SrcNode:
        return o.base + ix.src[pt.e] * o.cols;
      case RowMode::SrcNodeFromUnique:
        return o.base + ix.uri[pt.u] * o.cols;
      case RowMode::DstNode:
        return o.base + ix.dst[pt.e] * o.cols;
      case RowMode::Node:
        return o.base + pt.v * o.cols;
      case RowMode::SrcNodeTable:
        return o.table[ix.src[pt.e]];
      case RowMode::SrcNodeFromUniqueTable:
        return o.table[ix.uri[pt.u]];
      case RowMode::DstNodeTable:
        return o.table[ix.dst[pt.e]];
      case RowMode::NodeTable:
        return o.table[pt.v];
    }
    return nullptr;
}

TraversalPrep
prepareTraversal(const Program &p, const TraversalInstance &ti,
                 ExecutionContext &ctx)
{
    TraversalPrep prep;
    std::map<std::string, std::int32_t> scratch_of;

    auto operandTensor = [&](const VarRef &ref) -> Tensor & {
        if (ctx.plan() && ref.slot >= 0)
            return ctx.slotTensor(ref.slot);
        return ctx.ensureTensor(p, ref.name);
    };

    auto prepareOperand = [&](const VarRef &ref) {
        PreparedOperand o;
        const auto &vi = p.varInfo(ref.name);
        o.cols = vi.cols;
        if (vi.space == VarSpace::EdgeData) {
            if (vi.mat == Materialization::Virtual) {
                auto [it, inserted] = scratch_of.try_emplace(
                    ref.name,
                    static_cast<std::int32_t>(prep.scratchCols.size()));
                if (inserted)
                    prep.scratchCols.push_back(vi.cols);
                o.scratch = it->second;
                o.mode = RowMode::Scratch;
                return o;
            }
            o.base = operandTensor(ref).data();
            o.mode = vi.mat == Materialization::Compact
                         ? (ti.domain == RowDomain::UniquePairs
                                ? RowMode::Unique
                                : RowMode::CompactFromEdge)
                         : RowMode::Edge;
            return o;
        }
        if (const RowTable *table = ctx.rowTable(ref.name))
            o.table = table->data();
        else
            o.base = operandTensor(ref).data();
        switch (ref.access) {
          case Access::ViaSrc:
            o.atNode(ti.domain == RowDomain::UniquePairs
                         ? RowMode::SrcNodeFromUnique
                         : RowMode::SrcNode);
            break;
          case Access::ViaDst:
            o.atNode(RowMode::DstNode);
            break;
          case Access::Direct:
            o.atNode(RowMode::Node);
            break;
        }
        return o;
    };

    // Locate @p o's rows at the group's own row: node v, or pair u.
    auto atGroupRow = [&](PreparedOperand &o) {
        if (ti.group == GroupKey::DstNode)
            o.atNode(RowMode::Node);
        else
            o.mode = RowMode::Unique;
    };

    // Ownership predicate. A statement's output row must be owned by
    // the iteration entity the partition splits on, and no statement
    // may read rows of an instance-written node variable through a
    // non-owned access (ViaSrc), or the partition would race and
    // reorder the seed's accumulation order.
    bool parallel = !util::seedKernelMode();
    std::vector<std::string> written_node_vars;
    for (const auto &ss : ti.stmts) {
        const Stmt &s = ss.stmt;
        if (!p.vars.count(s.out.name)) {
            parallel = false;
            continue;
        }
        const auto &vi = p.varInfo(s.out.name);
        if (vi.space == VarSpace::EdgeData &&
            vi.mat == Materialization::Virtual)
            continue; // per-thread scratch
        if (vi.space == VarSpace::NodeInput ||
            vi.space == VarSpace::NodeData) {
            // A node group owns its node (Direct or ViaDst); ViaSrc
            // rows belong to other groups. Flat loops own a node row
            // only in the Nodes domain.
            const bool owned =
                ti.group == GroupKey::DstNode
                    ? s.out.access != Access::ViaSrc
                    : !ti.grouped() && ti.domain == RowDomain::Nodes &&
                          s.out.access == Access::Direct;
            if (!owned)
                parallel = false;
            written_node_vars.push_back(s.out.name);
        } else if (vi.mat == Materialization::Compact) {
            // One compact row is shared by all edges of its (src,
            // etype) pair; only a pair group or the UniquePairs
            // domain owns it.
            if (ti.group != GroupKey::UniquePair &&
                (ti.grouped() || ti.domain != RowDomain::UniquePairs))
                parallel = false;
        } else {
            // Vanilla edge data: row pt.e, owned in grouped (an edge
            // has one group) and flat edge loops.
            if (!ti.grouped() && ti.domain != RowDomain::Edges)
                parallel = false;
        }
    }
    if (parallel) {
        for (const auto &ss : ti.stmts)
            for (const auto &in : ss.stmt.ins)
                if (in.access == Access::ViaSrc)
                    for (const auto &w : written_node_vars)
                        if (w == in.name)
                            parallel = false;
    }
    prep.rowParallel = parallel;

    prep.stmts.reserve(ti.stmts.size());
    for (const auto &ss : ti.stmts) {
        const Stmt &s = ss.stmt;
        PreparedStmt ps;
        ps.s = &s;
        ps.hoistLevel = ss.hoistLevel;
        ps.outCols =
            p.vars.count(s.out.name) ? p.varInfo(s.out.name).cols : 0;
        ps.out = prepareOperand(s.out);
        if (ss.hoistLevel == 2) {
            // Stored to the group's own row: node v or compact row u.
            ps.store = ps.out;
            atGroupRow(ps.store);
            ps.out.mode = RowMode::Scratch;
            ps.out.scratch =
                static_cast<std::int32_t>(prep.scratchCols.size());
            prep.scratchCols.push_back(ps.outCols);
        }
        for (std::size_t i = 0; i < s.ins.size() && i < 3; ++i) {
            ps.ins[i] = prepareOperand(s.ins[i]);
            // A per-group load is the group's own row, which every
            // edge of the group reaches: node v, or pair u.
            const OperandLoad *load = ti.loadOf(s.ins[i]);
            if (load && ti.hoisted(*load))
                atGroupRow(ps.ins[i]);
            if (i == 0)
                ps.dIn0 = p.varInfo(s.ins[0].name).cols;
            if (i == 1)
                ps.dIn1 = p.varInfo(s.ins[1].name).cols;
        }
        if (!s.weight.empty()) {
            Tensor &wv = ctx.weights->at(s.weight);
            ps.weightBase = wv.data();
            ps.weightCols = wv.dim(1);
        }
        prep.stmts.push_back(ps);
    }
    for (const auto &v : restartedVirtuals(p, ti))
        prep.restart.push_back(scratch_of.at(v));

    const auto &g = *ctx.g;
    prep.ix.src = g.src().data();
    prep.ix.dst = g.dst().data();
    if (ctx.cmap) {
        prep.ix.e2u = ctx.cmap->edgeToUnique().data();
        prep.ix.uri = ctx.cmap->uniqueRowIdx().data();
    }
    return prep;
}

/** One statement at one point — the seed arithmetic over prepared
 *  operands. */
inline void
evalPrepared(const PreparedStmt &ps, const EvalPoint &pt,
             const PointIndex &ix, ScratchTable &scratch)
{
    const Stmt &s = *ps.s;
    switch (s.kind) {
      case OpKind::DotProduct: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        const float *b;
        std::int64_t d;
        if (ps.weightBase) {
            d = ps.weightCols;
            b = ps.weightBase + pt.etype * ps.weightCols;
        } else {
            b = opPtr(ps.ins[1], pt, ix, scratch);
            d = ps.dIn0;
        }
        float acc = 0.0f;
        for (std::int64_t i = 0; i < d; ++i)
            acc += a[i] * b[i];
        if (s.accumulateOut)
            out[0] += acc;
        else
            out[0] = acc;
        break;
      }
      case OpKind::Add: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        const float *b = opPtr(ps.ins[1], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = a[i] + b[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Mul: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        const float *b = opPtr(ps.ins[1], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = a[i] * b[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::LeakyRelu: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = a[i] > 0.0f ? a[i] : s.alpha * a[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Relu: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = a[i] > 0.0f ? a[i] : 0.0f;
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Exp: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = std::exp(a[i]);
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Divide: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        const float *b = opPtr(ps.ins[1], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = a[i] / b[0];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Scale: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.outCols; ++i) {
            const float v = s.alpha * a[i];
            out[i] = s.accumulateOut ? out[i] + v : v;
        }
        break;
      }
      case OpKind::Copy:
      case OpKind::AccumulateSum: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *a = opPtr(ps.ins[0], pt, ix, scratch);
        const bool acc = s.accumulateOut || s.kind == OpKind::AccumulateSum;
        for (std::int64_t i = 0; i < ps.dIn0; ++i)
            out[i] = acc ? out[i] + a[i] : a[i];
        break;
      }
      case OpKind::AccumulateScaled: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *sc = opPtr(ps.ins[0], pt, ix, scratch);
        const float *vec;
        std::int64_t d;
        if (ps.weightBase) {
            d = ps.weightCols;
            vec = ps.weightBase + pt.etype * ps.weightCols;
        } else {
            vec = opPtr(ps.ins[1], pt, ix, scratch);
            d = ps.dIn1;
        }
        const float a = sc[0];
        for (std::int64_t i = 0; i < d; ++i)
            out[i] += a * vec[i];
        break;
      }
      case OpKind::LeakyReluBwd: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *gy = opPtr(ps.ins[0], pt, ix, scratch);
        const float *x = opPtr(ps.ins[1], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.dIn0; ++i)
            out[i] += gy[i] * (x[i] > 0.0f ? 1.0f : s.alpha);
        break;
      }
      case OpKind::ReluBwd: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *gy = opPtr(ps.ins[0], pt, ix, scratch);
        const float *x = opPtr(ps.ins[1], pt, ix, scratch);
        for (std::int64_t i = 0; i < ps.dIn0; ++i)
            out[i] += gy[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
        break;
      }
      case OpKind::DivGradDenom: {
        float *out = opPtr(ps.out, pt, ix, scratch);
        const float *gy = opPtr(ps.ins[0], pt, ix, scratch);
        const float *a = opPtr(ps.ins[1], pt, ix, scratch);
        const float *b = opPtr(ps.ins[2], pt, ix, scratch);
        out[0] += -gy[0] * a[0] / (b[0] * b[0]);
        break;
      }
      default:
        throw std::runtime_error("traversal cannot execute op " +
                                 std::string(toString(s.kind)));
    }
}

/// @}

/**
 * Static per-iteration cost of one traversal statement: its flops, the
 * row it writes and its atomics. It reads nothing of its own: the
 * instance prices its operand rows, typed weight-vector rows included,
 * from its load set (TraversalInstance::loads), the adjacency indices
 * that locate them once per instance (adjacencyReads()), and an output
 * row a `+=` reads by readsOutputRow().
 */
struct StmtCost
{
    double flops = 0.0;
    double bytesWritten = 0.0;
    double atomics = 0.0;
    double atomicConflict = 1.0;
};

StmtCost
stmtCost(const Program &p, const Stmt &s, RowDomain domain, GroupKey group,
         const ExecutionContext &ctx)
{
    StmtCost c;
    auto colsOf = [&](const std::string &v) -> double {
        if (p.vars.count(v))
            return static_cast<double>(p.varInfo(v).cols);
        return 0.0;
    };
    double operand_cols = 0.0;
    for (const auto &in : s.ins)
        operand_cols += colsOf(in.name);
    if (!s.weight.empty())
        operand_cols += static_cast<double>(p.weightInfo(s.weight).cols);
    const double out_cols = colsOf(s.out.name);

    c.flops = 2.0 * std::max({out_cols, operand_cols, 1.0});
    // A virtual output stays in a register.
    if (!p.vars.count(s.out.name) ||
        p.varInfo(s.out.name).mat != Materialization::Virtual)
        c.bytesWritten = 4.0 * out_cols;
    if (scattersAtomically(p, s, domain, group)) {
        c.atomics = out_cols;
        c.atomicConflict = atomicConflictFor(
            ctx, p.varInfo(s.out.name).space == VarSpace::EdgeData
                     ? AccessScheme::ScatterUniqueAtomic
                 : s.out.access == Access::ViaSrc
                     ? AccessScheme::ScatterSrcAtomic
                     : AccessScheme::ScatterDstAtomic);
    }
    return c;
}

} // namespace

sim::KernelDesc
traversalDesc(const Program &p, const TraversalInstance &ti,
              const ExecutionContext &ctx)
{
    const auto &g = *ctx.g;
    sim::KernelDesc desc;
    desc.name = ti.name;
    desc.category = sim::KernelCategory::Traversal;
    desc.phase = ti.phase;
    const bool by_pair = ti.group == GroupKey::UniquePair;
    const double iters =
        static_cast<double>(ti.grouped() ? g.numEdges()
                                         : ctx.rowsOf(ti.domain));
    const double group_iters = static_cast<double>(
        by_pair ? ctx.rowsOf(RowDomain::UniquePairs) : g.numNodes());
    // A register-accumulated (level-2) row is stored, and a hoisted
    // operand row loaded, once per group with an edge (every pair, or
    // each node with an in-edge), not once per edge. A load in a
    // register (a virtual variable, or a row an earlier statement
    // wrote) costs nothing.
    const double edged_groups = static_cast<double>(
        by_pair ? ctx.rowsOf(RowDomain::UniquePairs)
                : g.numNodesWithInEdges());
    // A weight-vector row is loaded once per run of equal etype: one
    // per pair, or one per distinct (dst, etype) of the in-CSR walk.
    const double etype_runs = static_cast<double>(
        by_pair ? ctx.rowsOf(RowDomain::UniquePairs) : g.numInEtypeRuns());
    for (const auto &ss : ti.stmts) {
        for (const auto &in : ss.stmt.ins)
            if (!ti.loadOf(in))
                throw std::logic_error("traversal " + ti.name +
                                       " has no load for operand " +
                                       in.name);
        if (!ss.stmt.weight.empty() && !ti.weightLoadOf(ss.stmt.weight))
            throw std::logic_error("traversal " + ti.name +
                                   " has no load for weight " +
                                   ss.stmt.weight);
    }
    // Operand rows: each distinct load once per edge, group or run.
    for (const auto &l : ti.loads) {
        const double cols = static_cast<double>(
            l.weight ? p.weightInfo(l.var).cols : p.varInfo(l.var).cols);
        double rows = iters;
        switch (ti.rateOf(l)) {
          case LoadRate::PerEdge:
            break;
          case LoadRate::PerGroup:
            rows = edged_groups;
            break;
          case LoadRate::PerRun:
            rows = etype_runs;
            break;
          case LoadRate::InRegister:
            rows = 0.0;
            break;
        }
        desc.bytesRead += 4.0 * cols * rows;
        // A row resolved through a row table reads its 8-byte address
        // at the load's own rate.
        if (!l.weight && ctx.rowTable(l.var))
            desc.bytesRead += 8.0 * rows;
    }
    // Adjacency indices: 4 bytes each, once per edge (or row of a flat
    // domain), or once per group with an edge (per pair in the
    // UniquePairs domain).
    for (const AdjacencyRead &r : adjacencyReads(p, ti))
        desc.bytesRead +=
            4.0 * (r.rate == LoadRate::PerGroup && ti.grouped() ? edged_groups
                                                                : iters);
    double max_cols = 1.0;
    for (std::size_t i = 0; i < ti.stmts.size(); ++i) {
        const ScheduledStmt &ss = ti.stmts[i];
        const StmtCost c = stmtCost(p, ss.stmt, ti.domain, ti.group, ctx);
        const double n = ss.hoistLevel == 1 ? group_iters : iters;
        desc.flops += c.flops * n;
        const double stored = ss.hoistLevel == 2 ? edged_groups : n;
        desc.bytesWritten += c.bytesWritten * stored;
        // So does each row stored through a row table (once: an adding
        // store reads back the row at the address it writes).
        if (ctx.rowTable(ss.stmt.out.name))
            desc.bytesRead += 8.0 * stored;
        // An adding store, and a `+=` that reads its row from memory,
        // read the row they add into.
        if (ss.addsOnStore())
            desc.bytesRead += c.bytesWritten * edged_groups;
        if (readsOutputRow(p, ti, i))
            desc.bytesRead += c.bytesWritten * n;
        desc.atomics += c.atomics * n;
        desc.atomicConflict =
            std::max(desc.atomicConflict, c.atomicConflict);
        if (p.vars.count(ss.stmt.out.name))
            max_cols = std::max(
                max_cols, static_cast<double>(
                              p.varInfo(ss.stmt.out.name).cols));
    }
    // Partial-result aggregation within threads/warps cuts the atomic
    // traffic that reaches global memory (Sec. 3.4.1).
    if (ti.partialAggregation)
        desc.atomics /= 8.0;
    // Parallelism is element-level: entities times feature width.
    desc.workItems = iters * max_cols;
    return desc;
}

void
execTraversal(const Program &p, const TraversalInstance &ti,
              ExecutionContext &ctx)
{
    const auto &g = *ctx.g;

    /** The seed interpreter body: per-point map-keyed resolution. */
    auto seedBody = [&]() {
        OperandResolver res(p, ctx);
        // Virtual `+=` outputs restart at +0 on every iteration.
        const std::vector<std::string> restarted = restartedVirtuals(p, ti);
        auto restart = [&]() {
            for (const auto &v : restarted)
                res.restart(v, p.varInfo(v).cols);
        };
        if (ti.grouped()) {
            const GroupWalk walk(ti, ctx);
            const auto etype = g.etype();
            for (std::int64_t k = 0; k < walk.groups(); ++k) {
                EvalPoint pt = walk.enter(k);
                for (const auto &ss : ti.stmts) {
                    if (ss.hoistLevel == 1)
                        evalStmt(p, ss.stmt, pt, RowDomain::Edges, res, ctx);
                    else if (ss.stmt.sumFirst)
                        res.beginSum(ss.stmt.out.name,
                                     p.varInfo(ss.stmt.out.name).cols);
                }
                const std::int64_t i0 = walk.ptr[static_cast<std::size_t>(k)];
                const std::int64_t i1 =
                    walk.ptr[static_cast<std::size_t>(k) + 1];
                for (std::int64_t i = i0; i < i1; ++i) {
                    pt.e = walk.ids[static_cast<std::size_t>(i)];
                    pt.etype = etype[static_cast<std::size_t>(pt.e)];
                    restart();
                    // Level 2 sums in place here: the oracle of the
                    // fast path's register accumulator.
                    for (const auto &ss : ti.stmts)
                        if (ss.hoistLevel != 1)
                            evalStmt(p, ss.stmt, pt, RowDomain::Edges, res,
                                     ctx);
                }
                // A sum-first row is added to the output row once per
                // group with an edge.
                for (const auto &ss : ti.stmts) {
                    if (!ss.stmt.sumFirst)
                        continue;
                    const std::vector<float> sum =
                        res.endSum(ss.stmt.out.name);
                    if (i0 == i1)
                        continue;
                    float *row =
                        res.resolve(ss.stmt.out, pt, RowDomain::Edges);
                    for (std::size_t c = 0; c < sum.size(); ++c)
                        row[c] += sum[c];
                }
            }
            return;
        }
        switch (ti.domain) {
          case RowDomain::Edges: {
            const auto etype = g.etype();
            for (std::int64_t e = 0; e < g.numEdges(); ++e) {
                EvalPoint pt;
                pt.e = e;
                pt.etype = etype[static_cast<std::size_t>(e)];
                restart();
                for (const auto &ss : ti.stmts)
                    evalStmt(p, ss.stmt, pt, RowDomain::Edges, res, ctx);
            }
            break;
          }
          case RowDomain::UniquePairs: {
            const auto uptr = ctx.cmap->uniqueEtypePtr();
            for (std::int32_t r = 0; r < g.numEdgeTypes(); ++r) {
                for (std::int64_t u = uptr[static_cast<std::size_t>(r)];
                     u < uptr[static_cast<std::size_t>(r) + 1]; ++u) {
                    EvalPoint pt;
                    pt.u = u;
                    pt.etype = r;
                    restart();
                    for (const auto &ss : ti.stmts)
                        evalStmt(p, ss.stmt, pt, RowDomain::UniquePairs, res,
                                 ctx);
                }
            }
            break;
          }
          case RowDomain::Nodes: {
            const auto ntype = g.nodeType();
            for (std::int64_t v = 0; v < g.numNodes(); ++v) {
                EvalPoint pt;
                pt.v = v;
                pt.ntype = ntype[static_cast<std::size_t>(v)];
                restart();
                for (const auto &ss : ti.stmts)
                    evalStmt(p, ss.stmt, pt, RowDomain::Nodes, res, ctx);
            }
            break;
          }
        }
    };

    /** Prepared body: launch-time operand resolution, per-point
     *  pointer arithmetic, thread-pool partition when every output
     *  row is owned. Bit-identical to seedBody. */
    auto fastBody = [&]() {
        const TraversalPrep prep = prepareTraversal(p, ti, ctx);
        const PointIndex &ix = prep.ix;

        auto makeScratch = [&]() {
            ScratchTable scratch;
            scratch.reserve(prep.scratchCols.size());
            for (std::int64_t cols : prep.scratchCols)
                scratch.emplace_back(static_cast<std::size_t>(cols), 0.0f);
            return scratch;
        };
        // Virtual `+=` outputs restart at +0 on every iteration.
        auto restart = [&](ScratchTable &scratch) {
            for (std::int32_t r : prep.restart) {
                auto &row = scratch[static_cast<std::size_t>(r)];
                std::fill(row.begin(), row.end(), 0.0f);
            }
        };

        if (ti.grouped()) {
            const GroupWalk walk(ti, ctx);
            const auto etype = g.etype();
            auto run = [&](std::int64_t k0, std::int64_t k1) {
                ScratchTable scratch = makeScratch();
                for (std::int64_t k = k0; k < k1; ++k) {
                    EvalPoint pt = walk.enter(k);
                    const std::int64_t i0 =
                        walk.ptr[static_cast<std::size_t>(k)];
                    const std::int64_t i1 =
                        walk.ptr[static_cast<std::size_t>(k) + 1];
                    for (const auto &ps : prep.stmts) {
                        if (ps.hoistLevel == 1)
                            evalPrepared(ps, pt, ix, scratch);
                        else if (ps.hoistLevel == 2) {
                            auto &acc = scratch[static_cast<std::size_t>(
                                ps.out.scratch)];
                            std::fill(acc.begin(), acc.end(), 0.0f);
                        }
                    }
                    for (std::int64_t i = i0; i < i1; ++i) {
                        pt.e = walk.ids[static_cast<std::size_t>(i)];
                        pt.etype = etype[static_cast<std::size_t>(pt.e)];
                        restart(scratch);
                        for (const auto &ps : prep.stmts)
                            if (ps.hoistLevel != 1)
                                evalPrepared(ps, pt, ix, scratch);
                    }
                    // One store per group with an edge; a node without
                    // an in-edge keeps its row. A sum-first store adds.
                    if (i0 < i1)
                        for (const auto &ps : prep.stmts)
                            if (ps.hoistLevel == 2) {
                                const auto &acc = scratch[
                                    static_cast<std::size_t>(ps.out.scratch)];
                                float *row = opPtr(ps.store, pt, ix, scratch);
                                if (ps.s->sumFirst)
                                    for (std::size_t c = 0; c < acc.size(); ++c)
                                        row[c] += acc[c];
                                else
                                    std::copy(acc.begin(), acc.end(), row);
                            }
                }
            };
            if (prep.rowParallel)
                util::globalPool().parallelFor(0, walk.groups(), run, 64);
            else
                run(0, walk.groups());
            return;
        }
        switch (ti.domain) {
          case RowDomain::Edges: {
            const auto etype = g.etype();
            auto run = [&](std::int64_t e0, std::int64_t e1) {
                ScratchTable scratch = makeScratch();
                for (std::int64_t e = e0; e < e1; ++e) {
                    EvalPoint pt;
                    pt.e = e;
                    pt.etype = etype[static_cast<std::size_t>(e)];
                    restart(scratch);
                    for (const auto &ps : prep.stmts)
                        evalPrepared(ps, pt, ix, scratch);
                }
            };
            if (prep.rowParallel)
                util::globalPool().parallelFor(0, g.numEdges(), run, 128);
            else
                run(0, g.numEdges());
            break;
          }
          case RowDomain::UniquePairs: {
            const auto uptr = ctx.cmap->uniqueEtypePtr();
            const std::int64_t total = ctx.cmap->numUnique();
            auto run = [&](std::int64_t u0, std::int64_t u1) {
                ScratchTable scratch = makeScratch();
                std::int32_t r = 0;
                while (r < g.numEdgeTypes() &&
                       uptr[static_cast<std::size_t>(r) + 1] <= u0)
                    ++r;
                for (; r < g.numEdgeTypes() &&
                       uptr[static_cast<std::size_t>(r)] < u1;
                     ++r) {
                    const std::int64_t lo = std::max(
                        u0, uptr[static_cast<std::size_t>(r)]);
                    const std::int64_t hi = std::min(
                        u1, uptr[static_cast<std::size_t>(r) + 1]);
                    for (std::int64_t u = lo; u < hi; ++u) {
                        EvalPoint pt;
                        pt.u = u;
                        pt.etype = r;
                        restart(scratch);
                        for (const auto &ps : prep.stmts)
                            evalPrepared(ps, pt, ix, scratch);
                    }
                }
            };
            if (prep.rowParallel)
                util::globalPool().parallelFor(0, total, run, 128);
            else
                run(0, total);
            break;
          }
          case RowDomain::Nodes: {
            const auto ntype = g.nodeType();
            auto run = [&](std::int64_t v0, std::int64_t v1) {
                ScratchTable scratch = makeScratch();
                for (std::int64_t v = v0; v < v1; ++v) {
                    EvalPoint pt;
                    pt.v = v;
                    pt.ntype = ntype[static_cast<std::size_t>(v)];
                    restart(scratch);
                    for (const auto &ps : prep.stmts)
                        evalPrepared(ps, pt, ix, scratch);
                }
            };
            if (prep.rowParallel)
                util::globalPool().parallelFor(0, g.numNodes(), run, 128);
            else
                run(0, g.numNodes());
            break;
          }
        }
    };

    auto body = [&]() {
        if (util::seedKernelMode())
            seedBody();
        else
            fastBody();
    };
    ctx.rt->launch(traversalDesc(p, ti, ctx), body);
}

void
execFallback(const Program &p, const FallbackInstance &fi,
             ExecutionContext &ctx)
{
    (void)p;
    const Stmt &s = fi.stmt;
    const auto &g = *ctx.g;
    Tensor &w1 = ctx.weights->at(s.weight);
    Tensor &w2 = ctx.weights->at(s.weight2);

    double flops = 0.0;
    double bytes = 0.0;

    auto body = [&]() {
        if (fi.phase == sim::Phase::Forward) {
            if (s.kind == OpKind::ComposeMatVec) {
                // wc[r][i] = sum_j w1[r][i][j] * w2[r][j]
                const std::int64_t rr = w1.dim(0);
                const std::int64_t di = w1.dim(1);
                const std::int64_t dj = w1.dim(2);
                Tensor &wc =
                    untrackedParam(*ctx.weights, s.out.name, {rr, di});
                wc.fill(0.0f);
                for (std::int64_t r = 0; r < rr; ++r)
                    for (std::int64_t i = 0; i < di; ++i) {
                        float acc = 0.0f;
                        const float *row = w1.data() + (r * di + i) * dj;
                        const float *v = w2.row(r);
                        for (std::int64_t j = 0; j < dj; ++j)
                            acc += row[j] * v[j];
                        wc.at(r, i) = acc;
                    }
                flops = 2.0 * static_cast<double>(rr * di * dj);
                bytes = 4.0 * static_cast<double>(w1.numel() + w2.numel() +
                                                  rr * di);
            } else {
                // C[r] = w1[srcNt(r)] . w2[r]
                const std::int64_t rr = w2.dim(0);
                const std::int64_t di = w1.dim(1);
                const std::int64_t dk = w1.dim(2);
                const std::int64_t dj = w2.dim(2);
                Tensor &wc = untrackedParam(*ctx.weights, s.out.name,
                                            {rr, di, dj});
                wc.fill(0.0f);
                // Each block of output columns is summed over k in
                // locals and stored once: the same adds in the same
                // order as summing into the row in place, but with no
                // store in the k loop, whose speed then depended on
                // where the allocator placed wc relative to w2.
                constexpr std::int64_t kBlock = 16;
                for (std::int64_t r = 0; r < rr; ++r) {
                    const std::int64_t nt =
                        g.etypeSrcNtype(static_cast<int>(r));
                    for (std::int64_t i = 0; i < di; ++i) {
                        const float *arow = w1.data() + (nt * di + i) * dk;
                        float *crow = wc.data() + (r * di + i) * dj;
                        for (std::int64_t j0 = 0; j0 < dj; j0 += kBlock) {
                            const std::int64_t jn =
                                std::min(kBlock, dj - j0);
                            float acc[kBlock] = {};
                            for (std::int64_t k = 0; k < dk; ++k) {
                                const float av = arow[k];
                                const float *brow =
                                    w2.data() + (r * dk + k) * dj + j0;
                                for (std::int64_t j = 0; j < jn; ++j)
                                    acc[j] += av * brow[j];
                            }
                            std::copy(acc, acc + jn, crow + j0);
                        }
                    }
                }
                flops = 2.0 * static_cast<double>(rr * di * dk * dj);
                bytes = 4.0 * static_cast<double>(
                                  rr * dk * dj + rr * di * dj + w1.numel());
            }
            return;
        }
        // Backward: chain the composed-weight gradient to the factors.
        auto git = ctx.weightGrads->find(s.out.name);
        if (git == ctx.weightGrads->end())
            return;
        Tensor &gc = git->second;
        Tensor &g1 =
            untrackedParam(*ctx.weightGrads, s.weight, w1.shape());
        Tensor &g2 =
            untrackedParam(*ctx.weightGrads, s.weight2, w2.shape());
        if (s.kind == OpKind::ComposeMatVec) {
            const std::int64_t rr = w1.dim(0);
            const std::int64_t di = w1.dim(1);
            const std::int64_t dj = w1.dim(2);
            for (std::int64_t r = 0; r < rr; ++r) {
                const float *gcr = gc.row(r);
                const float *v = w2.row(r);
                for (std::int64_t i = 0; i < di; ++i) {
                    float *g1row = g1.data() + (r * di + i) * dj;
                    const float *w1row = w1.data() + (r * di + i) * dj;
                    const float gv = gcr[i];
                    for (std::int64_t j = 0; j < dj; ++j) {
                        g1row[j] += gv * v[j];
                        g2.at(r, j) += gv * w1row[j];
                    }
                }
            }
            flops = 4.0 * static_cast<double>(rr * di * dj);
        } else {
            const std::int64_t rr = w2.dim(0);
            const std::int64_t di = w1.dim(1);
            const std::int64_t dk = w1.dim(2);
            const std::int64_t dj = w2.dim(2);
            for (std::int64_t r = 0; r < rr; ++r) {
                const std::int64_t nt = g.etypeSrcNtype(static_cast<int>(r));
                for (std::int64_t i = 0; i < di; ++i) {
                    const float *gcrow = gc.data() + (r * di + i) * dj;
                    const float *arow = w1.data() + (nt * di + i) * dk;
                    float *garow = g1.data() + (nt * di + i) * dk;
                    for (std::int64_t k = 0; k < dk; ++k) {
                        const float *brow = w2.data() + (r * dk + k) * dj;
                        float *gbrow = g2.data() + (r * dk + k) * dj;
                        float acc = 0.0f;
                        const float av = arow[k];
                        for (std::int64_t j = 0; j < dj; ++j) {
                            acc += gcrow[j] * brow[j];
                            gbrow[j] += av * gcrow[j];
                        }
                        garow[k] += acc;
                    }
                }
            }
            flops = 8.0 * static_cast<double>(rr * di * dk * dj);
        }
        bytes = 4.0 * static_cast<double>(w1.numel() + w2.numel() +
                                          gc.numel());
    };

    // Run the composition first so its measured FLOP/byte counts can
    // price the launch, then charge the framework dispatch overhead
    // (the paper's PyTorch BMM + slicing path).
    body();
    sim::KernelDesc desc;
    desc.name = fi.name;
    desc.category = sim::KernelCategory::Fallback;
    desc.phase = fi.phase;
    // Weight-space work does not scale with the dataset; scale it so
    // its share of total time matches the full-size run (see
    // DeviceSpec::datasetScale).
    desc.flops = flops * ctx.rt->spec().datasetScale;
    desc.bytesRead = bytes * ctx.rt->spec().datasetScale;
    desc.workItems = flops / 2.0;
    ctx.rt->launch(desc, nullptr);
    ctx.rt->hostOverhead(3.0e-6 * ctx.rt->spec().overheadScale);
}

namespace
{

/**
 * The merged walk of the split edge loop at steps @p i and i + 1 of
 * @p fn when it prices less on ctx's graph than the two halves, each
 * launch with its overhead; otherwise nothing.
 */
std::optional<TraversalInstance>
cheaperMerge(const Program &p, const LoweredFunction &fn, std::size_t i,
             const ExecutionContext &ctx)
{
    const TraversalInstance &first = fn.traversals[fn.order[i].index];
    const TraversalInstance &second = fn.traversals[fn.order[i + 1].index];
    TraversalInstance merged = mergedTraversal(p, first, second);
    const sim::DeviceModel &m = ctx.rt->model();
    if (m.kernelTime(traversalDesc(p, merged, ctx)) <
        m.kernelTime(traversalDesc(p, first, ctx)) +
            m.kernelTime(traversalDesc(p, second, ctx)))
        return merged;
    return std::nullopt;
}

} // namespace

void
execute(const Program &p, const LoweredFunction &fn, ExecutionContext &ctx)
{
    // With an adopted plan, materialize-and-zero each variable's slot
    // at the variable's first use — the arena counterpart of the
    // legacy allocate-on-first-use zero guarantee, and the reset point
    // for slots shared across disjoint live ranges. A variable
    // addressed through a row table has no slot storage: its rows are
    // zero on entry already.
    const bool planned =
        ctx.plan() && fn.zeroSlotsBefore.size() == fn.order.size();
    for (std::size_t i = 0; i < fn.order.size(); ++i) {
        if (planned)
            for (std::int32_t slot : fn.zeroSlotsBefore[i])
                if (!ctx.rowTable(
                        ctx.plan()->slots[static_cast<std::size_t>(slot)].var))
                    ctx.materializeSlot(slot);
        const auto &step = fn.order[i];
        // A split edge loop runs as its two halves, or as one merged
        // walk in place of both where that prices less on this graph.
        // The planner zeroes the second half's slots before the first.
        std::optional<TraversalInstance> merged;
        if (fn.foldsIntoPrevious(i + 1))
            merged = cheaperMerge(p, fn, i, ctx);
        // Per-step trace span on the modeled launch clock (thread-count
        // invariant): start/end are totalTimeSec deltas, so the same
        // plan traces identically at any pool size.
        obs::Span span;
        if (obs::enabled()) {
            const std::string *name = nullptr;
            const char *kind = "";
            switch (step.kind) {
              case LoweredFunction::Step::Kind::Gemm:
                name = &fn.gemms[step.index].name;
                kind = "gemm";
                break;
              case LoweredFunction::Step::Kind::Traversal:
                name = merged ? &merged->name
                              : &fn.traversals[step.index].name;
                kind = "traversal";
                break;
              case LoweredFunction::Step::Kind::Fallback:
                name = &fn.fallbacks[step.index].name;
                kind = "fallback";
                break;
            }
            span = obs::Span(*name, "exec", ctx.rt->totalTimeSec(),
                             ctx.rt->deviceId(),
                             ctx.rt->currentStream());
            span.arg("kind", kind);
        }
        switch (step.kind) {
          case LoweredFunction::Step::Kind::Gemm:
            execGemm(p, fn.gemms[step.index], ctx);
            break;
          case LoweredFunction::Step::Kind::Traversal:
            execTraversal(p, merged ? *merged : fn.traversals[step.index],
                          ctx);
            break;
          case LoweredFunction::Step::Kind::Fallback:
            execFallback(p, fn.fallbacks[step.index], ctx);
            break;
        }
        if (span.active())
            span.endAt(ctx.rt->totalTimeSec());
        if (merged)
            ++i;
    }
}

} // namespace hector::core
