#include "core/memory_plan.hh"

#include <algorithm>
#include <stdexcept>

#include "core/autodiff.hh"

namespace hector::core
{

const char *
toString(SlotRows r)
{
    switch (r) {
      case SlotRows::Nodes:
        return "nodes";
      case SlotRows::Edges:
        return "edges";
      case SlotRows::UniquePairs:
        return "unique_pairs";
    }
    return "?";
}

std::int64_t
ArenaRows::of(SlotRows r) const
{
    switch (r) {
      case SlotRows::Nodes:
        return nodes;
      case SlotRows::Edges:
        return edges;
      case SlotRows::UniquePairs:
        return pairs;
    }
    throw std::logic_error("ArenaRows::of: invalid SlotRows enum value");
}

int
MemoryPlan::slotOf(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
}

ArenaLayout
MemoryPlan::pack(const ArenaRows &rows) const
{
    ArenaLayout lay;
    lay.rows = rows;
    lay.offset.assign(slots.size(), 0);

    // Arena slots of one pass, largest first (ties: earlier first use,
    // then slot order), each placed at the lowest offset whose bytes no
    // placed slot with an overlapping live range holds.
    std::vector<int> placed;
    auto packPass = [&](bool backward) {
        std::vector<int> order;
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (slots[i].backing == Backing::Arena &&
                (slots[i].firstUse >= forwardSteps) == backward)
                order.push_back(static_cast<int>(i));
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            const std::size_t sa = slots[a].bytes(rows);
            const std::size_t sb = slots[b].bytes(rows);
            if (sa != sb)
                return sa > sb;
            return slots[a].firstUse < slots[b].firstUse;
        });
        for (int i : order) {
            const Slot &s = slots[static_cast<std::size_t>(i)];
            const std::size_t size = s.bytes(rows);
            // Byte ranges of placed slots live at the same time as s.
            std::vector<std::pair<std::size_t, std::size_t>> busy;
            for (int j : placed) {
                const Slot &o = slots[static_cast<std::size_t>(j)];
                const std::size_t lo = lay.offset[static_cast<std::size_t>(j)];
                if (s.overlaps(o) && o.bytes(rows) != 0)
                    busy.emplace_back(lo, lo + o.bytes(rows));
            }
            std::sort(busy.begin(), busy.end());
            // A backward slot lies wholly inside the forward region or
            // wholly past it, so the two regions can be backed (and
            // grown) separately.
            std::size_t off = 0;
            auto clearOfRegionEnd = [&]() {
                if (backward && off < lay.forwardBytes &&
                    off + size > lay.forwardBytes)
                    off = lay.forwardBytes;
            };
            clearOfRegionEnd();
            for (const auto &[lo, hi] : busy) {
                if (lo >= off + size)
                    break;
                if (hi > off) {
                    off = hi;
                    clearOfRegionEnd();
                }
            }
            lay.offset[static_cast<std::size_t>(i)] = off;
            placed.push_back(i);
            lay.totalBytes = std::max(lay.totalBytes, off + size);
        }
        if (!backward)
            lay.forwardBytes = lay.totalBytes;
    };
    packPass(false);
    packPass(true);

    for (const Slot &s : slots)
        if (s.backing == Backing::Own)
            lay.ownBytes += s.bytes(rows);
    return lay;
}

namespace
{

/** Row-domain class of a materialized variable's backing buffer. */
SlotRows
rowsClassOf(const VarInfo &vi)
{
    switch (vi.space) {
      case VarSpace::NodeInput:
      case VarSpace::NodeData:
        return SlotRows::Nodes;
      case VarSpace::EdgeData:
        switch (vi.mat) {
          case Materialization::Vanilla:
            return SlotRows::Edges;
          case Materialization::Compact:
            return SlotRows::UniquePairs;
          case Materialization::Virtual:
            break;
        }
        break;
      case VarSpace::Param:
        break;
    }
    throw std::logic_error("rowsClassOf: variable is not materialized");
}

/** True when @p name is a materialized (plannable) variable of @p p. */
bool
isPlannable(const Program &p, const std::string &name)
{
    if (name.empty())
        return false;
    auto it = p.vars.find(name);
    if (it == p.vars.end())
        return false;
    const VarInfo &vi = it->second;
    if (vi.space == VarSpace::Param)
        return false;
    if (vi.space == VarSpace::EdgeData &&
        vi.mat == Materialization::Virtual)
        return false;
    return true;
}

/**
 * One function's per-instruction plannable variables, in order. A
 * foldable traversal's references count at the step it folds into, so
 * the two halves of a split edge loop are one liveness unit: no slot is
 * shared across them, and the merged walk that may run in their place
 * finds every slot zeroed before it.
 */
void
collectRefs(const Program &p, const LoweredFunction &fn,
            std::vector<std::vector<std::string>> &per_step)
{
    per_step.clear();
    per_step.resize(fn.order.size());
    for (std::size_t i = 0; i < fn.order.size(); ++i) {
        auto &v = per_step[fn.foldsIntoPrevious(i) ? i - 1 : i];
        for (const StepRef &r : fn.refs(i))
            if (isPlannable(p, r.name) &&
                std::find(v.begin(), v.end(), r.name) == v.end())
                v.push_back(r.name);
    }
}

/** Stamp resolved slot ids into one lowered function's instances. */
void
stampFunction(const Program &p, LoweredFunction &fn, const MemoryPlan &plan)
{
    auto slotFor = [&](const std::string &name) -> std::int32_t {
        if (!isPlannable(p, name))
            return -1;
        return static_cast<std::int32_t>(plan.slotOf(name));
    };
    for (auto &gi : fn.gemms) {
        gi.xSlot = slotFor(gi.xVar);
        gi.scalarSlot = slotFor(gi.perRowScalarVar);
        gi.y2Slot = slotFor(gi.y2Var);
        gi.ySlot = gi.kind == GemmKind::Outer ? -1 : slotFor(gi.yVar);
        for (auto *terms : {&gi.epilogue, &gi.prologue})
            for (RowWeightVec &t : *terms)
                t.slot = slotFor(t.var);
    }
    for (auto &ti : fn.traversals) {
        for (auto &ss : ti.stmts) {
            ss.stmt.out.slot = slotFor(ss.stmt.out.name);
            for (auto &in : ss.stmt.ins)
                in.slot = slotFor(in.name);
        }
    }
}

} // namespace

MemoryPlan
planMemory(const Program &fwd, LoweredFunction &fwdFn, const Program *bwd,
           LoweredFunction *bwdFn)
{
    MemoryPlan plan;

    // Per-instruction references over the joint fwd[+bwd] order.
    std::vector<std::vector<std::string>> fwd_refs;
    std::vector<std::vector<std::string>> bwd_refs;
    collectRefs(fwd, fwdFn, fwd_refs);
    if (bwd && bwdFn)
        collectRefs(*bwd, *bwdFn, bwd_refs);
    const std::size_t n_fwd = fwd_refs.size();
    const std::size_t n_total = n_fwd + bwd_refs.size();
    plan.forwardSteps = static_cast<int>(n_fwd);

    auto refsAt = [&](std::size_t i) -> const std::vector<std::string> & {
        return i < n_fwd ? fwd_refs[i] : bwd_refs[i - n_fwd];
    };
    auto infoOf = [&](const std::string &name) -> const VarInfo & {
        // Variable names are unique across the pair except for forward
        // intermediates the backward also declares with identical info.
        auto it = fwd.vars.find(name);
        if (it != fwd.vars.end())
            return it->second;
        return bwd->varInfo(name);
    };

    // Liveness: one slot per variable, in first-use order, spanning the
    // first and last instruction that references it.
    for (std::size_t i = 0; i < n_total; ++i) {
        for (const auto &name : refsAt(i)) {
            auto [it, inserted] = plan.index_.try_emplace(
                name, static_cast<int>(plan.slots.size()));
            if (inserted) {
                const VarInfo &vi = infoOf(name);
                MemoryPlan::Slot s;
                s.var = name;
                s.rows = rowsClassOf(vi);
                s.cols = vi.cols;
                s.firstUse = static_cast<int>(i);
                plan.slots.push_back(std::move(s));
            }
            plan.slots[static_cast<std::size_t>(it->second)].lastUse =
                static_cast<int>(i);
        }
    }

    // External inputs are bound by the caller. The caller reads the
    // output and the input-feature gradient after execution: the
    // output keeps a buffer of its own, the gradient stays live to the
    // end.
    auto slotNamed = [&](const std::string &name) -> MemoryPlan::Slot * {
        const int i = plan.slotOf(name);
        return i < 0 ? nullptr : &plan.slots[static_cast<std::size_t>(i)];
    };
    for (const std::string &name :
         {fwd.inputVar, std::string("norm"),
          bwd ? gradOf(fwd.outputVar) : std::string()})
        if (MemoryPlan::Slot *s = slotNamed(name))
            s->backing = MemoryPlan::Backing::External;
    if (MemoryPlan::Slot *s = slotNamed(fwd.outputVar))
        s->backing = MemoryPlan::Backing::Own;
    if (bwd)
        if (MemoryPlan::Slot *s = slotNamed(gradOf(fwd.inputVar)))
            s->lastUse = static_cast<int>(n_total) - 1;

    // Zero-initialization lists: every non-external slot is zeroed at
    // its first use, reproducing the fresh-zero guarantee of
    // allocate-on-first-use over arena bytes other variables held.
    fwdFn.zeroSlotsBefore.assign(fwdFn.order.size(), {});
    if (bwdFn)
        bwdFn->zeroSlotsBefore.assign(bwdFn->order.size(), {});
    for (std::size_t k = 0; k < plan.slots.size(); ++k) {
        const MemoryPlan::Slot &s = plan.slots[k];
        if (s.backing == MemoryPlan::Backing::External)
            continue;
        const auto i = static_cast<std::size_t>(s.firstUse);
        auto &list = i < n_fwd ? fwdFn.zeroSlotsBefore[i]
                               : bwdFn->zeroSlotsBefore[i - n_fwd];
        list.push_back(static_cast<std::int32_t>(k));
    }

    stampFunction(fwd, fwdFn, plan);
    if (bwd && bwdFn)
        stampFunction(*bwd, *bwdFn, plan);
    return plan;
}

} // namespace hector::core
