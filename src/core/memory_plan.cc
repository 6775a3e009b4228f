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

    auto refsAt = [&](std::size_t i) -> const std::vector<std::string> & {
        return i < n_fwd ? fwd_refs[i] : bwd_refs[i - n_fwd];
    };
    auto infoOf = [&](const std::string &name) -> const VarInfo & {
        // Prefer the program that owns the instruction space the var
        // first appears in; variable names are unique across the pair
        // except for forward intermediates the backward also declares
        // with identical info.
        auto it = fwd.vars.find(name);
        if (it != fwd.vars.end())
            return it->second;
        return bwd->varInfo(name);
    };

    // Liveness: first and last instruction referencing each variable.
    for (std::size_t i = 0; i < n_total; ++i) {
        for (const auto &name : refsAt(i)) {
            auto [it, inserted] = plan.vars.try_emplace(name);
            if (inserted)
                it->second.firstUse = static_cast<int>(i);
            it->second.lastUse = static_cast<int>(i);
        }
    }

    // External inputs are bound by the caller and never arena-backed;
    // pinned variables are read by the caller after execution and
    // never share.
    auto markExternal = [&](const std::string &name) {
        auto it = plan.vars.find(name);
        if (it != plan.vars.end())
            it->second.external = true;
    };
    auto markPinned = [&](const std::string &name) {
        auto it = plan.vars.find(name);
        if (it != plan.vars.end())
            it->second.pinned = true;
    };
    markExternal(fwd.inputVar);
    markExternal("norm");
    markPinned(fwd.outputVar);
    if (bwd) {
        markExternal(gradOf(fwd.outputVar));
        markPinned(gradOf(fwd.inputVar));
        // Gradients of weights-adjacent node data read by optimizers /
        // tests after the step: keep every gradient variable pinned so
        // nothing the caller may inspect is recycled mid-execution of
        // a later request... gradients die with the context instead.
        for (const auto &[name, vi] : bwd->vars) {
            (void)vi;
            if (name.size() > 5 &&
                name.compare(name.size() - 5, 5, "_grad") == 0)
                markPinned(name);
        }
    }

    // Linear-scan slot assignment with per-(rows, cols) free lists.
    std::map<std::pair<int, std::int64_t>, std::vector<int>> free_slots;
    auto newSlot = [&](SlotRows rows, std::int64_t cols, bool external) {
        plan.slots.push_back({rows, cols, external});
        return static_cast<int>(plan.slots.size() - 1);
    };
    for (std::size_t i = 0; i < n_total; ++i) {
        for (const auto &name : refsAt(i)) {
            MemoryPlan::VarPlan &vp = plan.vars.at(name);
            if (vp.slot >= 0)
                continue;
            const VarInfo &vi = infoOf(name);
            const SlotRows rows = rowsClassOf(vi);
            if (vp.external || vp.pinned) {
                vp.slot = newSlot(rows, vi.cols, vp.external);
                continue;
            }
            const auto key = std::make_pair(static_cast<int>(rows),
                                            vi.cols);
            auto fit = free_slots.find(key);
            if (fit != free_slots.end() && !fit->second.empty()) {
                vp.slot = fit->second.back();
                fit->second.pop_back();
            } else {
                vp.slot = newSlot(rows, vi.cols, false);
            }
        }
        for (const auto &name : refsAt(i)) {
            const MemoryPlan::VarPlan &vp = plan.vars.at(name);
            if (vp.external || vp.pinned)
                continue;
            if (vp.lastUse == static_cast<int>(i)) {
                const MemoryPlan::Slot &s =
                    plan.slots[static_cast<std::size_t>(vp.slot)];
                free_slots[{static_cast<int>(s.rows), s.cols}].push_back(
                    vp.slot);
            }
        }
    }

    // Zero-initialization lists: every non-external variable's slot is
    // zeroed at the variable's first use, reproducing the fresh-zero
    // guarantee of allocate-on-first-use and re-initializing slots
    // reused across disjoint live ranges.
    fwdFn.zeroSlotsBefore.assign(fwdFn.order.size(), {});
    if (bwdFn)
        bwdFn->zeroSlotsBefore.assign(bwdFn->order.size(), {});
    for (const auto &[name, vp] : plan.vars) {
        if (vp.external)
            continue;
        const auto i = static_cast<std::size_t>(vp.firstUse);
        if (i < n_fwd)
            fwdFn.zeroSlotsBefore[i].push_back(
                static_cast<std::int32_t>(vp.slot));
        else
            bwdFn->zeroSlotsBefore[i - n_fwd].push_back(
                static_cast<std::int32_t>(vp.slot));
    }

    stampFunction(fwd, fwdFn, plan);
    if (bwd && bwdFn)
        stampFunction(*bwd, *bwdFn, plan);
    return plan;
}

} // namespace hector::core
