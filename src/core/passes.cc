#include "core/passes.hh"

#include <algorithm>
#include <set>

namespace hector::core
{

ConsumerAnalysis::ConsumerAnalysis(const Program &p) : output_(p.outputVar)
{
    auto visit = [&](const Loop &l, int loop_idx, auto &&self) -> void {
        for (const auto &s : l.body) {
            for (const auto &in : s.ins) {
                readers_[in.name].push_back(&s);
                readerLoops_[in.name].push_back(loop_idx);
            }
            if (s.accumulateOut) {
                readers_[s.out.name].push_back(&s);
                readerLoops_[s.out.name].push_back(loop_idx);
            }
        }
        for (const auto &in : l.inner)
            self(in, loop_idx, self);
    };
    for (std::size_t i = 0; i < p.loops.size(); ++i)
        visit(p.loops[i], static_cast<int>(i), visit);
    for (const auto &s : p.weightPrecompute) {
        for (const auto &in : s.ins) {
            readers_[in.name].push_back(&s);
            readerLoops_[in.name].push_back(-1);
        }
    }
}

const std::vector<const Stmt *> &
ConsumerAnalysis::readers(const std::string &var) const
{
    auto it = readers_.find(var);
    return it == readers_.end() ? empty_ : it->second;
}

const std::vector<int> &
ConsumerAnalysis::readerLoops(const std::string &var) const
{
    auto it = readerLoops_.find(var);
    return it == readerLoops_.end() ? emptyLoops_ : it->second;
}

bool
ConsumerAnalysis::isProgramOutput(const std::string &var) const
{
    return var == output_;
}

namespace
{

/**
 * Rewrite (a): edgewise typed linear feeding only weighted dots.
 * Returns the number of typed linears deleted.
 */
int
reorderDotChains(Program &p, PassStats &stats)
{
    int removed = 0;
    for (auto &loop : p.loops) {
        if (loop.domain != LoopDomain::Edges)
            continue;
        for (auto it = loop.body.begin(); it != loop.body.end();) {
            const Stmt &s1 = *it;
            if (s1.kind != OpKind::TypedLinear ||
                s1.typeBy != TypeBy::Etype ||
                p.varInfo(s1.out.name).space != VarSpace::EdgeData) {
                ++it;
                continue;
            }
            ConsumerAnalysis ca(p);
            const auto &readers = ca.readers(s1.out.name);
            const bool all_dots =
                !readers.empty() && !ca.isProgramOutput(s1.out.name) &&
                std::all_of(readers.begin(), readers.end(),
                            [&](const Stmt *c) {
                                return c->kind == OpKind::DotProduct &&
                                       !c->weight.empty() &&
                                       c->ins.size() == 1 &&
                                       c->ins[0].name == s1.out.name;
                            });
            if (!all_dots) {
                ++it;
                continue;
            }
            // Rewrite every consumer to dot against the composed
            // vector (W . wv^T)[r], reading the typed linear's input.
            const VarRef x = s1.ins[0];
            const std::string w_mat = s1.weight;
            std::set<const Stmt *> consumers(readers.begin(), readers.end());
            for (auto &l2 : p.loops) {
                for (auto &c : l2.body) {
                    if (!consumers.count(&c))
                        continue;
                    const std::string composed =
                        c.weight + "__" + w_mat;
                    if (!p.weights.count(composed)) {
                        const auto &wi = p.weightInfo(w_mat);
                        p.declareWeight(composed,
                                        {TypeBy::Etype, 1, wi.rows, true,
                                         true});
                        Stmt comp;
                        comp.kind = OpKind::ComposeMatVec;
                        comp.out = {composed, Access::Direct};
                        comp.weight = w_mat;
                        comp.weight2 = c.weight;
                        p.weightPrecompute.push_back(comp);
                        ++stats.composedWeights;
                    }
                    c.ins[0] = x;
                    c.weight = composed;
                }
            }
            it = loop.body.erase(it);
            ++removed;
        }
    }
    return removed;
}

/**
 * Rewrite (b): nodewise projection feeding only edgewise typed
 * linears through the source endpoint.
 */
int
reorderProjectionChains(Program &p, PassStats &stats)
{
    int removed = 0;
    for (auto &loop : p.loops) {
        if (loop.domain != LoopDomain::Nodes)
            continue;
        for (auto it = loop.body.begin(); it != loop.body.end();) {
            const Stmt &s0 = *it;
            if (s0.kind != OpKind::TypedLinear ||
                s0.typeBy != TypeBy::Ntype ||
                p.varInfo(s0.out.name).space != VarSpace::NodeData) {
                ++it;
                continue;
            }
            ConsumerAnalysis ca(p);
            const auto &readers = ca.readers(s0.out.name);
            const bool all_edge_linears =
                !readers.empty() && !ca.isProgramOutput(s0.out.name) &&
                std::all_of(readers.begin(), readers.end(),
                            [&](const Stmt *c) {
                                return c->kind == OpKind::TypedLinear &&
                                       c->typeBy == TypeBy::Etype &&
                                       c->ins.size() == 1 &&
                                       c->ins[0].name == s0.out.name &&
                                       c->ins[0].access == Access::ViaSrc;
                            });
            if (!all_edge_linears) {
                ++it;
                continue;
            }
            const VarRef x = s0.ins[0];
            const std::string w1 = s0.weight;
            std::set<const Stmt *> consumers(readers.begin(), readers.end());
            for (auto &l2 : p.loops) {
                for (auto &c : l2.body) {
                    if (!consumers.count(&c))
                        continue;
                    const std::string composed = w1 + "__" + c.weight;
                    if (!p.weights.count(composed)) {
                        const auto &wi1 = p.weightInfo(w1);
                        const auto &wi2 = p.weightInfo(c.weight);
                        p.declareWeight(composed,
                                        {TypeBy::Etype, wi1.rows, wi2.cols,
                                         false, true});
                        Stmt comp;
                        comp.kind = OpKind::ComposeMatMat;
                        comp.out = {composed, Access::Direct};
                        comp.weight = w1;
                        comp.weight2 = c.weight;
                        p.weightPrecompute.push_back(comp);
                        ++stats.composedWeights;
                    }
                    c.ins[0] = {x.name, Access::ViaSrc};
                    c.weight = composed;
                }
            }
            it = loop.body.erase(it);
            ++removed;
        }
    }
    return removed;
}

/**
 * True when @p ref, used in an edge loop, addresses a row that other
 * edges share: a node variable through an edge endpoint, or a compact
 * (src, etype) row.
 */
bool
sharedRow(const Program &p, const VarRef &ref)
{
    const auto &vi = p.varInfo(ref.name);
    if (vi.space == VarSpace::EdgeData)
        return vi.mat == Materialization::Compact;
    return ref.access != Access::Direct;
}

/** Variables @p body scatters into (accumulates into a shared row). */
std::set<std::string>
scatteredVars(const Program &p, const std::vector<Stmt> &body)
{
    std::set<std::string> out;
    for (const auto &s : body)
        if (isAccumulation(s) && p.vars.count(s.out.name) &&
            sharedRow(p, s.out))
            out.insert(s.out.name);
    return out;
}

/**
 * True when @p body reads, through a shared row, a variable in
 * @p vars.
 */
bool
readsShared(const Program &p, const std::vector<Stmt> &body,
            const std::set<std::string> &vars)
{
    for (const auto &s : body)
        for (const auto &in : s.ins)
            if (vars.count(in.name) && sharedRow(p, in))
                return true;
    return false;
}

/**
 * True when merging edge loop @p b after edge loop @p a would change
 * what some statement reads. The merged loop runs point-major, so a
 * shared row that one loop scatters into and the other reads would be
 * seen half-accumulated (or, reversed, already updated).
 */
bool
mergeConflicts(const Program &p, const Loop &a, const Loop &b)
{
    return readsShared(p, b.body, scatteredVars(p, a.body)) ||
           readsShared(p, a.body, scatteredVars(p, b.body));
}

} // namespace

PassStats
linearOperatorReordering(Program &p)
{
    PassStats stats;
    stats.reorderedLinears += reorderDotChains(p, stats);
    stats.reorderedLinears += reorderProjectionChains(p, stats);
    // Drop loops emptied by the rewrites.
    std::erase_if(p.loops, [](const Loop &l) {
        return l.body.empty() && l.inner.empty();
    });
    return stats;
}

PassStats
compactMaterialization(Program &p)
{
    PassStats stats;
    std::map<std::string, bool> compact;
    for (auto &loop : p.loops) {
        if (loop.domain != LoopDomain::Edges)
            continue;
        for (const auto &s : loop.body) {
            if (!p.vars.count(s.out.name))
                continue;
            auto &out_info = p.varInfo(s.out.name);
            if (out_info.space != VarSpace::EdgeData)
                continue;
            if (dependsOnlyOnSrcAndEtype(p, s, compact)) {
                if (out_info.mat == Materialization::Vanilla) {
                    out_info.mat = Materialization::Compact;
                    ++stats.compactedVars;
                }
                compact[s.out.name] = true;
            }
        }
    }
    return stats;
}

PassStats
fuseLoops(Program &p, bool allow_virtual)
{
    PassStats stats;

    // 1. Merge adjacent edgewise loops, unless the later one reads a
    //    row the earlier one is still scattering into (or vice versa).
    for (std::size_t i = 0; i + 1 < p.loops.size();) {
        if (p.loops[i].domain == LoopDomain::Edges &&
            p.loops[i + 1].domain == LoopDomain::Edges &&
            !mergeConflicts(p, p.loops[i], p.loops[i + 1])) {
            auto &a = p.loops[i].body;
            auto &b = p.loops[i + 1].body;
            a.insert(a.end(), b.begin(), b.end());
            p.loops.erase(p.loops.begin() + static_cast<long>(i) + 1);
            ++stats.fusedLoops;
        } else {
            ++i;
        }
    }

    // 2. Fuse an edgewise loop into the dst-nodes loop that follows
    //    when all its outputs are consumed only inside that loop.
    for (std::size_t i = 0; i + 1 < p.loops.size();) {
        Loop &edge_loop = p.loops[i];
        Loop &node_loop = p.loops[i + 1];
        if (edge_loop.domain != LoopDomain::Edges ||
            node_loop.domain != LoopDomain::DstNodes ||
            node_loop.inner.empty()) {
            ++i;
            continue;
        }
        ConsumerAnalysis ca(p);
        std::set<const Stmt *> inner_stmts;
        for (const auto &s : node_loop.inner[0].body)
            inner_stmts.insert(&s);
        for (const auto &s : edge_loop.body)
            inner_stmts.insert(&s);
        bool fusable = true;
        for (const auto &s : edge_loop.body) {
            if (ca.isProgramOutput(s.out.name)) {
                fusable = false;
                break;
            }
            for (const Stmt *r : ca.readers(s.out.name)) {
                if (!inner_stmts.count(r)) {
                    fusable = false;
                    break;
                }
            }
            if (!fusable)
                break;
        }
        if (!fusable) {
            ++i;
            continue;
        }
        auto &target = node_loop.inner[0].body;
        target.insert(target.begin(), edge_loop.body.begin(),
                      edge_loop.body.end());
        if (allow_virtual) {
            for (const auto &s : edge_loop.body) {
                // Typed linears are extracted onto the GEMM template
                // before traversal lowering, so their outputs must
                // stay materialized.
                if (s.kind == OpKind::TypedLinear)
                    continue;
                auto &vi = p.varInfo(s.out.name);
                if (vi.mat != Materialization::Virtual) {
                    vi.mat = Materialization::Virtual;
                    ++stats.virtualizedVars;
                }
            }
        }
        p.loops.erase(p.loops.begin() + static_cast<long>(i));
        ++stats.fusedLoops;
    }
    return stats;
}

} // namespace hector::core
