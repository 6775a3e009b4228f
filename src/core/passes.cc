#include "core/passes.hh"

#include <algorithm>
#include <optional>
#include <set>

#include "core/lowering.hh"

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

namespace
{

/** Every statement of @p loop and its nested loops. */
std::vector<const Stmt *>
loopStmts(const Loop &loop)
{
    std::vector<const Stmt *> out;
    auto visit = [&](const Loop &l, auto &&self) -> void {
        for (const auto &s : l.body)
            out.push_back(&s);
        for (const auto &in : l.inner)
            self(in, self);
    };
    visit(loop, visit);
    return out;
}

/** True when @p s writes a weight (a gradient, or a composed weight). */
bool
writesWeight(const Program &p, const Stmt &s)
{
    return s.kind == OpKind::OuterAccumulate ||
           s.kind == OpKind::WeightVecGrad || p.weights.count(s.out.name);
}

/**
 * True when @p s does not run inside a traversal of its loop: a typed
 * linear (lowered onto the GEMM template) or a statement writing a
 * compact (src, etype) row.
 */
bool
staysOutOfNest(const Program &p, const Stmt &s)
{
    return s.kind == OpKind::TypedLinear ||
           (p.vars.count(s.out.name) &&
            p.varInfo(s.out.name).mat == Materialization::Compact);
}

/** True when @p a and @p b touch a common variable one of them writes. */
bool
orderMatters(const Stmt &a, const Stmt &b)
{
    auto reads = [](const Stmt &s, const std::string &v) {
        return std::any_of(s.ins.begin(), s.ins.end(),
                           [&](const VarRef &in) { return in.name == v; });
    };
    return a.out.name == b.out.name || reads(a, b.out.name) ||
           reads(b, a.out.name);
}

/**
 * Folds edge loop p.loops[i] into the dst-nodes nest p.loops[i + 1]
 * (see fuseLoops()). Returns the nest's index afterwards, or -1 when
 * nothing folds.
 */
long
foldIntoNest(Program &p, std::size_t i)
{
    const Loop &edge_loop = p.loops[i];
    const Loop &nest = p.loops[i + 1];
    if (edge_loop.domain != LoopDomain::Edges ||
        nest.domain != LoopDomain::DstNodes || nest.inner.empty())
        return -1;
    const std::vector<Stmt> &body = edge_loop.body;
    const std::vector<const Stmt *> nest_stmts = loopStmts(nest);

    ConsumerAnalysis ca(p);
    std::set<std::string> nest_writes;
    for (const Stmt *s : nest_stmts)
        nest_writes.insert(s->out.name);
    std::set<std::string> traversal_writes;
    for (const auto &s : body) {
        if (ca.isProgramOutput(s.out.name))
            return -1;
        for (const auto &in : s.ins)
            if (nest_writes.count(in.name))
                return -1;
        if (s.kind != OpKind::TypedLinear && p.vars.count(s.out.name))
            traversal_writes.insert(s.out.name);
    }
    for (const Stmt *s : nest_stmts)
        for (const auto &in : s->ins)
            if (traversal_writes.count(in.name) && sharedRow(p, in))
                return -1;

    std::set<const Stmt *> inside(nest_stmts.begin(), nest_stmts.end());
    for (const auto &s : body)
        inside.insert(&s);
    const bool whole = std::all_of(body.begin(), body.end(), [&](const Stmt &s) {
        const auto &readers = ca.readers(s.out.name);
        return std::all_of(readers.begin(), readers.end(),
                           [&](const Stmt *r) { return inside.count(r) > 0; });
    });
    std::vector<Stmt> &target = p.loops[i + 1].inner[0].body;
    if (whole) {
        target.insert(target.begin(), body.begin(), body.end());
        p.loops.erase(p.loops.begin() + static_cast<long>(i));
        return static_cast<long>(i);
    }

    // Partial fold: the traversal statements move in; the statements
    // staying out are split into those the nest needs, directly or
    // through a moved statement (before the nest), and the rest
    // (after it).
    if (std::any_of(body.begin(), body.end(),
                    [&](const Stmt &s) { return writesWeight(p, s); }))
        return -1;
    enum Place { Before, Folded, After };
    std::vector<Place> place(body.size(), After);
    std::set<std::string> needed;
    for (const Stmt *s : nest_stmts)
        for (const auto &in : s->ins)
            needed.insert(in.name);
    for (std::size_t k = 0; k < body.size(); ++k)
        if (!staysOutOfNest(p, body[k])) {
            place[k] = Folded;
            for (const auto &in : body[k].ins)
                needed.insert(in.name);
        }
    if (std::none_of(place.begin(), place.end(),
                     [](Place pl) { return pl == Folded; }))
        return -1;
    for (std::size_t k = body.size(); k-- > 0;)
        if (place[k] == After && needed.count(body[k].out.name)) {
            place[k] = Before;
            for (const auto &in : body[k].ins)
                needed.insert(in.name);
        }
    for (std::size_t a = 0; a < body.size(); ++a)
        for (std::size_t b = a + 1; b < body.size(); ++b)
            if (place[b] < place[a] && orderMatters(body[a], body[b]))
                return -1;

    std::vector<Stmt> parts[3];
    for (std::size_t k = 0; k < body.size(); ++k)
        parts[place[k]].push_back(body[k]);
    target.insert(target.begin(), parts[Folded].begin(),
                  parts[Folded].end());
    long at = static_cast<long>(i) + 1;
    if (!parts[After].empty())
        p.loops.insert(p.loops.begin() + at + 1,
                       Loop{LoopDomain::Edges, std::move(parts[After]), {}});
    if (parts[Before].empty()) {
        p.loops.erase(p.loops.begin() + static_cast<long>(i));
        --at;
    } else {
        p.loops[i].body = std::move(parts[Before]);
    }
    return at;
}

} // namespace

PassStats
fuseLoops(Program &p)
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

    // 2. Fold each edgewise loop into the dst-nodes nest after it.
    for (std::size_t i = 0; i + 1 < p.loops.size();) {
        const long nest = foldIntoNest(p, i);
        if (nest < 0) {
            ++i;
            continue;
        }
        ++stats.fusedLoops;
        i = static_cast<std::size_t>(nest) + 1;
    }
    return stats;
}

namespace
{

/** A self-loop add foldAddIntoAggregation() rewrites. */
struct SelfLoopAdd
{
    const Stmt *add;
    std::size_t addLoop;
    /** The aggregation writing the add's first input, in a nest. */
    const Stmt *agg;
    std::size_t nest;
    /** The typed linear writing its second input, in a node loop. */
    const Stmt *lin;
    std::size_t linLoop;
};

/** The statements of @p p writing @p var, with their top-level loop. */
std::vector<std::pair<std::size_t, const Stmt *>>
writersOf(const Program &p, const std::string &var)
{
    std::vector<std::pair<std::size_t, const Stmt *>> out;
    for (std::size_t li = 0; li < p.loops.size(); ++li)
        for (const Stmt *s : loopStmts(p.loops[li]))
            if (s->out.name == var)
                out.emplace_back(li, s);
    return out;
}

/** The first add of @p p the fold applies to, if any. */
std::optional<SelfLoopAdd>
findSelfLoopAdd(const Program &p, bool gemm_scatter)
{
    const ConsumerAnalysis ca(p);
    auto nodeVar = [&](const VarRef &r) {
        return r.access == Access::Direct && p.vars.count(r.name) &&
               p.varInfo(r.name).space == VarSpace::NodeData &&
               !ca.isProgramOutput(r.name);
    };
    for (std::size_t ai = 0; ai < p.loops.size(); ++ai) {
        if (p.loops[ai].domain != LoopDomain::Nodes)
            continue;
        for (const Stmt &add : p.loops[ai].body) {
            if (add.kind != OpKind::Add || add.accumulateOut ||
                add.ins.size() != 2 || add.out.access != Access::Direct ||
                !nodeVar(add.ins[0]) ||
                !nodeVar(add.ins[1]) || add.ins[0].name == add.ins[1].name)
                continue;
            const auto wa = writersOf(p, add.ins[0].name);
            const auto wb = writersOf(p, add.ins[1].name);
            if (wa.size() != 1 || wb.size() != 1 ||
                writersOf(p, add.out.name).size() != 1)
                continue;
            const SelfLoopAdd m{&add,        ai, wa[0].second,
                                wa[0].first, wb[0].second, wb[0].first};
            const Loop &nest = p.loops[m.nest];
            const std::vector<Stmt> &edges = nest.inner.empty()
                                                 ? nest.body
                                                 : nest.inner[0].body;
            if (nest.domain != LoopDomain::DstNodes || m.nest >= ai ||
                nest.inner.size() != 1 ||
                std::none_of(edges.begin(), edges.end(),
                             [&](const Stmt &s) { return &s == m.agg; }) ||
                (m.agg->kind != OpKind::AccumulateSum &&
                 m.agg->kind != OpKind::AccumulateScaled) ||
                m.agg->sumFirst || m.agg->out.access != Access::Direct)
                continue;
            if (m.lin->kind != OpKind::TypedLinear || m.lin->accumulateOut ||
                p.loops[m.linLoop].domain != LoopDomain::Nodes ||
                m.linLoop >= ai)
                continue;
            // The add is the only other reader of a and b, and nothing
            // reads out before it.
            auto onlyAdd = [&](const std::string &v) {
                const auto &rs = ca.readers(v);
                return std::all_of(rs.begin(), rs.end(), [&](const Stmt *r) {
                    return r == &add || r == m.agg;
                });
            };
            const auto &out_loops = ca.readerLoops(add.out.name);
            if (!onlyAdd(add.ins[0].name) || !onlyAdd(add.ins[1].name) ||
                std::any_of(out_loops.begin(), out_loops.end(), [&](int l) {
                    return l <= static_cast<int>(ai);
                }))
                continue;
            // The typed linear moves to just before the nest: nothing
            // it moves past may write what it reads.
            bool movable = true;
            for (std::size_t li = std::min(m.nest, m.linLoop);
                 li <= std::max(m.nest, m.linLoop); ++li)
                for (const Stmt *s : loopStmts(p.loops[li]))
                    for (const auto &in : m.lin->ins)
                        movable &= s == m.lin || s->out.name != in.name;
            if (!movable)
                continue;
            // A scatter GEMM sums in edge order, not per node.
            if (gemm_scatter && m.agg->kind == OpKind::AccumulateScaled) {
                const auto wv = writersOf(p, m.agg->ins[1].name);
                if (wv.size() == 1 &&
                    scatterGemmConsumer(p, ca, *wv[0].second) == m.agg)
                    continue;
            }
            return m;
        }
    }
    return std::nullopt;
}

} // namespace

PassStats
foldAddIntoAggregation(Program &p, bool gemm_scatter)
{
    PassStats stats;
    while (const auto m = findSelfLoopAdd(p, gemm_scatter)) {
        const std::string a = m->add->ins[0].name;
        const std::string b = m->add->ins[1].name;
        Stmt lin = *m->lin;
        lin.out.name = m->add->out.name;
        for (auto &s : p.loops[m->nest].inner[0].body)
            if (&s == m->agg) {
                s.out.name = lin.out.name;
                s.sumFirst = true;
            }
        std::erase_if(p.loops[m->addLoop].body,
                      [&](const Stmt &s) { return &s == m->add; });
        std::erase_if(p.loops[m->linLoop].body,
                      [&](const Stmt &s) { return &s == m->lin; });
        p.loops.insert(p.loops.begin() + static_cast<long>(m->nest),
                       Loop{LoopDomain::Nodes, {std::move(lin)}, {}});
        std::erase_if(p.loops, [](const Loop &l) {
            return l.body.empty() && l.inner.empty();
        });
        p.vars.erase(a);
        p.vars.erase(b);
        ++stats.fusedLoops;
    }
    return stats;
}

} // namespace hector::core
