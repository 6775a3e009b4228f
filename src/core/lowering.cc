#include "core/lowering.hh"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/passes.hh"

namespace hector::core
{

namespace
{

/** Compact-materialized variable set of @p p. */
std::map<std::string, bool>
compactVars(const Program &p)
{
    std::map<std::string, bool> out;
    for (const auto &[name, info] : p.vars)
        if (info.mat == Materialization::Compact)
            out[name] = true;
    return out;
}

/** True when every input row is determined by (src node, etype). */
bool
insOnlySrcEtype(const Program &p, const Stmt &s,
                const std::map<std::string, bool> &compact)
{
    for (const auto &in : s.ins) {
        const auto &vi = p.varInfo(in.name);
        switch (vi.space) {
          case VarSpace::NodeInput:
          case VarSpace::NodeData:
            if (in.access != Access::ViaSrc)
                return false;
            break;
          case VarSpace::EdgeData: {
            auto it = compact.find(in.name);
            if (it == compact.end() || !it->second)
                return false;
            break;
          }
          case VarSpace::Param:
            break;
        }
    }
    return true;
}

bool
isWeightOut(const Program &p, const Stmt &s)
{
    return s.kind == OpKind::OuterAccumulate ||
           s.kind == OpKind::WeightVecGrad || p.weights.count(s.out.name);
}

/** Statements of @p p's loops writing @p var. */
int
writerCount(const Program &p, const std::string &var)
{
    int n = 0;
    auto visit = [&](const Loop &l, auto &&self) -> void {
        for (const auto &s : l.body)
            if (s.out.name == var)
                ++n;
        for (const auto &in : l.inner)
            self(in, self);
    };
    for (const auto &l : p.loops)
        visit(l, visit);
    return n;
}

bool
isVirtual(const Program &p, const std::string &var)
{
    return p.vars.count(var) &&
           p.varInfo(var).mat == Materialization::Virtual;
}

/** The virtual variables @p ti writes, each once. */
std::vector<std::string>
virtualOutputs(const Program &p, const TraversalInstance &ti)
{
    std::vector<std::string> out;
    for (const auto &ss : ti.stmts)
        if (isVirtual(p, ss.stmt.out.name) &&
            std::find(out.begin(), out.end(), ss.stmt.out.name) == out.end())
            out.push_back(ss.stmt.out.name);
    return out;
}

} // namespace

RowDomain
stmtDomain(const Program &p, const Stmt &s, LoopDomain loop)
{
    if (loop == LoopDomain::Nodes)
        return RowDomain::Nodes;
    const auto compact = compactVars(p);
    if (!insOnlySrcEtype(p, s, compact))
        return RowDomain::Edges;
    if (isWeightOut(p, s))
        return RowDomain::UniquePairs;
    if (p.vars.count(s.out.name)) {
        const auto &oi = p.varInfo(s.out.name);
        if (oi.space == VarSpace::EdgeData &&
            oi.mat == Materialization::Compact)
            return RowDomain::UniquePairs;
        if ((oi.space == VarSpace::NodeData ||
             oi.space == VarSpace::NodeInput) &&
            s.out.access == Access::ViaSrc)
            return RowDomain::UniquePairs;
    }
    return RowDomain::Edges;
}

std::vector<std::string>
restartedVirtuals(const Program &p, const TraversalInstance &ti)
{
    std::vector<std::string> out;
    for (const auto &ss : ti.stmts) {
        const std::string &v = ss.stmt.out.name;
        if (isAccumulation(ss.stmt) && isVirtual(p, v) &&
            std::find(out.begin(), out.end(), v) == out.end())
            out.push_back(v);
    }
    return out;
}

namespace
{

/**
 * True when @p ref, written or read by a statement of @p ti, is a row
 * the iteration owns: its edge's row in the Edges domain, its pair's
 * compact row in the UniquePairs domain, or its node's (Direct) in
 * the Nodes domain. A value written there is still in a register for
 * every later statement of the same iteration.
 */
bool
ownsRow(const Program &p, const TraversalInstance &ti, const VarRef &ref)
{
    if (!p.vars.count(ref.name))
        return false;
    const auto &vi = p.varInfo(ref.name);
    if (vi.space == VarSpace::EdgeData)
        return vi.mat == Materialization::Compact
                   ? ti.domain == RowDomain::UniquePairs
                   : ti.domain == RowDomain::Edges;
    return ref.access == Access::Direct && ti.domain == RowDomain::Nodes;
}

/** True when @p s is the only statement of @p inst writing its output. */
bool
onlyWriter(const Stmt &s, const std::vector<ScheduledStmt> &inst)
{
    return std::count_if(inst.begin(), inst.end(),
                         [&](const ScheduledStmt &ss) {
                             return ss.stmt.out.name == s.out.name;
                         }) == 1;
}

} // namespace

std::vector<OperandLoad>
operandLoads(const Program &p, const TraversalInstance &ti)
{
    // A row every edge of a group reaches: the group's node (through
    // e.dst or Direct), or its pair's compact row.
    auto groupRow = [&](const VarRef &ref) {
        const auto &vi = p.varInfo(ref.name);
        switch (ti.group) {
          case GroupKey::None:
            return false;
          case GroupKey::DstNode:
            return (vi.space == VarSpace::NodeInput ||
                    vi.space == VarSpace::NodeData) &&
                   ref.access != Access::ViaSrc;
          case GroupKey::UniquePair:
            return vi.space == VarSpace::EdgeData &&
                   vi.mat == Materialization::Compact;
        }
        return false;
    };
    std::set<std::string> written;
    for (const auto &ss : ti.stmts)
        written.insert(ss.stmt.out.name);
    // Rows earlier level-0 statements wrote at this iteration.
    std::set<std::pair<std::string, Access>> produced;
    std::vector<OperandLoad> loads;
    auto add = [&](OperandLoad l) {
        for (const auto &o : loads)
            if (o.weight == l.weight && o.var == l.var &&
                o.access == l.access)
                return;
        loads.push_back(std::move(l));
    };
    for (const auto &ss : ti.stmts) {
        for (const auto &in : ss.stmt.ins) {
            LoadRate rate = LoadRate::PerEdge;
            if (isVirtual(p, in.name) || produced.count({in.name, in.access}))
                rate = LoadRate::InRegister;
            else if (!written.count(in.name) && groupRow(in))
                rate = LoadRate::PerGroup;
            add({in.name, in.access, false, rate});
        }
        // A weight-vector row changes only with the edge's etype.
        if (!ss.stmt.weight.empty())
            add({ss.stmt.weight, Access::Direct, true, LoadRate::PerRun});
        if (ss.hoistLevel == 0 && ownsRow(p, ti, ss.stmt.out))
            produced.insert({ss.stmt.out.name, ss.stmt.out.access});
    }
    return loads;
}

std::vector<AdjacencyRead>
adjacencyReads(const Program &p, const TraversalInstance &ti)
{
    const bool by_pair = ti.group == GroupKey::UniquePair;
    const bool pair_rows = ti.domain == RowDomain::UniquePairs;
    auto fixedByGroup = [&](AdjIndex i) {
        switch (i) {
          case AdjIndex::EdgeId:
            return false;
          case AdjIndex::Dst:
            return ti.group == GroupKey::DstNode;
          case AdjIndex::EdgeToUnique:
            return by_pair;
          case AdjIndex::Src:
          case AdjIndex::Etype:
            return by_pair || pair_rows;
        }
        return false;
    };
    std::set<AdjIndex> used;
    bool per_edge = false;
    // The index locating the row of @p ref at an edge, if any.
    auto locate = [&](const VarRef &ref) {
        const auto &vi = p.varInfo(ref.name);
        if (vi.space == VarSpace::EdgeData) {
            if (vi.mat == Materialization::Compact && !pair_rows)
                used.insert(AdjIndex::EdgeToUnique);
            // A vanilla edge row is the edge's own.
            per_edge |= vi.mat == Materialization::Vanilla;
            return;
        }
        if (ref.access == Access::ViaSrc)
            used.insert(AdjIndex::Src);
        else if (ref.access == Access::ViaDst)
            used.insert(AdjIndex::Dst);
    };
    for (const auto &ss : ti.stmts) {
        if (ss.hoistLevel == 1)
            continue;
        if (ss.hoistLevel == 0 && p.vars.count(ss.stmt.out.name))
            locate(ss.stmt.out);
        for (const auto &in : ss.stmt.ins) {
            const OperandLoad *l = ti.loadOf(in);
            if (!l || ti.rateOf(*l) == LoadRate::PerEdge)
                locate(in);
        }
        if (!ss.stmt.weight.empty())
            used.insert(AdjIndex::Etype);
    }
    std::vector<AdjacencyRead> out;
    for (AdjIndex i : used) {
        const bool fixed = fixedByGroup(i);
        per_edge |= !fixed;
        out.push_back({i, fixed ? LoadRate::PerGroup : LoadRate::PerEdge});
    }
    if (ti.grouped() && per_edge)
        out.insert(out.begin(), {AdjIndex::EdgeId, LoadRate::PerEdge});
    return out;
}

bool
readsOutputRow(const Program &p, const TraversalInstance &ti, std::size_t i)
{
    const ScheduledStmt &ss = ti.stmts[i];
    const VarRef &out = ss.stmt.out;
    if (ss.hoistLevel != 0 || ss.firstWrite || !isAccumulation(ss.stmt) ||
        !p.vars.count(out.name) || isVirtual(p, out.name) ||
        scattersAtomically(p, ss.stmt, ti.domain, ti.group))
        return false;
    const OperandLoad *l = ti.loadOf(out);
    if (l && ti.rateOf(*l) == LoadRate::InRegister)
        for (std::size_t j = 0; j < i; ++j)
            if (ti.stmts[j].hoistLevel == 0 && ti.stmts[j].stmt.out == out)
                return false;
    return true;
}

TraversalInstance
mergedTraversal(const Program &p, const TraversalInstance &first,
                const TraversalInstance &second)
{
    TraversalInstance whole = first;
    whole.name = first.name + "_" + std::to_string(second.kid);
    for (ScheduledStmt ss : second.stmts) {
        ss.hoistLevel = 0;
        whole.stmts.push_back(std::move(ss));
    }
    whole.loads = operandLoads(p, whole);
    whole.virtualVars = virtualOutputs(p, whole);
    return whole;
}

bool
scattersAtomically(const Program &p, const Stmt &s, RowDomain domain,
                   GroupKey group)
{
    if (!isAccumulation(s) || domain == RowDomain::Nodes ||
        !p.vars.count(s.out.name))
        return false;
    const auto &oi = p.varInfo(s.out.name);
    if ((oi.space == VarSpace::NodeData ||
         oi.space == VarSpace::NodeInput) &&
        s.out.access != Access::Direct)
        return group != GroupKey::DstNode || s.out.access == Access::ViaSrc;
    if (oi.space == VarSpace::EdgeData &&
        oi.mat == Materialization::Compact && domain == RowDomain::Edges)
        return group != GroupKey::UniquePair;
    return false;
}

const Stmt *
scatterGemmConsumer(const Program &p, const ConsumerAnalysis &ca,
                    const Stmt &producer)
{
    if (producer.kind != OpKind::TypedLinear || producer.accumulateOut)
        return nullptr;
    const auto &oi = p.varInfo(producer.out.name);
    if (oi.mat != Materialization::Vanilla ||
        ca.isProgramOutput(producer.out.name))
        return nullptr;
    const auto &readers = ca.readers(producer.out.name);
    if (readers.size() != 1)
        return nullptr;
    const Stmt *c = readers[0];
    if (c->kind != OpKind::AccumulateScaled || c->ins.size() != 2 ||
        c->ins[1].name != producer.out.name)
        return nullptr;
    const auto &sc = p.varInfo(c->ins[0].name);
    if (sc.requiresGrad || writerCount(p, c->ins[0].name) > 0)
        return nullptr;
    return c;
}

namespace
{

/** Builds instances while walking the program. */
class Lowerer
{
  public:
    Lowerer(const Program &p, const LowerOptions &opts, sim::Phase phase,
            int first_kid)
        : p_(p), opts_(opts), phase_(phase), ca_(p), nextKid_(first_kid)
    {}

    LoweredFunction
    run()
    {
        if (opts_.fuseGemmScatter && phase_ == sim::Phase::Forward)
            findGemmScatterFusions();

        for (const auto &s : p_.weightPrecompute)
            emitFallback(s, phase_);

        for (const auto &loop : p_.loops)
            lowerLoop(loop);

        for (const auto &s : p_.weightBackward)
            emitFallback(s, sim::Phase::Backward);

        return std::move(fn_);
    }

  private:
    AccessScheme
    inputAccess(const VarRef &ref, RowDomain domain) const
    {
        const auto &vi = p_.varInfo(ref.name);
        if (vi.space == VarSpace::NodeInput ||
            vi.space == VarSpace::NodeData) {
            switch (ref.access) {
              case Access::ViaSrc:
                return domain == RowDomain::UniquePairs
                           ? AccessScheme::GatherUniqueSrc
                           : AccessScheme::GatherSrc;
              case Access::ViaDst:
                return AccessScheme::GatherDst;
              case Access::Direct:
                return AccessScheme::Identity;
            }
        }
        if (vi.mat == Materialization::Compact &&
            domain == RowDomain::Edges)
            return AccessScheme::GatherEdgeToUnique;
        return AccessScheme::Identity;
    }

    AccessScheme
    outputAccess(const VarRef &ref, RowDomain domain) const
    {
        const auto &vi = p_.varInfo(ref.name);
        if (vi.space == VarSpace::NodeData ||
            vi.space == VarSpace::NodeInput) {
            switch (ref.access) {
              case Access::ViaSrc:
                return AccessScheme::ScatterSrcAtomic;
              case Access::ViaDst:
                return AccessScheme::ScatterDstAtomic;
              case Access::Direct:
                return AccessScheme::Identity;
            }
        }
        if (vi.mat == Materialization::Compact &&
            domain == RowDomain::Edges)
            return AccessScheme::ScatterUniqueAtomic;
        return AccessScheme::Identity;
    }

    /**
     * Detect typed-linear outputs consumed by exactly one gradient-
     * free scalar-weighted aggregation; those pairs fuse into a
     * single scatter-GEMM (the RGCN one-kernel path).
     */
    void
    findGemmScatterFusions()
    {
        // Producers may sit in a flat edge loop or may already have
        // been fused into an aggregation nest by the loop-fusion pass.
        std::vector<const std::vector<Stmt> *> bodies;
        for (const auto &loop : p_.loops) {
            if (loop.domain == LoopDomain::Edges)
                bodies.push_back(&loop.body);
            for (const auto &inner : loop.inner)
                bodies.push_back(&inner.body);
        }
        for (const auto *body : bodies) {
            for (const auto &s : *body) {
                if (const Stmt *c = scatterGemmConsumer(p_, ca_, s)) {
                    fusedProducer_[&s] = c;
                    fusedConsumer_.insert(c);
                }
            }
        }
    }

    void
    lowerLoop(const Loop &loop)
    {
        if (loop.domain == LoopDomain::DstNodes) {
            lowerDstNodesNest(loop);
            return;
        }
        // Walk the body emitting GEMM instances for typed linears and
        // grouping consecutive leftover statements (per domain) into
        // traversal instances.
        std::vector<ScheduledStmt> run;
        RowDomain run_domain = RowDomain::Edges;
        auto flush = [&]() {
            if (run.empty())
                return;
            if (run_domain == RowDomain::Edges)
                emitEdgeRun(std::move(run));
            else
                emitTraversal(std::move(run), run_domain, GroupKey::None);
            run.clear();
        };
        for (const auto &s : loop.body) {
            if (fusedConsumer_.count(&s))
                continue;
            if (isGemmEligible(s)) {
                flush();
                emitGemm(s, loop.domain);
                continue;
            }
            const RowDomain d = stmtDomain(p_, s, loop.domain);
            if (!run.empty() && d != run_domain)
                flush();
            run_domain = d;
            run.push_back({s, 0});
        }
        flush();
    }

    void
    lowerDstNodesNest(const Loop &loop)
    {
        std::vector<ScheduledStmt> stmts;
        std::vector<const Stmt *> grads;
        for (const auto &s : loop.body)
            stmts.push_back({s, 1});
        for (const auto &inner : loop.inner) {
            for (const auto &s : inner.body) {
                if (fusedConsumer_.count(&s))
                    continue;
                if (s.kind == OpKind::TypedLinear) {
                    // Typed linears inside an aggregation nest are
                    // extracted ahead of the traversal (greedy pass 1).
                    emitGemm(s, LoopDomain::Edges);
                    continue;
                }
                if (isGemmEligible(s)) {
                    // A weight gradient reads rows the nest computes,
                    // so its GEMM follows the traversal.
                    grads.push_back(&s);
                    continue;
                }
                stmts.push_back({s, 0});
            }
        }
        if (!stmts.empty())
            emitTraversal(std::move(stmts), RowDomain::Edges,
                          GroupKey::DstNode);
        for (const Stmt *s : grads)
            emitGemm(*s, LoopDomain::Edges);
    }

    /** True when @p s writes a row that group @p key owns. */
    bool
    writesGroupRow(const Stmt &s, GroupKey key) const
    {
        if (!p_.vars.count(s.out.name))
            return false;
        const auto &vi = p_.varInfo(s.out.name);
        switch (key) {
          case GroupKey::None:
            return false;
          case GroupKey::DstNode:
            return vi.space == VarSpace::NodeData &&
                   s.out.access != Access::ViaSrc;
          case GroupKey::UniquePair:
            return vi.space == VarSpace::EdgeData &&
                   vi.mat == Materialization::Compact;
        }
        return false;
    }

    /**
     * True when every statement of @p run writes only its own edge's
     * row (vanilla or virtual edge data) and one reads a node row
     * through e.dst: grouping it by destination node loads that row
     * once per node and cannot change a bit.
     */
    bool
    pointwiseDstReader(const std::vector<ScheduledStmt> &run) const
    {
        bool reads_dst = false;
        for (const auto &ss : run) {
            const Stmt &s = ss.stmt;
            if (!p_.vars.count(s.out.name))
                return false;
            const auto &vi = p_.varInfo(s.out.name);
            if (vi.space != VarSpace::EdgeData ||
                vi.mat == Materialization::Compact)
                return false;
            for (const auto &in : s.ins)
                reads_dst |= in.access == Access::ViaDst;
        }
        return reads_dst;
    }

    /**
     * Group key of an edge-loop run: the key whose rows its
     * accumulations write the most columns of, the destination node
     * winning a tie; when it scatters into neither, DstNode for a
     * pointwise reader of e.dst rows and None otherwise.
     */
    GroupKey
    groupKeyOf(const std::vector<ScheduledStmt> &run) const
    {
        std::int64_t dst_cols = 0;
        std::int64_t pair_cols = 0;
        for (const auto &ss : run) {
            if (!isAccumulation(ss.stmt))
                continue;
            if (writesGroupRow(ss.stmt, GroupKey::DstNode))
                dst_cols += p_.varInfo(ss.stmt.out.name).cols;
            else if (writesGroupRow(ss.stmt, GroupKey::UniquePair))
                pair_cols += p_.varInfo(ss.stmt.out.name).cols;
        }
        if (dst_cols == 0 && pair_cols == 0)
            return pointwiseDstReader(run) ? GroupKey::DstNode
                                           : GroupKey::None;
        return dst_cols >= pair_cols ? GroupKey::DstNode
                                     : GroupKey::UniquePair;
    }

    /**
     * True when statement @p s of an instance grouped by @p key may
     * run at hoist level 2 (see ScheduledStmt): an accumulation into
     * the group's own row of a variable that no earlier instance
     * writes (unless @p s sums first and adds on store), that no other
     * statement of @p inst writes, and that @p inst never reads.
     */
    bool
    accumulatesInRegister(const Stmt &s, const std::vector<ScheduledStmt> &inst,
                          GroupKey key) const
    {
        if (!isAccumulation(s) || !writesGroupRow(s, key) ||
            (written_.count(s.out.name) && !s.sumFirst))
            return false;
        for (const auto &ss : inst)
            for (const auto &in : ss.stmt.ins)
                if (in.name == s.out.name)
                    return false;
        return onlyWriter(s, inst);
    }

    /**
     * Statements of @p run the losing key @p loser of groupKeyOf()
     * scatters vector rows into, moved out of @p run: the accumulations
     * into a @p loser row with more than one column. Each must be
     * movable past the rest of the run: no statement of the run reads
     * its output or writes it otherwise, and no later statement writes
     * one of its inputs. Empty, with @p run unchanged, when there is
     * none or one is not movable.
     */
    std::vector<ScheduledStmt>
    splitLosers(std::vector<ScheduledStmt> &run, GroupKey loser) const
    {
        auto moves = [&](const Stmt &s) {
            return isAccumulation(s) && writesGroupRow(s, loser) &&
                   p_.varInfo(s.out.name).cols > 1;
        };
        for (std::size_t i = 0; i < run.size(); ++i) {
            const Stmt &s = run[i].stmt;
            if (!moves(s))
                continue;
            for (std::size_t j = 0; j < run.size(); ++j) {
                const Stmt &o = run[j].stmt;
                if (o.out.name == s.out.name && !moves(o))
                    return {};
                for (const auto &in : o.ins)
                    if (in.name == s.out.name)
                        return {};
                for (const auto &in : s.ins)
                    if (j > i && o.out.name == in.name)
                        return {};
            }
        }
        std::vector<ScheduledStmt> kept;
        std::vector<ScheduledStmt> moved;
        for (auto &ss : run)
            (moves(ss.stmt) ? moved : kept).push_back(std::move(ss));
        run = std::move(kept);
        return moved;
    }

    /**
     * Emits an edge-loop run grouped by groupKeyOf(). When the losing
     * key's accumulations write vector rows, they become a second
     * instance grouped by that key (see splitLosers()), which reads
     * the edge rows the first one materialized: both write their
     * group's rows without atomics. Scalar losers stay in the run.
     */
    void
    emitEdgeRun(std::vector<ScheduledStmt> run)
    {
        const GroupKey key = groupKeyOf(run);
        GroupKey loser = GroupKey::None;
        if (key == GroupKey::DstNode)
            loser = GroupKey::UniquePair;
        else if (key == GroupKey::UniquePair)
            loser = GroupKey::DstNode;
        std::vector<ScheduledStmt> moved = splitLosers(run, loser);
        emitTraversal(std::move(run), RowDomain::Edges, key);
        if (!moved.empty()) {
            emitTraversal(std::move(moved), RowDomain::Edges, loser);
            fn_.traversals.back().foldable = true;
        }
    }

    /**
     * Statements lowered onto the GEMM template: typed linears, and
     * weight gradients as outer products summed by type segment (a
     * WeightVecGrad is one whose left operand has one column).
     */
    bool
    isGemmEligible(const Stmt &s) const
    {
        return s.kind == OpKind::TypedLinear ||
               s.kind == OpKind::OuterAccumulate ||
               s.kind == OpKind::WeightVecGrad;
    }

    void
    emitGemm(const Stmt &s, LoopDomain loop)
    {
        GemmInstance gi;
        gi.kid = nextKid_++;
        gi.phase = phase_;
        gi.typeBy = s.typeBy;
        gi.sched = opts_.sched;
        const RowDomain domain = stmtDomain(p_, s, loop);
        gi.rows = domain;

        if (s.kind != OpKind::TypedLinear) {
            // dW[t] += x^T (x) y2 over the rows of type t; for a
            // WeightVecGrad x is the one-column scalar (din = 1).
            gi.kind = GemmKind::Outer;
            gi.name = "gemm_outer_" + std::to_string(gi.kid) + "_" +
                      s.weight;
            gi.xVar = s.ins[0].name;
            gi.xAccess = inputAccess(s.ins[0], domain);
            gi.y2Var = s.ins[1].name;
            gi.y2Access = inputAccess(s.ins[1], domain);
            gi.yVar = s.weight;
            gi.wVar = s.weight;
            gi.yAccumulate = true;
            gi.din = p_.varInfo(s.ins[0].name).cols;
            gi.dout = p_.varInfo(s.ins[1].name).cols;
        } else {
            gi.kind = GemmKind::Linear;
            gi.name = "gemm_" + std::to_string(gi.kid) + "_" + s.out.name;
            gi.xVar = s.ins[0].name;
            gi.xAccess = inputAccess(s.ins[0], domain);
            gi.wVar = s.weight;
            gi.transW = s.transW;
            gi.din = p_.varInfo(s.ins[0].name).cols;
            const auto &wi = p_.weightInfo(s.weight);
            gi.dout = s.transW ? wi.rows : wi.cols;

            auto fused = fusedProducer_.find(&s);
            if (fused != fusedProducer_.end()) {
                const Stmt *agg = fused->second;
                gi.perRowScalarVar = agg->ins[0].name;
                gi.yVar = agg->out.name;
                gi.yAccess = AccessScheme::ScatterDstAtomic;
                gi.yAccumulate = true;
                gi.name += "_fused_scatter";
            } else {
                gi.yVar = s.out.name;
                gi.yAccess = outputAccess(s.out, domain);
                gi.yAccumulate =
                    s.accumulateOut ||
                    gi.yAccess != AccessScheme::Identity;
            }
        }
        written_.insert(gi.yVar);
        fn_.order.push_back(
            {LoweredFunction::Step::Kind::Gemm, fn_.gemms.size()});
        fn_.gemms.push_back(std::move(gi));
    }

    void
    emitTraversal(std::vector<ScheduledStmt> stmts, RowDomain domain,
                  GroupKey key)
    {
        for (const auto &ss : stmts)
            if (ss.stmt.kind == OpKind::WeightVecGrad)
                throw std::logic_error(
                    "a weight-vector gradient lowers onto the GEMM "
                    "template, not a traversal");
        for (auto &ss : stmts) {
            if (ss.hoistLevel == 0 &&
                accumulatesInRegister(ss.stmt, stmts, key))
                ss.hoistLevel = 2;
            if (ss.stmt.sumFirst && ss.hoistLevel != 2)
                throw std::logic_error(
                    "a sum-first aggregation of " + ss.stmt.out.name +
                    " must run as a register accumulator");
        }
        TraversalInstance ti;
        ti.kid = nextKid_++;
        ti.name = "traversal_" + std::to_string(ti.kid);
        ti.phase = phase_;
        ti.group = key;
        ti.domain = domain;
        ti.stmts = std::move(stmts);
        for (auto &ss : ti.stmts)
            ss.firstWrite = ss.hoistLevel == 0 && isAccumulation(ss.stmt) &&
                            !written_.count(ss.stmt.out.name) &&
                            ownsRow(p_, ti, ss.stmt.out) &&
                            onlyWriter(ss.stmt, ti.stmts);
        for (const auto &ss : ti.stmts)
            written_.insert(ss.stmt.out.name);
        ti.loads = operandLoads(p_, ti);
        ti.virtualVars = virtualOutputs(p_, ti);
        fn_.order.push_back(
            {LoweredFunction::Step::Kind::Traversal, fn_.traversals.size()});
        fn_.traversals.push_back(std::move(ti));
    }

    void
    emitFallback(const Stmt &s, sim::Phase phase)
    {
        FallbackInstance fi;
        fi.kid = nextKid_++;
        fi.name = std::string(toString(s.kind)) + "_" +
                  std::to_string(fi.kid);
        fi.phase = phase;
        fi.stmt = s;
        written_.insert(s.out.name);
        fn_.order.push_back(
            {LoweredFunction::Step::Kind::Fallback, fn_.fallbacks.size()});
        fn_.fallbacks.push_back(std::move(fi));
    }

    const Program &p_;
    const LowerOptions &opts_;
    sim::Phase phase_;
    ConsumerAnalysis ca_;
    LoweredFunction fn_;
    int nextKid_;
    std::map<const Stmt *, const Stmt *> fusedProducer_;
    std::set<const Stmt *> fusedConsumer_;
    /** Variables written by the instances emitted so far. */
    std::set<std::string> written_;
};

} // namespace

LoweredFunction
lower(const Program &p, const LowerOptions &opts, sim::Phase phase,
      int first_kid)
{
    Lowerer l(p, opts, phase, first_kid);
    LoweredFunction fn = l.run();
    fn.phase = phase;
    return fn;
}

namespace
{

/**
 * True when @p ti writes @p var at hoist level 0 before any statement
 * reads it, and reads it only per edge (never at hoist level 1).
 */
bool
writtenBeforeRead(const TraversalInstance &ti, const std::string &var)
{
    bool written = false;
    for (const auto &ss : ti.stmts) {
        const bool reads =
            std::any_of(ss.stmt.ins.begin(), ss.stmt.ins.end(),
                        [&](const VarRef &in) { return in.name == var; });
        if (reads && (!written || ss.hoistLevel == 1))
            return false;
        if (ss.stmt.out.name == var) {
            if (ss.hoistLevel != 0)
                return false;
            written = true;
        }
    }
    return written;
}

} // namespace

int
virtualizeTemporaries(Program &fwd, LoweredFunction &fwd_fn, Program *bwd,
                      LoweredFunction *bwd_fn)
{
    Program *progs[2] = {&fwd, bwd_fn ? bwd : nullptr};
    LoweredFunction *fns[2] = {&fwd_fn, bwd_fn};
    // Every (function, step) referencing each variable, and writing it.
    using Site = std::pair<int, std::size_t>;
    std::map<std::string, std::set<Site>> refs;
    std::map<std::string, std::set<Site>> writes;
    for (int f = 0; f < 2; ++f) {
        if (!fns[f])
            continue;
        for (std::size_t i = 0; i < fns[f]->order.size(); ++i)
            for (const StepRef &r : fns[f]->refs(i)) {
                refs[r.name].insert({f, i});
                if (r.write)
                    writes[r.name].insert({f, i});
            }
    }

    auto boundary = [&](const std::string &v) {
        for (const Program *p : progs)
            if (p && (v == p->inputVar || v == p->outputVar))
                return true;
        return false;
    };
    int virtualized = 0;
    std::set<Site> touched;
    for (const auto &[var, sites] : refs) {
        if (sites.size() != 1 || writes[var] != sites || boundary(var))
            continue;
        const auto [f, at] = *sites.begin();
        const Program &p = *progs[f];
        const auto &step = fns[f]->order[at];
        if (step.kind != LoweredFunction::Step::Kind::Traversal ||
            !p.vars.count(var))
            continue;
        const VarInfo &vi = p.varInfo(var);
        if (vi.space != VarSpace::EdgeData ||
            vi.mat != Materialization::Vanilla ||
            !writtenBeforeRead(fns[f]->traversals[step.index], var))
            continue;
        for (Program *q : progs)
            if (q && q->vars.count(var))
                q->varInfo(var).mat = Materialization::Virtual;
        touched.insert({f, at});
        ++virtualized;
    }
    for (const auto &[f, at] : touched) {
        TraversalInstance &ti =
            fns[f]->traversals[fns[f]->order[at].index];
        ti.loads = operandLoads(*progs[f], ti);
        ti.virtualVars = virtualOutputs(*progs[f], ti);
    }
    return virtualized;
}

} // namespace hector::core
