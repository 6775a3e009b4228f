#include "core/autodiff.hh"

#include <algorithm>
#include <stdexcept>

namespace hector::core
{

std::string
gradOf(const std::string &var)
{
    return var + "_grad";
}

namespace
{

bool
stmtTouchesTrainableWeight(const Program &p, const Stmt &s)
{
    if (s.weight.empty())
        return false;
    auto it = p.weights.find(s.weight);
    return it != p.weights.end() && it->second.requiresGrad;
}

void
collectStmts(const Loop &l, std::vector<const Stmt *> &out)
{
    for (const auto &s : l.body)
        out.push_back(&s);
    for (const auto &in : l.inner)
        collectStmts(in, out);
}

} // namespace

std::set<std::string>
gradRequiredVars(const Program &p, bool feature_grad)
{
    std::set<std::string> need;
    if (feature_grad)
        need.insert(p.inputVar);
    std::vector<const Stmt *> stmts;
    for (const auto &l : p.loops)
        collectStmts(l, stmts);
    // One forward sweep suffices: programs are in def-before-use order.
    for (const Stmt *s : stmts) {
        bool out_needs = stmtTouchesTrainableWeight(p, *s);
        for (const auto &in : s->ins)
            if (need.count(in.name))
                out_needs = true;
        if (out_needs)
            need.insert(s->out.name);
    }
    need.insert(p.outputVar);
    return need;
}

namespace
{

/** Emitter that appends the backward statements of one forward stmt. */
class BackwardEmitter
{
  public:
    BackwardEmitter(const Program &fwd, const std::set<std::string> &need)
        : fwd_(fwd), need_(need)
    {}

    bool
    needs(const std::string &v) const
    {
        return need_.count(v) > 0;
    }

    static VarRef
    g(const VarRef &v)
    {
        return {gradOf(v.name), v.access};
    }

    /**
     * Emit backward stmts of @p s into @p out. @p flatten_via_dst is
     * true when the forward stmt sat in an incoming-edges loop and
     * the backward runs as a flat edge loop, so Direct node accesses
     * become ViaDst.
     */
    void
    emit(const Stmt &s, std::vector<Stmt> &out, bool flatten_via_dst) const
    {
        if (!needs(s.out.name))
            return;
        const VarRef gy = flatten_via_dst && isNodeVar(s.out.name)
                              ? VarRef{gradOf(s.out.name), Access::ViaDst}
                              : g(s.out);

        auto add = [&out](Stmt b) {
            b.accumulateOut = true;
            out.push_back(std::move(b));
        };

        switch (s.kind) {
          case OpKind::TypedLinear: {
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::TypedLinear;
                b.out = g(s.ins[0]);
                b.ins = {gy};
                b.weight = s.weight;
                b.typeBy = s.typeBy;
                b.transW = true;
                add(std::move(b));
            }
            if (weightTrainable(s.weight)) {
                Stmt b;
                b.kind = OpKind::OuterAccumulate;
                b.out = {s.weight, Access::Direct};
                b.ins = {s.ins[0], gy};
                b.weight = s.weight;
                b.typeBy = s.typeBy;
                add(std::move(b));
            }
            break;
          }
          case OpKind::DotProduct: {
            if (!s.weight.empty()) {
                if (needs(s.ins[0].name)) {
                    Stmt b;
                    b.kind = OpKind::AccumulateScaled;
                    b.out = g(s.ins[0]);
                    b.ins = {gy};
                    b.weight = s.weight;
                    b.typeBy = s.typeBy;
                    add(std::move(b));
                }
                if (weightTrainable(s.weight)) {
                    Stmt b;
                    b.kind = OpKind::WeightVecGrad;
                    b.out = {s.weight, Access::Direct};
                    b.ins = {gy, s.ins[0]};
                    b.weight = s.weight;
                    b.typeBy = s.typeBy;
                    add(std::move(b));
                }
            } else {
                if (needs(s.ins[0].name)) {
                    Stmt b;
                    b.kind = OpKind::AccumulateScaled;
                    b.out = g(s.ins[0]);
                    b.ins = {gy, s.ins[1]};
                    add(std::move(b));
                }
                if (needs(s.ins[1].name)) {
                    Stmt b;
                    b.kind = OpKind::AccumulateScaled;
                    b.out = g(s.ins[1]);
                    b.ins = {gy, s.ins[0]};
                    add(std::move(b));
                }
            }
            break;
          }
          case OpKind::Add:
          case OpKind::Copy: {
            for (const auto &in : s.ins) {
                if (!needs(in.name))
                    continue;
                Stmt b;
                b.kind = OpKind::AccumulateSum;
                b.out = g(in);
                b.ins = {gy};
                add(std::move(b));
            }
            break;
          }
          case OpKind::Mul: {
            for (int i = 0; i < 2; ++i) {
                const auto &in = s.ins[static_cast<std::size_t>(i)];
                const auto &other = s.ins[static_cast<std::size_t>(1 - i)];
                if (!needs(in.name))
                    continue;
                Stmt b;
                b.kind = OpKind::Mul;
                b.out = g(in);
                b.ins = {gy, other};
                add(std::move(b));
            }
            break;
          }
          case OpKind::LeakyRelu:
          case OpKind::Relu: {
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = s.kind == OpKind::LeakyRelu ? OpKind::LeakyReluBwd
                                                     : OpKind::ReluBwd;
                b.out = g(s.ins[0]);
                b.ins = {gy, s.ins[0]};
                b.alpha = s.alpha;
                add(std::move(b));
            }
            break;
          }
          case OpKind::Exp: {
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::Mul;
                b.out = g(s.ins[0]);
                b.ins = {gy, s.out};
                add(std::move(b));
            }
            break;
          }
          case OpKind::Divide: {
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::Divide;
                b.out = g(s.ins[0]);
                b.ins = {gy, s.ins[1]};
                add(std::move(b));
            }
            if (needs(s.ins[1].name)) {
                Stmt b;
                b.kind = OpKind::DivGradDenom;
                b.out = g(s.ins[1]);
                b.ins = {gy, s.ins[0], s.ins[1]};
                add(std::move(b));
            }
            break;
          }
          case OpKind::Scale: {
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::Scale;
                b.out = g(s.ins[0]);
                b.ins = {gy};
                b.alpha = s.alpha;
                add(std::move(b));
            }
            break;
          }
          case OpKind::AccumulateSum: {
            // sum[n] += x_e  =>  x.grad_e += sum.grad[dst(e)]
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::AccumulateSum;
                b.out = g(s.ins[0]);
                b.ins = {gy};
                add(std::move(b));
            }
            break;
          }
          case OpKind::AccumulateScaled: {
            // out[n] += sc_e * v_e
            if (needs(s.ins[0].name)) {
                Stmt b;
                b.kind = OpKind::DotProduct;
                b.out = g(s.ins[0]);
                b.ins = {gy, s.ins[1]};
                add(std::move(b));
            }
            if (needs(s.ins[1].name)) {
                Stmt b;
                b.kind = OpKind::AccumulateScaled;
                b.out = g(s.ins[1]);
                b.ins = {s.ins[0], gy};
                add(std::move(b));
            }
            break;
          }
          default:
            throw std::runtime_error(
                "no backward rule for forward op " +
                std::string(toString(s.kind)));
        }
    }

  private:
    bool
    isNodeVar(const std::string &name) const
    {
        const auto &vi = fwd_.varInfo(name);
        return vi.space == VarSpace::NodeData ||
               vi.space == VarSpace::NodeInput;
    }

    bool
    weightTrainable(const std::string &w) const
    {
        auto it = fwd_.weights.find(w);
        return it != fwd_.weights.end() && it->second.requiresGrad;
    }

    const Program &fwd_;
    const std::set<std::string> &need_;
};

} // namespace

Program
buildBackward(const Program &fwd, bool feature_grad)
{
    Program bp;
    bp.name = fwd.name + "_backward";
    bp.vars = fwd.vars;
    bp.weights = fwd.weights;
    bp.inputVar = fwd.inputVar;

    const auto need = gradRequiredVars(fwd, feature_grad);
    for (const auto &v : need) {
        const auto &vi = fwd.varInfo(v);
        VarInfo gi = vi;
        gi.requiresGrad = false;
        if (gi.space == VarSpace::NodeInput)
            gi.space = VarSpace::NodeData;
        if (gi.mat == Materialization::Virtual)
            gi.mat = Materialization::Vanilla;
        bp.vars.emplace(gradOf(v), gi);
    }
    bp.outputVar = feature_grad ? gradOf(fwd.inputVar)
                                : gradOf(fwd.outputVar);

    BackwardEmitter em(fwd, need);

    for (auto lit = fwd.loops.rbegin(); lit != fwd.loops.rend(); ++lit) {
        const Loop &fl = *lit;
        switch (fl.domain) {
          case LoopDomain::Edges: {
            Loop bl{LoopDomain::Edges, {}, {}};
            for (auto sit = fl.body.rbegin(); sit != fl.body.rend(); ++sit)
                em.emit(*sit, bl.body, false);
            if (!bl.body.empty())
                bp.loops.push_back(std::move(bl));
            break;
          }
          case LoopDomain::Nodes: {
            Loop bl{LoopDomain::Nodes, {}, {}};
            for (auto sit = fl.body.rbegin(); sit != fl.body.rend(); ++sit)
                em.emit(*sit, bl.body, false);
            if (!bl.body.empty())
                bp.loops.push_back(std::move(bl));
            break;
          }
          case LoopDomain::DstNodes: {
            // Backward of a dst-nodes aggregation nest is a flat edge
            // loop; node data is reached via the destination endpoint.
            // Lowering groups the loop by whichever row it scatters
            // into most (destination node or compact pair), so those
            // sums need no atomics; the other scatters keep them.
            Loop bl{LoopDomain::Edges, {}, {}};
            for (auto iit = fl.inner.rbegin(); iit != fl.inner.rend();
                 ++iit) {
                for (auto sit = iit->body.rbegin(); sit != iit->body.rend();
                     ++sit)
                    em.emit(*sit, bl.body, true);
            }
            if (!bl.body.empty())
                bp.loops.push_back(std::move(bl));
            if (!fl.body.empty())
                throw std::runtime_error(
                    "dst-nodes loops with direct body statements are "
                    "not differentiable yet");
            break;
          }
          case LoopDomain::IncomingEdges:
            throw std::runtime_error("unexpected top-level inner loop");
        }
    }

    // Chain composed weights back to their factors.
    for (auto it = fwd.weightPrecompute.rbegin();
         it != fwd.weightPrecompute.rend(); ++it)
        bp.weightBackward.push_back(*it);

    return bp;
}

} // namespace hector::core
