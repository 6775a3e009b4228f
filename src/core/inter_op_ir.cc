#include "core/inter_op_ir.hh"

#include <sstream>
#include <stdexcept>

namespace hector::core
{

const char *
toString(OpKind k)
{
    switch (k) {
      case OpKind::TypedLinear:
        return "typed_linear";
      case OpKind::DotProduct:
        return "dot_prd";
      case OpKind::Add:
        return "add";
      case OpKind::Mul:
        return "mul";
      case OpKind::LeakyRelu:
        return "leakyrelu";
      case OpKind::Relu:
        return "relu";
      case OpKind::Exp:
        return "exp";
      case OpKind::Divide:
        return "div";
      case OpKind::Scale:
        return "scale";
      case OpKind::Copy:
        return "copy";
      case OpKind::AccumulateSum:
        return "accum_sum";
      case OpKind::AccumulateScaled:
        return "accum_scaled";
      case OpKind::ComposeMatVec:
        return "compose_mat_vec";
      case OpKind::ComposeMatMat:
        return "compose_mat_mat";
      case OpKind::OuterAccumulate:
        return "outer_accum";
      case OpKind::WeightVecGrad:
        return "wvec_grad";
      case OpKind::LeakyReluBwd:
        return "leakyrelu_bwd";
      case OpKind::ReluBwd:
        return "relu_bwd";
      case OpKind::DivGradDenom:
        return "div_grad_denom";
    }
    return "?";
}

const char *
toString(LoopDomain d)
{
    switch (d) {
      case LoopDomain::Edges:
        return "g.edges()";
      case LoopDomain::Nodes:
        return "g.nodes()";
      case LoopDomain::DstNodes:
        return "g.dst_nodes()";
      case LoopDomain::IncomingEdges:
        return "n.incoming_edges()";
    }
    return "?";
}

const VarInfo &
Program::varInfo(const std::string &name) const
{
    auto it = vars.find(name);
    if (it == vars.end())
        throw std::runtime_error("unknown variable: " + name);
    return it->second;
}

VarInfo &
Program::varInfo(const std::string &name)
{
    auto it = vars.find(name);
    if (it == vars.end())
        throw std::runtime_error("unknown variable: " + name);
    return it->second;
}

const WeightInfo &
Program::weightInfo(const std::string &name) const
{
    auto it = weights.find(name);
    if (it == weights.end())
        throw std::runtime_error("unknown weight: " + name);
    return it->second;
}

void
Program::declareVar(const std::string &name, VarInfo info)
{
    auto [it, inserted] = vars.emplace(name, info);
    if (!inserted)
        throw std::runtime_error("variable redeclared: " + name);
}

void
Program::declareWeight(const std::string &name, WeightInfo info)
{
    auto [it, inserted] = weights.emplace(name, info);
    if (!inserted)
        throw std::runtime_error("weight redeclared: " + name);
}

bool
isAccumulation(const Stmt &s)
{
    switch (s.kind) {
      case OpKind::AccumulateSum:
      case OpKind::AccumulateScaled:
      case OpKind::OuterAccumulate:
      case OpKind::WeightVecGrad:
      case OpKind::LeakyReluBwd:
      case OpKind::ReluBwd:
      case OpKind::DivGradDenom:
        return true;
      default:
        return s.accumulateOut;
    }
}

std::vector<std::string>
stmtInputs(const Stmt &s)
{
    std::vector<std::string> out;
    out.reserve(s.ins.size());
    for (const auto &v : s.ins)
        out.push_back(v.name);
    return out;
}

namespace
{

void
validateStmt(const Program &p, const Loop &loop, const Stmt &s)
{
    auto require = [&](bool cond, const std::string &msg) {
        if (!cond) {
            throw std::runtime_error("IR validation failed at '" +
                                     std::string(toString(s.kind)) + " -> " +
                                     s.out.name + "': " + msg);
        }
    };

    for (const auto &in : s.ins) {
        require(p.vars.count(in.name) == 1, "undeclared input " + in.name);
        const auto &vi = p.varInfo(in.name);
        if (in.access != Access::Direct) {
            require(vi.space == VarSpace::NodeInput ||
                        vi.space == VarSpace::NodeData,
                    "src/dst access requires a node variable");
            require(loop.domain == LoopDomain::Edges ||
                        loop.domain == LoopDomain::IncomingEdges,
                    "src/dst access outside an edge loop");
        }
    }
    require(p.vars.count(s.out.name) == 1,
            "undeclared output " + s.out.name);
    if (!s.weight.empty())
        require(p.weights.count(s.weight) == 1,
                "undeclared weight " + s.weight);

    switch (s.kind) {
      case OpKind::TypedLinear: {
        require(s.ins.size() == 1, "typed_linear takes one input");
        const auto &w = p.weightInfo(s.weight);
        require(!w.isVector, "typed_linear weight must be a matrix");
        require(p.varInfo(s.ins[0].name).cols == w.rows,
                "typed_linear input dim mismatch");
        require(p.varInfo(s.out.name).cols == w.cols,
                "typed_linear output dim mismatch");
        break;
      }
      case OpKind::DotProduct: {
        if (!s.weight.empty()) {
            require(s.ins.size() == 1, "weighted dot takes one input");
            const auto &w = p.weightInfo(s.weight);
            require(w.isVector, "dot weight must be a vector");
            require(p.varInfo(s.ins[0].name).cols == w.cols,
                    "dot dim mismatch");
        } else {
            require(s.ins.size() == 2, "dot takes two inputs");
            require(p.varInfo(s.ins[0].name).cols ==
                        p.varInfo(s.ins[1].name).cols,
                    "dot dim mismatch");
        }
        require(p.varInfo(s.out.name).cols == 1, "dot output is scalar");
        break;
      }
      case OpKind::Add:
      case OpKind::Mul:
        require(s.ins.size() == 2, "binary op takes two inputs");
        require(p.varInfo(s.ins[0].name).cols ==
                    p.varInfo(s.ins[1].name).cols,
                "binary op dim mismatch");
        break;
      case OpKind::Divide:
        require(s.ins.size() == 2, "div takes two inputs");
        break;
      case OpKind::LeakyRelu:
      case OpKind::Relu:
      case OpKind::Exp:
      case OpKind::Scale:
      case OpKind::Copy:
        require(s.ins.size() == 1, "unary op takes one input");
        break;
      case OpKind::AccumulateSum:
        require(loop.domain == LoopDomain::IncomingEdges ||
                    loop.domain == LoopDomain::Edges,
                "accum_sum must sit in an edge loop");
        require(s.ins.size() == 1, "accum_sum takes one input");
        break;
      case OpKind::AccumulateScaled:
        require(loop.domain == LoopDomain::IncomingEdges ||
                    loop.domain == LoopDomain::Edges,
                "accum_scaled must sit in an edge loop");
        require(s.ins.size() == 2, "accum_scaled takes scalar + vector");
        require(p.varInfo(s.ins[0].name).cols == 1,
                "accum_scaled first input must be scalar");
        break;
      case OpKind::ComposeMatVec:
      case OpKind::ComposeMatMat:
        throw std::runtime_error("compose ops live in weightPrecompute");
      case OpKind::OuterAccumulate:
      case OpKind::WeightVecGrad:
      case OpKind::LeakyReluBwd:
      case OpKind::ReluBwd:
      case OpKind::DivGradDenom:
        // Backward-only ops are machine-generated; their shapes are
        // correct by construction of the autodiff rules.
        break;
    }
}

void
validateLoop(const Program &p, const Loop &loop, bool nested)
{
    if (loop.domain == LoopDomain::IncomingEdges && !nested)
        throw std::runtime_error(
            "incoming-edges loop must nest inside dst-nodes");
    if (!loop.inner.empty() && loop.domain != LoopDomain::DstNodes)
        throw std::runtime_error("only dst-nodes loops may nest");
    for (const auto &s : loop.body)
        validateStmt(p, loop, s);
    for (const auto &in : loop.inner) {
        if (in.domain != LoopDomain::IncomingEdges)
            throw std::runtime_error("nested loop must be incoming-edges");
        validateLoop(p, in, true);
    }
}

} // namespace

void
Program::validate() const
{
    for (const auto &l : loops)
        validateLoop(*this, l, false);
    for (const auto &s : weightPrecompute) {
        if (s.kind != OpKind::ComposeMatVec && s.kind != OpKind::ComposeMatMat)
            throw std::runtime_error(
                "weightPrecompute only holds compose ops");
        if (weights.count(s.out.name) != 1)
            throw std::runtime_error("compose output must be a weight");
    }
    if (vars.count(outputVar) != 1)
        throw std::runtime_error("output variable undeclared");
}

namespace
{

std::string
refToString(const Stmt &s, const VarRef &r)
{
    (void)s;
    switch (r.access) {
      case Access::Direct:
        return r.name;
      case Access::ViaSrc:
        return "e.src." + r.name;
      case Access::ViaDst:
        return "e.dst." + r.name;
    }
    return r.name;
}

void
dumpStmt(std::ostringstream &os, const Stmt &s, int indent)
{
    os << std::string(static_cast<std::size_t>(indent), ' ');
    os << s.out.name << (s.sumFirst ? " += sum " : " = ")
       << toString(s.kind) << "(";
    bool first = true;
    for (const auto &in : s.ins) {
        if (!first)
            os << ", ";
        os << refToString(s, in);
        first = false;
    }
    if (!s.weight.empty())
        os << (first ? "" : ", ") << s.weight << "[by="
           << static_cast<int>(s.typeBy) << "]";
    os << ")\n";
}

void
dumpLoop(std::ostringstream &os, const Loop &l, int indent)
{
    os << std::string(static_cast<std::size_t>(indent), ' ') << "for "
       << (l.domain == LoopDomain::IncomingEdges ? "e" : "x") << " in "
       << toString(l.domain) << ":\n";
    for (const auto &s : l.body)
        dumpStmt(os, s, indent + 4);
    for (const auto &in : l.inner)
        dumpLoop(os, in, indent + 4);
}

} // namespace

std::string
Program::dump() const
{
    std::ostringstream os;
    os << "# program " << name << "\n";
    for (const auto &s : weightPrecompute)
        dumpStmt(os, s, 0);
    for (const auto &l : loops)
        dumpLoop(os, l, 0);
    return os.str();
}

std::size_t
Program::stmtCount() const
{
    std::size_t n = weightPrecompute.size();
    for (const auto &l : loops) {
        n += l.body.size();
        for (const auto &in : l.inner)
            n += in.body.size();
    }
    return n;
}

bool
dependsOnlyOnSrcAndEtype(const Program &p, const Stmt &s,
                         const std::map<std::string, bool> &compact_vars)
{
    switch (s.kind) {
      case OpKind::AccumulateSum:
      case OpKind::AccumulateScaled:
      case OpKind::ComposeMatVec:
      case OpKind::ComposeMatMat:
      case OpKind::OuterAccumulate:
      case OpKind::WeightVecGrad:
      case OpKind::LeakyReluBwd:
      case OpKind::ReluBwd:
      case OpKind::DivGradDenom:
        return false;
      default:
        break;
    }
    if (s.typeBy == TypeBy::DstNtype)
        return false;
    for (const auto &in : s.ins) {
        const auto &vi = p.varInfo(in.name);
        switch (vi.space) {
          case VarSpace::NodeInput:
          case VarSpace::NodeData:
            if (in.access != Access::ViaSrc)
                return false;
            break;
          case VarSpace::EdgeData: {
            auto it = compact_vars.find(in.name);
            if (it == compact_vars.end() || !it->second)
                return false;
            break;
          }
          case VarSpace::Param:
            break;
        }
    }
    return true;
}

} // namespace hector::core
