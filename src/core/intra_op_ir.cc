#include "core/intra_op_ir.hh"

namespace hector::core
{

const char *
toString(RowDomain d)
{
    switch (d) {
      case RowDomain::Edges:
        return "EDGEWISE";
      case RowDomain::UniquePairs:
        return "UNIQUE_NODE_ETYPE";
      case RowDomain::Nodes:
        return "NODEWISE";
    }
    return "?";
}

const char *
toString(AccessScheme s)
{
    switch (s) {
      case AccessScheme::Identity:
        return "IDENTITY";
      case AccessScheme::GatherSrc:
        return "GATHER(row_idx)";
      case AccessScheme::GatherDst:
        return "GATHER(col_idx)";
      case AccessScheme::GatherUniqueSrc:
        return "GATHER(unique_row_idx)";
      case AccessScheme::GatherEdgeToUnique:
        return "GATHER(edge_to_unique)";
      case AccessScheme::ScatterDstAtomic:
        return "SCATTER_ATOMIC(col_idx)";
      case AccessScheme::ScatterSrcAtomic:
        return "SCATTER_ATOMIC(row_idx)";
      case AccessScheme::ScatterUniqueAtomic:
        return "SCATTER_ATOMIC(unique_row_idx)";
    }
    return "?";
}

std::vector<StepRef>
LoweredFunction::refs(std::size_t i) const
{
    std::vector<StepRef> out;
    auto add = [&](const std::string &v, bool write) {
        if (!v.empty())
            out.push_back({v, write});
    };
    const Step &step = order[i];
    switch (step.kind) {
      case Step::Kind::Gemm: {
        const GemmInstance &gi = gemms[step.index];
        add(gi.xVar, false);
        add(gi.perRowScalarVar, false);
        add(gi.y2Var, false);
        if (gi.kind == GemmKind::Linear)
            add(gi.yVar, true);
        break;
      }
      case Step::Kind::Traversal:
        for (const auto &ss : traversals[step.index].stmts) {
            add(ss.stmt.out.name, true);
            for (const auto &in : ss.stmt.ins)
                add(in.name, false);
        }
        break;
      case Step::Kind::Fallback:
        for (const auto &in : fallbacks[step.index].stmt.ins)
            add(in.name, false);
        break;
    }
    return out;
}

} // namespace hector::core
