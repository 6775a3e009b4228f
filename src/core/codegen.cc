#include "core/codegen.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/lowering.hh"

namespace hector::core
{

namespace
{

int
countLines(const std::string &s)
{
    int n = 0;
    for (char c : s)
        if (c == '\n')
            ++n;
    return n;
}

const char *
gatherExpr(AccessScheme s)
{
    switch (s) {
      case AccessScheme::Identity:
        return "r";
      case AccessScheme::GatherSrc:
        return "row_idx[r]";
      case AccessScheme::GatherDst:
        return "col_idx[r]";
      case AccessScheme::GatherUniqueSrc:
        return "unique_row_idx[r]";
      case AccessScheme::GatherEdgeToUnique:
        return "edge_to_unique[r]";
      case AccessScheme::ScatterDstAtomic:
        return "col_idx[r]";
      case AccessScheme::ScatterSrcAtomic:
        return "row_idx[r]";
      case AccessScheme::ScatterUniqueAtomic:
        return "edge_to_unique[r]";
    }
    return "r";
}

const char *
segPtrName(RowDomain d, TypeBy by)
{
    if (by == TypeBy::Single)
        return "full_range_ptr";
    switch (d) {
      case RowDomain::Edges:
        return "etype_ptr";
      case RowDomain::UniquePairs:
        return "unique_etype_ptr";
      case RowDomain::Nodes:
        return "ntype_ptr";
    }
    return "etype_ptr";
}

/** Register accumulator of a hoist-level-2 statement's output. */
std::string
accName(const Stmt &s)
{
    return s.out.name + "_acc";
}

/** Register holding a virtual variable, or a row written and re-read. */
std::string
valueReg(const std::string &var)
{
    return var + "_reg";
}

/** Register an operand load is read into. */
std::string
loadReg(const OperandLoad &l)
{
    const char *via = l.access == Access::ViaSrc   ? "src_"
                      : l.access == Access::ViaDst ? "dst_"
                                                   : "";
    return "ld_" + std::string(via) + l.var;
}

/**
 * Loads of @p ti read into a register, one per distinct operand: every
 * weight-vector row, and every load of a materialized variable the
 * instance does not write. A variable the instance writes is read
 * where it was written, and a virtual one already lives in a register.
 */
std::vector<OperandLoad>
registerLoads(const Program &p, const TraversalInstance &ti)
{
    std::vector<OperandLoad> out;
    for (const auto &l : ti.loads) {
        const bool written = std::any_of(
            ti.stmts.begin(), ti.stmts.end(), [&](const ScheduledStmt &ss) {
                return ss.stmt.out.name == l.var;
            });
        if (l.weight ||
            (!written && p.varInfo(l.var).mat != Materialization::Virtual))
            out.push_back(l);
    }
    return out;
}

/** Row @p row of @p var as CUDA C (column f when it is a vector). */
std::string
rowRef(const Program &p, const std::string &var, const std::string &row)
{
    const std::int64_t cols = p.varInfo(var).cols;
    if (cols == 1)
        return var + "[" + row + "]";
    return var + "[" + row + " * " + std::to_string(cols) + " + f]";
}

/** Row of typed weight vector @p w at the current etype, as CUDA C. */
std::string
weightRef(const std::string &w)
{
    return w + "[etype * dim + f]";
}

/** Register adjacency index @p i is read into. */
const char *
indexReg(AdjIndex i)
{
    switch (i) {
      case AdjIndex::EdgeId:
        return "e";
      case AdjIndex::Src:
        return "src";
      case AdjIndex::Dst:
        return "dst";
      case AdjIndex::EdgeToUnique:
        return "uid";
      case AdjIndex::Etype:
        return "etype";
    }
    return "?";
}

/**
 * The line reading index @p r of @p ti into its register: per edge
 * from the edge id e, or per group from the group's node n or pair u
 * (the loop variable u of the UniquePairs domain too).
 */
std::string
indexLoad(const TraversalInstance &ti, const AdjacencyRead &r)
{
    const bool per_pair = ti.group == GroupKey::UniquePair ||
                          ti.domain == RowDomain::UniquePairs;
    std::string expr;
    switch (r.index) {
      case AdjIndex::EdgeId:
        expr = ti.group == GroupKey::UniquePair ? "args.unique_eids[i]"
                                                : "args.in_edge_ids[i]";
        break;
      case AdjIndex::Src:
        expr = per_pair ? "unique_row_idx[u]" : "row_idx[e]";
        break;
      case AdjIndex::Dst:
        expr = ti.group == GroupKey::DstNode ? "n" : "col_idx[e]";
        break;
      case AdjIndex::EdgeToUnique:
        expr = ti.group == GroupKey::UniquePair ? "u" : "edge_to_unique[e]";
        break;
      case AdjIndex::Etype:
        expr = "GetEType<" + std::to_string(ti.kid) +
               (per_pair ? ">(u);  // segment lookup via unique_etype_ptr"
                         : ">(e);  // segment lookup via etype_ptr");
        return "const int etype = " + expr;
    }
    return "const int " + std::string(indexReg(r.index)) + " = " + expr + ";";
}

/**
 * Row of @p v in @p ti at row @p ent of its domain, as CUDA C: @p ent
 * is an edge id, except in the UniquePairs domain, where it is the pair
 * id that indexes compact rows directly. Every other row is located
 * through the register of its adjacency index (see adjacencyReads()).
 */
std::string
operandRef(const Program &p, const TraversalInstance &ti, const VarRef &v,
           const std::string &ent)
{
    const auto &vi = p.varInfo(v.name);
    std::string idx;
    if (vi.space == VarSpace::EdgeData) {
        if (vi.mat == Materialization::Virtual)
            return valueReg(v.name);
        idx = vi.mat == Materialization::Compact &&
                      ti.domain != RowDomain::UniquePairs
                  ? indexReg(AdjIndex::EdgeToUnique)
                  : ent;
    } else {
        switch (v.access) {
          case Access::ViaSrc:
            idx = indexReg(AdjIndex::Src);
            break;
          case Access::ViaDst:
            idx = indexReg(AdjIndex::Dst);
            break;
          case Access::Direct:
            idx = "n";
            break;
        }
    }
    return rowRef(p, v.name, idx);
}

/** The row load @p l reads at row @p ent of @p ti's domain. */
std::string
loadRef(const Program &p, const TraversalInstance &ti, const OperandLoad &l,
        const std::string &ent)
{
    return l.weight ? weightRef(l.var)
                    : operandRef(p, ti, {l.var, l.access}, ent);
}

/** A row as a variable and the access locating it. */
using RowKey = std::pair<std::string, Access>;

/**
 * Materialized rows @p ti reads in a register an earlier statement
 * filled: its loads at LoadRate::InRegister that are not virtual. The
 * level-0 writer fills the register and stores it; the readers use it.
 */
std::set<RowKey>
reusedRows(const Program &p, const TraversalInstance &ti)
{
    std::set<RowKey> out;
    for (const auto &l : ti.loads)
        if (!l.weight && ti.rateOf(l) == LoadRate::InRegister &&
            p.varInfo(l.var).mat != Materialization::Virtual)
            out.insert({l.var, l.access});
    return out;
}

/**
 * Renders statement @p ss of @p ti as CUDA C. At hoist level 2, an
 * accumulation adds into its register accumulator instead of the
 * output row. An input or weight vector among @p regs reads its load's
 * register instead of memory, and an input in @p live reads the
 * register an earlier statement filled. With @p fill, the statement
 * computes its row into that register, stores it, and adds it to
 * @p live. An accumulation scatters by atomicAdd exactly when the cost
 * model prices atomics for it (scattersAtomically()), and a
 * ScheduledStmt::firstWrite adds to 0.f instead of reading its row.
 */
std::string
stmtToCuda(const Program &p, const TraversalInstance &ti,
           const ScheduledStmt &ss, const std::string &ent,
           const std::vector<OperandLoad> &regs = {},
           std::set<RowKey> *live = nullptr, bool fill = false)
{
    const Stmt &s = ss.stmt;
    const bool into_register = ss.hoistLevel == 2;
    auto ref = [&](const VarRef &v) { return operandRef(p, ti, v, ent); };
    auto in = [&](const VarRef &v) -> std::string {
        if (live && live->count({v.name, v.access}))
            return valueReg(v.name);
        for (const auto &l : regs)
            if (!l.weight && l.var == v.name && l.access == v.access)
                return loadReg(l);
        return ref(v);
    };
    // The second operand: an input, or the typed weight-vector row.
    auto in1 = [&]() -> std::string {
        if (s.weight.empty())
            return in(s.ins[1]);
        for (const auto &l : regs)
            if (l.weight && l.var == s.weight)
                return loadReg(l);
        return weightRef(s.weight);
    };

    std::ostringstream os;
    auto assign = [&](const std::string &expr) {
        if (into_register) {
            os << accName(s) << " += " << expr << ";";
            return;
        }
        const std::string out = ref(s.out);
        if (fill && live) {
            const std::string reg = valueReg(s.out.name);
            const RowKey row{s.out.name, s.out.access};
            const std::string old = live->count(row) ? reg
                                    : ss.firstWrite    ? "0.f"
                                                       : out;
            os << reg << " = "
               << (isAccumulation(s) ? old + " + " + expr : expr) << "; "
               << out << " = " << reg << ";";
            live->insert(row);
            return;
        }
        if (!isAccumulation(s))
            os << out << " = " << expr << ";";
        else if (scattersAtomically(p, s, ti.domain, ti.group))
            os << "atomicAdd(&" << out << ", " << expr << ");";
        else if (ss.firstWrite)
            os << out << " = 0.f + " << expr << ";";
        else
            os << out << " += " << expr << ";";
    };

    switch (s.kind) {
      case OpKind::DotProduct:
        assign("warp_dot(" + in(s.ins[0]) + ", " + in1() + ")");
        break;
      case OpKind::Add:
        assign(in(s.ins[0]) + " + " + in(s.ins[1]));
        break;
      case OpKind::Mul:
        assign(in(s.ins[0]) + " * " + in(s.ins[1]));
        break;
      case OpKind::LeakyRelu:
        assign("leaky_relu(" + in(s.ins[0]) + ", " +
               std::to_string(s.alpha) + "f)");
        break;
      case OpKind::Relu:
        assign("fmaxf(" + in(s.ins[0]) + ", 0.f)");
        break;
      case OpKind::Exp:
        assign("__expf(" + in(s.ins[0]) + ")");
        break;
      case OpKind::Divide:
        assign(in(s.ins[0]) + " / " + in(s.ins[1]));
        break;
      case OpKind::Scale:
        assign(std::to_string(s.alpha) + "f * " + in(s.ins[0]));
        break;
      case OpKind::Copy:
      case OpKind::AccumulateSum:
        assign(in(s.ins[0]));
        break;
      case OpKind::AccumulateScaled:
        assign(in(s.ins[0]) + " * " + in1());
        break;
      case OpKind::LeakyReluBwd:
        assign(in(s.ins[0]) + " * (" + in(s.ins[1]) + " > 0.f ? 1.f : " +
               std::to_string(s.alpha) + "f)");
        break;
      case OpKind::ReluBwd:
        assign(in(s.ins[0]) + " * (" + in(s.ins[1]) + " > 0.f)");
        break;
      case OpKind::DivGradDenom:
        assign("-" + in(s.ins[0]) + " * " + in(s.ins[1]) + " / (" +
               in(s.ins[2]) + " * " + in(s.ins[2]) + ")");
        break;
      default:
        os << "/* unsupported in traversal: " << toString(s.kind) << " */";
        break;
    }
    return os.str();
}

} // namespace

std::string
emitGemmKernel(const Program &p, const GemmInstance &gi)
{
    (void)p;
    std::ostringstream os;
    const std::string ts = std::to_string(gi.sched.tileSz);
    os << "// ---- GEMM template instance kid=" << gi.kid << " ----\n";
    os << "// Y: (" << toString(gi.rows) << ", \"" << gi.yVar
       << "\") [" << toString(gi.yAccess) << "]\n";
    os << "// X: (\"" << gi.xVar << "\") [" << toString(gi.xAccess)
       << (gi.transW ? ", TRANSPOSE_W" : ", NO_TRANSPOSE") << "]\n";
    os << "// W: (" << gi.wVar << ", typed)"
       << (gi.kind == GemmKind::Outer ? "  [outer-product gradient]" : "")
       << "\n";
    os << "// schedule: {tile_sz: " << ts
       << ", coarsening: " << gi.sched.coarsening << ", launch_bounds: "
       << (gi.sched.launchBounds ? "true" : "false") << "}\n";
    for (const RowWeightVec &t : gi.epilogue)
        os << "// epilogue: " << t.var << "[r] = dot(Y row r, " << t.weight
           << "[type]) per finished row; a block owns whole rows\n";
    for (const RowWeightVec &t : gi.prologue)
        os << "// prologue: " << gi.y2Var << " row r read as " << gi.y2Var
           << "[r] + " << t.var << "[r] * " << t.weight << "[type]\n";
    if (gi.sched.launchBounds)
        os << "__launch_bounds__(" << gi.sched.tileSz * gi.sched.tileSz
           << ", 4)\n";
    os << "__global__ void " << gi.name << "(\n"
       << "    const float *__restrict__ X, const float *__restrict__ W,\n"
       << "    float *__restrict__ Y, const int64_t *__restrict__ "
       << segPtrName(gi.rows, gi.typeBy) << ",\n"
       << "    const int64_t *__restrict__ row_idx,\n"
       << "    const int64_t *__restrict__ col_idx,\n"
       << "    const int64_t *__restrict__ unique_row_idx,\n"
       << "    const int64_t *__restrict__ edge_to_unique,\n"
       << "    const float *__restrict__ per_row_scalar,\n";
    if (!gi.prologue.empty())
        os << "    const float *__restrict__ " << gi.y2Var << ",\n";
    for (const RowWeightVec &t : gi.prologue)
        os << "    const float *__restrict__ " << t.var
           << ", const float *__restrict__ " << t.weight << ",\n";
    for (const RowWeightVec &t : gi.epilogue)
        os << "    float *__restrict__ " << t.var
           << ", const float *__restrict__ " << t.weight << ",\n";
    os << "    int num_types, int din, int dout)\n"
       << "{\n"
       << "    __shared__ float x_shmem[" << ts << "][" << ts << "];\n"
       << "    __shared__ float w_shmem[" << ts << "][" << ts << "];\n";
    const std::string lanes = std::to_string(gi.sched.tileSz *
                                             gi.sched.coarsening);
    if (!gi.prologue.empty())
        os << "    __shared__ float y2_shmem[" << ts << "][" << ts << "];\n";
    if (!gi.epilogue.empty())
        os << "    // Partial dots of one column tile, per row.\n"
           << "    __shared__ float dot_shmem[" << ts << "][" << lanes
           << "];\n";
    os << "    // GetRange<" << gi.kid << ">: tile assignment over the\n"
       << "    // per-type segments of " << segPtrName(gi.rows, gi.typeBy)
       << ".\n"
       << "    GemmRange range = get_range_" << gi.kid
       << "(blockIdx, num_types);\n"
       << "    for (int tile_row = range.row_begin; tile_row < "
          "range.row_end;\n"
       << "         tile_row += gridDim.x) {\n";
    if (gi.epilogue.empty()) {
        os << "        for (int tile_col = range.col_begin; tile_col < "
              "range.col_end;\n"
           << "             tile_col += gridDim.y) {\n";
    } else {
        // grid.y == 1: the block walks every column tile of its rows,
        // so it finishes each dot without atomics.
        for (const RowWeightVec &t : gi.epilogue)
            os << "        float " << t.var << "_acc = 0.f;\n";
        os << "        for (int tile_col = 0; tile_col * " << ts
           << " < dout; ++tile_col) {\n";
    }
    os << "            float y_reg[" << gi.sched.coarsening
       << "] = {0.f};\n"
       << "            for (int kk = 0; kk < din; kk += " << ts << ") {\n"
       << "                // LoadXToShmemIfInRange<" << gi.kid << ">\n"
       << "                {\n"
       << "                    int r = tile_row * " << ts
       << " + threadIdx.y;\n"
       << "                    int g = " << gatherExpr(gi.xAccess) << ";\n"
       << "                    x_shmem[threadIdx.y][threadIdx.x] =\n"
       << "                        X[g * din + kk + threadIdx.x];\n"
       << "                }\n"
       << "                // LoadWToShmemOrRegistersIfInRange<" << gi.kid
       << ">\n"
       << "                w_shmem[threadIdx.y][threadIdx.x] =\n"
       << "                    W[(type_of(tile_row) * din + kk +\n"
       << "                       threadIdx." << (gi.transW ? "x" : "y")
       << ") * dout + tile_col * " << ts << " + threadIdx."
       << (gi.transW ? "y" : "x") << "];\n"
       << "                __syncthreads();\n";
    if (!gi.prologue.empty()) {
        os << "                // Prologue<" << gi.kid << ">: the y2 row formed "
              "on load, never stored\n"
           << "                {\n"
           << "                    int r = tile_row * " << ts
           << " + threadIdx.y;\n"
           << "                    int j = tile_col * " << ts
           << " + threadIdx.x;\n"
           << "                    float y2 = " << gi.y2Var
           << "[r * dout + j];\n";
        for (const RowWeightVec &t : gi.prologue)
            os << "                    y2 += " << t.var << "[r] * "
               << t.weight << "[type_of(tile_row) * dout + j];\n";
        os << "                    y2_shmem[threadIdx.y][threadIdx.x] = y2;\n"
           << "                }\n";
    }
    os << "                #pragma unroll\n"
       << "                for (int k2 = 0; k2 < " << ts << "; ++k2)\n"
       << "                    for (int c = 0; c < "
       << gi.sched.coarsening << "; ++c)\n"
       << "                        y_reg[c] += "
          "x_shmem[threadIdx.y][k2] *\n"
       << "                                    w_shmem[k2][threadIdx.x];\n"
       << "                __syncthreads();\n"
       << "            }\n";
    if (!gi.perRowScalarVar.empty()) {
        os << "            // Per-row scalar (" << gi.perRowScalarVar
           << ") fused into the store stage.\n"
           << "            for (int c = 0; c < " << gi.sched.coarsening
           << "; ++c)\n"
           << "                y_reg[c] *= per_row_scalar[tile_row * " << ts
           << " + threadIdx.y];\n";
    }
    os << "            // StoreYIfInRange<" << gi.kid << ">\n"
       << "            {\n"
       << "                int r = tile_row * " << ts
       << " + threadIdx.y;\n"
       << "                int sidx = " << gatherExpr(gi.yAccess) << ";\n";
    const bool atomic = gi.yAccess == AccessScheme::ScatterDstAtomic ||
                        gi.yAccess == AccessScheme::ScatterSrcAtomic ||
                        gi.yAccess == AccessScheme::ScatterUniqueAtomic ||
                        (gi.yAccumulate && gi.yAccess !=
                         AccessScheme::Identity);
    if (atomic) {
        os << "                for (int c = 0; c < " << gi.sched.coarsening
           << "; ++c)\n"
           << "                    atomicAdd(&Y[sidx * dout + tile_col * "
           << ts << " +\n"
           << "                               threadIdx.x + c], "
              "y_reg[c]);\n";
    } else {
        os << "                for (int c = 0; c < " << gi.sched.coarsening
           << "; ++c)\n"
           << "                    Y[sidx * dout + tile_col * " << ts
           << " + threadIdx.x + c] " << (gi.yAccumulate ? "+= " : "= ")
           << "y_reg[c];\n";
    }
    os << "            }\n";
    for (const RowWeightVec &t : gi.epilogue)
        os << "            // Epilogue<" << gi.kid << ">: " << t.var
           << "'s partial dot of this tile, summed\n"
           << "            // by one thread per row in column order.\n"
           << "            for (int c = 0; c < " << gi.sched.coarsening
           << "; ++c)\n"
           << "                dot_shmem[threadIdx.y][threadIdx.x * "
           << gi.sched.coarsening << " + c] =\n"
           << "                    y_reg[c] * " << t.weight
           << "[type_of(tile_row) * dout + tile_col * " << ts
           << " + threadIdx.x + c];\n"
           << "            __syncthreads();\n"
           << "            if (threadIdx.x == 0)\n"
           << "                for (int k2 = 0; k2 < " << lanes
           << "; ++k2)\n"
           << "                    " << t.var
           << "_acc += dot_shmem[threadIdx.y][k2];\n"
           << "            __syncthreads();\n";
    os << "        }\n";
    if (!gi.epilogue.empty()) {
        os << "        // StoreEpilogue<" << gi.kid << ">: one store per row\n"
           << "        if (threadIdx.x == 0) {\n"
           << "            int r = tile_row * " << ts << " + threadIdx.y;\n";
        for (const RowWeightVec &t : gi.epilogue)
            os << "            " << t.var << "[r] = " << t.var << "_acc;\n";
        os << "        }\n";
    }
    os << "    }\n"
       << "}\n\n";
    return os.str();
}

std::string
emitCpuGemmKernel(const GemmInstance &gi, bool backward)
{
    std::ostringstream os;
    const char dir = backward ? 'b' : 'f';
    os << "// kid=" << gi.kid << " " << gi.name
       << ": row micro-kernel, dout=" << gi.dout << " baked.\n"
       << "static void hector_gemm_" << dir << gi.kid
       << "(float *__restrict y, const float *__restrict x,\n"
       << "                          float scale,\n"
       << "                          const float *__restrict panel,\n"
       << "                          long long kb)\n"
       << "{\n"
       << "    enum { N = " << gi.dout << " };\n";
    // Column strips of 8, 4, 2 and 1 eight-lane vectors, each held in
    // registers across the whole kk walk (tensor/simd's rowPanel
    // blocking, with the strips fixed at generation time).
    auto strip = [&](std::int64_t j0, int vecs) {
        os << "    { // columns [" << j0 << ", " << j0 + 8 * vecs
           << ")\n"
           << "        hector_v8 pv";
        for (int v = 0; v < vecs; ++v)
            os << ", a" << v;
        os << ";\n";
        for (int v = 0; v < vecs; ++v)
            os << "        __builtin_memcpy(&a" << v << ", y + "
               << j0 + 8 * v << ", sizeof pv);\n";
        os << "        for (long long kk = 0; kk < kb; ++kk) {\n"
           << "            const float xv = scale * x[kk];\n"
           << "            if (xv == 0.0f)\n"
           << "                continue;\n"
           << "            const float *__restrict p = panel + kk * N;\n";
        for (int v = 0; v < vecs; ++v)
            os << "            __builtin_memcpy(&pv, p + " << j0 + 8 * v
               << ", sizeof pv);\n"
               << "            a" << v << " += xv * pv;\n";
        os << "        }\n";
        for (int v = 0; v < vecs; ++v)
            os << "        __builtin_memcpy(y + " << j0 + 8 * v << ", &a"
               << v << ", sizeof pv);\n";
        os << "    }\n";
    };
    std::int64_t j = 0;
    for (; j + 64 <= gi.dout; j += 64)
        strip(j, 8);
    for (int vecs : {4, 2, 1})
        if (j + 8 * vecs <= gi.dout) {
            strip(j, vecs);
            j += 8 * vecs;
        }
    if (j < gi.dout)
        os << "    for (int j = " << j << "; j < N; ++j) {\n"
           << "        float acc = y[j];\n"
           << "        for (long long kk = 0; kk < kb; ++kk) {\n"
           << "            const float xv = scale * x[kk];\n"
           << "            if (xv == 0.0f)\n"
           << "                continue;\n"
           << "            acc += xv * panel[kk * N + j];\n"
           << "        }\n"
           << "        y[j] = acc;\n"
           << "    }\n";
    os << "}\n\n";
    return os.str();
}

std::string
emitTraversalKernel(const Program &p, const TraversalInstance &ti)
{
    std::ostringstream os;
    os << "// ---- traversal template instance kid=" << ti.kid << " ----\n";
    const bool by_pair = ti.group == GroupKey::UniquePair;
    os << "// adjacency: "
       << (by_pair ? "per-pair edge lists"
                   : (ti.grouped() ? "CSR" : "COO"))
       << ", domain: " << toString(ti.domain)
       << (by_pair ? ", grouped by (src, etype)"
                   : (ti.grouped() ? ", node-centric" : ", edge-centric"))
       << "\n";
    if (!ti.virtualVars.empty()) {
        os << "// fused temporaries kept in registers:";
        for (const auto &v : ti.virtualVars)
            os << " " << v;
        os << "\n";
    }
    const std::set<RowKey> reused = reusedRows(p, ti);
    if (!reused.empty()) {
        os << "// rows stored once and re-read from registers:";
        for (const auto &r : reused)
            os << " " << r.first;
        os << "\n";
    }
    os << "__global__ void " << ti.name << "(\n"
       << "    KernelArgs<" << ti.kid << "> args)\n"
       << "{\n";
    for (const auto &v : ti.virtualVars)
        os << "    float " << valueReg(v) << ";\n";
    for (const auto &r : reused)
        os << "    float " << valueReg(r.first) << ";\n";
    // One register load per distinct operand per edge (or row).
    const std::vector<OperandLoad> regs = registerLoads(p, ti);
    // Per-iteration statements: a virtual `+=` output restarts at +0,
    // and a row in `reused` is read from the register its writer fills.
    const std::vector<std::string> restarted = restartedVirtuals(p, ti);
    auto emitBody = [&](const char *indent, const std::string &ent) {
        for (const auto &v : restarted)
            os << indent << valueReg(v)
               << " = 0.f;  // restarts every iteration\n";
        std::set<RowKey> live;
        for (const auto &ss : ti.stmts) {
            if (ss.hoistLevel == 1)
                continue;
            os << indent
               << stmtToCuda(p, ti, ss, ent, regs, &live,
                             ss.hoistLevel == 0 &&
                                 reused.count({ss.stmt.out.name,
                                               ss.stmt.out.access}))
               << "\n";
        }
    };
    // Each adjacency index the instance uses, read once into its
    // register: per group at the top of the group, per edge at the top
    // of the edge body.
    const std::vector<AdjacencyRead> indices = adjacencyReads(p, ti);
    auto emitIndices = [&](const char *indent, LoadRate rate) {
        for (const auto &r : indices)
            if (r.rate == rate)
                os << indent << indexLoad(ti, r) << "\n";
    };
    auto emitEdgeLoads = [&](const char *indent, const std::string &ent) {
        for (const auto &l : regs)
            if (ti.rateOf(l) == LoadRate::PerEdge)
                os << indent << "const float " << loadReg(l) << " = "
                   << loadRef(p, ti, l, ent) << ";\n";
    };
    if (ti.grouped()) {
        // One group per block: a destination node n over the CSR, or
        // a compact (src, etype) pair u over its edge list.
        const std::string grp = by_pair ? "u" : "n";
        const std::string ptr = by_pair ? "args.unique_ptr" : "args.in_ptr";
        const std::string range =
            ptr + "[" + grp + "] < " + ptr + "[" + grp + " + 1]";
        os << "    // GetRange<" << ti.kid << ">: one "
           << (by_pair ? "(src, etype) pair" : "destination node")
           << " per block.\n"
           << "    for (int " << grp << " = blockIdx.x; " << grp
           << " < " << (by_pair ? "args.num_unique" : "args.num_nodes")
           << ";\n"
           << "         " << grp << " += gridDim.x) {\n";
        os << "        int f = threadIdx.x;\n";
        emitIndices("        ", LoadRate::PerGroup);
        bool stores = false;
        for (const auto &ss : ti.stmts) {
            if (ss.hoistLevel == 1) {
                os << "        // hoisted before edge loop\n";
                os << "        " << stmtToCuda(p, ti, ss, "e") << "\n";
            } else if (ss.hoistLevel == 2) {
                os << "        float " << accName(ss.stmt)
                   << " = 0.f;  // register accumulator\n";
                stores = true;
            }
        }
        // The group's own operand rows, loaded once before its edge
        // loop; a group without an edge loads nothing.
        bool hoists = false;
        for (const auto &l : regs) {
            if (!ti.hoisted(l))
                continue;
            if (!hoists)
                os << "        // operand rows loaded once per "
                   << (by_pair ? "pair" : "node with an incoming edge")
                   << "\n"
                   << "        const bool has_edges = " << range << ";\n";
            hoists = true;
            os << "        const float " << loadReg(l) << " = has_edges ? "
               << rowRef(p, l.var, grp) << " : 0.f;\n";
        }
        // Weight-vector rows, reloaded inside the edge loop only when
        // the edge's etype differs from the last one loaded.
        std::string run_loads;
        for (const auto &l : regs) {
            if (ti.rateOf(l) != LoadRate::PerRun)
                continue;
            if (run_loads.empty())
                os << "        // weight-vector rows loaded once per run of "
                      "equal etype\n"
                   << "        int ld_etype = -1;\n";
            os << "        float " << loadReg(l) << " = 0.f;\n";
            run_loads += " " + loadReg(l) + " = " + weightRef(l.var) + ";";
        }
        os << "        for (int i = " << ptr << "[" << grp
           << "] + threadIdx.y;\n"
           << "             i < " << ptr << "[" << grp
           << " + 1]; i += blockDim.y) {\n";
        emitIndices("            ", LoadRate::PerEdge);
        if (!run_loads.empty())
            os << "            if (etype != ld_etype) { ld_etype = etype;"
               << run_loads << " }\n";
        emitEdgeLoads("            ", "e");
        emitBody("            ", "e");
        if (ti.partialAggregation)
            os << "            // partial per-thread/warp aggregation\n"
               << "            warp_reduce_partial(args);\n";
        os << "        }\n";
        if (stores) {
            os << "        // one store per "
               << (by_pair ? "pair" : "node with an incoming edge")
               << "\n"
               << "        if (" << range << ") {\n";
            for (const auto &ss : ti.stmts)
                if (ss.hoistLevel == 2)
                    os << "            " << rowRef(p, ss.stmt.out.name, grp)
                       << (ss.addsOnStore() ? " += " : " = ")
                       << accName(ss.stmt) << ";\n";
            os << "        }\n";
        }
        os << "    }\n";
    } else {
        const char *count = ti.domain == RowDomain::UniquePairs
                                ? "args.num_unique"
                                : (ti.domain == RowDomain::Nodes
                                       ? "args.num_nodes"
                                       : "args.num_edges");
        // The loop variable is the row id: an edge e, a compact
        // (src, etype) pair u, or a node n.
        const char *ent = ti.domain == RowDomain::Nodes         ? "n"
                          : ti.domain == RowDomain::UniquePairs ? "u"
                                                                : "e";
        os << "    for (int " << ent
           << " = blockIdx.x * blockDim.y + threadIdx.y; " << ent << " < "
           << count << ";\n"
           << "         " << ent << " += gridDim.x * blockDim.y) {\n";
        emitIndices("        ", LoadRate::PerEdge);
        emitIndices("        ", LoadRate::PerGroup);
        os << "        int f = threadIdx.x;\n";
        emitEdgeLoads("        ", ent);
        emitBody("        ", ent);
        os << "    }\n";
    }
    os << "}\n\n";
    return os.str();
}

namespace
{

/**
 * The host wrapper of @p kernel. A folded GEMM takes its term tensors
 * (@p terms, in kernel-parameter order) after its own, and one with an
 * epilogue launches one column of blocks (@p whole_rows: grid.y = 1),
 * each owning whole rows.
 */
std::string
emitHostWrapper(const std::string &kernel, const char *kind,
                const std::vector<std::string> &terms = {},
                bool whole_rows = false)
{
    std::ostringstream os;
    os << "void " << kernel << "_wrap(torch::Tensor x, torch::Tensor w,\n"
       << "                          torch::Tensor y, HectorGraphArgs g";
    for (const auto &t : terms)
        os << ",\n                          torch::Tensor " << t;
    os << ")\n"
       << "{\n"
       << "    // " << kind << " host wrapper: configure grid/block,\n"
       << "    // extract raw pointers from at::Tensor, launch.\n"
       << "    auto stream = at::cuda::getCurrentCUDAStream();\n"
       << "    dim3 block(16, 16);\n"
       << "    dim3 grid(ceil_div(g.num_rows, 16),\n"
       << (whole_rows ? "              1);  // a block owns whole rows\n"
                      : "              ceil_div(y.size(1), 16));\n")
       << "    " << kernel << "<<<grid, block, 0, stream>>>(\n"
       << "        x.data_ptr<float>(), w.data_ptr<float>(),\n"
       << "        y.data_ptr<float>(), g.etype_ptr, g.row_idx,\n"
       << "        g.col_idx, g.unique_row_idx, g.edge_to_unique,\n"
       << "        g.per_row_scalar, ";
    for (const auto &t : terms)
        os << t << ".data_ptr<float>(), ";
    os << "g.num_types, x.size(1), y.size(1));\n"
       << "    C10_CUDA_KERNEL_LAUNCH_CHECK();\n"
       << "}\n\n";
    return os.str();
}

/** The term tensors of folded GEMM @p gi, in kernel-parameter order. */
std::vector<std::string>
termTensors(const GemmInstance &gi)
{
    std::vector<std::string> out;
    if (!gi.prologue.empty())
        out.push_back(gi.y2Var);
    for (const auto *terms : {&gi.prologue, &gi.epilogue})
        for (const RowWeightVec &t : *terms) {
            out.push_back(t.var);
            out.push_back(t.weight);
        }
    return out;
}

} // namespace

GeneratedCode
generateCode(const Program &fwd, const LoweredFunction &ffn,
             const Program *bwd, const LoweredFunction *bfn)
{
    GeneratedCode out;
    std::ostringstream cuda;
    std::ostringstream host;
    std::ostringstream py;

    cuda << "// Generated by the Hector code generator for model '"
         << fwd.name << "'.\n"
         << "// Two base constructs: the GEMM template (Algorithm 1) and\n"
         << "// the node/edge traversal template (Algorithm 2).\n\n"
         << "#include <cuda_runtime.h>\n"
         << "#include \"hector_device_utils.cuh\"\n\n";
    host << "// Generated host code: wrappers + registration.\n"
         << "#include <torch/extension.h>\n\n";

    std::ostringstream cpu;
    std::ostringstream cpu_table;
    int cpu_entries = 0;
    cpu << "// Host JIT micro-kernels generated for model '" << fwd.name
        << "'.\n"
        << "// Compiled by core/jit with -O3 -ffp-contract=off so each\n"
        << "// kernel reproduces the interpreter's per-element rounding\n"
        << "// while its baked column strips stay in vector registers.\n\n"
        << "extern \"C\" {\n\n"
        << "typedef float hector_v8 __attribute__((vector_size(32)));\n\n"
        << "typedef void (*hector_gemm_fn)(float *, const float *, "
           "float,\n"
        << "                               const float *, long long);\n"
        << "struct hector_jit_entry { int backward; int kid; "
           "hector_gemm_fn fn; };\n\n";

    auto emitCpuFn = [&](const LoweredFunction &fn, bool backward) {
        for (const auto &gi : fn.gemms) {
            if (gi.kind != GemmKind::Linear || gi.dout <= 0)
                continue;
            cpu << emitCpuGemmKernel(gi, backward);
            cpu_table << "    {" << (backward ? 1 : 0) << ", " << gi.kid
                      << ", hector_gemm_" << (backward ? 'b' : 'f')
                      << gi.kid << "},\n";
            ++cpu_entries;
        }
    };

    auto emitFn = [&](const Program &p, const LoweredFunction &fn,
                      const char *tag) {
        cuda << "// ======== " << tag << " ========\n";
        for (const auto &gi : fn.gemms) {
            cuda << emitGemmKernel(p, gi);
            host << emitHostWrapper(gi.name, "GEMM", termTensors(gi),
                                    !gi.epilogue.empty());
        }
        for (const auto &ti : fn.traversals) {
            cuda << emitTraversalKernel(p, ti);
            host << emitHostWrapper(ti.name, "traversal");
        }
        // The merged walk of each split edge loop, which the executor
        // launches instead of its halves where it prices less.
        for (std::size_t i = 0; i < fn.order.size(); ++i) {
            if (!fn.foldsIntoPrevious(i))
                continue;
            const TraversalInstance merged = mergedTraversal(
                p, fn.traversals[fn.order[i - 1].index],
                fn.traversals[fn.order[i].index]);
            cuda << emitTraversalKernel(p, merged);
            host << emitHostWrapper(merged.name, "traversal");
        }
        for (const auto &fi : fn.fallbacks) {
            host << "// fallback (framework BMM + slicing): " << fi.name
                 << "\n"
                 << "torch::Tensor " << fi.name
                 << "_wrap(torch::Tensor a, torch::Tensor b)\n"
                 << "{\n    return torch::bmm(a, b);\n}\n\n";
        }
    };
    emitFn(fwd, ffn, "forward");
    if (bwd && bfn)
        emitFn(*bwd, *bfn, "backward");
    emitCpuFn(ffn, false);
    if (bfn)
        emitCpuFn(*bfn, true);
    // Sentinel keeps the array non-empty for kernel-less models;
    // entry_count excludes it. `extern` is load-bearing: a const
    // object at namespace scope has internal linkage in C++ (even
    // inside an extern "C" block) and would be invisible to dlsym.
    cpu << "extern const hector_jit_entry hector_jit_entries[] = {\n"
        << cpu_table.str() << "    {-1, -1, 0},\n};\n"
        << "extern const int hector_jit_entry_count = " << cpu_entries
        << ";\n\n} // extern \"C\"\n";

    host << "TORCH_LIBRARY_FRAGMENT(hector, m)\n{\n";
    for (const auto &gi : ffn.gemms)
        host << "    m.def(\"" << gi.name << "\", " << gi.name
             << "_wrap);\n";
    for (const auto &ti : ffn.traversals)
        host << "    m.def(\"" << ti.name << "\", " << ti.name
             << "_wrap);\n";
    host << "}\n\n";
    host << "// Preprocessing required by the generated kernels\n"
         << "// (collected by the post-generation scan, Sec. 3.6):\n"
         << "//   - presort edges by type (etype_ptr)\n"
         << "//   - build CSR by destination (in_ptr / in_edge_ids)\n";
    if (bwd)
        host << "//   - transpose weight views for backward GEMMs\n";
    bool uses_compact = false;
    for (const auto &[name, vi] : fwd.vars)
        if (vi.mat == Materialization::Compact)
            uses_compact = true;
    if (uses_compact)
        host << "//   - build unique (src, etype) map "
                "(unique_row_idx / unique_etype_ptr / edge_to_unique)\n";
    if (bfn && std::any_of(bfn->traversals.begin(), bfn->traversals.end(),
                           [](const TraversalInstance &ti) {
                               return ti.group == GroupKey::UniquePair;
                           }))
        host << "//   - list each unique pair's edges "
                "(unique_ptr / unique_eids)\n";

    py << "# Generated autograd bindings for model '" << fwd.name
       << "'.\n"
       << "import torch\n\n\n"
       << "class " << fwd.name << "Function(torch.autograd.Function):\n"
       << "    @staticmethod\n"
       << "    def forward(ctx, feature, *weights):\n";
    for (const auto &step : ffn.order) {
        (void)step;
    }
    for (const auto &gi : ffn.gemms)
        py << "        torch.ops.hector." << gi.name << "(...)\n";
    for (const auto &ti : ffn.traversals)
        py << "        torch.ops.hector." << ti.name << "(...)\n";
    py << "        return h_out\n\n"
       << "    @staticmethod\n"
       << "    def backward(ctx, grad_out):\n";
    if (bfn) {
        for (const auto &gi : bfn->gemms)
            py << "        torch.ops.hector." << gi.name << "(...)\n";
        for (const auto &ti : bfn->traversals)
            py << "        torch.ops.hector." << ti.name << "(...)\n";
    }
    py << "        return tuple(grads)\n";

    out.cudaSource = cuda.str();
    out.hostSource = host.str();
    out.pythonSource = py.str();
    out.cpuSource = cpu.str();
    out.cudaLines = countLines(out.cudaSource);
    out.hostLines = countLines(out.hostSource);
    out.pythonLines = countLines(out.pythonSource);
    out.cpuLines = countLines(out.cpuSource);
    return out;
}

} // namespace hector::core
