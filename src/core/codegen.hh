/**
 * @file
 * CUDA-style source emission (paper Sec. 3.6).
 *
 * Hector's code generator emits one CUDA kernel per instance plus a
 * host wrapper that configures the launch, extracts raw pointers and
 * registers the function with the framework. In this reproduction the
 * emitted text is not compiled by nvcc (no GPU in the environment);
 * it is generated from the *same* intra-operator IR the interpreter
 * executes, is asserted against in tests, and provides the
 * lines-of-code measurements of the paper's Sec. 4.1.
 */

#ifndef HECTOR_CORE_CODEGEN_HH
#define HECTOR_CORE_CODEGEN_HH

#include <string>

#include "core/inter_op_ir.hh"
#include "core/intra_op_ir.hh"

namespace hector::core
{

/** Generated source artifacts and their sizes. */
struct GeneratedCode
{
    std::string cudaSource;   ///< __global__ kernels
    std::string hostSource;   ///< host wrappers + registration
    std::string pythonSource; ///< autograd.Function subclasses
    /** Compilable C++ micro-kernels for the host JIT backend: one
     *  extern "C" row kernel per GEMM instance with dout baked as a
     *  constant, plus the registration table core/jit dlopens. */
    std::string cpuSource;
    int cudaLines = 0;
    int hostLines = 0;
    int pythonLines = 0;
    int cpuLines = 0;
};

/** Emit the CUDA kernel for one GEMM-template instance. */
std::string emitGemmKernel(const Program &p, const GemmInstance &gi);

/**
 * Emit the host C++ row micro-kernel for one GEMM-template instance:
 * the inner (kk, j) loops of the blocked path with dout a constant,
 * in the seed's kk-ascending zero-skipping accumulation order, each
 * column strip held in vector registers across kk. The JIT compile
 * line passes -ffp-contract=off, so the compiled kernel is
 * bit-identical to the interpreter at any vector width.
 */
std::string emitCpuGemmKernel(const GemmInstance &gi, bool backward);

/** Emit the CUDA kernel for one traversal-template instance. */
std::string emitTraversalKernel(const Program &p,
                                const TraversalInstance &ti);

/**
 * Emit all source for a compiled model (forward and, optionally,
 * backward function).
 */
GeneratedCode generateCode(const Program &fwd, const LoweredFunction &ffn,
                           const Program *bwd, const LoweredFunction *bfn);

} // namespace hector::core

#endif // HECTOR_CORE_CODEGEN_HH
