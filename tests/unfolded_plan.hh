/**
 * @file
 * A test-only plan construction: a compiled model as lowered without
 * the GEMM epilogue and prologue folds (core::foldGemmEpilogues and
 * core::foldGemmPrologues), the reference the folded plans are
 * compared against.
 */

#ifndef HECTOR_TESTS_UNFOLDED_PLAN_HH
#define HECTOR_TESTS_UNFOLDED_PLAN_HH

#include "core/compiler.hh"

namespace hector::test
{

/**
 * @p m with both directions lowered again from its transformed
 * programs and no fold run, then memory-planned and code-generated.
 * Lowering reads the virtual materializations compile() marked, so
 * every instance equals the one compile() lowered before folding, and
 * kernel ids (and so names) are the same.
 */
inline core::CompiledModel
withoutGemmFolds(core::CompiledModel m)
{
    core::LowerOptions lopts;
    lopts.fuseGemmScatter = m.options.fuseGemmScatter;
    lopts.sched = m.options.sched;
    m.forwardFn = core::lower(m.forwardProgram, lopts, sim::Phase::Forward);
    core::Program *bwd = nullptr;
    core::LoweredFunction *bfn = nullptr;
    if (m.options.training) {
        m.backwardFn = core::lower(
            m.backwardProgram, lopts, sim::Phase::Backward,
            static_cast<int>(m.forwardFn.kernelCount()) + 1);
        bwd = &m.backwardProgram;
        bfn = &m.backwardFn;
    }
    m.memoryPlan = core::planMemory(m.forwardProgram, m.forwardFn, bwd, bfn);
    m.code = core::generateCode(m.forwardProgram, m.forwardFn, bwd, bfn);
    return m;
}

} // namespace hector::test

#endif // HECTOR_TESTS_UNFOLDED_PLAN_HH
