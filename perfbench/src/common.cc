#include "common.hh"

#include "core/jit.hh"

namespace perfbench
{

using namespace hector;

namespace
{

constexpr sim::KernelCategory kCategoryOrder[SimTotals::kCategories] = {
    sim::KernelCategory::Gemm, sim::KernelCategory::Traversal,
    sim::KernelCategory::Index, sim::KernelCategory::Elementwise,
    sim::KernelCategory::Fallback};

constexpr const char *kCategoryNames[SimTotals::kCategories] = {
    "gemm", "traversal", "index", "elementwise", "fallback"};

} // namespace

SimTotals
readSim(const sim::Runtime &rt)
{
    SimTotals s;
    const sim::Counters &c = rt.counters();
    for (int i = 0; i < SimTotals::kCategories; ++i) {
        const sim::CounterBucket b = c.categoryTotal(kCategoryOrder[i]);
        s.launches[i] = static_cast<double>(b.launches);
        s.flops[i] = b.flops;
        s.bytes[i] = b.bytesRead + b.bytesWritten;
        s.fwdSec += c.bucket(kCategoryOrder[i], sim::Phase::Forward).timeSec;
        s.bwdSec +=
            c.bucket(kCategoryOrder[i], sim::Phase::Backward).timeSec;
    }
    return s;
}

SimTotals
subtract(const SimTotals &a, const SimTotals &b)
{
    SimTotals d;
    for (int i = 0; i < SimTotals::kCategories; ++i) {
        d.launches[i] = a.launches[i] - b.launches[i];
        d.flops[i] = a.flops[i] - b.flops[i];
        d.bytes[i] = a.bytes[i] - b.bytes[i];
    }
    d.fwdSec = a.fwdSec - b.fwdSec;
    d.bwdSec = a.bwdSec - b.bwdSec;
    return d;
}

SimTotals
add(const SimTotals &a, const SimTotals &b)
{
    SimTotals d;
    for (int i = 0; i < SimTotals::kCategories; ++i) {
        d.launches[i] = a.launches[i] + b.launches[i];
        d.flops[i] = a.flops[i] + b.flops[i];
        d.bytes[i] = a.bytes[i] + b.bytes[i];
    }
    d.fwdSec = a.fwdSec + b.fwdSec;
    d.bwdSec = a.bwdSec + b.bwdSec;
    return d;
}

void
addSimMetrics(MetricSet &out, const SimTotals &delta, double ops)
{
    const double per = ops > 0.0 ? 1.0 / ops : 0.0;
    for (int i = 0; i < SimTotals::kCategories; ++i) {
        const std::string p = std::string("sim.") + kCategoryNames[i];
        out.set(p + ".launches", delta.launches[i] * per, "count",
                Clock::Modeled, true, "per op");
        out.set(p + ".flops", delta.flops[i] * per, "flop",
                Clock::Modeled, true, "per op");
        out.set(p + ".bytes", delta.bytes[i] * per, "B", Clock::Modeled,
                true, "per op, read + written");
    }
    out.set("sim.fwd_ms", delta.fwdSec * per * 1e3 / kScale, "ms",
            Clock::Modeled, true, "per op, full-size-equivalent");
    out.set("sim.bwd_ms", delta.bwdSec * per * 1e3 / kScale, "ms",
            Clock::Modeled, true, "per op, full-size-equivalent");
}

PlanFacts
primePlan(core::Program program, const core::CompileOptions &options)
{
    PlanFacts f;
    double t0 = nowMs();
    core::CompiledModel plan = core::compile(std::move(program), options);
    f.compileMs = nowMs() - t0;
    f.kernelsFwd = plan.forwardFn.kernelCount();
    f.kernelsBwd = options.training ? plan.backwardFn.kernelCount() : 0;
    {
        t0 = nowMs();
        auto module = core::jit::compileModule(plan.code.cpuSource);
        f.jitCompileMs = nowMs() - t0;
    }
    // The module above is released, so this attach reloads it from
    // the directory just primed.
    t0 = nowMs();
    core::jit::attach(plan);
    f.jitLoadMs = nowMs() - t0;
    return f;
}

core::CompileOptions
crOptions(bool training)
{
    core::CompileOptions o;
    o.compactMaterialization = true;
    o.linearReorder = true;
    o.training = training;
    return o;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
digestTensor(const tensor::Tensor &t, std::uint64_t h)
{
    return digestBytes(t.data(), t.numel() * sizeof(float), h);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fullgraph-infer")
        return makeFullGraph(seed, false);
    if (name == "fullgraph-train")
        return makeFullGraph(seed, true);
    if (name == "serve-drain")
        return makeServeDrain(seed);
    if (name == "online-multi")
        return makeOnlineMulti(seed);
    return nullptr;
}

} // namespace perfbench
