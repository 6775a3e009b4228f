/**
 * @file
 * Wall-clock benchmark of the parallel cache-blocked execution engine.
 *
 * Unlike every other bench (which reports *modeled* device time), this
 * one measures real host wall time of the end-to-end serving drain —
 * request sampling, micro-batch coalescing, and the executor's kernel
 * bodies — across RGAT/RGCN/HGT at 1/2/4/8 threads, against the seed's
 * single-threaded scalar kernels (no blocking, no arena, per-request
 * allocation), and asserts that every configuration produces
 * bit-identical per-request outputs. Exits nonzero on any divergence:
 * this is the CI perf-smoke gate for the determinism contract of the
 * thread-pool kernels.
 *
 * Seeds the repo's wall-clock perf trajectory in BENCH_exec.json.
 * Thread-count speedups depend on the runner's core count; the
 * recorded `threads` and `speedup_vs_seed` fields make that explicit.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "core/compiler.hh"
#include "core/jit.hh"
#include "obs/trace.hh"
#include "serve/session.hh"
#include "tensor/simd.hh"
#include "util/thread_pool.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

std::int64_t
envInt(const char *name, std::int64_t def)
{
    if (const char *env = std::getenv(name)) {
        const long v = std::atol(env);
        if (v > 0)
            return v;
    }
    return def;
}

struct Config
{
    const char *name;
    bool seedMode;
    int threads;
    bool useArena;
    /** Run with the span tracer recording (obs::setEnabled(true)). */
    bool traced = false;
};

struct RunResult
{
    double wallMs = 0.0;
    /** Concatenated result bytes of the last cycle, for bitwise
     *  comparison across configurations. */
    std::vector<float> outputs;
};

RunResult
runConfig(const Config &c, models::ModelKind m, const BenchGraph &bg,
          const tensor::Tensor &host_features, double scale,
          std::int64_t dim, int requests, int cycles, int reps)
{
    util::setSeedKernelMode(c.seedMode);
    util::setGlobalThreads(c.threads);
    obs::setDeterministic(true);
    obs::setEnabled(c.traced);

    RunResult best;
    for (int rep = 0; rep < reps; ++rep) {
        obs::tracer().clear();
        sim::Runtime rt = makeRuntime(scale);
        serve::ServingConfig cfg;
        cfg.maxBatch = 8;
        cfg.numStreams = 1;
        cfg.din = dim;
        cfg.dout = dim;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        cfg.seed = 1337; // identical request stream per config
        cfg.useArena = c.useArena;
        serve::ServingSession session(bg.g, host_features, modelSource(m),
                                      cfg, rt);

        // Time the drains only: coalescing, the executor's kernel
        // bodies, and result scatter — the paths this engine owns.
        // Request sampling (submit) stays outside the timer; it is
        // identical in every configuration.
        std::vector<std::uint64_t> last_ids;
        double wall_ms = 0.0;
        for (int cyc = 0; cyc < cycles; ++cyc) {
            last_ids.clear();
            for (int i = 0; i < requests; ++i)
                last_ids.push_back(session.submit());
            const auto t0 = std::chrono::steady_clock::now();
            (void)session.drain();
            const auto t1 = std::chrono::steady_clock::now();
            wall_ms +=
                std::chrono::duration<double, std::milli>(t1 - t0).count();
        }

        std::vector<float> outputs;
        for (std::uint64_t id : last_ids) {
            const tensor::Tensor *out = session.result(id);
            if (!out)
                continue;
            outputs.insert(outputs.end(), out->data(),
                           out->data() + out->numel());
        }
        if (rep == 0 || wall_ms < best.wallMs) {
            best.wallMs = wall_ms;
            best.outputs = std::move(outputs);
        }
    }
    obs::setEnabled(false);
    return best;
}

bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/** Wall milliseconds of one call of @p fn(). */
template <typename Fn>
double
wallMs(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/**
 * Roofline section: per-model forward GF/s of the JIT-specialized and
 * generic blocked plans against the scalar seed, gated on
 * bit-identity of both plans against the seed interpreter at 1/2/4
 * threads and on a JIT-attached plan never being slower than the
 * generic blocked path. The packed-panel row kernel's SIMD gate lives
 * in bench_micro_kernels.
 */
bool
rooflineSection(JsonLog &log, const BenchGraph &bg, std::int64_t dim,
                int reps)
{
    namespace simd = tensor::simd;
    bool ok = true;

    std::printf("-- roofline: JIT / generic plans vs scalar seed "
                "(isa=%s, lanes=%d) --\n",
                simd::isaName(), simd::vectorWidth());

    // Whole-model forward: JIT-specialized plan vs generic
    // blocked vs the scalar seed oracle, bit-identical at every
    // thread count; GF/s from the modeled GEMM flop count over
    // measured wall time.
    for (models::ModelKind m : kModels) {
        ModelInputs in = makeInputs(m, bg.g, dim, dim);
        core::CompileOptions opts;
        core::Program prog = models::buildModel(m, bg.g, dim, dim);
        core::CompiledModel generic = core::compile(prog, opts);
        core::CompiledModel jplan = generic;
        const bool attached = core::jit::attach(jplan);

        models::WeightMap grads;
        auto runForward = [&](const core::CompiledModel &plan,
                              bool seed_mode, int threads,
                              double *flops_out) {
            util::setSeedKernelMode(seed_mode);
            util::setGlobalThreads(threads);
            sim::Runtime rt = makeRuntime(1.0);
            core::ExecutionContext ctx;
            ctx.g = &bg.g;
            ctx.cmap = &bg.cmap;
            ctx.rt = &rt;
            ctx.weights = &in.weights;
            ctx.weightGrads = &grads;
            core::bindInputs(plan, ctx, in.feature);
            tensor::Tensor out = plan.forward(ctx);
            if (flops_out)
                *flops_out = static_cast<double>(
                    rt.counters()
                        .categoryTotal(sim::KernelCategory::Gemm)
                        .flops);
            return std::vector<float>(out.data(),
                                      out.data() + out.numel());
        };

        double fwd_flops = 0.0;
        const std::vector<float> oracle =
            runForward(generic, true, 1, &fwd_flops);

        // 3 * reps alternating passes of the three plans: the times
        // reported are each plan's best, and the JIT gate reads the
        // median of the per-pass jit / generic ratios, so a step in
        // host speed between passes moves neither.
        double seed_ms = 0.0;
        double generic_ms = 0.0;
        double jit_ms = 0.0;
        std::vector<double> ratios;
        for (int r = 0; r < 3 * reps; ++r) {
            const double s = wallMs(
                [&]() { (void)runForward(generic, true, 1, nullptr); });
            const double g = wallMs(
                [&]() { (void)runForward(generic, false, 1, nullptr); });
            const double j = wallMs(
                [&]() { (void)runForward(jplan, false, 1, nullptr); });
            seed_ms = r == 0 ? s : std::min(seed_ms, s);
            generic_ms = r == 0 ? g : std::min(generic_ms, g);
            jit_ms = r == 0 ? j : std::min(jit_ms, j);
            ratios.push_back(j / g);
        }
        std::nth_element(ratios.begin(),
                         ratios.begin() + ratios.size() / 2, ratios.end());
        const double jit_ratio = ratios[ratios.size() / 2];

        bool identical = true;
        for (int threads : {1, 2, 4}) {
            identical = identical &&
                        bitIdentical(oracle, runForward(generic, false,
                                                        threads, nullptr));
            identical = identical &&
                        bitIdentical(oracle, runForward(jplan, false,
                                                        threads, nullptr));
        }
        // The JIT gate: a specialized plan must never lose to the
        // generic blocked path (the median per-pass ratio at most
        // 1.10; the margin absorbs timer noise on shared CI runners). Only enforced when a module attached —
        // no-toolchain environments run the fallback by design.
        const bool jit_gate = !attached || jit_ratio <= 1.10;
        ok = ok && identical && jit_gate;

        const core::jit::JitStats js = core::jit::jitStats();
        std::printf("  %s forward: seed %.3f ms, generic %.3f ms, jit%s "
                    "%.3f ms (%.2f GF/s, %.1f%% of seed pace), "
                    "identical@t1/2/4=%s, jit/generic median %.3f, "
                    "jit<=generic=%s\n",
                    models::toString(m), seed_ms, generic_ms,
                    attached ? "" : "(fallback)", jit_ms,
                    fwd_flops / (jit_ms * 1e6),
                    jit_ms > 0.0 ? 100.0 * seed_ms / jit_ms : 0.0,
                    identical ? "yes" : "NO", jit_ratio,
                    jit_gate ? "yes" : "NO");

        char json[640];
        std::snprintf(
            json, sizeof(json),
            "{\"bench\":\"exec_roofline\",\"kernel\":\"%s_forward\","
            "\"isa\":\"%s\",\"lanes\":%d,\"seed_ms\":%.4f,"
            "\"generic_ms\":%.4f,\"jit_ms\":%.4f,"
            "\"jit_over_generic\":%.4f,\"gf_per_s\":%.3f,"
            "\"pct_of_scalar_seed\":%.1f,\"jit_attached\":%s,"
            "\"jit_compiles\":%llu,\"jit_cache_hits\":%llu,"
            "\"jit_fallbacks\":%llu,\"bit_identical\":%s,"
            "\"jit_not_slower\":%s}",
            models::toString(m), simd::isaName(), simd::vectorWidth(),
            seed_ms, generic_ms, jit_ms, jit_ratio,
            fwd_flops / (jit_ms * 1e6),
            jit_ms > 0.0 ? 100.0 * seed_ms / jit_ms : 0.0,
            attached ? "true" : "false",
            static_cast<unsigned long long>(js.compiles),
            static_cast<unsigned long long>(js.cacheHits),
            static_cast<unsigned long long>(js.fallbacks),
            identical ? "true" : "false", jit_gate ? "true" : "false");
        log.record(json);
    }

    util::setSeedKernelMode(false);
    util::setGlobalThreads(0);
    std::printf("\n");
    return ok;
}

} // namespace

int
main()
{
    const double scale = benchScale();
    const std::int64_t dim = benchDim();
    const std::string dataset = []() {
        if (const char *env = std::getenv("HECTOR_SERVE_DATASET"))
            return std::string(env);
        return std::string("bgs");
    }();
    const int requests =
        static_cast<int>(envInt("HECTOR_BENCH_REQUESTS", 32));
    const int cycles = static_cast<int>(envInt("HECTOR_BENCH_CYCLES", 3));
    const int reps = static_cast<int>(envInt("HECTOR_BENCH_REPS", 3));

    std::printf("== Execution engine: wall-clock serving drain vs seed "
                "kernels ==\n");
    std::printf("dataset=%s, dim=%lld, scale=1/%.0f, %d requests x %d "
                "cycles, best of %d, host cores=%u\n\n",
                dataset.c_str(), static_cast<long long>(dim), 1.0 / scale,
                requests, cycles, reps,
                std::thread::hardware_concurrency());

    BenchGraph bg = loadGraph(dataset, scale);
    std::mt19937_64 frng(4242);
    tensor::Tensor host_features =
        tensor::Tensor::uniform({bg.g.numNodes(), dim}, frng, 0.5f);

    // "t1" carries the tracer's disabled-path instrumentation (every
    // hot path checks obs::enabled()), so its delta vs "seed" prices
    // the disabled overhead honestly; "t1-traced" measures the cost of
    // actually recording spans at the same thread count.
    const std::vector<Config> configs = {
        {"seed", true, 1, false},        {"t1", false, 1, true},
        {"t2", false, 2, true},          {"t4", false, 4, true},
        {"t8", false, 8, true},          {"t1-traced", false, 1, true,
                                          true},
    };

    JsonLog log("exec");
    bool all_identical = true;
    double rgat_t1_speedup = 0.0;
    double rgat_t4_speedup = 0.0;

    for (models::ModelKind m : kModels) {
        std::printf("-- %s inference drain --\n", models::toString(m));
        printRow({"config", "threads", "wall-ms", "speedup", "identical"});

        double seed_ms = 0.0;
        double t1_ms = 0.0;
        std::vector<float> seed_outputs;
        for (const Config &c : configs) {
            const RunResult r = runConfig(c, m, bg, host_features, scale,
                                          dim, requests, cycles, reps);
            bool identical = true;
            if (c.seedMode) {
                seed_ms = r.wallMs;
                seed_outputs = r.outputs;
            } else {
                identical = bitIdentical(seed_outputs, r.outputs);
                all_identical = all_identical && identical;
            }
            if (std::strcmp(c.name, "t1") == 0)
                t1_ms = r.wallMs;
            /** Tracing cost vs the same config untraced ("t1"). */
            const double trace_overhead_pct =
                c.traced && t1_ms > 0.0
                    ? (r.wallMs / t1_ms - 1.0) * 100.0
                    : 0.0;
            const double speedup =
                r.wallMs > 0.0 ? seed_ms / r.wallMs : 0.0;
            if (m == models::ModelKind::Rgat) {
                if (std::strcmp(c.name, "t1") == 0)
                    rgat_t1_speedup = speedup;
                if (std::strcmp(c.name, "t4") == 0)
                    rgat_t4_speedup = speedup;
            }

            char b1[32], b2[32], b3[32], b4[32];
            std::snprintf(b1, sizeof(b1), "%d", c.threads);
            std::snprintf(b2, sizeof(b2), "%.2f", r.wallMs);
            std::snprintf(b3, sizeof(b3), "%.2fx", speedup);
            std::snprintf(b4, sizeof(b4), "%s", identical ? "yes" : "NO");
            printRow({c.name, b1, b2, b3, b4});
            if (c.traced)
                std::printf("    tracing-enabled overhead vs t1: "
                            "%+.1f%%\n",
                            trace_overhead_pct);

            char json[512];
            std::snprintf(
                json, sizeof(json),
                "{\"bench\":\"exec_wallclock\",\"dataset\":\"%s\","
                "\"model\":\"%s\",\"config\":\"%s\",\"threads\":%d,"
                "\"requests\":%d,\"cycles\":%d,\"wall_ms\":%.3f,"
                "\"speedup_vs_seed\":%.3f,\"bit_identical\":%s,"
                "\"traced\":%s,\"trace_overhead_pct\":%.2f}",
                dataset.c_str(), models::toString(m), c.name, c.threads,
                requests, cycles, r.wallMs, speedup,
                identical ? "true" : "false",
                c.traced ? "true" : "false", trace_overhead_pct);
            log.record(json);
        }
        std::printf("\n");
    }

    // Restore process-global engine settings for anything running
    // after us in the same process (none today, but cheap insurance).
    util::setSeedKernelMode(false);
    util::setGlobalThreads(0);

    const bool roofline_ok = rooflineSection(log, bg, dim, reps);

    log.write();

    std::printf("RGAT 1-thread blocked+arena vs seed: %.2fx %s\n",
                rgat_t1_speedup,
                rgat_t1_speedup >= 1.3 ? "(meets >= 1.3x)"
                                       : "(below 1.3x target)");
    std::printf("RGAT 4-thread vs seed: %.2fx %s\n", rgat_t4_speedup,
                rgat_t4_speedup >= 2.5
                    ? "(meets >= 2.5x)"
                    : "(below 2.5x target; needs >= 4 host cores)");
    std::printf("bitwise determinism across all configs: %s\n",
                all_identical ? "PASS" : "FAIL");
    std::printf("roofline JIT gates: %s\n",
                roofline_ok ? "PASS" : "FAIL");

    // CI gates: divergence between the single-threaded and any
    // multithreaded/blocked configuration is a correctness bug, and a
    // JIT plan losing to the generic plan is a perf regression.
    return (all_identical && roofline_ok) ? 0 : 1;
}
