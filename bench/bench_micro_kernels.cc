/**
 * @file
 * Wall-clock microbenchmarks of the host kernels the executor runs:
 * the packed-panel GEMM row kernel (tensor/simd rowPanel, the inner
 * loops of every blocked GEMM row in execGemm) and compaction-map
 * construction.
 *
 * Standalone (std::chrono, best-of-N) — no external benchmark
 * dependency. The row kernel runs over the same packed panel in
 * alternating passes of:
 *
 *   portable  the scalar kernel (rowPanelPortable)
 *   simd      the dispatched ISA's register-blocked kernel
 *             (AVX2/NEON; the portable kernel again on other CPUs)
 *
 * Gates (exit nonzero on failure): the two outputs are bit-identical,
 * and where the dispatched ISA has more than one lane the SIMD kernel
 * is at least 1.5x faster than the portable one.
 *
 * Results land in BENCH_kernels.json (util::JsonLog).
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>

#include "graph/compaction.hh"
#include "tensor/block_kernels.hh"
#include "tensor/simd.hh"

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

} // namespace

int
main()
{
    namespace simd = tensor::simd;
    const std::int64_t n = envInt("HECTOR_BENCH_ROWS", 8192);
    const std::int64_t d = 64;
    const int reps = static_cast<int>(envInt("HECTOR_BENCH_REPS", 5));

    std::printf("== Micro-kernels: packed-panel row kernel, portable vs "
                "SIMD (%s, lanes=%d) ==\n",
                simd::isaName(), simd::vectorWidth());
    std::printf("rows=%lld, dim=%lld, best of %d\n\n",
                static_cast<long long>(n), static_cast<long long>(d),
                reps);

    // One d x d weight packed into the panel execGemm streams rows
    // over (the default schedule's k-block covers all of d = 64).
    std::mt19937_64 rng(7);
    tensor::Tensor x = tensor::Tensor::uniform({n, d}, rng, 0.5f);
    tensor::Tensor w = tensor::Tensor::uniform({d, d}, rng, 0.5f);
    std::vector<float> panel(static_cast<std::size_t>(d * d));
    tensor::blocked::packPanel(w.data(), d, false, 0, d, d, panel.data());

    // Every pass starts from a zeroed output, cleared outside the
    // timed region, so the timings hold the row kernel alone.
    auto runRows = [&](auto kernel, tensor::Tensor &y) {
        for (std::int64_t r = 0; r < n; ++r)
            kernel(y.row(r), x.row(r), 1.0f, panel.data(), d, d);
    };
    auto timedPass = [&](auto kernel, tensor::Tensor &y) {
        std::memset(y.data(), 0, y.bytes());
        return wallMs([&]() { runRows(kernel, y); });
    };

    JsonLog log("kernels");
    printRow({"kernel", "portable-ms", "simd-ms", "gf/s", "speedup",
              "identical"}, 19);

    // One warm-up pass of each kernel, then alternating timed passes,
    // so a step in host speed lands on both kernels alike.
    tensor::Tensor portable_out({n, d});
    tensor::Tensor simd_out({n, d});
    timedPass(simd::rowPanelPortable, portable_out);
    timedPass(simd::rowPanel, simd_out);
    double portable_ms = 0.0;
    double simd_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double p = timedPass(simd::rowPanelPortable, portable_out);
        const double v = timedPass(simd::rowPanel, simd_out);
        portable_ms = r == 0 ? p : std::min(portable_ms, p);
        simd_ms = r == 0 ? v : std::min(simd_ms, v);
    }

    const bool identical =
        std::memcmp(portable_out.data(), simd_out.data(),
                    portable_out.bytes()) == 0;
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(d) * static_cast<double>(d);
    const double gfs = simd_ms > 0.0 ? flops / (simd_ms * 1e6) : 0.0;
    const double speedup = simd_ms > 0.0 ? portable_ms / simd_ms : 0.0;
    // A portable-only host has nothing to vectorize with: exempt.
    const bool fast_enough = simd::vectorWidth() <= 1 || speedup >= 1.5;

    char b1[32], b2[32], b3[32], b4[32];
    std::snprintf(b1, sizeof(b1), "%.3f", portable_ms);
    std::snprintf(b2, sizeof(b2), "%.3f", simd_ms);
    std::snprintf(b3, sizeof(b3), "%.2f", gfs);
    std::snprintf(b4, sizeof(b4), "%.2fx", speedup);
    printRow({"row_panel", b1, b2, b3, b4, identical ? "yes" : "NO"}, 19);

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\":\"micro_kernels\",\"kernel\":\"row_panel\","
        "\"rows\":%lld,\"dim\":%lld,\"isa\":\"%s\",\"lanes\":%d,"
        "\"portable_ms\":%.4f,\"simd_ms\":%.4f,\"gf_per_s\":%.3f,"
        "\"simd_speedup\":%.3f,\"bit_identical\":%s,\"gate_1_5x\":%s}",
        static_cast<long long>(n), static_cast<long long>(d),
        simd::isaName(), simd::vectorWidth(), portable_ms, simd_ms, gfs,
        speedup, identical ? "true" : "false",
        fast_enough ? "true" : "false");
    log.record(json);

    // Compaction-map construction (indices only).
    {
        graph::HeteroGraph g =
            graph::generate(graph::datasetSpec("fb15k"), 1.0 / 64.0);
        std::int64_t uniq = 0;
        double ms = 0.0;
        for (int r = 0; r < reps; ++r) {
            const double t = wallMs([&]() {
                graph::CompactionMap cmap(g);
                uniq = cmap.numUnique();
            });
            ms = r == 0 ? t : std::min(ms, t);
        }
        char b5[32];
        std::snprintf(b5, sizeof(b5), "%.3f", ms);
        printRow({"compaction_map", "-", b5, "-", "-", "-"}, 19);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "{\"bench\":\"micro_kernels\","
                      "\"kernel\":\"compaction_map\",\"edges\":%lld,"
                      "\"unique\":%lld,\"wall_ms\":%.4f}",
                      static_cast<long long>(g.numEdges()),
                      static_cast<long long>(uniq), ms);
        log.record(row);
    }

    log.write();

    const bool ok = identical && fast_enough;
    std::printf("\nbit-identity and >= 1.5x SIMD gates: %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
