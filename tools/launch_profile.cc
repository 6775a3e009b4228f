/**
 * @file
 * Per-launch modeled profile of one training step.
 *
 * Runs one C+R core::trainStep of RGCN, RGAT and HGT on the `mag`
 * stand-in (scale 1/256, fixed generator seed, dim 64) on the scaled
 * device model and writes every kernel launch, in launch order, to
 * BENCH_train_launches.json in the working directory:
 *
 *   {"model":"RGAT","phase":"Backward","kernel":"traversal_8",
 *    "category":"Traversal","model_ms":...,"flops":...,
 *    "bytes_read":...,"bytes_written":...,"atomics":...}
 *
 * plus one "total" row per model, and one "memory" row per model:
 *
 *   {"model":"RGAT","phase":"step","kernel":"memory",
 *    "category":"memory","forward_region_bytes":...,
 *    "arena_bytes":...,"peak_bytes":...}
 *
 * the planned forward region (what a forward-only run holds), the
 * step's packed arena, and the modeled device's tracker peak over the
 * step (arena, output, seed gradient and RGCN's edge norm).
 * `model_ms` is the modeled clock
 * scaled to the full-size dataset (launch time / 1/256), as the
 * repository benchmark reports `model_latency_*`; the counts are those
 * of the 1/256 graph. Everything is modeled and deterministic, so the
 * file regenerates byte-identically on any host and any thread count;
 * CI regenerates it and diffs it exactly.
 *
 * Usage: launch_profile   (from the repository root)
 */

#include <cstdio>
#include <random>
#include <string>

#include "core/compiler.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/models.hh"
#include "sim/runtime.hh"
#include "util/json_log.hh"

namespace
{

using namespace hector;

constexpr double kScale = 1.0 / 256.0;
constexpr std::int64_t kDim = 64;

/** One JSON row: @p r's counts, labelled @p phase and @p category. */
std::string
row(const char *model, const char *phase, const char *category,
    const sim::LaunchRecord &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"model\":\"%s\",\"phase\":\"%s\",\"kernel\":\"%s\","
                  "\"category\":\"%s\",\"model_ms\":%.6f,\"flops\":%.1f,"
                  "\"bytes_read\":%.1f,\"bytes_written\":%.1f,"
                  "\"atomics\":%.3f}",
                  model, phase, r.name.c_str(), category,
                  r.timeSec * 1e3 / kScale, r.flops, r.bytesRead,
                  r.bytesWritten, r.atomics);
    return buf;
}

/** The memory row: @p lay's regions and the tracker's @p peak. */
std::string
memoryRow(const char *model, const core::ArenaLayout &lay, std::size_t peak)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"model\":\"%s\",\"phase\":\"step\","
                  "\"kernel\":\"memory\",\"category\":\"memory\","
                  "\"forward_region_bytes\":%zu,\"arena_bytes\":%zu,"
                  "\"peak_bytes\":%zu}",
                  model, lay.forwardBytes, lay.totalBytes, peak);
    return buf;
}

} // namespace

int
main()
{
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("mag"), kScale);
    const graph::CompactionMap cmap(g);
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    opts.training = true;

    util::JsonLog log("train_launches");
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt}) {
        std::mt19937_64 rng(1);
        core::Program p = models::buildModel(mk, g, kDim, kDim);
        models::WeightMap weights = models::initWeights(p, g, rng);
        const tensor::Tensor feature =
            tensor::Tensor::uniform({g.numNodes(), kDim}, rng, 0.5f);
        const core::CompiledModel m = core::compile(std::move(p), opts);

        sim::Runtime rt(sim::makeScaledSpec(kScale));
        rt.setRecordLaunches(true);
        models::WeightMap grads;
        core::ExecutionContext ctx;
        {
            auto scope = rt.memoryScope();
            ctx.reset(&g, &cmap, &rt, &weights, &grads);
            ctx.adoptPlan(&m.memoryPlan);
            core::trainStep(m, ctx, feature);
        }
        const char *model = models::toString(mk);
        sim::LaunchRecord total{"total", sim::KernelCategory::Gemm,
                                sim::Phase::Forward, 0.0};
        for (const auto &r : rt.records()) {
            log.record(row(model, sim::toString(r.phase),
                           sim::toString(r.category), r));
            total.flops += r.flops;
            total.bytesRead += r.bytesRead;
            total.bytesWritten += r.bytesWritten;
            total.atomics += r.atomics;
        }
        // The step's modeled time also holds host overheads outside
        // any launch (fallback dispatch).
        total.timeSec = rt.totalTimeSec();
        log.record(row(model, "step", "all", total));
        log.record(memoryRow(model, ctx.layout(), rt.tracker().peakBytes()));
    }
    return log.write() ? 0 : 1;
}
