#include "core/autotune.hh"

#include <optional>

#include "sim/runtime.hh"

namespace hector::core
{

namespace
{

/** One measured trial of a fully-specified configuration. */
AutotuneEntry
trial(const Program &program, const graph::HeteroGraph &g,
      const std::function<std::map<std::string, tensor::Tensor>()>
          &make_weights,
      const tensor::Tensor &feature, const CompileOptions &opts,
      const std::string &label, const sim::DeviceSpec &device)
{
    AutotuneEntry entry;
    entry.options = opts;
    entry.label = label;

    const CompiledModel compiled = compile(program, opts);
    std::optional<graph::CompactionMap> cmap;
    if (opts.compactMaterialization)
        cmap.emplace(g);

    sim::Runtime rt(device);
    auto scope = rt.memoryScope();
    ExecutionContext ctx;
    ctx.g = &g;
    ctx.cmap = cmap ? &*cmap : nullptr;
    ctx.rt = &rt;
    auto weights = make_weights();
    std::map<std::string, tensor::Tensor> grads;
    ctx.weights = &weights;
    ctx.weightGrads = &grads;

    try {
        if (opts.training) {
            trainStep(compiled, ctx, feature);
        } else {
            bindInputs(compiled, ctx, feature);
            compiled.forward(ctx);
        }
    } catch (const tensor::OomError &) {
        entry.oom = true;
    }
    entry.timeMs = rt.totalTimeMs();
    entry.peakBytes = rt.tracker().peakBytes();
    return entry;
}

std::size_t
bestOf(const std::vector<AutotuneEntry> &entries)
{
    std::size_t best = 0;
    bool found = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].oom)
            continue;
        if (!found || entries[i].timeMs < entries[best].timeMs) {
            best = i;
            found = true;
        }
    }
    return best;
}

} // namespace

std::string
scheduleLabel(const GemmSchedule &sched)
{
    return "t" + std::to_string(sched.tileSz) + "c" +
           std::to_string(sched.coarsening) +
           (sched.launchBounds ? "b" : "");
}

AutotuneReport
autotuneSchedules(const Program &program, const graph::HeteroGraph &g,
                  const std::function<
                      std::map<std::string, tensor::Tensor>()> &make_weights,
                  const tensor::Tensor &feature, const CompileOptions &base,
                  const std::vector<GemmSchedule> &schedules,
                  const sim::DeviceSpec &device)
{
    AutotuneReport report;
    report.entries.push_back(trial(program, g, make_weights, feature, base,
                                   scheduleLabel(base.sched), device));
    for (const auto &sched : schedules) {
        if (sched.tileSz == base.sched.tileSz &&
            sched.coarsening == base.sched.coarsening &&
            sched.launchBounds == base.sched.launchBounds)
            continue;
        CompileOptions o = base;
        o.sched = sched;
        report.entries.push_back(trial(program, g, make_weights, feature,
                                       o, scheduleLabel(sched), device));
    }
    report.bestIndex = bestOf(report.entries);
    return report;
}

AutotuneReport
autotune(const Program &program, const graph::HeteroGraph &g,
         const std::function<std::map<std::string, tensor::Tensor>()>
             &make_weights,
         const tensor::Tensor &feature, const AutotuneSpace &space)
{
    AutotuneReport report;

    std::vector<std::pair<std::string, CompileOptions>> combos;
    {
        CompileOptions base;
        base.training = space.training;
        if (space.optimizationCombos) {
            for (bool c : {false, true}) {
                for (bool r : {false, true}) {
                    CompileOptions o = base;
                    o.compactMaterialization = c;
                    o.linearReorder = r;
                    std::string label =
                        c && r ? "C+R"
                               : (c ? "C" : (r ? "R" : "U"));
                    combos.emplace_back(std::move(label), o);
                }
            }
        } else {
            combos.emplace_back("U", base);
        }
    }

    for (const auto &[label, opts] : combos)
        report.entries.push_back(trial(program, g, make_weights, feature,
                                       opts, label, space.device));
    report.bestIndex = bestOf(report.entries);

    if (space.gemmSchedules && !report.entries[report.bestIndex].oom) {
        const CompileOptions winner =
            report.entries[report.bestIndex].options;
        for (const auto &sched : space.schedules) {
            if (sched.tileSz == winner.sched.tileSz &&
                sched.coarsening == winner.sched.coarsening &&
                sched.launchBounds == winner.sched.launchBounds)
                continue;
            CompileOptions o = winner;
            o.sched = sched;
            const std::string label =
                report.entries[report.bestIndex].label + "/t" +
                std::to_string(sched.tileSz) + "c" +
                std::to_string(sched.coarsening) +
                (sched.launchBounds ? "b" : "");
            report.entries.push_back(trial(program, g, make_weights,
                                           feature, o, label,
                                           space.device));
        }
        report.bestIndex = bestOf(report.entries);
    }
    return report;
}

} // namespace hector::core
