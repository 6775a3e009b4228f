/**
 * @file
 * Reproduces Table 4: worst / average (geomean) / best speedup of
 * Hector unoptimized and Hector best-optimized over the best prior
 * system, per model, for training and inference, plus the number of
 * datasets on which the Hector variant itself OOMs. The paper's
 * headline facts to reproduce: unoptimized Hector already beats the
 * best prior system everywhere it runs; it OOMs only on RGAT for the
 * two largest graphs; best-optimized Hector never OOMs. Here
 * unoptimized HGT training also OOMs on mag: its packed arena step
 * peaks at 71.6 MiB against the 62.6 MiB scaled capacity, while on
 * wikikg2 it fits at 60.6 MiB.
 */

#include "bench_common.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

struct Agg
{
    std::vector<double> speedups;
    int ooms = 0;

    void
    addRow(double best_prior, const baselines::RunResult &h)
    {
        if (h.oom) {
            ++ooms;
            return;
        }
        if (best_prior > 0.0)
            speedups.push_back(best_prior / h.timeMs);
    }

    std::string
    summary() const
    {
        if (speedups.empty())
            return "n/a";
        double worst = speedups[0];
        double best = speedups[0];
        for (double s : speedups) {
            worst = std::min(worst, s);
            best = std::max(best, s);
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "W=%.2f  M=%.2f  B=%.2f  #OOM=%d", worst,
                      geomean(speedups), best, ooms);
        return buf;
    }
};

} // namespace

int
main()
{
    const double scale = benchScale();
    const std::int64_t dim = benchDim();
    std::printf("== Table 4: Hector speedups over best prior system "
                "(dim=%lld) ==\n",
                static_cast<long long>(dim));

    auto prior = baselines::priorSystems();
    auto unopt = baselines::hectorSystem("");

    for (bool training : {true, false}) {
        std::printf("\n-- %s --\n", training ? "training" : "inference");
        for (models::ModelKind m : kModels) {
            Agg agg_unopt;
            Agg agg_best;
            for (const auto &ds : kDatasets) {
                BenchGraph bg = loadGraph(ds, scale);
                ModelInputs in = makeInputs(m, bg.g, dim, dim);
                double best_prior = 0.0;
                for (const auto &s : prior) {
                    if (!s->supports(m, training))
                        continue;
                    const auto r = measure(*s, m, bg, in, scale, training);
                    if (!r.oom &&
                        (best_prior == 0.0 || r.timeMs < best_prior))
                        best_prior = r.timeMs;
                }
                agg_unopt.addRow(best_prior,
                                 measure(*unopt, m, bg, in, scale,
                                         training));
                agg_best.addRow(best_prior,
                                measureHectorBest(m, bg, in, scale,
                                                  training));
            }
            std::printf("%-5s  unopt:  %s\n", models::toString(m),
                        agg_unopt.summary().c_str());
            std::printf("%-5s  b.opt:  %s\n", models::toString(m),
                        agg_best.summary().c_str());
        }
    }
    return 0;
}
