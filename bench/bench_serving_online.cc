/**
 * @file
 * Online-serving benchmark: arrival-relative latency vs offered load,
 * fixed wait-to-fill batching vs adaptive micro-batching.
 *
 * An open-loop Poisson LoadGenerator drives the OnlineServer at a
 * sweep of offered rates expressed as fractions of the server's
 * measured saturation capacity. At every rate both batching policies
 * see the *identical* arrival sequence and the identical sampled
 * request stream, so differences in p99 latency and SLO attainment are
 * purely the policy's. The acceptance comparison: adaptive must beat
 * fixed max-batch on p99 at the lowest offered load (no fill-wait) and
 * stay within 5% of its throughput at the highest (both serve full
 * batches under saturation).
 *
 * Prints the usual fixed-width table plus one JSON record per
 * (policy, rate) for machine consumption; CI uploads the JSON lines
 * as an artifact.
 */

#include "bench_common.hh"

#include "models/model_sources.hh"
#include "serve/online.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

serve::OnlineConfig
baseConfig(std::int64_t dim, double deadline_ms)
{
    serve::OnlineConfig cfg;
    cfg.serving.maxBatch = 8;
    cfg.serving.numStreams = 2;
    cfg.serving.din = dim;
    cfg.serving.dout = dim;
    cfg.serving.sample.numSeeds = 16;
    cfg.serving.sample.fanout = 4;
    cfg.serving.seed = 1337;  // identical request stream per config
    cfg.serving.deadlineMs = deadline_ms;
    cfg.numRequests = 96;
    cfg.arrivalSeed = 0xa221; // identical arrival sequence per config
    return cfg;
}

serve::OnlineReport
runOnce(const BenchGraph &bg, const tensor::Tensor &features, double scale,
        serve::OnlineConfig cfg)
{
    sim::Runtime rt = makeRuntime(scale);
    serve::OnlineServer server(bg.g, features, models::kRgatSource, cfg,
                               rt);
    return server.run();
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

    std::printf("== Online serving: latency/SLO vs offered load, fixed vs "
                "adaptive micro-batching ==\n");

    BenchGraph bg = loadGraph(dataset, scale);
    std::mt19937_64 frng(4242);
    tensor::Tensor features =
        tensor::Tensor::uniform({bg.g.numNodes(), dim}, frng, 0.5f);

    // Calibration probe 1: single-request service time sets the
    // deadline SLO (3x the lone-request latency).
    serve::OnlineConfig probe = baseConfig(dim, 0.0);
    probe.numRequests = 4;
    probe.arrivalRatePerSec = 1.0; // effectively isolated requests
    const serve::OnlineReport lone =
        runOnce(bg, features, scale, probe);
    const double deadline_ms = 3.0 * lone.meanLatencyMs;

    // Calibration probe 2: saturation throughput anchors the rate
    // sweep (offered load as a multiple of capacity).
    serve::OnlineConfig sat = baseConfig(dim, deadline_ms);
    sat.arrivalRatePerSec = 1e9 * scale; // all arrivals ~immediately
    const serve::OnlineReport peak = runOnce(bg, features, scale, sat);
    const double capacity_rps = peak.throughputReqPerSec;

    std::printf("dataset=%s, dim=%lld, scale=1/%.0f, %zu requests, "
                "maxBatch=%zu, streams=%d\n",
                dataset.c_str(), static_cast<long long>(dim), 1.0 / scale,
                baseConfig(dim, 0.0).numRequests,
                baseConfig(dim, 0.0).serving.maxBatch,
                baseConfig(dim, 0.0).serving.numStreams);
    std::printf("calibration: lone-request latency %.4f ms -> deadline "
                "SLO %.4f ms; saturation capacity %.1f req/s (modeled)\n\n",
                lone.meanLatencyMs, deadline_ms, capacity_rps);

    const std::vector<double> load_fractions = {0.05, 0.25, 0.5, 1.0,
                                                2.0};

    printRow({"policy", "load", "rate-rps", "p50-ms", "p95-ms", "p99-ms",
              "slo-att", "mean-b", "req/s"});

    serve::OnlineReport adaptive_low, adaptive_high;
    serve::OnlineReport fixed_low, fixed_high;

    JsonLog log("serving_online");

    for (bool adaptive : {false, true}) {
        const char *policy = adaptive ? "adaptive" : "fixed";
        for (double frac : load_fractions) {
            serve::OnlineConfig cfg = baseConfig(dim, deadline_ms);
            cfg.policy = policy;
            cfg.arrivalRatePerSec = frac * capacity_rps;
            const serve::OnlineReport rep =
                runOnce(bg, features, scale, cfg);

            if (adaptive && frac == load_fractions.front())
                adaptive_low = rep;
            if (adaptive && frac == load_fractions.back())
                adaptive_high = rep;
            if (!adaptive && frac == load_fractions.front())
                fixed_low = rep;
            if (!adaptive && frac == load_fractions.back())
                fixed_high = rep;

            // Full-size-equivalent units, like every bench.
            const double p50 = rep.p50LatencyMs / scale;
            const double p95 = rep.p95LatencyMs / scale;
            const double p99 = rep.p99LatencyMs / scale;
            const double rps = rep.throughputReqPerSec * scale;
            const double rate = rep.offeredRatePerSec * scale;

            char b1[32], b2[32], b3[32], b4[32], b5[32], b6[32], b7[32],
                b8[32], b9[32];
            std::snprintf(b1, sizeof(b1), "%s", policy);
            std::snprintf(b2, sizeof(b2), "%.2fx", frac);
            std::snprintf(b3, sizeof(b3), "%.1f", rate);
            std::snprintf(b4, sizeof(b4), "%.4f", p50);
            std::snprintf(b5, sizeof(b5), "%.4f", p95);
            std::snprintf(b6, sizeof(b6), "%.4f", p99);
            std::snprintf(b7, sizeof(b7), "%.3f", rep.sloAttainment);
            std::snprintf(b8, sizeof(b8), "%.2f", rep.meanBatchSize);
            std::snprintf(b9, sizeof(b9), "%.1f", rps);
            printRow({b1, b2, b3, b4, b5, b6, b7, b8, b9});

            char json[768];
            std::snprintf(
                json, sizeof(json),
                "{\"bench\":\"serving_online\",\"dataset\":\"%s\","
                "\"model\":\"rgat\",\"policy\":\"%s\","
                "\"load_fraction\":%.3f,\"offered_rate_rps\":%.3f,"
                "\"requests\":%zu,\"deadline_ms\":%.6f,"
                "\"p50_latency_ms\":%.6f,\"p95_latency_ms\":%.6f,"
                "\"p99_latency_ms\":%.6f,\"mean_queue_delay_ms\":%.6f,"
                "\"slo_attainment\":%.4f,\"mean_batch\":%.3f,"
                "\"peak_queue_depth\":%zu,\"throughput_rps\":%.3f,"
                "\"ticks\":%zu,\"launches\":%llu}",
                dataset.c_str(), policy, frac,
                rate, rep.requests, deadline_ms / scale, p50, p95, p99,
                rep.meanQueueDelayMs / scale, rep.sloAttainment,
                rep.meanBatchSize, rep.peakQueueDepth, rps, rep.ticks,
                static_cast<unsigned long long>(rep.launches));
            log.record(json);
        }
        std::printf("\n");
    }

    // Acceptance, stated explicitly.
    const bool p99_wins =
        adaptive_low.p99LatencyMs < fixed_low.p99LatencyMs;
    const bool tput_holds = adaptive_high.throughputReqPerSec >=
                            0.95 * fixed_high.throughputReqPerSec;
    std::printf("lowest load (%.2fx): adaptive p99 %.4f ms vs fixed p99 "
                "%.4f ms -> %s\n",
                load_fractions.front(),
                adaptive_low.p99LatencyMs / scale,
                fixed_low.p99LatencyMs / scale,
                p99_wins ? "adaptive wins" : "REGRESSION");
    std::printf("highest load (%.2fx): adaptive %.1f req/s vs fixed %.1f "
                "req/s (%.1f%%) -> %s\n",
                load_fractions.back(),
                adaptive_high.throughputReqPerSec * scale,
                fixed_high.throughputReqPerSec * scale,
                100.0 * adaptive_high.throughputReqPerSec /
                    fixed_high.throughputReqPerSec,
                tput_holds ? "within 5%" : "REGRESSION");
    log.write();
    return p99_wins && tput_holds ? 0 : 1;
}
