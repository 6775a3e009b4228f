#include "driver.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/jit.hh"
#include "tensor/simd.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace hector;

namespace
{

/** Layers timed by spans in the traced run: metric <- span name. */
const struct
{
    const char *metric;
    const char *span;
} kSpanMetrics[] = {
    {"graph.sample_ms", "graph.sample"},
    {"graph.transfer_ms", "graph.transfer"},
    {"serve.plan_lookup_ms", "serve.plan_lookup"},
    {"serve.coalesce_ms", "serve.coalesce"},
    {"serve.execute_batch_ms", "serve.execute_batch"},
    {"core.forward_ms", "core.forward"},
    {"core.backward_ms", "core.backward"},
    {"serve.policy_ms", "serve.policy"},
};

/** The span around the whole OnlineServer::run() (the op itself, not
 *  a layer inside it). */
const char *const kRunSpan = "serve.online.run";

struct PhaseData
{
    std::vector<UnitResult> units;
    /** Wall seconds of each epoch's set-up. */
    std::vector<double> setupS;
    MetricSet snapshot;
    bool snapshotTaken = false;
    std::string error;
};

/**
 * Run whole epochs for @p seconds of wall time, and at least one: each
 * epoch sets the workload up for @p phase (timed into setupS) and runs
 * its epochUnits() units, so every epoch replays the same ops. With
 * @p take_snapshot, the deterministic metrics are read right after the
 * first epoch's prefix. With @p max_units, one epoch stops after that
 * many units (the reference).
 */
PhaseData
runEpochs(Workload &w, Phase phase, SpanLog *spans, double seconds,
          bool take_snapshot, std::size_t max_units = 0)
{
    PhaseData p;
    const std::size_t prefix = static_cast<std::size_t>(w.prefixUnits());
    const std::size_t per_epoch = max_units
                                      ? max_units
                                      : static_cast<std::size_t>(
                                            w.epochUnits());
    const double start = nowMs();
    try {
        do {
            const double t0 = nowMs();
            w.setup(phase);
            p.setupS.push_back((nowMs() - t0) * 1e-3);
            for (std::size_t k = 0; k < per_epoch; ++k) {
                p.units.push_back(w.runUnit(spans));
                if (take_snapshot && p.units.size() == prefix) {
                    w.snapshot(p.snapshot);
                    p.snapshotTaken = true;
                }
            }
        } while (!max_units && nowMs() - start < seconds * 1e3);
    } catch (const std::exception &e) {
        p.error = e.what();
    }
    return p;
}

std::vector<Chunk>
chunksOf(const std::vector<UnitResult> &units)
{
    std::vector<Chunk> chunks;
    for (const UnitResult &u : units)
        chunks.push_back({u.ops - u.failed, u.wallMs});
    return chunks;
}

std::vector<double>
prefixModelLatencies(const std::vector<UnitResult> &units,
                     std::size_t prefix)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < units.size() && i < prefix; ++i)
        out.insert(out.end(), units[i].modelLatencyMs.begin(),
                   units[i].modelLatencyMs.end());
    return out;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

const char *
jitModeName(core::jit::JitMode m)
{
    switch (m) {
      case core::jit::JitMode::Off:
        return "off";
      case core::jit::JitMode::On:
        return "on";
      case core::jit::JitMode::Auto:
        return "auto";
    }
    return "?";
}

std::string
hostFacts(const RunOptions &o)
{
    std::string s = "{";
    auto kv = [&s](const char *k, const std::string &v, bool last = false) {
        s += jsonString(k) + ": " + v + (last ? "" : ", ");
    };
    kv("workload", jsonString(o.workload));
    kv("seed", std::to_string(o.seed));
    kv("trace", o.trace ? "1" : "0");
    kv("nproc", std::to_string(std::thread::hardware_concurrency()));
    kv("isa", jsonString(tensor::simd::isaName()));
    kv("lanes", std::to_string(tensor::simd::vectorWidth()));
    kv("compiler", jsonString(PERFBENCH_COMPILER));
    kv("flags", jsonString(PERFBENCH_CXX_FLAGS));
    kv("build_type", jsonString(PERFBENCH_BUILD_TYPE));
    kv("threads", std::to_string(util::resolveThreads()));
    kv("jit_mode", jsonString(jitModeName(core::jit::jitMode())));
    kv("jit_toolchain", core::jit::toolchainAvailable() ? "true" : "false");
    kv("scale", jsonNumber(kScale));
    kv("dim", std::to_string(kDim), true);
    return s + "}";
}

/** Mean of @p f over @p facts. */
template <typename F>
double
meanOf(const std::vector<PlanFacts> &facts, F f)
{
    double sum = 0.0;
    for (const PlanFacts &p : facts)
        sum += f(p);
    return facts.empty() ? 0.0 : sum / static_cast<double>(facts.size());
}

} // namespace

std::string
parseArgs(const std::vector<std::string> &args, RunOptions &out)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--smoke") {
            out.smoke = true;
            continue;
        }
        if (i + 1 >= args.size())
            return "missing value for " + a;
        const std::string &v = args[++i];
        char *end = nullptr;
        if (a == "--workload") {
            out.workload = v;
        } else if (a == "--seed") {
            out.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                return "bad --seed " + v;
        } else if (a == "--seconds") {
            out.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(out.seconds > 0.0))
                return "bad --seconds " + v;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return "bad --trace " + v;
            out.trace = v == "1";
        } else if (a == "--jit-dir") {
            out.jitDir = v;
        } else if (a == "--metrics") {
            out.metrics.clear();
            std::size_t pos = 0;
            while (pos <= v.size()) {
                const std::size_t comma = std::min(v.find(',', pos), v.size());
                const std::string item = v.substr(pos, comma - pos);
                const std::size_t colon = item.find(':');
                if (colon == std::string::npos || colon == 0)
                    return "bad --metrics item '" + item + "'";
                out.metrics.push_back(
                    {item.substr(0, colon), item.substr(colon + 1)});
                pos = comma + 1;
            }
        } else {
            return "unknown argument " + a;
        }
    }
    if (!makeWorkload(out.workload, out.seed))
        return "unknown --workload '" + out.workload + "'";
    if (out.jitDir.empty())
        return "--jit-dir is required";
    return "";
}

OpCount
countOps(const std::vector<UnitResult> &phase,
         const std::vector<UnitResult> &reference, std::size_t epoch,
         bool repeat)
{
    OpCount c;
    for (std::size_t i = 0; i < phase.size(); ++i) {
        const UnitResult &u = phase[i];
        const auto ops = static_cast<std::uint64_t>(u.ops);
        std::size_t r = epoch ? i % epoch : i;
        if (repeat && !reference.empty())
            r = std::min(r, reference.size() - 1);
        if (r >= reference.size() ||
            u.digests.size() != reference[r].digests.size() ||
            u.report != reference[r].report) {
            c.add(ops, ops);
            continue;
        }
        std::uint64_t failed = static_cast<std::uint64_t>(u.failed);
        for (std::size_t d = 0; d < u.digests.size(); ++d)
            failed += u.digests[d] != reference[r].digests[d] ? 1 : 0;
        c.add(ops, std::min(ops, failed));
    }
    return c;
}

int
runBenchmark(const RunOptions &o)
{
    // Pinned environment: a JIT directory owned by this run, JIT mode,
    // thread count and the fast kernels.
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::exists(o.jitDir, ec) && !fs::is_empty(o.jitDir, ec)) {
        std::fprintf(stderr, "perfbench: --jit-dir %s is not empty\n",
                     o.jitDir.c_str());
        return 2;
    }
    fs::create_directories(o.jitDir, ec);
    const std::string jit_dir = fs::absolute(o.jitDir, ec).string();
    ::setenv("HECTOR_JIT_DIR", jit_dir.c_str(), 1);
    core::jit::setJitMode(core::jit::JitMode::Auto);
    util::setGlobalThreads(kThreads);
    util::setSeedKernelMode(false);

    std::unique_ptr<Workload> w = makeWorkload(o.workload, o.seed);
    const std::string host = hostFacts(o);
    std::printf("HOST %s\n", host.c_str());

    // Prime the run's JIT directory (not part of set-up).
    const std::vector<PlanFacts> facts = w->prime();

    // Timed phases of whole epochs, each with its own timed set-up.
    const double phase_s = o.smoke ? 0.0 : o.trace ? o.seconds / 2 : o.seconds;
    PhaseData untraced =
        runEpochs(*w, Phase::Untraced, nullptr, phase_s, true);
    const double rss_mib = peakRssMiB();

    SpanLog spans;
    PhaseData traced;
    if (o.trace)
        traced = runEpochs(*w, Phase::Traced, &spans, phase_s, false);

    // Seed-interpreter reference: one epoch replays every op either
    // phase ran (with unitsRepeat(), its prefix does).
    const double ref_t0 = nowMs();
    util::setSeedKernelMode(true);
    PhaseData reference = runEpochs(
        *w, Phase::Reference, nullptr, 0.0, true,
        static_cast<std::size_t>(w->unitsRepeat() ? w->prefixUnits()
                                                  : w->epochUnits()));
    util::setSeedKernelMode(false);
    const double ref_s = (nowMs() - ref_t0) * 1e-3;

    // ------------------------------------------------------------ checks
    bool correct = true;
    std::vector<std::string> problems;
    for (const PhaseData *p : {&untraced, &traced, &reference})
        if (!p->error.empty()) {
            correct = false;
            problems.push_back("exception: " + p->error);
        }
    const auto epoch = static_cast<std::size_t>(w->epochUnits());
    OpCount ops =
        countOps(untraced.units, reference.units, epoch, w->unitsRepeat());
    ops.add(
        countOps(traced.units, reference.units, epoch, w->unitsRepeat()));
    if (ops.failed > 0) {
        correct = false;
        problems.push_back(std::to_string(ops.failed) +
                           " ops failed or differ from the seed "
                           "interpreter");
    }
    const std::size_t prefix = static_cast<std::size_t>(w->prefixUnits());
    const std::vector<double> model_lat =
        prefixModelLatencies(untraced.units, prefix);
    if (!untraced.snapshotTaken || !reference.snapshotTaken ||
        untraced.snapshot.deterministicJson() !=
            reference.snapshot.deterministicJson() ||
        model_lat != prefixModelLatencies(reference.units, prefix)) {
        correct = false;
        problems.push_back("deterministic metrics differ between the run "
                           "and the seed-interpreter reference");
    }

    // ----------------------------------------------------------- metrics
    MetricSet m;
    const MetricSet &snap = untraced.snapshot;
    auto fromSnapshot = [&](const std::string &name) {
        if (snap.has(name)) {
            const MetricSet::Metric &s = snap.at(name);
            m.set(name, s.value, s.unit, s.clock, s.deterministic, s.note);
        }
    };
    // Host wall clock of the untraced phase, in both runs: per-layer
    // metrics, since a shared host moves them past any end-to-end bound
    // (README.md).
    m.set("wall.throughput",
          epochThroughput(chunksOf(untraced.units), epoch), "ops/s",
          Clock::Wall, false,
          "median of " + std::to_string(untraced.setupS.size()) +
              " epochs' ops / summed unit wall time");
    std::vector<double> lat;
    for (const UnitResult &u : untraced.units)
        lat.insert(lat.end(), u.latencyMs.begin(), u.latencyMs.end());
    const WindowedTail wall_tail = windowedTail(lat);
    m.set("wall.latency_p50_ms", median(lat), "ms", Clock::Wall, false,
          std::to_string(lat.size()) + " samples");
    m.set("wall.latency_tail_ms", wall_tail.value, "ms", Clock::Wall, false,
          "p" + fmt("%.2f", wall_tail.percentile) + " of " +
              std::to_string(wall_tail.samples) + " samples, median of " +
              std::to_string(wall_tail.windows) + " windows");
    if (!o.trace) {
        m.set("setup_s", median(untraced.setupS), "s", Clock::Wall, false,
              "median of " + std::to_string(untraced.setupS.size()) +
                  " set-ups, one per epoch");
        m.set("peak_rss_mb", rss_mib, "MiB", Clock::Wall, false,
              "getrusage, before the reference run");
        const Tail model_tail = tailOf(model_lat);
        m.set("model_latency_p50_ms", median(model_lat), "ms",
              Clock::Modeled, true,
              "full-size-equivalent, " + std::to_string(model_lat.size()) +
                  " samples");
        m.set("model_latency_tail_ms", model_tail.value, "ms",
              Clock::Modeled, true,
              "p" + fmt("%.2f", model_tail.percentile) + " of " +
                  std::to_string(model_tail.samples) + " samples");
        fromSnapshot("model_slo_attainment");
        // Workloads without request deadlines: an op meets its SLO
        // when it completes with the reference output.
        if (!m.has("model_slo_attainment") && ops.attempted > 0)
            m.set("model_slo_attainment",
                  static_cast<double>(ops.attempted - ops.failed) /
                      static_cast<double>(ops.attempted),
                  "fraction", Clock::Count, true,
                  "no deadline: completed / attempted");
        fromSnapshot("model_peak_mem_mb");
    } else {
        for (const auto &entry : snap.all())
            fromSnapshot(entry.first);
        const double traced_ops = [&]() {
            double n = 0.0;
            for (const UnitResult &u : traced.units)
                n += u.ops;
            return n;
        }();
        for (const auto &sm : kSpanMetrics)
            if (spans.calls(sm.span) > 0)
                m.set(sm.metric, spans.meanMs(sm.span), "ms", Clock::Wall,
                      false,
                      "mean of " + std::to_string(spans.calls(sm.span)) +
                          " calls");
        if (spans.calls(kRunSpan) > 0)
            m.set("serve.online.run_ms_per_req",
                  spans.totalMs(kRunSpan) / traced_ops, "ms", Clock::Wall,
                  false, "run() wall / requests offered");
        if (spans.calls("serve.policy") > 0)
            m.set("serve.policy_calls",
                  static_cast<double>(spans.calls("serve.policy")) /
                      traced_ops,
                  "calls", Clock::Count, false, "per request offered");
        // drain() against the three layers it calls, on the same cycles.
        double self = 0.0;
        std::size_t pairs = 0;
        for (std::size_t i = 0;
             i < untraced.units.size() && i < traced.units.size(); ++i) {
            if (untraced.units[i].innerMs <= 0.0 ||
                traced.units[i].innerMs <= 0.0)
                continue;
            self += untraced.units[i].innerMs - traced.units[i].innerMs;
            ++pairs;
        }
        if (pairs > 0)
            m.set("serve.drain_self_ms", self / static_cast<double>(pairs),
                  "ms", Clock::Wall, false,
                  "drain() minus plan lookup, coalesce, executeBatch; " +
                      std::to_string(pairs) + " cycles");

        m.set("core.compile_ms",
              meanOf(facts, [](const PlanFacts &f) { return f.compileMs; }),
              "ms", Clock::Wall, false, "mean per plan");
        m.set("core.jit.compile_ms",
              meanOf(facts,
                     [](const PlanFacts &f) { return f.jitCompileMs; }),
              "ms", Clock::Wall, false, "mean per plan, empty directory");
        m.set("core.jit.load_ms",
              meanOf(facts, [](const PlanFacts &f) { return f.jitLoadMs; }),
              "ms", Clock::Wall, false, "mean per plan, primed directory");
        double kf = 0.0;
        double kb = 0.0;
        for (const PlanFacts &f : facts) {
            kf += static_cast<double>(f.kernelsFwd);
            kb += static_cast<double>(f.kernelsBwd);
        }
        m.set("core.kernels_fwd", kf, "kernels", Clock::Count, true,
              "summed over " + std::to_string(facts.size()) + " plans");
        m.set("core.kernels_bwd", kb, "kernels", Clock::Count, true,
              "summed over " + std::to_string(facts.size()) + " plans");
        m.set("core.jit.fallbacks",
              static_cast<double>(core::jit::jitStats().fallbacks), "count",
              Clock::Count, true, "whole process");

        const double untraced_tput =
            throughputOf(chunksOf(untraced.units));
        const double traced_tput =
            throughputOf(chunksOf(traced.units));
        m.set("bench.trace_overhead_pct",
              traced_tput > 0.0 ? (untraced_tput / traced_tput - 1.0) * 100
                                : 0.0,
              "%", Clock::Wall, false,
              "untraced vs traced throughput, same inputs");
        double op_ms = 0.0;
        for (const UnitResult &u : traced.units)
            op_ms += u.wallMs;
        m.set("bench.layer_coverage_pct",
              op_ms > 0.0
                  ? 100.0 * (spans.allMs() - spans.totalMs(kRunSpan)) / op_ms
                  : 0.0,
              "%", Clock::Wall, false, "summed layer spans / op wall time");
        bool reports_match = true;
        for (std::size_t i = 0; i < traced.units.size(); ++i)
            reports_match = reports_match && i < reference.units.size() &&
                            traced.units[i].report ==
                                reference.units[i].report;
        if (!reports_match)
            for (const char *name : {"serve.policy_ms", "serve.policy_calls"})
                if (m.has(name))
                    m.set(name, 0.0, m.at(name).unit, Clock::Wall, false,
                          "unmeasured: the wrapped run's report differs "
                          "from the unwrapped one");
    }

    // With --metrics, exactly the declared metrics, in their units.
    if (!o.metrics.empty()) {
        MetricSet out;
        for (const DeclaredMetric &d : o.metrics) {
            if (!m.has(d.name)) {
                // A layer the workload does not run reads 0; an
                // end-to-end metric is always measured.
                if (!o.trace) {
                    correct = false;
                    problems.push_back("end-to-end metric " + d.name +
                                       " was not measured");
                }
                out.set(d.name, 0.0, d.unit, Clock::Count, true,
                        "not run by this workload");
                continue;
            }
            const MetricSet::Metric &v = m.at(d.name);
            if (v.unit != d.unit) {
                correct = false;
                problems.push_back("metric " + d.name + " is in " + v.unit +
                                   ", declared in " + d.unit);
            }
            out.set(d.name, v.value, v.unit, v.clock, v.deterministic,
                    v.note);
        }
        m = out;
    }

    std::printf("\n== perfbench %s, seed %llu, %s ==\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced run (per-layer)" : "untraced run");
    std::printf("units: untraced %zu, traced %zu, reference %zu "
                "(seed interpreter, %.1f s)\n",
                untraced.units.size(), traced.units.size(),
                reference.units.size(), ref_s);
    std::printf("%s", m.table().c_str());
    for (const std::string &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::printf("DETERMINISTIC %s\n", m.deterministicJson().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed),
                m.metricsJson().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace perfbench
