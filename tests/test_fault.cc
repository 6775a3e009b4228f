/**
 * @file
 * Fault-tolerance tests (sim/fault.hh, serve/sharded.hh, the plan
 * cache's signature checks): the deterministic fault-injection matrix
 * {transient flip, whole-device failure} x {RGAT, RGCN, HGT} x
 * {1, 2, 4 devices} x {1, 2, 4 threads}, asserting recovered outputs
 * are bitwise equal to the fault-free oracle and that the same
 * (seed, schedule) replays an identical event log; checksum and
 * plan-signature detection properties; interconnect accounting
 * properties; and the empty-survivor / last-device-standing edge
 * cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "models/model_sources.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace.hh"
#include "serve/online.hh"
#include "serve/plan_cache.hh"
#include "serve/sharded.hh"
#include "sim/device_group.hh"
#include "sim/fault.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

graph::HeteroGraph
servingGraph(double scale = 1.0 / 16.0, const char *dataset = "aifb")
{
    return graph::generate(graph::datasetSpec(dataset), scale, 11);
}

Tensor
hostFeatures(const graph::HeteroGraph &g, std::int64_t dim,
             std::uint64_t seed = 21)
{
    std::mt19937_64 rng(seed);
    return Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
}

serve::ServingConfig
servingConfig(std::int64_t dim = 8)
{
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = dim;
    cfg.dout = dim;
    cfg.sample.numSeeds = 8;
    cfg.sample.fanout = 4;
    cfg.seed = 0x60d;
    return cfg;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.numel() * sizeof(float)),
              0);
}

/** Serve @p requests on @p devices shards and return output clones by
 *  id, optionally under a fault injector and into a flight recorder. */
struct DrainRun
{
    std::map<std::uint64_t, Tensor> outputs;
    serve::ShardedReport report;
};

DrainRun
runDrain(const char *source, int devices, std::size_t requests,
         double duplication_fraction, sim::FaultInjector *fi,
         obs::FlightRecorder *flight = nullptr,
         const char *dataset = "aifb")
{
    const graph::HeteroGraph g = servingGraph(1.0 / 16.0, dataset);
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.duplicationFraction = duplication_fraction;
    sim::DeviceGroup group(devices);
    if (fi)
        group.setFaultInjector(fi);
    serve::ShardedSession session(g, feats, source, cfg, group);
    session.setFlightRecorder(flight);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < requests; ++i)
        ids.push_back(session.submit());
    DrainRun run;
    run.report = session.drain();
    for (std::uint64_t id : ids) {
        const Tensor *out = session.result(id);
        EXPECT_NE(out, nullptr) << "id " << id;
        if (out)
            run.outputs.emplace(id, out->clone());
    }
    return run;
}

// ------------------------------------------------------------ fault matrix

class FaultMatrix : public ::testing::TestWithParam<const char *>
{
};

/** Transient corruption on every device's first batch, full
 *  duplication: every injected fault is detected, the replayed outputs
 *  are bitwise equal to the fault-free oracle, and the injector's
 *  event log is byte-identical across runs and thread counts. */
TEST_P(FaultMatrix, TransientDetectedAndRecoveredBitIdentical)
{
    const char *source = GetParam();
    const std::size_t requests = 12;
    for (int devices : {1, 2, 4}) {
        const DrainRun oracle =
            runDrain(source, devices, requests, 0.0, nullptr);
        ASSERT_EQ(oracle.outputs.size(), requests);

        std::string first_log;
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            sim::FaultSchedule sched;
            for (int d = 0; d < devices; ++d)
                sched.events.push_back(
                    {sim::FaultKind::TransientCorruption, d, 0.0, 1});
            sim::FaultInjector fi(sched);
            const DrainRun run =
                runDrain(source, devices, requests, 1.0, &fi);

            EXPECT_GE(fi.stats().transientsInjected, 1u);
            EXPECT_EQ(fi.stats().detections,
                      fi.stats().transientsInjected);
            EXPECT_EQ(fi.stats().corruptionsEscaped, 0u);
            EXPECT_EQ(run.report.transientsDetected,
                      fi.stats().detections);
            EXPECT_GT(run.report.duplicatesIssued, 0u);
            EXPECT_GT(run.report.duplicationOverheadPct, 0.0);

            ASSERT_EQ(run.outputs.size(), requests);
            for (const auto &[id, out] : oracle.outputs)
                expectBitIdentical(out, run.outputs.at(id));

            if (first_log.empty())
                first_log = fi.logText();
            else
                EXPECT_EQ(first_log, fi.logText())
                    << "event log diverged at " << threads
                    << " threads";
        }
        util::setGlobalThreads(0);
        EXPECT_FALSE(first_log.empty());
    }
}

/** Whole-device failure mid-drain: the lost batches replay on
 *  survivors bit-identically; with a single device the drain throws
 *  instead of serving from a dead group. */
TEST_P(FaultMatrix, DeviceFailureRecoversBitIdentical)
{
    const char *source = GetParam();
    const std::size_t requests = 12;
    for (int devices : {1, 2, 4}) {
        sim::FaultSchedule sched;
        sched.events.push_back({sim::FaultKind::DeviceFailure,
                                devices - 1, 1.0e-9, 1});
        if (devices == 1) {
            sim::FaultInjector fi(sched);
            const graph::HeteroGraph g = servingGraph();
            const Tensor feats = hostFeatures(g, 8);
            serve::ShardedConfig cfg;
            cfg.serving = servingConfig(8);
            sim::DeviceGroup group(1);
            group.setFaultInjector(&fi);
            serve::ShardedSession session(g, feats, source, cfg,
                                          group);
            for (std::size_t i = 0; i < requests; ++i)
                session.submit();
            EXPECT_THROW(session.drain(), std::runtime_error);
            continue;
        }

        const DrainRun oracle =
            runDrain(source, devices, requests, 0.0, nullptr);
        std::string first_log;
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            sim::FaultInjector fi(sched);
            const DrainRun run =
                runDrain(source, devices, requests, 0.0, &fi);

            EXPECT_EQ(fi.stats().failuresInjected, 1u);
            EXPECT_EQ(run.report.devicesFailed, 1);
            ASSERT_EQ(run.outputs.size(), requests);
            for (const auto &[id, out] : oracle.outputs)
                expectBitIdentical(out, run.outputs.at(id));
            // Work the failed device owned either replayed mid-cycle
            // or was rerouted by the pre-serve quarantine.
            if (oracle.report
                    .perDeviceRequests[static_cast<std::size_t>(
                        devices - 1)] > 0) {
                EXPECT_GT(run.report.requestsReplayed +
                              run.report.requestsRerouted,
                          0u);
            }

            if (first_log.empty())
                first_log = fi.logText();
            else
                EXPECT_EQ(first_log, fi.logText())
                    << "event log diverged at " << threads
                    << " threads";
        }
        util::setGlobalThreads(0);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, FaultMatrix,
                         ::testing::Values(models::kRgatSource,
                                           models::kRgcnSource,
                                           models::kHgtSource));

// ------------------------------------------------------- injector basics

TEST(FaultInjector, ScheduleValidationRejectsNonsense)
{
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::TransientCorruption, -1, 0.0, 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::TransientCorruption, 0, 0.0, 0});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::DeviceFailure, 0, -1.0, 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back({sim::FaultKind::DeviceFailure, 0,
                            std::nan(""), 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
}

TEST(FaultInjector, ArmTransientTargetsThePrimaryOrdinal)
{
    sim::FaultSchedule s;
    s.events.push_back({sim::FaultKind::TransientCorruption, 0, 0.0, 2});
    s.events.push_back({sim::FaultKind::TransientCorruption, 1, 0.0, 1});
    sim::FaultInjector fi(s);
    EXPECT_FALSE(fi.armTransient(0)); // ordinal 1
    EXPECT_TRUE(fi.armTransient(0));  // ordinal 2: targeted
    EXPECT_FALSE(fi.armTransient(0)); // event consumed
    EXPECT_TRUE(fi.armTransient(1));
    EXPECT_EQ(fi.batchOrdinal(0), 3u);
    EXPECT_EQ(fi.batchOrdinal(1), 1u);

    fi.reset();
    EXPECT_FALSE(fi.armTransient(0));
    EXPECT_TRUE(fi.armTransient(0));
}

TEST(FaultInjector, FailureScheduleFiresOnceAndIsIdempotent)
{
    sim::FaultSchedule s;
    s.events.push_back({sim::FaultKind::DeviceFailure, 2, 0.5, 1});
    sim::FaultInjector fi(s);
    EXPECT_FALSE(fi.failureDue(2, 0.4));
    EXPECT_TRUE(fi.failureDue(2, 0.5));
    EXPECT_FALSE(fi.isFailed(2));
    fi.markFailed(2, 0.5);
    EXPECT_TRUE(fi.isFailed(2));
    EXPECT_EQ(fi.failedCount(), 1);
    fi.markFailed(2, 0.6); // idempotent
    EXPECT_EQ(fi.stats().failuresInjected, 1u);
    // Fired events stop being due.
    EXPECT_FALSE(fi.failureDue(2, 1.0));
}

// --------------------------------------------------- checksum properties

/** Every injected single-element corruption — randomized positions,
 *  modes and magnitudes, including sign flips and one-ulp steps —
 *  changes the tensor checksum. */
TEST(Checksum, DetectsEveryInjectedCorruption)
{
    sim::FaultSchedule s; // no events needed: corrupt() is direct
    sim::FaultInjector fi(s);
    std::mt19937_64 rng(0xc0de);
    for (int iter = 0; iter < 500; ++iter) {
        const std::int64_t rows = 1 + static_cast<std::int64_t>(
                                          rng() % 7);
        const std::int64_t cols = 1 + static_cast<std::int64_t>(
                                          rng() % 9);
        Tensor t = Tensor::uniform({rows, cols}, rng, 1.0f);
        const std::uint64_t clean = tensor::checksum(t);
        const sim::FaultInjector::Corruption c =
            fi.corrupt(t, 0, 0.0);
        EXPECT_NE(tensor::checksum(t), clean)
            << "iter " << iter << " mode " << c.mode << " index "
            << c.index;
    }
    EXPECT_EQ(fi.stats().transientsInjected, 500u);
}

TEST(Checksum, SignFlipOfZeroAndOneUlpAreVisible)
{
    Tensor t = Tensor::zeros({2, 2});
    const std::uint64_t clean = tensor::checksum(t);
    t.data()[3] = -0.0f; // +0 -> -0: equal under ==, not under bytes
    EXPECT_NE(tensor::checksum(t), clean);

    Tensor u = Tensor::zeros({1, 3});
    u.data()[1] = 1.0f;
    const std::uint64_t base = tensor::checksum(u);
    u.data()[1] = std::nextafterf(1.0f, 2.0f);
    EXPECT_NE(tensor::checksum(u), base);
}

/** 10k clean batches: recomputing the checksum of an untouched (or
 *  cloned) tensor never reports a mismatch — zero false positives. */
TEST(Checksum, NoFalsePositivesOnCleanBatches)
{
    std::mt19937_64 rng(0xfa15e);
    for (int iter = 0; iter < 10000; ++iter) {
        Tensor t = Tensor::uniform({4, 4}, rng, 1.0f);
        const std::uint64_t a = tensor::checksum(t);
        EXPECT_EQ(a, tensor::checksum(t));
        EXPECT_EQ(a, tensor::checksum(t.clone()));
    }
}

/** Served-output checksums are a pure function of the request stream:
 *  identical across 1/2/4 threads (deterministic reductions). */
TEST(Checksum, OutputChecksumsStableAcrossThreadCounts)
{
    std::vector<std::uint64_t> sums;
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        const DrainRun run =
            runDrain(models::kRgatSource, 2, 8, 0.0, nullptr);
        std::uint64_t h = 0;
        for (const auto &[id, out] : run.outputs)
            h ^= tensor::checksum(out) + id;
        sums.push_back(h);
    }
    util::setGlobalThreads(0);
    EXPECT_EQ(sums[0], sums[1]);
    EXPECT_EQ(sums[0], sums[2]);
}

// ----------------------------------------------- plan-signature checks

TEST(PlanSignature, StableAcrossCompilesAndThreadCounts)
{
    const graph::HeteroGraph g = servingGraph();
    const serve::PlanKey key = serve::makePlanKey(
        models::kRgcnSource, 8, 8, core::CompileOptions{}, g);
    std::vector<std::uint64_t> sigs;
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        serve::PlanCache cache;
        auto plan = cache.get(key);
        ASSERT_NE(plan, nullptr);
        sigs.push_back(serve::planSignature(*plan));
        EXPECT_EQ(cache.signatureOf(key), sigs.back());
        EXPECT_NE(sigs.back(), 0u);
    }
    util::setGlobalThreads(0);
    EXPECT_EQ(sigs[0], sigs[1]);
    EXPECT_EQ(sigs[0], sigs[2]);
}

/** A tampered resident plan is caught on the next hit, discarded and
 *  recompiled; the recompiled entry verifies clean afterwards. */
TEST(PlanSignature, TamperedPlanIsDetectedAndRecompiled)
{
    const graph::HeteroGraph g = servingGraph();
    const serve::PlanKey key = serve::makePlanKey(
        models::kRgatSource, 8, 8, core::CompileOptions{}, g);
    serve::PlanCache cache;
    cache.get(key);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.get(key);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().signatureChecks, 1u);
    EXPECT_EQ(cache.stats().signatureMismatches, 0u);

    ASSERT_TRUE(cache.tamperForTest(key));
    cache.get(key);
    EXPECT_EQ(cache.stats().signatureMismatches, 1u);
    EXPECT_EQ(cache.stats().recompiles, 1u);

    cache.get(key);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().signatureMismatches, 1u);
    EXPECT_FALSE(cache.tamperForTest(serve::PlanKey{})); // not resident
}

// ------------------------------------------- interconnect accounting

/** Per-directed-link busy-until clocks are monotone non-decreasing and
 *  completions never precede readiness, under randomized traffic. */
TEST(Interconnect, BusyUntilMonotoneUnderRandomTraffic)
{
    sim::Interconnect ic(4, sim::InterconnectSpec{});
    std::mt19937_64 rng(0x11c);
    std::vector<double> last(16, 0.0);
    double charged = 0.0;
    for (int iter = 0; iter < 2000; ++iter) {
        const int src = static_cast<int>(rng() % 4);
        const int dst = static_cast<int>(rng() % 4);
        const double bytes =
            static_cast<double>(rng() % 1000000);
        const double ready =
            static_cast<double>(rng() % 1000) * 1e-6;
        const double done = ic.transfer(src, dst, bytes, ready);
        EXPECT_GE(done, ready);
        if (src == dst) {
            EXPECT_DOUBLE_EQ(done, ready); // local copy is free
            continue;
        }
        charged += bytes;
        const std::size_t link = static_cast<std::size_t>(src) * 4 +
                                 static_cast<std::size_t>(dst);
        const double busy = ic.linkBusyUntilSec(src, dst);
        EXPECT_DOUBLE_EQ(busy, done);
        EXPECT_GE(busy, last[link]);
        last[link] = busy;
    }
    EXPECT_DOUBLE_EQ(ic.totalBytes(), charged);
}

/** Charging the full-graph halo exchange link by link moves exactly
 *  the bytes graph::haloMatrix predicts. */
TEST(Interconnect, TotalBytesMatchHaloMatrixTotals)
{
    const graph::HeteroGraph g = servingGraph();
    graph::PartitionSpec ps;
    ps.numShards = 4;
    const graph::Partition p = graph::partitionGraph(g, ps);
    const std::vector<std::int64_t> halo = graph::haloMatrix(g, p);
    const double row_bytes = 8.0 * sizeof(float);

    sim::Interconnect ic(4, sim::InterconnectSpec{});
    double expected = 0.0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            const double bytes =
                static_cast<double>(
                    halo[static_cast<std::size_t>(i) * 4 +
                         static_cast<std::size_t>(j)]) *
                row_bytes;
            if (i == j) {
                EXPECT_EQ(bytes, 0.0); // diagonal is zero
                continue;
            }
            ic.transfer(i, j, bytes, 0.0);
            expected += bytes;
        }
    EXPECT_GT(expected, 0.0);
    EXPECT_DOUBLE_EQ(ic.totalBytes(), expected);
}

// --------------------------------------------------------- edge cases

/** Three of four devices quarantined: serving degrades to the last
 *  survivor — queued work re-routes there and a full drain completes
 *  with a finite report (no divide-by-zero, no hang). */
TEST(FaultEdgeCases, LastDeviceStandingServesEverything)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    sim::DeviceGroup group(4);
    serve::ShardedSession session(g, feats, models::kRgcnSource, cfg,
                                  group);

    const DrainRun oracle =
        runDrain(models::kRgcnSource, 4, 10, 0.0, nullptr);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(session.submit());
    std::size_t rerouted = 0;
    for (int d = 1; d < 4; ++d)
        rerouted += session.quarantine(d, 0.0).size();
    EXPECT_EQ(session.aliveCount(), 1);
    EXPECT_EQ(session.queuedOn(0), ids.size());

    const serve::ShardedReport rep = session.drain();
    EXPECT_EQ(rep.requests, ids.size());
    EXPECT_EQ(rep.devicesFailed, 3);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.msPerRequest));
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
    EXPECT_TRUE(std::isfinite(rep.throughputReqPerSec));
    EXPECT_GE(rerouted, 1u);

    // Degraded-mode outputs still match the healthy oracle bitwise.
    for (std::uint64_t id : ids) {
        const Tensor *out = session.result(id);
        ASSERT_NE(out, nullptr);
        expectBitIdentical(oracle.outputs.at(id), *out);
    }

    // Serving a quarantined device directly is an error.
    EXPECT_THROW(session.serveOldestOn(2, 1), std::runtime_error);
}

/** Quarantining the last device with queued work must throw, not hang
 *  or divide by zero. */
TEST(FaultEdgeCases, EmptySurvivorSetThrows)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    sim::DeviceGroup group(4);
    serve::ShardedSession session(g, feats, models::kRgatSource, cfg,
                                  group);
    for (int i = 0; i < 8; ++i)
        session.submit();
    for (int d = 0; d < 3; ++d)
        session.quarantine(d, 0.0);
    EXPECT_THROW(session.quarantine(3, 0.0), std::runtime_error);
    // Submitting to a fully dead group throws too (routing has no
    // candidate), rather than queueing work that can never be served.
    EXPECT_THROW(session.submit(), std::runtime_error);
}

/** Every request of the failed device replayed after its deadline:
 *  the report stays finite and SLO attainment stays within [0, 1]. */
TEST(FaultEdgeCases, ReportFiniteWhenAllReplaysMissDeadline)
{
    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, 1, 1.0e-9, 1});
    sim::FaultInjector fi(sched);

    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.deadlineMs = 1.0e-6; // everything is late
    sim::DeviceGroup group(2);
    group.setFaultInjector(&fi);
    serve::ShardedSession session(g, feats, models::kHgtSource, cfg,
                                  group);
    for (int i = 0; i < 10; ++i)
        session.submit();
    const serve::ShardedReport rep = session.drain();
    EXPECT_EQ(rep.requests, 10u);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
    EXPECT_TRUE(std::isfinite(rep.p99LatencyMs));
    EXPECT_TRUE(std::isfinite(rep.meanQueueDelayMs));
    EXPECT_GE(rep.sloAttainment, 0.0);
    EXPECT_LE(rep.sloAttainment, 1.0);
}

/** Time of the last event named @p what in @p id's timeline on
 *  @p device (-1 when there is none). */
double
lastEventSec(const obs::FlightRecorder &fr, std::uint64_t id,
             const char *what, int device)
{
    double t = -1.0;
    if (const auto *tl = fr.timeline(id))
        for (const obs::FlightEvent &e : *tl)
            if (e.what == what && e.device == device)
                t = std::max(t, e.tSec);
    return t;
}

bool
wasReplayed(const obs::FlightRecorder &fr, std::uint64_t id)
{
    if (const auto *tl = fr.timeline(id))
        for (const obs::FlightEvent &e : *tl)
            if (e.what == "replay")
                return true;
    return false;
}

/** A survivor that fails while it serves replays loses them to a
 *  further wave. Device 3 of a bgs RGAT drain fails at half the
 *  fault-free makespan; a survivor that takes replays fails inside
 *  its replay wave, after every first-wave batch has finished. No
 *  request may complete on a device after its failure, both failures
 *  are counted, and outputs and the fault log stay deterministic. */
TEST(FaultEdgeCases, SurvivorFailingInTheReplayWaveLosesItsReplays)
{
    const char *source = models::kRgatSource;
    const int devices = 4;
    const std::size_t requests = 32;
    obs::FlightRecorder clean_fr(4096);
    const DrainRun oracle = runDrain(source, devices, requests, 0.0,
                                     nullptr, &clean_fr, "bgs");
    ASSERT_EQ(oracle.outputs.size(), requests);
    const std::uint64_t first_id = oracle.outputs.begin()->first;
    const double base = clean_fr.timeline(first_id)->front().tSec;
    const double t3 = base + oracle.report.makespanMs * 1e-3 / 2.0;

    // Locate the replay wave of a one-failure run: the first wave ends
    // with its last completion, and the survivor with the latest
    // replay completion serves replays from its `replay` event on.
    sim::FaultSchedule one;
    one.events.push_back({sim::FaultKind::DeviceFailure, 3, t3, 1});
    sim::FaultInjector one_fi(one);
    obs::FlightRecorder one_fr(4096);
    const DrainRun probe = runDrain(source, devices, requests, 0.0,
                                    &one_fi, &one_fr, "bgs");
    ASSERT_EQ(probe.report.devicesFailed, 1);
    double wave1_end = t3;
    int survivor = -1;
    double replay_start = 0.0;
    double replay_end = 0.0;
    for (const auto &[id, out] : probe.outputs) {
        const bool replayed = wasReplayed(one_fr, id);
        for (int d = 0; d < devices - 1; ++d) {
            const double done = lastEventSec(one_fr, id, "completion", d);
            if (done < 0.0)
                continue;
            if (!replayed) {
                wave1_end = std::max(wave1_end, done);
            } else if (done > replay_end) {
                replay_end = done;
                survivor = d;
                replay_start = lastEventSec(one_fr, id, "replay", d);
            }
        }
    }
    ASSERT_GE(survivor, 0) << "no request replayed";
    const double lo = std::max(wave1_end, replay_start);
    ASSERT_LT(lo, replay_end) << "replay wave overlaps the first wave";
    const double t_second = lo + (replay_end - lo) / 2.0;

    sim::FaultSchedule two = one;
    two.events.push_back(
        {sim::FaultKind::DeviceFailure, survivor, t_second, 1});
    std::map<int, double> fail_at{{3, t3}, {survivor, t_second}};
    std::string first_log;
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        sim::FaultInjector fi(two);
        obs::FlightRecorder fr(4096);
        const DrainRun run =
            runDrain(source, devices, requests, 0.0, &fi, &fr, "bgs");

        EXPECT_EQ(run.report.devicesFailed, 2);
        EXPECT_EQ(fi.stats().failuresInjected, 2u);
        EXPECT_EQ(run.report.requests, requests);
        for (const auto &[id, out] : oracle.outputs) {
            for (const auto &[d, tf] : fail_at) {
                const double done = lastEventSec(fr, id, "completion", d);
                EXPECT_LE(done, tf) << "request " << id
                                    << " completed on dead device " << d;
            }
            ASSERT_EQ(run.outputs.count(id), 1u) << "id " << id;
            expectBitIdentical(out, run.outputs.at(id));
        }

        if (first_log.empty())
            first_log = fi.logText();
        else
            EXPECT_EQ(first_log, fi.logText())
                << "event log diverged at " << threads << " threads";
    }
    util::setGlobalThreads(0);
}

/** A request lost mid-cycle reads reroute -> replay -> batch-join ->
 *  exec-start -> (all-gather off the root) -> completion after its
 *  `lost` event, and a traced drain shows its batch span on the
 *  survivor. */
TEST(FaultEdgeCases, ReplayedRequestHasTheFullLifecycle)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    const DrainRun oracle =
        runDrain(models::kRgcnSource, 4, 16, 0.0, nullptr);

    sim::FaultSchedule sched;
    sched.events.push_back({sim::FaultKind::DeviceFailure, 3, 1.0e-9, 1});
    sim::FaultInjector fi(sched);
    sim::DeviceGroup group(4);
    group.setFaultInjector(&fi);
    serve::ShardedSession session(g, feats, models::kRgcnSource, cfg,
                                  group);
    obs::FlightRecorder fr(4096);
    session.setFlightRecorder(&fr);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(session.submit());

    obs::setEnabled(true);
    obs::setDeterministic(true);
    obs::tracer().clear();
    const serve::ShardedReport rep = session.drain();
    obs::setEnabled(false);
    const std::string trace = obs::tracer().exportJson();
    obs::tracer().clear();
    ASSERT_EQ(rep.requests, ids.size());
    ASSERT_EQ(rep.devicesFailed, 1);

    std::size_t replayed = 0;
    for (std::uint64_t id : ids) {
        const std::vector<obs::FlightEvent> &tl = *fr.timeline(id);
        auto lost = std::find_if(tl.begin(), tl.end(),
                                 [](const obs::FlightEvent &e) {
                                     return e.what == "lost";
                                 });
        if (lost == tl.end())
            continue;
        ++replayed;
        std::vector<std::string> steps;
        for (auto it = lost + 1; it != tl.end(); ++it)
            if (it->what != "halo")
                steps.push_back(it->what);
        const int survivor = tl.back().device;
        EXPECT_NE(survivor, 3);
        std::vector<std::string> want{"reroute", "replay", "batch-join",
                                      "exec-start"};
        if (survivor != session.root())
            want.push_back("all-gather");
        want.push_back("completion");
        EXPECT_EQ(steps, want) << "request " << id;

        for (auto it = lost + 1; it != tl.end(); ++it) {
            EXPECT_EQ(it->device, survivor) << it->what;
            if (it->what != "exec-start")
                continue;
            char span[160];
            std::snprintf(span, sizeof span,
                          "{\"name\":\"batch\",\"cat\":\"serve\",\"ph\":"
                          "\"X\",\"pid\":%d,\"tid\":%s,\"ts\":%.3f,",
                          survivor, it->detail.substr(7).c_str(),
                          it->tSec * 1e6);
            EXPECT_NE(trace.find(span), std::string::npos)
                << "no batch span " << span;
        }
        expectBitIdentical(oracle.outputs.at(id), *session.result(id));
    }
    EXPECT_GT(replayed, 0u);
    EXPECT_EQ(rep.requestsReplayed, replayed);
}

// -------------------------------------------------- duplication sampling

/** Error-diffusion sampling duplicates within one batch of the exact
 *  fraction, with no RNG. */
TEST(Duplication, SamplingTracksConfiguredFraction)
{
    const DrainRun run =
        runDrain(models::kRgcnSource, 2, 16, 0.5, nullptr);
    EXPECT_GT(run.report.batches, 0u);
    const double expect =
        0.5 * static_cast<double>(run.report.batches);
    EXPECT_LE(std::abs(static_cast<double>(
                  run.report.duplicatesIssued) -
              expect),
              1.0);
    EXPECT_EQ(run.report.transientsDetected, 0u); // clean run
    EXPECT_GT(run.report.duplicationOverheadPct, 0.0);
    EXPECT_LT(run.report.duplicationOverheadPct, 100.0);
}

// -------------------------------------------------------- online failure

/** A device failure under open-loop load: the server quarantines it,
 *  keeps serving on survivors, and outputs stay bit-identical to the
 *  fault-free online run. */
TEST(OnlineFaults, DeviceFailureServesAllRequestsBitIdentical)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::OnlineConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.seed = 0x777;
    cfg.arrivalRatePerSec = 3000.0;
    cfg.numRequests = 24;
    cfg.retainResults = true;

    sim::DeviceGroup oracle_group(4);
    serve::OnlineServer oracle(g, feats, models::kRgatSource, cfg,
                               oracle_group);
    oracle.run();

    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, 1, 1.0e-9, 1});
    sim::FaultInjector fi(sched);
    sim::DeviceGroup group(4);
    group.setFaultInjector(&fi);
    serve::OnlineServer server(g, feats, models::kRgatSource, cfg,
                               group);
    const serve::OnlineReport rep = server.run();

    EXPECT_EQ(rep.requests, 24u);
    EXPECT_EQ(rep.devicesFailed, 1);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.p99LatencyMs));
    for (std::uint64_t id = 1; id <= 24; ++id) {
        const Tensor *a = oracle.sharded().result(id);
        const Tensor *b = server.sharded().result(id);
        ASSERT_NE(a, nullptr) << "id " << id;
        ASSERT_NE(b, nullptr) << "id " << id;
        expectBitIdentical(*a, *b);
    }
}

} // namespace
