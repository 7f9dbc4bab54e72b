/**
 * @file
 * Warm-state snapshot tests: the bit-identity contract (a measured
 * run forked from a restored snapshot reproduces the cold run field
 * for field, for every Table V workload, page size and shadow-capable
 * mode), the byte-identical re-capture invariant, the APSNAP2 on-disk
 * container (round trip, corruption, truncation), and the snapshot
 * cache's first-wins memoization, sticky errors and disk persistence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/snapshot.hh"
#include "trace/trace_cache.hh"
#include "workloads/workload.hh"
#include "result_eq.hh"

namespace
{

using namespace ap;

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = 20'000;
    p.seed = 11;
    return p;
}

/** A warmed machine frozen at its boundary, plus the workload that
 *  drove it there (still positioned at the boundary). */
struct WarmState
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Workload> workload;
    SnapshotPtr snap;
};

WarmState
warmUp(const std::string &wl, const WorkloadParams &params,
       const SimConfig &cfg)
{
    WarmState w;
    w.workload = makeWorkload(wl, params);
    EXPECT_NE(w.workload, nullptr);
    w.machine = std::make_unique<Machine>(cfg);
    w.machine->runWarmup(*w.workload);
    w.snap = captureSnapshot(*w.machine);
    return w;
}

/**
 * The core contract, per workload: for each page size and each
 * shadow-capable mode, the recording run, a warm-capture run (the
 * snapshot winner continuing its own machine), a forked run (fresh
 * machine restored from the snapshot) and a per-event forked run all
 * produce the identical RunResult as a fresh Workload::step run.
 */
class SnapshotEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SnapshotEquivalence, ForkedRunMatchesColdRun)
{
    const std::string wl = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        for (VirtMode mode : {VirtMode::Nested, VirtMode::Shadow,
                              VirtMode::Agile, VirtMode::Range}) {
            SCOPED_TRACE(wl + " " +
                         (ps == PageSize::Size4K ? "4K" : "2M") +
                         " mode " + std::to_string(int(mode)));
            SimConfig cfg = configFor(mode, ps, params);

            RunResult fresh;
            {
                Machine m(cfg);
                auto w = makeWorkload(wl, params);
                ASSERT_NE(w, nullptr);
                fresh = m.run(*w);
            }

            TraceCache traces;
            SnapshotCache snaps;
            // 1st call records the trace (full cold run, no snapshot).
            RunResult recorded = runCellSnapshotted(
                traces, snaps, wl, params, cfg, true);
            // 2nd call wins the snapshot capture and continues the
            // machine it just warmed.
            RunResult warmed = runCellSnapshotted(traces, snaps, wl,
                                                  params, cfg, true);
            // 3rd call forks: restore + resumeAtBoundary + measured.
            RunResult forked = runCellSnapshotted(traces, snaps, wl,
                                                  params, cfg, true);
            // 4th call forks onto the per-event replay fallback.
            RunResult unbatched = runCellSnapshotted(traces, snaps, wl,
                                                     params, cfg, false);

            expectSameResult(fresh, recorded);
            expectSameResult(fresh, warmed);
            expectSameResult(fresh, forked);
            expectSameResult(fresh, unbatched);
            EXPECT_EQ(snaps.captures(), 1u);
            EXPECT_EQ(snaps.forks(), 2u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SnapshotEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

/**
 * The batched-walk priming pass is a host-side accelerator: with it on
 * or off, a forked batched replay must produce the identical result
 * (and the knob is deliberately outside the snapshot config digest,
 * so the two sharings interoperate on one cache).
 */
TEST(SnapshotEquivalence, BatchedWalkPrimingDoesNotChangeResults)
{
    const WorkloadParams params = smallParams();
    for (const std::string &wl : {std::string("gcc"),
                                  std::string("graph500")}) {
        for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
            SCOPED_TRACE(wl + " " +
                         (ps == PageSize::Size4K ? "4K" : "2M"));
            SimConfig cfg = configFor(VirtMode::Agile, ps, params);
            EXPECT_EQ(simConfigDigest([&] {
                          SimConfig c = cfg;
                          c.batchedWalks = !c.batchedWalks;
                          return c;
                      }()),
                      simConfigDigest(cfg));

            TraceCache traces;
            SnapshotCache snaps;
            cfg.batchedWalks = true;
            RunResult recorded = runCellSnapshotted(
                traces, snaps, wl, params, cfg, true);
            runCellSnapshotted(traces, snaps, wl, params, cfg, true);
            RunResult primed = runCellSnapshotted(traces, snaps, wl,
                                                  params, cfg, true);
            cfg.batchedWalks = false;
            RunResult plain = runCellSnapshotted(traces, snaps, wl,
                                                 params, cfg, true);
            expectSameResult(recorded, primed);
            expectSameResult(recorded, plain);
        }
    }
}

TEST(Snapshot, RestoredMachineRecapturesByteIdentical)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size4K, params);
    WarmState w = warmUp("memcached", params, cfg);

    Machine restored(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, restored));
    SnapshotPtr again = captureSnapshot(restored);

    EXPECT_EQ(w.snap->configDigest, again->configDigest);
    ASSERT_EQ(w.snap->bytes.size(), again->bytes.size());
    EXPECT_EQ(w.snap->bytes, again->bytes);
}

TEST(Snapshot, RestoredRunContinuesWorkloadIdentically)
{
    // Restore into a fresh machine, then let the *same* workload
    // object (still sitting at its boundary) finish there: the result
    // must equal a straight cold run.
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Shadow, PageSize::Size4K, params);

    RunResult cold;
    {
        Machine m(cfg);
        auto w = makeWorkload("mcf", params);
        ASSERT_NE(w, nullptr);
        cold = m.run(*w);
    }

    WarmState w = warmUp("mcf", params, cfg);
    Machine forked(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, forked));
    RunResult r = forked.runMeasured(*w.workload);
    expectSameResult(cold, r);
}

TEST(Snapshot, RestoredStatsTreeDumpsIdentically)
{
    // The whole stats tree travels with the snapshot: a restored
    // machine's JSON dump must be indistinguishable from the source's.
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size2M, params);
    WarmState w = warmUp("canneal", params, cfg);

    Machine restored(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, restored));

    std::ostringstream a, b;
    w.machine->dumpJson(a);
    restored.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Snapshot, ConfigDigestMismatchRejected)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size4K, params);
    WarmState w = warmUp("mcf", params, cfg);

    SimConfig other = cfg;
    other.walkRefCycles += 1;
    EXPECT_NE(simConfigDigest(cfg), simConfigDigest(other));
    Machine m(other);
    EXPECT_FALSE(restoreSnapshot(*w.snap, m));
}

TEST(Snapshot, DigestCoversPolicyKnobs)
{
    SimConfig a;
    SimConfig b = a;
    EXPECT_EQ(simConfigDigest(a), simConfigDigest(b));
    b.policy.writeThreshold += 1;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.shsp.minResidency += 1;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.tlb.l2u4k.entries *= 2;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.mode = VirtMode::Nested;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
}

TEST(Snapshot, FileRoundTrip)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Nested, PageSize::Size4K, params);
    WarmState w = warmUp("graph500", params, cfg);

    const std::string path = testing::TempDir() + "/roundtrip.apsnap";
    ASSERT_TRUE(writeSnapshotFile(*w.snap, path));

    MachineSnapshot loaded;
    ASSERT_TRUE(readSnapshotFile(path, loaded));
    EXPECT_EQ(loaded.configDigest, w.snap->configDigest);
    EXPECT_EQ(loaded.bytes, w.snap->bytes);

    Machine m(cfg);
    ASSERT_TRUE(restoreSnapshot(loaded, m));
    RunResult r = m.runMeasured(*w.workload);
    EXPECT_GT(r.instructions, 0u);
    std::remove(path.c_str());
}

TEST(Snapshot, CorruptAndTruncatedFilesRejected)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Nested, PageSize::Size4K, params);
    WarmState w = warmUp("mcf", params, cfg);

    const std::string path = testing::TempDir() + "/corrupt.apsnap";
    ASSERT_TRUE(writeSnapshotFile(*w.snap, path));

    std::vector<char> raw;
    {
        std::ifstream is(path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_GT(raw.size(), 64u);

    auto writeRaw = [&](const std::vector<char> &bytes) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    };
    MachineSnapshot out;

    // Bad magic.
    std::vector<char> bad = raw;
    bad[0] ^= 0x40;
    writeRaw(bad);
    EXPECT_FALSE(readSnapshotFile(path, out));

    // Flipped payload bit (checksum must catch it).
    bad = raw;
    bad[raw.size() / 2] ^= 0x01;
    writeRaw(bad);
    EXPECT_FALSE(readSnapshotFile(path, out));

    // Truncation at several depths.
    for (std::size_t keep :
         {std::size_t{4}, std::size_t{20}, raw.size() - 9}) {
        bad.assign(raw.begin(),
                   raw.begin() + static_cast<std::ptrdiff_t>(keep));
        writeRaw(bad);
        EXPECT_FALSE(readSnapshotFile(path, out)) << "keep=" << keep;
    }

    // A garbage *payload* that passes the container checks must still
    // be rejected by restore (markers / bounds), not crash.
    MachineSnapshot garbage;
    garbage.configDigest = simConfigDigest(cfg);
    garbage.bytes.assign(1024, 0x5a);
    Machine m(cfg);
    EXPECT_FALSE(restoreSnapshot(garbage, m));

    std::remove(path.c_str());
}

TEST(SnapshotCache, FirstWinsConcurrent)
{
    SnapshotCache cache;
    SnapshotKey key;
    key.workload = "unit";
    key.operations = 123;

    constexpr int kThreads = 8;
    std::atomic<int> captures{0};
    std::vector<SnapshotPtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = cache.obtain(key, [&] {
                ++captures;
                // Widen the race window: losers must block, not
                // re-capture.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                auto s = std::make_shared<MachineSnapshot>();
                s->bytes = {1, 2, 3};
                return SnapshotPtr(s);
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(captures.load(), 1);
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.forks(), std::uint64_t(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    }
}

TEST(SnapshotCache, DistinctKeysCaptureIndependently)
{
    SnapshotCache cache;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        SnapshotKey key;
        key.workload = "unit";
        key.seed = seed;
        cache.obtain(key, [] {
            return std::make_shared<const MachineSnapshot>();
        });
    }
    EXPECT_EQ(cache.captures(), 4u);
    EXPECT_EQ(cache.forks(), 0u);
}

TEST(SnapshotCache, CaptureErrorPropagatesToAllRequesters)
{
    SnapshotCache cache;
    SnapshotKey key;
    key.workload = "boom";
    auto bomb = []() -> SnapshotPtr {
        throw std::runtime_error("capture failed");
    };
    EXPECT_THROW(cache.obtain(key, bomb), std::runtime_error);
    // The failure is sticky: later requesters see the stored
    // exception instead of silently re-capturing.
    EXPECT_THROW(
        cache.obtain(key,
                     [] {
                         ADD_FAILURE() << "capture ran twice";
                         return std::make_shared<const MachineSnapshot>();
                     }),
        std::runtime_error);
}

TEST(SnapshotCache, DirectoryPersistsAcrossInstances)
{
    // A fresh directory: stale files from earlier test runs must not
    // satisfy (or poison) this run's lookups.
    const std::string dir = testing::TempDir() + "/apsnap_cache_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SnapshotKey key;
    key.workload = "persist";
    key.seed = 7;
    key.configDigest = 0xabcdef;

    auto make = [] {
        auto s = std::make_shared<MachineSnapshot>();
        s->configDigest = 0xabcdef;
        s->bytes = {9, 8, 7, 6};
        return SnapshotPtr(s);
    };

    {
        SnapshotCache cache(dir);
        cache.obtain(key, make);
        EXPECT_EQ(cache.captures(), 1u);
        EXPECT_EQ(cache.diskLoads(), 0u);
    }
    {
        // A fresh cache (fresh process, morally) loads from disk and
        // never runs the capture function.
        SnapshotCache cache(dir);
        SnapshotPtr s = cache.obtain(key, []() -> SnapshotPtr {
            ADD_FAILURE() << "captured despite disk copy";
            return std::make_shared<const MachineSnapshot>();
        });
        EXPECT_EQ(cache.captures(), 0u);
        EXPECT_EQ(cache.diskLoads(), 1u);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->bytes, (std::vector<std::uint8_t>{9, 8, 7, 6}));
    }
    {
        // A different config digest is a different key: no stored
        // file matches, so the capture function runs.
        SnapshotCache cache(dir);
        SnapshotKey other = key;
        other.configDigest = 0x123456;
        auto remade = std::make_shared<MachineSnapshot>();
        remade->configDigest = 0x123456;
        SnapshotPtr s =
            cache.obtain(other, [&] { return SnapshotPtr(remade); });
        EXPECT_EQ(cache.captures(), 1u);
        EXPECT_EQ(s, SnapshotPtr(remade));
    }
    std::filesystem::remove_all(dir);
}

TEST(SnapshotCache, MatrixWithSnapshotsMatchesMatrixWithout)
{
    // Whole-matrix equivalence through both caches, in parallel, vs
    // the plain serial matrix.
    std::vector<RunResult> plain = runFigure5Matrix(1'000, 1);

    TraceCache traces;
    SnapshotCache snaps;
    std::vector<RunResult> warm =
        runFigure5Matrix(1'000, 0, snapshotCellFn(traces, snaps));

    ASSERT_EQ(plain.size(), warm.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     plain[i].workload + ")");
        expectSameResult(plain[i], warm[i]);
    }
}

} // namespace
