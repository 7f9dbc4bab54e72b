/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel
 * results bit-identical to serial, cell for cell), worker-count edge
 * cases, index coverage, error propagation, and the family-stride
 * claim order of runExperiments.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine_pool.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/snapshot.hh"
#include "trace/trace_cache.hh"
#include "result_eq.hh"

namespace
{

using namespace ap;

/** Small operation count: enough to exercise faults and switches. */
constexpr std::uint64_t kOps = 5'000;

TEST(EffectiveJobs, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(effectiveJobs(0), 1u);
    EXPECT_EQ(effectiveJobs(1), 1u);
    EXPECT_EQ(effectiveJobs(7), 7u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    parallelFor(n, 4, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndSingleton)
{
    int calls = 0;
    parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreJobsThanItems)
{
    std::vector<std::atomic<int>> counts(3);
    parallelFor(3, 64, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, PropagatesException)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 37)
                            throw std::runtime_error("cell 37");
                    }),
        std::runtime_error);
}

TEST(ParallelMap, CollectsInIndexOrder)
{
    std::vector<std::size_t> squares =
        parallelMap(50, 4, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(RunExperiments, ParallelMatchesSerialCellForCell)
{
    // A spread of techniques and page sizes; every cell is an
    // independent machine, so jobs must not change any number.
    std::vector<ExperimentSpec> specs;
    for (const char *wl : {"gcc", "dedup", "graph500"}) {
        for (VirtMode mode : {VirtMode::Native, VirtMode::Nested,
                              VirtMode::Shadow, VirtMode::Agile}) {
            ExperimentSpec spec;
            spec.workload = wl;
            spec.mode = mode;
            spec.operations = kOps;
            specs.push_back(spec);
        }
    }

    std::vector<RunResult> serial = runExperiments(specs, 1);
    std::vector<RunResult> parallel = runExperiments(specs, 4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     specs[i].workload + ")");
        expectSameResult(serial[i], parallel[i]);
    }
}

TEST(RunExperiments, MoreJobsThanCells)
{
    std::vector<ExperimentSpec> specs(2);
    specs[0].workload = "astar";
    specs[0].mode = VirtMode::Agile;
    specs[0].operations = kOps;
    specs[1].workload = "astar";
    specs[1].mode = VirtMode::Shadow;
    specs[1].operations = kOps;

    std::vector<RunResult> serial = runExperiments(specs, 1);
    std::vector<RunResult> wide = runExperiments(specs, 16);
    ASSERT_EQ(wide.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(serial[i], wide[i]);
}

TEST(RunExperiments, Figure5MatrixDeterministic)
{
    // The full driver entry point with a tiny operation budget.
    std::vector<RunResult> serial = runFigure5Matrix(1'000, 1);
    std::vector<RunResult> parallel = runFigure5Matrix(1'000, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), figure5Specs().size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(serial[i], parallel[i]);
    }
}

/** Spec indices in the order runExperiments called the CellFn with
 *  @p jobs workers (exactly the claim order at jobs=1). Each call is
 *  checked to receive a reference into @p specs. */
std::vector<std::size_t>
recordClaims(const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    std::mutex mu;
    std::vector<std::size_t> claims;
    std::vector<RunResult> results = runExperiments(
        specs, jobs, [&](const ExperimentSpec &spec) {
            EXPECT_GE(&spec, specs.data());
            EXPECT_LT(&spec, specs.data() + specs.size());
            auto i = static_cast<std::size_t>(&spec - specs.data());
            {
                std::lock_guard<std::mutex> lock(mu);
                claims.push_back(i);
            }
            RunResult r;
            r.instructions = i;
            return r;
        });
    // Results stay in spec order whatever the claim order.
    EXPECT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].instructions, i);
    return claims;
}

TEST(ClaimOrder, Figure5IsFamilyStride)
{
    // 16 families (8 workloads x 2 page sizes) of 4 modes each: at
    // jobs=1, the native cell of every family first, then round by
    // round. At any job count every cell is claimed exactly once.
    std::vector<ExperimentSpec> specs = figure5Specs(1'000);
    ASSERT_EQ(specs.size(), 64u);
    for (unsigned jobs : {1u, 3u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::vector<std::size_t> claims = recordClaims(specs, jobs);
        std::set<std::size_t> unique(claims.begin(), claims.end());
        EXPECT_EQ(claims.size(), specs.size());
        EXPECT_EQ(unique.size(), specs.size());
    }
    std::vector<std::size_t> claims = recordClaims(specs, 1);
    ASSERT_EQ(claims.size(), specs.size());
    for (std::size_t k = 0; k < claims.size(); ++k) {
        EXPECT_EQ(claims[k], (k % 16) * 4 + k / 16) << "claim " << k;
        if (k < 16) {
            EXPECT_EQ(specs[claims[k]].mode, VirtMode::Native);
        }
    }
}

TEST(ClaimOrder, UnevenFamiliesKeepSpecOrderWithinRounds)
{
    // Families: gcc/4K (0, 1, 2), mcf/4K (3), gcc/2M (4, 6), and
    // gcc/4K at another operation count (5).
    std::vector<ExperimentSpec> specs(7);
    for (ExperimentSpec &s : specs) {
        s.workload = "gcc";
        s.operations = kOps;
    }
    specs[3].workload = "mcf";
    specs[4].pageSize = PageSize::Size2M;
    specs[6].pageSize = PageSize::Size2M;
    specs[5].operations = kOps + 1;
    std::vector<std::size_t> expect = {0, 3, 4, 5, 1, 6, 2};
    EXPECT_EQ(recordClaims(specs, 1), expect);
}

TEST(ClaimOrder, SnapshottedMatrixMatchesSerialAtJobs3And4)
{
    // The cached path is where claim order matters: siblings share one
    // recording and one snapshot, whichever cell of a family wins.
    std::vector<RunResult> serial = runFigure5Matrix(1'000, 1);
    for (unsigned jobs : {3u, 4u}) {
        TraceCache traces;
        SnapshotCache snaps;
        MachinePool pool;
        std::vector<RunResult> cached = runFigure5Matrix(
            1'000, jobs, snapshotCellFn(traces, snaps, true, &pool));
        ASSERT_EQ(cached.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " cell " +
                         std::to_string(i));
            expectSameResult(serial[i], cached[i]);
            std::ostringstream a, b;
            writeRunResultJson(a, serial[i]);
            writeRunResultJson(b, cached[i]);
            EXPECT_EQ(a.str(), b.str());
        }
        EXPECT_EQ(traces.records(), 16u);
        EXPECT_EQ(traces.replays(), serial.size() - 16u);
    }
}

} // namespace
