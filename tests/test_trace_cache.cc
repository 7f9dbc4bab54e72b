/**
 * @file
 * Trace cache tests: the bit-identity contract (cached replay, batched
 * or not, reproduces a fresh Workload::step run field for field, for
 * every Table V workload and page size), first-wins memoization under
 * concurrency, and whole-matrix equivalence with and without the
 * cache across jobs settings.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
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

/**
 * The core contract, per workload: for each page size and each
 * virtualized mode (range included), a fresh generated run, the
 * recording run, a batched cached replay, and a per-event cached
 * replay all produce the identical RunResult.
 */
class TraceCacheEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceCacheEquivalence, CachedReplayMatchesFreshRun)
{
    const std::string wl = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        TraceCache cache;
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
            // First mode records (and must equal the fresh run);
            // later modes take the batched replay path.
            RunResult batched =
                runCellCached(cache, wl, params, cfg, true);
            // The key is now warm, so this always replays per-event.
            RunResult unbatched =
                runCellCached(cache, wl, params, cfg, false);

            expectSameResult(fresh, batched);
            expectSameResult(fresh, unbatched);
        }
        // One record per (workload, page size); everything else hit.
        EXPECT_EQ(cache.records(), 1u);
        EXPECT_EQ(cache.replays(), 7u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TraceCacheEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(TraceCache, FirstWinsConcurrent)
{
    TraceCache cache;
    TraceCacheKey key;
    key.workload = "unit";
    key.operations = 123;

    constexpr int kThreads = 8;
    std::atomic<int> recordings{0};
    std::vector<TraceCache::TracePtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = cache.obtain(key, [&] {
                ++recordings;
                // Widen the race window: losers must block, not
                // re-record.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                auto ct = std::make_shared<CompiledTrace>();
                ct->workload = "unit";
                return TraceCache::TracePtr(ct);
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(recordings.load(), 1);
    EXPECT_EQ(cache.records(), 1u);
    EXPECT_EQ(cache.replays(), std::uint64_t(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    }
}

TEST(TraceCache, DistinctKeysRecordIndependently)
{
    TraceCache cache;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceCacheKey key;
        key.workload = "unit";
        key.seed = seed;
        cache.obtain(key, [] {
            return std::make_shared<const CompiledTrace>();
        });
    }
    EXPECT_EQ(cache.records(), 4u);
    EXPECT_EQ(cache.replays(), 0u);
}

TEST(TraceCache, RecordingErrorPropagatesToAllRequesters)
{
    TraceCache cache;
    TraceCacheKey key;
    key.workload = "boom";
    auto bomb = []() -> TraceCache::TracePtr {
        throw std::runtime_error("recording failed");
    };
    EXPECT_THROW(cache.obtain(key, bomb), std::runtime_error);
    // The failure is sticky: later requesters see the stored
    // exception instead of silently re-recording.
    EXPECT_THROW(cache.obtain(
                     key,
                     [] {
                         ADD_FAILURE() << "record ran twice";
                         return std::make_shared<const CompiledTrace>();
                     }),
                 std::runtime_error);
}

TEST(TraceCache, MatrixWithCacheMatchesMatrixWithout)
{
    // The PR 1 guarantee, extended: a parallel matrix *with* the
    // cache is bit-identical to a serial matrix *without* it.
    std::vector<RunResult> plain = runFigure5Matrix(1'000, 1);

    TraceCache cache;
    std::vector<RunResult> cached =
        runFigure5Matrix(1'000, 0, cachedCellFn(cache));

    ASSERT_EQ(plain.size(), cached.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     plain[i].workload + ")");
        expectSameResult(plain[i], cached[i]);
    }
    // 8 workloads x 2 page sizes unique streams; 4 modes share each.
    EXPECT_EQ(cache.records(), 16u);
    EXPECT_EQ(cache.replays(), plain.size() - 16u);
}

} // namespace
