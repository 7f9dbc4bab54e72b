/**
 * @file
 * Trace subsystem tests: recording fidelity, serialization round-trip,
 * and the key methodology property — replaying a captured trace on an
 * identically configured machine reproduces the original measurements
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "trace/trace_stream.hh"
#include "trace/walk_trace.hh"
#include "workloads/workload.hh"

namespace ap
{
namespace
{

SimConfig
testConfig(VirtMode mode)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = 1 << 16;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 15;
    return cfg;
}

WorkloadParams
testParams()
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = 40'000;
    p.seed = 11;
    return p;
}

/** Replay @p t event by event, the reference the batched path is
 *  checked against. */
BatchReplayWorkload
perEventReplay(const Trace &t)
{
    return BatchReplayWorkload(
        std::make_shared<const CompiledTrace>(compileTrace(t)), false);
}

TEST(Trace, SerializationRoundTrip)
{
    Trace t;
    t.workload = "unit";
    t.seed = 99;
    t.warmupEvents = 1;
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::MmapAt, 0x10000, 0x4000, 7, true,
                   true});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x10123, 0, 0, true, false});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});

    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    Trace back;
    ASSERT_TRUE(readTrace(ss, back));
    EXPECT_EQ(back.workload, "unit");
    EXPECT_EQ(back.seed, 99u);
    EXPECT_EQ(back.warmupEvents, 1u);
    ASSERT_EQ(back.events.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(back.events[i], t.events[i]);
}

TEST(Trace, RejectsGarbage)
{
    std::stringstream ss;
    ss << "not a trace at all";
    Trace t;
    EXPECT_FALSE(readTrace(ss, t));
}

TEST(Trace, FileRoundTrip)
{
    Trace t;
    t.workload = "filetest";
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x1000, 0, 0, false, false});
    std::string path = ::testing::TempDir() + "ap_trace_test.bin";
    ASSERT_TRUE(writeTraceFile(t, path));
    Trace back;
    ASSERT_TRUE(readTraceFile(path, back));
    EXPECT_EQ(back.events.size(), 1u);
    std::remove(path.c_str());
}

TEST(Trace, RecorderCapturesResolvedBases)
{
    Machine m(testConfig(VirtMode::Nested));
    m.spawnProcess();
    TraceRecorder rec(m);
    Addr base = rec.mmap(4 * kPageBytes, true, false, 0);
    rec.access(base + 0x1000, true);
    rec.munmap(base, 4 * kPageBytes);
    const Trace &t = rec.trace();
    ASSERT_EQ(t.events.size(), 3u);
    EXPECT_EQ(t.events[0].kind, TraceEvent::Kind::MmapAt);
    EXPECT_EQ(t.events[0].addr, base);
    EXPECT_EQ(t.events[1].addr, base + 0x1000);
    EXPECT_EQ(t.events[2].kind, TraceEvent::Kind::Munmap);
}

TEST(Trace, ReplayReproducesRunExactly)
{
    // Record dedup (churny: exercises mmapAt/munmap/yield paths).
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Agile));
        auto w = makeWorkload("dedup", params);
        recorded = recordRun(m, *w);
    }
    ASSERT_GT(recorded.trace.events.size(), 0u);

    // Replay on a fresh, identically configured machine.
    Machine m2(testConfig(VirtMode::Agile));
    BatchReplayWorkload replay = perEventReplay(recorded.trace);
    RunResult replayed = m2.run(replay);

    EXPECT_EQ(replayed.tlbMisses, recorded.result.tlbMisses);
    EXPECT_EQ(replayed.walks, recorded.result.walks);
    EXPECT_EQ(replayed.walkCycles, recorded.result.walkCycles);
    EXPECT_EQ(replayed.trapCycles, recorded.result.trapCycles);
    EXPECT_EQ(replayed.guestPageFaults,
              recorded.result.guestPageFaults);
}

TEST(Trace, WritesV2ByDefault)
{
    Trace t;
    t.workload = "v2";
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x1000, 0, 0, false, false});
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    EXPECT_EQ(ss.str().substr(0, 8), "APTRACE2");
}

/** A synthetic trace mixing runs, control events, and fetches, with
 *  the warmup boundary landing mid-run. */
Trace
mixedTrace()
{
    Trace t;
    t.workload = "mixed";
    t.seed = 5;
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::MmapAt, 0x40000, 0x40000, 0, true,
                   false});
    for (int i = 0; i < 100; ++i) {
        TraceEvent e;
        if (i % 7 == 3) {
            e.kind = TraceEvent::Kind::InstrFetch;
            e.addr = 0x40000 + i * 64;
        } else {
            e.kind = TraceEvent::Kind::Access;
            e.addr = 0x40000 + i * 8;
            e.flag = (i % 3) == 0;
        }
        t.events.push_back(e);
    }
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});
    for (int i = 0; i < 50; ++i) {
        t.events.push_back(TraceEvent{TraceEvent::Kind::Access,
                                      Addr(0x48000 + i * 16), 0, 0,
                                      i % 2 == 0, false});
    }
    t.warmupEvents = 60; // mid-run boundary
    return t;
}

TEST(CompiledTrace, CompileDecompileIsExact)
{
    Trace t = mixedTrace();
    CompiledTrace c = compileTrace(t);
    EXPECT_EQ(c.eventCount, t.events.size());
    EXPECT_EQ(c.warmupEvents, t.warmupEvents);
    // The boundary falls between ops: warmup-op prefix covers exactly
    // warmupEvents events.
    std::uint64_t prefix = 0;
    for (std::uint64_t o = 0; o < c.warmupOps; ++o) {
        prefix += c.ops[o].kind == TraceEvent::Kind::Access
                      ? c.ops[o].n
                      : 1;
    }
    EXPECT_EQ(prefix, c.warmupEvents);

    Trace back = decompileTrace(c);
    EXPECT_EQ(back.workload, t.workload);
    EXPECT_EQ(back.seed, t.seed);
    EXPECT_EQ(back.warmupEvents, t.warmupEvents);
    ASSERT_EQ(back.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(back.events[i], t.events[i]) << "event " << i;
}

TEST(CompiledTrace, SplitsRunsAtCap)
{
    Trace t;
    t.workload = "big";
    const std::uint64_t n = kMaxRunEvents + 17;
    for (std::uint64_t i = 0; i < n; ++i) {
        t.events.push_back(TraceEvent{TraceEvent::Kind::Access,
                                      Addr(0x1000 + i * 8), 0, 0, false,
                                      false});
    }
    CompiledTrace c = compileTrace(t);
    ASSERT_EQ(c.ops.size(), 2u);
    EXPECT_EQ(c.ops[0].n, kMaxRunEvents);
    EXPECT_EQ(c.ops[1].n, 17u);
    Trace back = decompileTrace(c);
    ASSERT_EQ(back.events.size(), n);
    EXPECT_EQ(back.events[n - 1], t.events[n - 1]);
}

TEST(CompiledTrace, V2FileRoundTrip)
{
    Trace t = mixedTrace();
    CompiledTrace c = compileTrace(t);
    std::string path = ::testing::TempDir() + "ap_trace_v2.bin";
    ASSERT_TRUE(writeCompiledTraceFile(c, path));
    CompiledTrace back;
    ASSERT_TRUE(readCompiledTraceFile(path, back));
    EXPECT_EQ(back.workload, c.workload);
    EXPECT_EQ(back.warmupOps, c.warmupOps);
    Trace expanded = decompileTrace(back);
    ASSERT_EQ(expanded.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(expanded.events[i], t.events[i]);
    std::remove(path.c_str());
}

TEST(Trace, StreamingReaderMatchesFullReadBothVersions)
{
    // APTRACE2 is the only format left; the name predates that.
    Trace t = mixedTrace();
    std::string path = ::testing::TempDir() + "ap_trace_stream.bin";
    ASSERT_TRUE(writeTraceFile(t, path));
    TraceFileReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.workload(), t.workload);
    EXPECT_EQ(reader.seed(), t.seed);
    EXPECT_EQ(reader.warmupEvents(), t.warmupEvents);
    EXPECT_EQ(reader.eventCount(), t.events.size());

    // Tiny chunks force every refill path.
    std::vector<TraceEvent> all, chunk;
    while (reader.next(chunk, 7))
        all.insert(all.end(), chunk.begin(), chunk.end());
    EXPECT_TRUE(reader.ok());
    ASSERT_EQ(all.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(all[i], t.events[i]) << "event " << i;
    std::remove(path.c_str());
}

TEST(Trace, StreamReplayReproducesRunExactly)
{
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Agile));
        auto w = makeWorkload("mcf", params);
        recorded = recordRun(m, *w);
    }
    std::string path = ::testing::TempDir() + "ap_trace_replay.bin";
    ASSERT_TRUE(writeTraceFile(recorded.trace, path));

    Machine m2(testConfig(VirtMode::Agile));
    StreamReplayWorkload replay(path);
    ASSERT_TRUE(replay.ok());
    RunResult replayed = m2.run(replay);

    EXPECT_EQ(replayed.tlbMisses, recorded.result.tlbMisses);
    EXPECT_EQ(replayed.walks, recorded.result.walks);
    EXPECT_EQ(replayed.walkCycles, recorded.result.walkCycles);
    EXPECT_EQ(replayed.trapCycles, recorded.result.trapCycles);
    std::remove(path.c_str());
}

TEST(CompiledTrace, BatchReplayMatchesEventReplay)
{
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Shadow));
        auto w = makeWorkload("gcc", params); // instr-fetch heavy
        recorded = recordRun(m, *w);
    }
    auto compiled = std::make_shared<const CompiledTrace>(
        compileTrace(recorded.trace));

    Machine m_event(testConfig(VirtMode::Shadow));
    BatchReplayWorkload event_replay(compiled, false);
    RunResult by_event = m_event.run(event_replay);

    Machine m_batch(testConfig(VirtMode::Shadow));
    BatchReplayWorkload batch_replay(compiled, true);
    RunResult by_batch = m_batch.run(batch_replay);

    EXPECT_EQ(by_batch.instructions, by_event.instructions);
    EXPECT_EQ(by_batch.idealCycles, by_event.idealCycles);
    EXPECT_EQ(by_batch.walkCycles, by_event.walkCycles);
    EXPECT_EQ(by_batch.trapCycles, by_event.trapCycles);
    EXPECT_EQ(by_batch.tlbMisses, by_event.tlbMisses);
    EXPECT_EQ(by_batch.walks, by_event.walks);
    EXPECT_EQ(by_batch.traps, by_event.traps);
    EXPECT_EQ(by_batch.guestPageFaults, by_event.guestPageFaults);
}

TEST(Trace, OneTraceManyTechniques)
{
    // The paper's trace-driven idea: capture once, evaluate each
    // technique on the identical event stream.
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Nested));
        auto w = makeWorkload("mcf", params);
        recorded = recordRun(m, *w);
    }

    std::uint64_t misses[3];
    int i = 0;
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
        Machine m(testConfig(mode));
        BatchReplayWorkload replay = perEventReplay(recorded.trace);
        RunResult r = m.run(replay);
        EXPECT_GT(r.walks, 0u);
        misses[i++] = r.tlbMisses;
    }
    // The address stream is identical, so miss counts are close (they
    // differ only via shadow-side flush effects).
    EXPECT_EQ(misses[0], recorded.result.tlbMisses);
}

// ---------------------------------------------------------------------
// Untrusted headers: a truncated header or a count field that promises
// more than the file holds must make the reader return false — never
// allocate the promised size or abort.
// ---------------------------------------------------------------------

constexpr std::uint64_t kLyingCount = std::uint64_t{1} << 61;

/** @p bytes with the u64 at @p offset replaced by @p v. */
std::string
patchU64(std::string bytes, std::size_t offset, std::uint64_t v)
{
    std::memcpy(&bytes[offset], &v, sizeof(v));
    return bytes;
}

/** A header-only APTRACE2 file: magic, name_len 0, seed, warmup
 *  events, warmup ops, event count, op count (56 bytes). */
std::string
emptyV2File()
{
    std::stringstream ss;
    EXPECT_TRUE(writeCompiledTrace(CompiledTrace{}, ss));
    EXPECT_EQ(ss.str().size(), 56u);
    return ss.str();
}

/** A header-only APWT file: magic, version, count, appended,
 *  dropped (32 bytes). */
std::string
emptyWalkTraceFile()
{
    std::stringstream ss;
    WalkTraceBuffer buf(4);
    EXPECT_TRUE(writeWalkTrace(buf, ss));
    EXPECT_EQ(ss.str().size(), 32u);
    return ss.str();
}

bool
readsAsTrace(const std::string &bytes)
{
    std::stringstream ss(bytes);
    Trace t;
    return readTrace(ss, t);
}

bool
readsAsWalkTrace(const std::string &bytes)
{
    std::stringstream ss(bytes);
    std::vector<WalkTraceRecord> records;
    std::uint64_t dropped = 0;
    return readWalkTrace(ss, records, dropped);
}

TEST(TraceFileRejects, V1MagicRejected)
{
    // A header-only file in the retired per-event format: magic,
    // name_len 0, seed, warmup, count (40 bytes). Every reader turns
    // it away like any other unknown magic.
    std::string v1(40, '\0');
    std::memcpy(v1.data(), "APTRACE1", 8);
    EXPECT_NO_THROW(EXPECT_FALSE(readsAsTrace(v1)));
    std::stringstream ss(v1);
    CompiledTrace c;
    EXPECT_NO_THROW(EXPECT_FALSE(readCompiledTrace(ss, c)));
    std::string path = ::testing::TempDir() + "ap_trace_v1.bin";
    {
        std::ofstream os(path, std::ios::binary);
        os << v1;
    }
    EXPECT_NO_THROW({
        TraceFileReader reader(path);
        EXPECT_FALSE(reader.ok());
        std::vector<TraceEvent> chunk;
        EXPECT_EQ(reader.next(chunk, 7), 0u);
    });
    std::remove(path.c_str());
}

TEST(TraceFileRejects, V2TruncatedHeader)
{
    const std::string f = emptyV2File();
    ASSERT_TRUE(readsAsTrace(f));
    for (std::size_t n = 0; n < f.size(); ++n)
        EXPECT_FALSE(readsAsTrace(f.substr(0, n))) << n << " bytes";
}

TEST(TraceFileRejects, V2LyingCounts)
{
    const std::string f = emptyV2File();
    // op_count, then event count, then warmup ops.
    EXPECT_FALSE(readsAsTrace(patchU64(f, 48, kLyingCount)));
    EXPECT_FALSE(readsAsTrace(patchU64(f, 40, kLyingCount)));
    EXPECT_FALSE(readsAsTrace(patchU64(f, 32, kLyingCount)));
    // The compiled reader checks the same counts (decompile is what
    // would reserve a lying event count).
    std::stringstream ss(patchU64(f, 40, kLyingCount));
    CompiledTrace c;
    EXPECT_FALSE(readCompiledTrace(ss, c));
}

TEST(TraceFileRejects, WalkTraceTruncatedHeader)
{
    const std::string f = emptyWalkTraceFile();
    ASSERT_TRUE(readsAsWalkTrace(f));
    for (std::size_t n = 0; n < f.size(); ++n)
        EXPECT_FALSE(readsAsWalkTrace(f.substr(0, n))) << n << " bytes";
}

TEST(TraceFileRejects, WalkTraceLyingCount)
{
    EXPECT_FALSE(
        readsAsWalkTrace(patchU64(emptyWalkTraceFile(), 8, kLyingCount)));
}

} // namespace
} // namespace ap
