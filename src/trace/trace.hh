/**
 * @file
 * Workload trace recording and replay.
 *
 * The paper's evaluation is built on traces: trace-cmd captured guest
 * page-table updates and BadgerTrap captured TLB misses (Section VI).
 * This module provides the equivalent artifact for the simulator: a
 * TraceRecorder captures the full event stream a workload issues
 * through the WorkloadHost interface, and writeTrace/readTrace persist
 * it. Compiled (trace/compiled_trace.hh), a captured stream replays
 * as a first-class workload — so one captured run can be re-simulated
 * under every technique, or shipped as a reproducible input.
 */

#ifndef AGILEPAGING_TRACE_TRACE_HH
#define AGILEPAGING_TRACE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace ap
{

/** One recorded WorkloadHost call. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Access,
        InstrFetch,
        Mmap,
        MmapAt,
        Munmap,
        Compute,
        ForkTouchExit,
        Yield,
        ReclaimTick,
        SharePages,
    };

    Kind kind = Kind::Access;
    /** Access/fetch VA; mmap/munmap base. */
    Addr addr = 0;
    /** mmap/munmap length; compute instructions; fork touch pages;
     *  reclaim max pages. */
    std::uint64_t arg = 0;
    /** mmap file id. */
    std::uint64_t fileId = 0;
    /** Access: write flag; mmap: writable flag. */
    bool flag = false;
    /** Mmap/MmapAt: file-backed. */
    bool fileBacked = false;

    bool
    operator==(const TraceEvent &o) const
    {
        return kind == o.kind && addr == o.addr && arg == o.arg &&
               fileId == o.fileId && flag == o.flag &&
               fileBacked == o.fileBacked;
    }
};

/** An in-memory trace. */
struct Trace
{
    /** Name of the traced workload (metadata). */
    std::string workload;
    std::uint64_t seed = 0;
    std::vector<TraceEvent> events;
    /** Index of the first post-warmup event (replay measurement
     *  boundary). */
    std::uint64_t warmupEvents = 0;
};

/**
 * Apply one recorded event to a host. This is the replay primitive
 * shared by the per-event replays and the differential oracle (which
 * lock-steps several machines through the same event and therefore
 * cannot use the Workload interface).
 */
inline void
applyTraceEvent(WorkloadHost &host, const TraceEvent &e)
{
    switch (e.kind) {
      case TraceEvent::Kind::Access:
        host.access(e.addr, e.flag);
        break;
      case TraceEvent::Kind::InstrFetch:
        host.instrFetch(e.addr);
        break;
      case TraceEvent::Kind::Mmap:
      case TraceEvent::Kind::MmapAt:
        host.mmapAt(e.addr, e.arg, e.flag, e.fileBacked, e.fileId);
        break;
      case TraceEvent::Kind::Munmap:
        host.munmap(e.addr, e.arg);
        break;
      case TraceEvent::Kind::Compute:
        host.compute(e.arg);
        break;
      case TraceEvent::Kind::ForkTouchExit:
        host.forkTouchExit(e.arg);
        break;
      case TraceEvent::Kind::Yield:
        host.yield();
        break;
      case TraceEvent::Kind::ReclaimTick:
        host.reclaimTick(e.arg);
        break;
      case TraceEvent::Kind::SharePages:
        host.sharePagesScan();
        break;
    }
}

/**
 * WorkloadHost decorator: forwards every call to an inner host while
 * appending it to a trace.
 */
class TraceRecorder : public WorkloadHost
{
  public:
    explicit TraceRecorder(WorkloadHost &inner) : inner_(inner) {}

    /** Mark everything recorded so far as warmup. */
    void markWarmupBoundary() { trace_.warmupEvents = trace_.events.size(); }

    Trace &trace() { return trace_; }
    const Trace &trace() const { return trace_; }

    Addr
    mmap(Addr length, bool writable, bool file_backed,
         std::uint64_t file_id) override
    {
        Addr base = inner_.mmap(length, writable, file_backed, file_id);
        TraceEvent e;
        // Record the *resolved* base so replay is address-exact.
        e.kind = TraceEvent::Kind::MmapAt;
        e.addr = base;
        e.arg = length;
        e.fileId = file_id;
        e.flag = writable;
        e.fileBacked = file_backed;
        trace_.events.push_back(e);
        return base;
    }

    bool
    mmapAt(Addr base, Addr length, bool writable, bool file_backed,
           std::uint64_t file_id) override
    {
        bool ok =
            inner_.mmapAt(base, length, writable, file_backed, file_id);
        if (ok) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::MmapAt;
            e.addr = base;
            e.arg = length;
            e.fileId = file_id;
            e.flag = writable;
            e.fileBacked = file_backed;
            trace_.events.push_back(e);
        }
        return ok;
    }

    void
    munmap(Addr base, Addr length) override
    {
        inner_.munmap(base, length);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Munmap, base, length, 0, false,
                       false});
    }

    void
    access(Addr va, bool write) override
    {
        inner_.access(va, write);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Access, va, 0, 0, write, false});
    }

    void
    instrFetch(Addr va) override
    {
        inner_.instrFetch(va);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::InstrFetch, va, 0, 0, false,
                       false});
    }

    void
    compute(std::uint64_t n) override
    {
        inner_.compute(n);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Compute, 0, n, 0, false, false});
    }

    void
    forkTouchExit(std::uint64_t touch_pages) override
    {
        inner_.forkTouchExit(touch_pages);
        trace_.events.push_back(TraceEvent{
            TraceEvent::Kind::ForkTouchExit, 0, touch_pages, 0, false,
            false});
    }

    void
    yield() override
    {
        inner_.yield();
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});
    }

    void
    reclaimTick(std::uint64_t max_pages) override
    {
        inner_.reclaimTick(max_pages);
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::ReclaimTick,
                                           0, max_pages, 0, false,
                                           false});
    }

    void
    sharePagesScan() override
    {
        inner_.sharePagesScan();
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::SharePages,
                                           0, 0, 0, false, false});
    }

    Rng &rng() override { return inner_.rng(); }

  private:
    WorkloadHost &inner_;
    Trace trace_;
};

/**
 * Serialize a trace (binary, versioned). Writes the compact RLE/SoA
 * format v2 ("APTRACE2", ~8.25 bytes per access). @return success.
 */
bool writeTrace(const Trace &trace, std::ostream &os);
bool writeTraceFile(const Trace &trace, const std::string &path);

/** Deserialize (format v2 only). @return false on mismatch. */
bool readTrace(std::istream &is, Trace &out);
bool readTraceFile(const std::string &path, Trace &out);

} // namespace ap

#endif // AGILEPAGING_TRACE_TRACE_HH
