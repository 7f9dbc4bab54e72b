/**
 * @file
 * Round-robin consolidation scheduler: runs several workloads as
 * separate guest processes on one machine, interleaved in fixed
 * quanta — the server-consolidation scenario the paper's introduction
 * motivates (frequent guest context switches are exactly where the
 * sptr cache and agile's shadow-root handling matter).
 *
 * Consolidated runs can be recorded and replayed. A recorded slot
 * captures the workload's host-call stream with scheduler markers
 * (Yield events with a reserved arg) delimiting the populate phase
 * and each workload step, so a replay slot reproduces the exact
 * quantum interleaving of the recording. Because the interleaving is
 * a pure function of (workloads, params, quantum), the same slot
 * traces drive every MMU mode. Slot traces store the slot's guest
 * pid in Trace::seed; they are only meaningful to Scheduler replay,
 * not to a whole-trace replay workload (which would apply the markers
 * as real yields).
 *
 * The run splits into warmup() and runMeasured(), mirroring
 * Machine::runWarmup/runMeasured: a machine snapshot captured between
 * the two freezes the measurement boundary, and an all-replay
 * scheduler can resumeFromSnapshot() to skip the interleaved warm
 * phase entirely.
 */

#ifndef AGILEPAGING_SIM_SCHEDULER_HH
#define AGILEPAGING_SIM_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/snapshot.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace ap
{

/** Per-workload result of a consolidated run. */
struct ScheduledRun
{
    std::string workload;
    ProcId pid = 0;
    /** Steps the workload executed. */
    std::uint64_t steps = 0;
    bool finished = false;
};

/** Aggregate outcome of a consolidated run. */
struct ConsolidationResult
{
    /** Machine-wide measured counters (delta over the measured
     *  region, same protocol as Machine::run). */
    RunResult machine;
    std::vector<ScheduledRun> runs;
    /** Guest context switches performed by the scheduler. */
    std::uint64_t contextSwitches = 0;
};

/**
 * The scheduler. Owns nothing but references; workloads, traces and
 * machine outlive it. A scheduler instance drives one run.
 */
class Scheduler
{
  public:
    /**
     * @param quantum workload steps per scheduling quantum
     */
    Scheduler(Machine &machine, std::uint64_t quantum = 2000);

    /** Add a workload; a process is created for it at warmup() time. */
    void add(Workload &workload);

    /**
     * Add a workload whose consolidated host-call stream is recorded
     * into @p out (finalized by runMeasured()). @p out must outlive
     * the scheduler.
     */
    void addRecorded(Workload &workload, Trace &out);

    /**
     * Add a slot driven by a trace previously recorded by
     * addRecorded() under the same workload set, params and quantum.
     * The replay reproduces the recorded interleaving exactly.
     */
    void addReplay(const Trace &trace);

    /**
     * Run every workload to completion, round-robin:
     * warmup() + runMeasured().
     */
    ConsolidationResult run();

    /**
     * Create one process per slot, init+populate each, then
     * fast-forward the interleaved warm region. Leaves the machine at
     * the measurement boundary (capture a snapshot here).
     */
    void warmup();

    /**
     * Instead of warmup(): restore a warm image captured at the
     * boundary of an identical cell. Every slot must be a replay
     * slot (their traces carry the guest pids). @return false if the
     * snapshot does not match the machine's config.
     */
    bool resumeFromSnapshot(const MachineSnapshot &snap);

    /** Run the measured region. Requires warmup() or a successful
     *  resumeFromSnapshot(). */
    ConsolidationResult runMeasured();

  private:
    struct Slot
    {
        /** Generated/recorded slots; null for replay slots. */
        Workload *workload = nullptr;
        /** Recording decorator (recorded slots only). */
        std::unique_ptr<TraceRecorder> rec;
        /** Recording target (recorded slots only). */
        Trace *out = nullptr;
        /** Replay source (replay slots only). */
        const Trace *replay = nullptr;
        /** Replay event cursor. */
        std::uint64_t cursor = 0;
        ProcId pid = 0;
        bool more = true;
        std::uint64_t steps = 0;
        std::uint64_t warm_steps = 0;
    };

    /** Execute one workload step (or replay one recorded step). */
    bool stepSlot(Slot &slot);

    Machine &machine_;
    std::uint64_t quantum_;
    std::vector<Slot> slots_;
    std::uint64_t ctx_switches_ = 0;
    bool warm_ = false;
};

} // namespace ap

#endif // AGILEPAGING_SIM_SCHEDULER_HH
