/**
 * @file
 * Cross-mode differential oracle.
 *
 * Replays one deterministic randomized trace through four lock-
 * stepped Machine instances — shadow, nested, agile, range — and runs the
 * invariant checks from sim/invariants.hh after every event: per-
 * machine architectural-walk agreement, guest-level lock-step
 * agreement across machines, counter/coverage sanity, and periodic
 * shadow-coherence sweeps. A failing trace can be shrunk to a minimal
 * reproduction by greedy chunk removal, and a deliberate shadow-
 * coherence bug can be injected to prove the oracle catches one.
 */

#ifndef AGILEPAGING_SIM_ORACLE_HH
#define AGILEPAGING_SIM_ORACLE_HH

#include <vector>

#include "sim/invariants.hh"
#include "trace/trace.hh"

namespace ap
{

/** Knobs for trace generation and differential replay. */
struct OracleOptions
{
    /** Page size configured in all three machines. */
    PageSize pageSize = PageSize::Size4K;
    /** Apply the paper's hardware optimizations (A/D bits, sptr
     *  cache) to the shadow-based machines. */
    bool hwOpts = true;
    /** Trace-generator seed; the trace is a pure function of the seed
     *  and the generator knobs. */
    std::uint64_t seed = 1;
    /** Events to generate after the initial mappings. */
    std::uint64_t operations = 3000;
    /** Generate ReclaimTick events. Reclaim evictions depend on
     *  accessed-bit timing, which legitimately differs per machine, so
     *  cross-machine lock-step checks are skipped for such traces
     *  (per-machine invariants still run). */
    bool includeReclaim = false;
    /** Run the shadow-coherence sweep every N events (and at the
     *  end). */
    std::uint64_t sweepInterval = 256;
    /** When nonzero, corrupt one shadow leaf PTE in the agile machine
     *  after the Nth Access event (1-based) — a deliberate coherence
     *  bug the oracle must catch. */
    std::uint64_t injectAtAccess = 0;
    /** vCPUs per machine; >1 interleaves the trace across per-vCPU
     *  TLB/PWC stacks and models shootdown traffic. */
    unsigned numVcpus = 1;
    /** Shootdown cost model used when numVcpus > 1. */
    TlbCoherence tlbCoherence = TlbCoherence::Software;
    /** When nonzero, fabricate a stale writable TLB entry (at a VA the
     *  guest never maps) in the last vCPU of the agile machine after
     *  the Nth Access event — a missed-shootdown bug the residency
     *  sweep must catch. */
    std::uint64_t injectStaleTlbAtAccess = 0;
    /** When nonzero, plant a stale segment register (covering VAs the
     *  guest never maps) in the last vCPU of the range machine after
     *  the Nth Access event — a missed segment invalidation the
     *  residency sweep must catch. */
    std::uint64_t injectStaleSegmentAtAccess = 0;
};

/** Outcome of one differential replay. */
struct OracleReport
{
    /** No invariant violated. */
    bool passed = true;
    /** First violation found (replay stops there). */
    std::vector<InvariantViolation> violations;
    std::uint64_t eventsReplayed = 0;
    /** Access/fetch events that went through the per-access checks. */
    std::uint64_t accessesChecked = 0;
};

/**
 * The test-sized machine config every oracle replay uses for @p mode:
 * pools sized for 2 MB COW breaks, a short policy interval, built-in
 * verification off (the oracle is the checker), and the vCPU count
 * and coherence model from @p opts.
 */
SimConfig oracleConfig(VirtMode mode, const OracleOptions &opts);

/**
 * Generate a deterministic randomized trace: mmap/munmap churn,
 * reads/writes/fetches over live regions, forks, yields, page sharing
 * — every event kind the WorkloadHost interface offers (reclaim only
 * when opts.includeReclaim). Never touches an unmapped address, so
 * the trace replays cleanly under every mode.
 */
Trace makeRandomTrace(const OracleOptions &opts);

/**
 * Replay @p trace through lock-stepped shadow, nested, agile, and
 * range machines, checking invariants after every event. Stops at the
 * first violation.
 */
OracleReport runDifferential(const Trace &trace,
                             const OracleOptions &opts);

/**
 * Shrink a failing trace by greedy chunk removal (halving chunk
 * sizes, ddmin-style): events are dropped while the differential
 * replay under @p opts still reports a violation. Candidates that
 * panic (e.g. an access whose mmap was removed) do not count as the
 * same failure. Returns @p trace unchanged if it does not fail.
 */
Trace shrinkTrace(const Trace &trace, const OracleOptions &opts);

} // namespace ap

#endif // AGILEPAGING_SIM_ORACLE_HH
