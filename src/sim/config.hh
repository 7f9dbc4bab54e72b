/**
 * @file
 * Top-level simulation configuration: one struct aggregating every
 * subsystem's knobs, plus a small key=value option parser for the
 * example programs.
 */

#ifndef AGILEPAGING_SIM_CONFIG_HH
#define AGILEPAGING_SIM_CONFIG_HH

#include <string>

#include "base/types.hh"
#include "core/agile_policy.hh"
#include "core/range_backend.hh"
#include "guestos/guest_os.hh"
#include "tlb/coherence.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vmm/shsp.hh"
#include "vmm/trap_costs.hh"
#include "vmm/vmm.hh"

namespace ap
{

/** Everything a Machine needs to be built. */
struct SimConfig
{
    /** Memory-virtualization technique for all processes. */
    VirtMode mode = VirtMode::Agile;
    /** Page size used at both translation stages (the paper evaluates
     *  4K:4K and 2M:2M). */
    PageSize pageSize = PageSize::Size4K;

    /** Host physical memory, in 4 KB frames. */
    std::uint64_t hostMemFrames = 1u << 18; // 1 GB
    std::uint64_t guestPtFrames = 1u << 15;
    std::uint64_t guestDataFrames = 1u << 17; // 512 MB of gPA space

    TlbHierarchyConfig tlb{};
    bool pwcEnabled = true;
    std::size_t pwcEntries = 32;
    std::size_t pwcWays = 4;
    bool ntlbEnabled = true;
    std::size_t ntlbEntries = 128;
    std::size_t ntlbWays = 4;

    /** Ideal execution cycles represented by one workload memory
     *  operation (a memory op stands for a few instructions). */
    Cycles cyclesPerOp = 3;
    /** Cycles per cache-cold page-walk memory reference (leaf PTE
     *  reads; PWC/nTLB hits cost 0). */
    Cycles walkRefCycles = 50;
    /** Cycles per cache-warm walk reference (upper-level entries sit
     *  in the data caches [36]). */
    Cycles walkRefWarmCycles = 12;
    /** Fraction of a workload's operations treated as warmup (fast-
     *  forward): counters reset before measurement, the standard
     *  simulator methodology for amortizing cold-start faults. */
    double warmupFraction = 0.10;
    /** Extra cycles charged when a translation is served by the L2 TLB
     *  rather than an L1 TLB. */
    Cycles l2TlbHitCycles = 7;
    /** Guest-visible cycles of a context switch (identical across
     *  modes; the shadow-mode *trap* is charged separately). */
    Cycles ctxSwitchGuestCycles = 400;

    TrapCosts trapCosts{};
    GuestOsConfig guestOs{};

    /** Hardware optimization 1 (Section IV): walker writes A/D bits
     *  into all three tables; dirty writeback costs a nested walk. */
    bool hwOptAd = false;
    /** Extra walk references charged per hardware dirty writeback. */
    unsigned adWritebackRefs = 24;
    /** Hardware optimization 2 (Section IV): sptr cache entries
     *  (0 disables). */
    std::size_t sptrCacheEntries = 0;

    /** KVM-style unsynced shadow leaf pages. */
    bool unsyncEnabled = true;

    AgilePolicyConfig policy{};
    ShspConfig shsp{};
    /** Range-backend segment-register file (mode == Range only). */
    RangeBackendConfig range{};
    /** Policy interval in instructions (the paper's "1 second"). */
    Tick policyIntervalOps = 200'000;

    /** Cross-check every translation against the functional tables
     *  (slow; on in tests, off in benchmarks). */
    bool verifyTranslations = false;

    // ------------------------------------------------------------------
    // Multi-vCPU guests and translation coherence.
    // ------------------------------------------------------------------

    /** vCPUs per guest. Each vCPU owns a private L1/L2 TLB, PWC and
     *  last-translation filter over the shared guest/shadow/nested
     *  tables; accesses interleave deterministically in round-robin
     *  quanta of vcpuQuantumOps. 1 reproduces the single-walker
     *  machine bit-for-bit. */
    unsigned numVcpus = 1;
    /** How invalidations reach remote vCPU TLBs (ignored at 1 vCPU). */
    TlbCoherence tlbCoherence = TlbCoherence::Software;
    /** Accesses each vCPU executes before the schedule rotates. */
    std::uint64_t vcpuQuantumOps = 64;
    /** Software mode: cycles charged per remote vCPU per shootdown
     *  (IPI send, remote handler, acknowledgement wait). */
    Cycles ipiShootdownCycles = 1600;
    /** Hardware mode: cycles charged per remote vCPU per shootdown
     *  (coherence message, no interrupt, no trap). */
    Cycles hwInvalidateCycles = 40;

    // ------------------------------------------------------------------
    // Host-side engine knobs. These change how fast the simulator runs,
    // never what it simulates, so they are deliberately excluded from
    // the snapshot config digest (simConfigDigest).
    // ------------------------------------------------------------------

    /** Batched-replay runs pre-resolve their sorted VPNs read-only so
     *  real walks find shared upper-level subtrees cache-warm
     *  ("--no-batched-walks" in the drivers turns this off). Stats are
     *  exact either way. */
    bool batchedWalks = true;
    /** Pages per slab of the page-table-page arena (sizing knob). */
    std::uint64_t arenaSlabPages = 256;

    /** Apply both optional hardware optimizations (the evaluated agile
     *  configuration includes them; Section VII "includes the benefit
     *  of hardware optimizations"). */
    void
    enableHwOpts()
    {
        hwOptAd = true;
        sptrCacheEntries = 8;
    }

    /**
     * Apply "key=value" (e.g. "mode=shadow", "page=2m",
     * "walk_ref_cycles=40"). @return false for an unknown key/value.
     */
    bool applyOption(const std::string &option);
};

/**
 * Process-wide default for SimConfig::batchedWalks, consulted by the
 * matrix drivers' configFor() path so "--no-batched-walks" reaches
 * every cell they build. Host-side engine toggle only — simulated
 * results are identical either way.
 */
void setBatchedWalksDefault(bool on);
bool batchedWalksDefault();

/** Parse a mode name ("native", "nested", "shadow", "agile", "shsp",
 *  "range"). Accepts every name virtModeName() emits. */
bool parseVirtMode(const std::string &s, VirtMode &out);

/** Parse a page size ("4k" or "2m"). */
bool parsePageSize(const std::string &s, PageSize &out);

/**
 * Strict decimal parse of an unsigned 64-bit value: the whole string
 * must be consumed ("4k" is rejected, not read as 4) and signs are
 * rejected ("-1" must not wrap to 2^64-1). @return success.
 */
bool parseU64(const std::string &s, std::uint64_t &out);

} // namespace ap

#endif // AGILEPAGING_SIM_CONFIG_HH
