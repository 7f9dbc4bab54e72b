/**
 * @file
 * Shared command-line handling and cache-reuse footer for the bench
 * drivers.
 *
 * The core knobs — operation count, worker threads, seed, page size,
 * vCPUs, TLB coherence and the snapshot directory and budget — are
 * parsed here once instead of fourteen times. Each bench names the
 * ones it honors (BenchFlag); consume() rejects the others with exit
 * 2 instead of silently ignoring them. Benches keep their own loop for
 * bench-specific flags and call BenchOptions::consume() for
 * everything else; a bare integer argument is accepted as the
 * operation count for backward compatibility with the original
 * positional form.
 */

#ifndef AGILEPAGING_BENCH_BENCH_COMMON_HH
#define AGILEPAGING_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "base/types.hh"
#include "sim/config.hh"
#include "trace/trace_cache.hh"

namespace ap
{

/** Parse "4K"/"4k"/"4096" or "2M"/"2m"/"2097152". */
inline bool
benchParsePageSize(const char *s, PageSize &out)
{
    if (!std::strcmp(s, "4K") || !std::strcmp(s, "4k") ||
        !std::strcmp(s, "4096")) {
        out = PageSize::Size4K;
        return true;
    }
    if (!std::strcmp(s, "2M") || !std::strcmp(s, "2m") ||
        !std::strcmp(s, "2097152")) {
        out = PageSize::Size2M;
        return true;
    }
    return false;
}

/** The shared flags a bench can honor beyond --ops, which all do. */
enum BenchFlag : unsigned
{
    kJobsFlag = 1u << 0,
    kSeedFlag = 1u << 1,
    kPageSizeFlag = 1u << 2,
    kVcpusFlag = 1u << 3,
    kTlbCoherenceFlag = 1u << 4,
    kSnapshotDirFlag = 1u << 5,
    kSnapshotPoolFlag = 1u << 6,
};

/** The core knobs the bench drivers share. */
struct BenchOptions
{
    /**
     * @param honored the BenchFlag bits this bench acts on
     * @param own_usage the bench's own flags for the usage line
     */
    BenchOptions(std::uint64_t default_ops, unsigned honored,
                 const char *own_usage = "")
        : ops(default_ops), honored_(honored), own_usage_(own_usage)
    {
    }

    std::uint64_t ops;
    unsigned jobs = 1;
    std::uint64_t seed = 0;
    bool seedSet = false;
    PageSize pageSize = PageSize::Size4K;
    bool pageSizeSet = false;
    unsigned vcpus = 1;
    TlbCoherence tlbCoherence = TlbCoherence::Software;
    std::string snapshotDir;
    /** SnapshotCache byte budget in MiB (0 = unlimited). */
    std::uint64_t snapshotPoolMb = 0;

    /** The --snapshot-pool-mb budget in bytes. */
    std::uint64_t
    snapshotPoolBytes() const
    {
        return snapshotPoolMb << 20;
    }

    /** The usage line: the shared flags this bench honors, then its
     *  own. */
    std::string
    usage() const
    {
        std::string u = "[ops] [--ops N]";
        for (const auto &[flag, text] :
             {std::pair{kJobsFlag, " [--jobs N]"},
              std::pair{kSeedFlag, " [--seed N]"},
              std::pair{kPageSizeFlag, " [--page-size 4K|2M]"},
              std::pair{kVcpusFlag, " [--vcpus N]"},
              std::pair{kTlbCoherenceFlag, " [--tlb-coherence sw|hw]"},
              std::pair{kSnapshotDirFlag, " [--snapshot-dir DIR]"},
              std::pair{kSnapshotPoolFlag, " [--snapshot-pool-mb N]"}}) {
            if (honored_ & flag)
                u += text;
        }
        if (*own_usage_)
            u += std::string(" ") + own_usage_;
        return u;
    }

    /**
     * Try to consume argv[i] (and its value, advancing @p i). Exits
     * with usage on a malformed value or on a shared flag this bench
     * does not honor. @return false if the argument is not a shared
     * flag (the bench's own loop handles it).
     */
    bool
    consume(int argc, char **argv, int &i)
    {
        auto honor = [&](unsigned flag) {
            if (!(honored_ & flag))
                reject(argv, i);
        };
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto u64 = [&](const char *flag) {
            std::uint64_t v = 0;
            const char *s = value(flag);
            if (!parseU64(s, v)) {
                std::cerr << argv[0] << ": bad " << flag << " value '"
                          << s << "'\n";
                std::exit(2);
            }
            return v;
        };
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--ops")) {
            ops = u64("--ops");
        } else if (!std::strcmp(arg, "--jobs")) {
            honor(kJobsFlag);
            jobs = static_cast<unsigned>(u64("--jobs"));
        } else if (!std::strcmp(arg, "--seed")) {
            honor(kSeedFlag);
            seed = u64("--seed");
            seedSet = true;
        } else if (!std::strcmp(arg, "--page-size")) {
            honor(kPageSizeFlag);
            const char *s = value("--page-size");
            if (!benchParsePageSize(s, pageSize)) {
                std::cerr << argv[0] << ": bad --page-size '" << s
                          << "' (want 4K or 2M)\n";
                std::exit(2);
            }
            pageSizeSet = true;
        } else if (!std::strcmp(arg, "--vcpus")) {
            honor(kVcpusFlag);
            std::uint64_t v = u64("--vcpus");
            if (v < 1 || v > 64) {
                std::cerr << argv[0] << ": bad --vcpus value '" << v
                          << "' (want 1..64)\n";
                std::exit(2);
            }
            vcpus = static_cast<unsigned>(v);
        } else if (!std::strcmp(arg, "--tlb-coherence")) {
            honor(kTlbCoherenceFlag);
            const char *s = value("--tlb-coherence");
            if (!std::strcmp(s, "sw") || !std::strcmp(s, "software")) {
                tlbCoherence = TlbCoherence::Software;
            } else if (!std::strcmp(s, "hw") ||
                       !std::strcmp(s, "hardware")) {
                tlbCoherence = TlbCoherence::Hardware;
            } else {
                std::cerr << argv[0] << ": bad --tlb-coherence '" << s
                          << "' (want sw or hw)\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--snapshot-dir")) {
            honor(kSnapshotDirFlag);
            snapshotDir = value("--snapshot-dir");
        } else if (!std::strcmp(arg, "--snapshot-pool-mb")) {
            honor(kSnapshotPoolFlag);
            snapshotPoolMb = u64("--snapshot-pool-mb");
        } else if (arg[0] != '-') {
            // Legacy positional operation count.
            std::uint64_t v = 0;
            if (!parseU64(arg, v))
                return false;
            ops = v;
        } else {
            return false;
        }
        return true;
    }

    /** Report an argument this bench does not take, with usage, and
     *  exit 2. */
    [[noreturn]] void
    reject(char **argv, int i) const
    {
        std::cerr << "unsupported argument '" << argv[i] << "'\n"
                  << "usage: " << argv[0] << " " << usage() << "\n";
        std::exit(2);
    }

  private:
    unsigned honored_;
    const char *own_usage_;
};

/** The cache-reuse footer of the sweep benches. */
inline void
printCacheSummary(const TraceCache &traces, const SnapshotCache &snaps)
{
    std::printf("[trace cache: %llu recorded, %llu replayed; "
                "snapshots: %llu captured, %llu forked, %llu from "
                "disk]\n",
                (unsigned long long)traces.records(),
                (unsigned long long)traces.replays(),
                (unsigned long long)snaps.captures(),
                (unsigned long long)snaps.forks(),
                (unsigned long long)snaps.diskLoads());
}

} // namespace ap

#endif // AGILEPAGING_BENCH_BENCH_COMMON_HH
