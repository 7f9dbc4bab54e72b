/**
 * @file
 * apsim: the general-purpose simulator driver.
 *
 *   ./apsim [options] <workload> [workload ...]
 *
 * Runs one workload (or several, consolidated round-robin) under one
 * configuration and prints the run summary; --stats dumps the full
 * gem5-style statistics tree.
 *
 * Options (key=value, see sim/config.hh): mode=, page=, pwc=, ntlb=,
 * hw_opts=, unsync=, back_policy=, walk_ref_cycles=, verify=, ...
 * plus --ops N, --footprint MB, --seed N, --quantum N, --stats,
 * --stats-json=<path> (full stats tree as versioned JSON),
 * --trace-walks=<path> (per-miss walk trace; summarize with walksum),
 * --trace-capacity N (walk-trace ring size, default 1Mi records),
 * --snapshot-dir=<dir> (persist the warm-boundary machine image and
 * the recorded operation stream under <dir>; a repeat invocation with
 * the same workload/config restores the APSNAP1 image and runs only
 * the measured region, bit-identical to the cold run).
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/scheduler.hh"
#include "sim/snapshot.hh"
#include "trace/compiled_trace.hh"
#include "trace/trace.hh"
#include "trace/walk_trace.hh"

namespace
{

/** <dir>/<sanitized-workload>_o<ops>_s<seed>_f<bytes>_d<digest>: the
 *  stem shared by a run's snapshot sidecar trace file(s). */
std::string
sidecarStem(const std::string &dir, const ap::SnapshotKey &key)
{
    std::string name = key.workload;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '-';
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "_o%llu_s%llu_f%llu_d%016llx",
                  static_cast<unsigned long long>(key.operations),
                  static_cast<unsigned long long>(key.seed),
                  static_cast<unsigned long long>(key.footprintBytes),
                  static_cast<unsigned long long>(key.configDigest));
    return dir + "/" + name + buf;
}

/**
 * Routes an inner workload's host calls through a TraceRecorder so
 * Machine::runWarmup/runMeasured (which pass the machine itself as
 * the host) record the stream as a side effect.
 */
class RecordingWorkload : public ap::Workload
{
  public:
    RecordingWorkload(ap::Workload &inner, ap::TraceRecorder &rec)
        : ap::Workload(inner.params()), inner_(inner), rec_(rec)
    {}

    std::string name() const override { return inner_.name(); }
    bool selfWarmup() const override { return inner_.selfWarmup(); }
    void init(ap::WorkloadHost &) override { inner_.init(rec_); }
    void warmup(ap::WorkloadHost &) override { inner_.warmup(rec_); }
    bool step(ap::WorkloadHost &) override { return inner_.step(rec_); }

  private:
    ap::Workload &inner_;
    ap::TraceRecorder &rec_;
};

/**
 * One workload with --snapshot-dir: if the sidecar trace exists,
 * replay it — restoring the persisted warm image (or capturing it if
 * missing) and running only the measured region. Otherwise record the
 * stream while running, capture the image at the measurement
 * boundary, and persist both. Either way the result is bit-identical
 * to machine.run(workload).
 */
ap::RunResult
runSnapshotted(ap::Machine &machine, ap::Workload &workload,
               const std::string &name, ap::SnapshotCache &snaps,
               const ap::SnapshotKey &key, const std::string &trace_path)
{
    auto disk = std::make_shared<ap::CompiledTrace>();
    if (ap::readCompiledTraceFile(trace_path, *disk)) {
        ap::BatchReplayWorkload replay(std::move(disk));
        bool warmed = false;
        ap::SnapshotPtr snap = snaps.obtain(key, [&] {
            machine.runWarmup(replay);
            warmed = true;
            return ap::captureSnapshot(machine);
        });
        if (!warmed) {
            bool ok = ap::restoreSnapshot(*snap, machine);
            ap_assert(ok, "stale snapshot for ", name);
            replay.resumeAtBoundary(machine);
        }
        ap::RunResult r = machine.runMeasured(replay);
        r.workload = name;
        return r;
    }

    // Cold: run normally but with the host calls recorded, capturing
    // the warm image at the measurement boundary between the halves.
    ap::TraceRecorder rec(machine);
    RecordingWorkload recording(workload, rec);
    machine.runWarmup(recording);
    rec.markWarmupBoundary();
    snaps.obtain(key, [&] { return ap::captureSnapshot(machine); });
    ap::RunResult result = machine.runMeasured(recording);
    ap::Trace trace = std::move(rec.trace());
    trace.workload = name;
    trace.seed = workload.params().seed;
    ap::writeTraceFile(trace, trace_path);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);

    std::vector<std::string> workload_names;
    std::uint64_t ops = 0;
    std::uint64_t footprint_mb = 0;
    std::uint64_t seed = 42;
    std::uint64_t quantum = 2'000;
    std::uint64_t trace_capacity = 1u << 20;
    bool dump_stats = false;
    std::string stats_json_path;
    std::string trace_walks_path;
    std::string snapshot_dir;
    std::vector<std::string> options;

    // `--flag value` or `--flag=value`; "" means not present.
    auto flagValue = [&](const std::string &arg, const char *flag,
                         int &i) -> std::string {
        std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
        if (arg == flag && i + 1 < argc)
            return argv[++i];
        return "";
    };
    auto numeric = [](const std::string &flag, const std::string &value,
                      std::uint64_t &out) {
        if (!ap::parseU64(value, out)) {
            std::cerr << "bad value for " << flag << ": '" << value
                      << "' (expected a non-negative integer)\n";
            std::exit(1);
        }
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (!(v = flagValue(arg, "--ops", i)).empty()) {
            numeric("--ops", v, ops);
        } else if (!(v = flagValue(arg, "--footprint", i)).empty()) {
            numeric("--footprint", v, footprint_mb);
        } else if (!(v = flagValue(arg, "--seed", i)).empty()) {
            numeric("--seed", v, seed);
        } else if (!(v = flagValue(arg, "--quantum", i)).empty()) {
            numeric("--quantum", v, quantum);
        } else if (!(v = flagValue(arg, "--trace-capacity", i)).empty()) {
            numeric("--trace-capacity", v, trace_capacity);
        } else if (!(v = flagValue(arg, "--stats-json", i)).empty()) {
            stats_json_path = v;
        } else if (!(v = flagValue(arg, "--trace-walks", i)).empty()) {
            trace_walks_path = v;
        } else if (!(v = flagValue(arg, "--snapshot-dir", i)).empty()) {
            snapshot_dir = v;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg.find('=') != std::string::npos) {
            options.push_back(arg);
        } else {
            workload_names.push_back(arg);
        }
    }
    if (workload_names.empty()) {
        std::cerr << "usage: apsim [options] <workload> [workload ...]\n"
                  << "workloads:";
        for (const auto &n : ap::workloadNames())
            std::cerr << " " << n;
        std::cerr << "\n";
        return 1;
    }

    // Build per-workload parameters and a machine sized for the sum.
    std::vector<ap::WorkloadParams> params;
    ap::Addr total_footprint = 0;
    for (const std::string &name : workload_names) {
        ap::WorkloadParams p = ap::defaultParamsFor(name);
        if (ops)
            p.operations = ops;
        if (footprint_mb)
            p.footprintBytes = footprint_mb << 20;
        p.seed = seed;
        params.push_back(p);
        total_footprint += p.footprintBytes;
    }
    ap::WorkloadParams sizing = params[0];
    sizing.footprintBytes = total_footprint;
    ap::SimConfig cfg = ap::configFor(ap::VirtMode::Agile,
                                      ap::PageSize::Size4K, sizing);
    for (const std::string &opt : options) {
        if (!cfg.applyOption(opt)) {
            std::cerr << "unknown option: " << opt << "\n";
            return 1;
        }
    }

    ap::Machine machine(cfg);
    if (!trace_walks_path.empty())
        machine.enableWalkTrace(trace_capacity);
    std::vector<std::unique_ptr<ap::Workload>> workloads;
    for (std::size_t i = 0; i < workload_names.size(); ++i) {
        auto w = ap::makeWorkload(workload_names[i], params[i]);
        if (!w) {
            std::cerr << "unknown workload: " << workload_names[i]
                      << "\n";
            return 1;
        }
        workloads.push_back(std::move(w));
    }

    ap::RunResult result;
    if (workloads.size() == 1) {
        if (snapshot_dir.empty()) {
            result = machine.run(*workloads[0]);
        } else {
            ap::SnapshotCache snaps(snapshot_dir);
            ap::SnapshotKey key;
            key.workload = workload_names[0];
            key.operations = params[0].operations;
            key.seed = params[0].seed;
            key.footprintBytes = params[0].footprintBytes;
            key.configDigest = ap::simConfigDigest(cfg);
            result = runSnapshotted(
                machine, *workloads[0], workload_names[0], snaps, key,
                sidecarStem(snapshot_dir, key) + ".aptrace");
            std::cout << "snapshot: "
                      << (snaps.forks() || snaps.diskLoads()
                              ? "restored warm image, measured region only"
                              : "captured warm image")
                      << "\n";
        }
    } else {
        ap::Scheduler sched(machine, quantum);
        ap::ConsolidationResult c;
        if (snapshot_dir.empty()) {
            for (auto &w : workloads)
                sched.add(*w);
            c = sched.run();
        } else {
            // The quantum shapes the interleaved stream, so it is
            // folded into the key alongside the workload mix.
            std::string joined;
            for (std::size_t i = 0; i < workload_names.size(); ++i)
                joined += (i ? "+" : "") + workload_names[i];
            ap::SnapshotKey key;
            key.workload = "consolidated:" + joined + "@q" +
                           std::to_string(quantum);
            key.operations = params[0].operations;
            key.seed = params[0].seed;
            key.footprintBytes = total_footprint;
            key.configDigest = ap::simConfigDigest(cfg);
            std::string stem = sidecarStem(snapshot_dir, key);
            ap::SnapshotCache snaps(snapshot_dir);

            std::vector<ap::Trace> slots(workloads.size());
            bool ready = true;
            for (std::size_t i = 0; i < slots.size(); ++i) {
                ready = ready &&
                        ap::readTraceFile(
                            stem + "_" + std::to_string(i) + ".aptrace",
                            slots[i]);
            }
            if (!ready) {
                for (std::size_t i = 0; i < workloads.size(); ++i)
                    sched.addRecorded(*workloads[i], slots[i]);
                sched.warmup();
                snaps.obtain(key,
                             [&] { return ap::captureSnapshot(machine); });
                c = sched.runMeasured();
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    ap::writeTraceFile(slots[i],
                                       stem + "_" + std::to_string(i) +
                                           ".aptrace");
                }
                std::cout << "snapshot: captured warm image\n";
            } else {
                for (const ap::Trace &t : slots)
                    sched.addReplay(t);
                bool warmed = false;
                ap::SnapshotPtr snap = snaps.obtain(key, [&] {
                    sched.warmup();
                    warmed = true;
                    return ap::captureSnapshot(machine);
                });
                if (!warmed) {
                    bool ok = sched.resumeFromSnapshot(*snap);
                    ap_assert(ok, "stale consolidation snapshot for ",
                              key.workload);
                }
                c = sched.runMeasured();
                std::cout << "snapshot: "
                          << (warmed
                                  ? "captured warm image"
                                  : "restored warm image, measured "
                                    "region only")
                          << "\n";
            }
        }
        result = c.machine;
        result.workload = "consolidated";
        std::cout << "context switches: " << c.contextSwitches << "\n";
    }

    std::vector<ap::RunResult> rs{result};
    ap::printFigure5(std::cout, rs);
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\nTLB misses: " << result.tlbMisses
              << ", walks: " << result.walks
              << ", avg refs/walk: " << result.avgWalkRefs
              << ", VM exits: " << result.traps << "\n";
    std::cout << "mode coverage (shadow/8/12/16/20/nested):";
    for (double c : result.coverage)
        std::cout << " " << c * 100 << "%";
    std::cout << "\n";

    if (dump_stats) {
        std::cout << "\n";
        machine.dump(std::cout);
    }
    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::cerr << "cannot write " << stats_json_path << "\n";
            return 1;
        }
        machine.dumpJson(os);
        std::cout << "stats json: " << stats_json_path << "\n";
    }
    if (!trace_walks_path.empty()) {
        if (!ap::writeWalkTraceFile(*machine.walkTrace(),
                                    trace_walks_path)) {
            std::cerr << "cannot write " << trace_walks_path << "\n";
            return 1;
        }
        std::cout << "walk trace: " << trace_walks_path << " ("
                  << machine.walkTrace()->size() << " records, "
                  << machine.walkTrace()->dropped()
                  << " dropped)\n";
    }
    return 0;
}
