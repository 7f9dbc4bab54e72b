/**
 * @file
 * Benchmark program: times the simulator's own entry points on one
 * named workload and writes a JSON report (ap-perfbench-v1).
 *
 * Untraced runs enter only through the program's public entry points:
 * runExperiments with runCellSnapshotted over fresh or warm caches and
 * a MachinePool for the in-process workloads, ServiceClient::runBatch
 * for apsimd-rows. With --trace 1 the same workload runs a second time
 * through a traced pipeline that composes the same public calls in the
 * same order with one span around each; the traced results must equal
 * the untraced ones cell for cell. Every timed cell is compared field
 * for field (byte for byte over the wire) against a cold, uncached run
 * of the same spec and seed, computed after all timed intervals.
 *
 * Usage: apbench --workload NAME --seed N --seconds S --trace 0|1
 *                --report PATH
 * Exit codes: 0 report written (its "correct" field says whether the
 * results checked out), 1 operational failure, 2 bad arguments.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/machine_pool.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/snapshot.hh"
#include "trace/buffer_pool.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace_cache.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** Operations per cell of the Figure-5 matrix and its apsimd rows. */
constexpr std::uint64_t kFig5Ops = 500'000;
/** Operations per cell of the coherence-churn matrix. */
constexpr std::uint64_t kChurnOps = 200'000;
/** Set-up repetitions whose median is setup_s (regen, apsimd). */
constexpr unsigned kRegenSetups = 3;
constexpr unsigned kServiceSetups = 41;
constexpr unsigned kMaxServiceWorkers = 4;
/** A Figure-5 row: one workload x {4K, 2M} x 4 modes. */
constexpr std::size_t kRowCells = 8;
/** A timing tail needs at least this many samples beyond it. */
constexpr std::size_t kTailBeyond = 10;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A timing's tail: the highest percentile of a fixed ladder with at
 *  least kTailBeyond samples above its nearest-rank position; the
 *  median when there are too few samples for any. */
struct Tail
{
    double value = 0;
    double percentile = 50;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    t.value = median(v);
    std::sort(v.begin(), v.end());
    const double ladder[] = {99.9, 99, 95, 90, 75};
    for (double p : ladder) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size())));
        if (rank >= 1 && v.size() - rank >= kTailBeyond) {
            t.value = v[rank - 1];
            t.percentile = p;
            return t;
        }
    }
    return t;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Fold a 64-bit hash to 48 bits so it survives a JSON double. */
std::uint64_t
fold48(std::uint64_t h)
{
    return (h ^ (h >> 48)) & ((std::uint64_t(1) << 48) - 1);
}

std::string
runJson(const ap::RunResult &r)
{
    std::ostringstream os;
    ap::writeRunResultJson(os, r);
    return os.str();
}

/** Every RunResult field, compared exactly. */
bool
sameRun(const ap::RunResult &a, const ap::RunResult &b)
{
    bool same =
        a.workload == b.workload && a.mode == b.mode &&
        a.pageSize == b.pageSize && a.instructions == b.instructions &&
        a.idealCycles == b.idealCycles && a.walkCycles == b.walkCycles &&
        a.trapCycles == b.trapCycles && a.tlbMisses == b.tlbMisses &&
        a.walks == b.walks && a.traps == b.traps &&
        a.guestPageFaults == b.guestPageFaults &&
        a.avgWalkRefs == b.avgWalkRefs && a.numVcpus == b.numVcpus &&
        a.coherenceCycles == b.coherenceCycles &&
        a.shootdowns == b.shootdowns &&
        a.remoteInvalidations == b.remoteInvalidations &&
        a.segmentHits == b.segmentHits &&
        a.segmentSpills == b.segmentSpills &&
        a.segmentInvalidations == b.segmentInvalidations &&
        a.rawRefsTotal == b.rawRefsTotal;
    for (int c = 0; c < 6; ++c)
        same = same && a.coverage[c] == b.coverage[c] &&
               a.rawCoverage[c] == b.rawCoverage[c];
    for (std::size_t k = 0; k < ap::kNumTrapKinds; ++k)
        same = same && a.trapByKind[k] == b.trapByKind[k];
    for (std::size_t k = 0; k < ap::kNumCoherenceCauses; ++k)
        same = same && a.shootdownsByCause[k] == b.shootdownsByCause[k];
    return same;
}

/** Host hardware threads this process may run on (what nproc says). */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return ap::effectiveJobs(0);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** VmHWM of a child process, 0 if it cannot be read. */
double
childPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

struct Span
{
    const char *name = "";
    double startUs = 0;
    double endUs = 0;
    std::int64_t parent = -1;
    std::int64_t batch = -1;
    std::int64_t cell = -1;
    /** apsimd worker that ran a service.cell span. */
    std::int64_t worker = -1;
    /** trace.obtain: trace-key id within the batch, and whether this
     *  call recorded the trace (won the first-wins race). */
    std::int64_t key = -1;
    bool recorded = false;
};

/** Spans kept in memory, written out with the report. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    /** Open a span on this thread; its parent is the innermost span
     *  this thread has open. */
    std::int64_t
    open(const char *name, std::int64_t batch, std::int64_t cell)
    {
        double now = us(Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = name;
        s.startUs = now;
        s.parent = open_.empty() ? -1 : open_.back();
        s.batch = batch;
        s.cell = cell;
        spans_.push_back(s);
        auto id = static_cast<std::int64_t>(spans_.size() - 1);
        open_.push_back(id);
        return id;
    }

    void
    close(std::int64_t id)
    {
        double now = us(Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].endUs = now;
        open_.pop_back();
    }

    /** Record a finished span with explicit times (service spans). */
    std::int64_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::int64_t parent, std::int64_t batch, std::int64_t cell,
        std::int64_t worker)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = name;
        s.startUs = us(start);
        s.endUs = us(end);
        s.parent = parent;
        s.batch = batch;
        s.cell = cell;
        s.worker = worker;
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    tagKey(std::int64_t id, std::int64_t key, bool recorded)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].key = key;
        spans_[id].recorded = recorded;
    }

    /** Read only after every thread that opened spans has joined. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    /** Open spans of the calling thread, innermost last. */
    static thread_local std::vector<std::int64_t> open_;

    Clock::time_point origin_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

thread_local std::vector<std::int64_t> Tracer::open_;

class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::int64_t batch,
          std::int64_t cell)
        : t_(t), id_(t.open(name, batch, cell))
    {
    }
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &t_;
    std::int64_t id_;
};

/** Per-span self time (us): duration minus the union of its
 *  children's intervals clipped to it. */
std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].push_back({s.startUs, s.endUs});
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double lo = spans[i].startUs, hi = spans[i].endUs;
        auto &k = kids[i];
        std::sort(k.begin(), k.end());
        double covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [a, b] : k) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (a > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = a;
                cur_hi = b;
            } else {
                cur_hi = std::max(cur_hi, b);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

// ------------------------------------------------------------------
// Report
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Extra numeric fields (percentile, samples, base_value, ...). */
    std::vector<std::pair<std::string, double>> extra;
    /** A ratio's base, in words. */
    std::string base;
};

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

void
putNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
putNumbers(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        os << (i ? ", " : "");
        putNumber(os, v[i]);
    }
    os << "]";
}

struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    unsigned jobs = 0;
    std::uint64_t opsPerCell = 0;
    std::size_t cellsPerBatch = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Wall time of every timed, untraced batch, in run order. */
    std::vector<double> batchWallsMs;
    /** Every set-up repetition behind setup_s, in run order. */
    std::vector<double> setupSamplesS;
    std::vector<Check> checks;
    std::vector<Metric> metrics;
    std::vector<Span> spans;

    void
    metric(const std::string &name, double value, const std::string &unit,
           std::vector<std::pair<std::string, double>> extra = {},
           const std::string &base = "")
    {
        metrics.push_back({name, value, unit, std::move(extra), base});
    }

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back({name, ok, detail});
    }

    bool
    correct() const
    {
        if (failed != 0)
            return false;
        for (const Check &c : checks) {
            if (!c.ok)
                return false;
        }
        return true;
    }

    void
    write(std::ostream &os) const
    {
        os << "{\n  \"schema\": \"ap-perfbench-v1\",\n"
           << "  \"workload\": \"" << jsonEscape(workload) << "\",\n"
           << "  \"seed\": " << seed << ",\n  \"seconds\": ";
        putNumber(os, seconds);
        os << ",\n  \"trace\": " << (trace ? "true" : "false") << ",\n"
           << "  \"host\": ";
        ap::writeHostMetaJson(os, ap::currentHostMeta(jobs));
        os << ",\n  \"ops_per_cell\": " << opsPerCell
           << ",\n  \"cells_per_batch\": " << cellsPerBatch
           << ",\n  \"correct\": " << (correct() ? "true" : "false")
           << ",\n  \"attempted\": " << attempted
           << ",\n  \"failed\": " << failed << ",\n  \"batch_walls_ms\": ";
        putNumbers(os, batchWallsMs);
        os << ",\n  \"setup_samples_s\": ";
        putNumbers(os, setupSamplesS);
        os << ",\n  \"checks\": [";
        for (std::size_t i = 0; i < checks.size(); ++i) {
            const Check &c = checks[i];
            os << (i ? "," : "") << "\n    {\"name\": \""
               << jsonEscape(c.name) << "\", \"ok\": "
               << (c.ok ? "true" : "false") << ", \"detail\": \""
               << jsonEscape(c.detail) << "\"}";
        }
        os << "\n  ],\n  \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const Metric &m = metrics[i];
            os << (i ? "," : "") << "\n    \"" << m.name
               << "\": {\"value\": ";
            putNumber(os, m.value);
            os << ", \"unit\": \"" << m.unit << "\"";
            for (const auto &[k, v] : m.extra) {
                os << ", \"" << k << "\": ";
                putNumber(os, v);
            }
            if (!m.base.empty())
                os << ", \"base\": \"" << jsonEscape(m.base) << "\"";
            os << "}";
        }
        os << "\n  },\n  \"spans\": [";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? "," : "") << "\n    {\"name\": \"" << s.name
               << "\", \"start_us\": ";
            putNumber(os, s.startUs);
            os << ", \"end_us\": ";
            putNumber(os, s.endUs);
            os << ", \"parent\": " << s.parent << ", \"batch\": " << s.batch
               << ", \"cell\": " << s.cell << ", \"worker\": " << s.worker
               << ", \"key\": " << s.key << ", \"recorded\": "
               << (s.recorded ? "true" : "false") << "}";
        }
        os << "\n  ]\n}\n";
    }
};

/** End-to-end latency metrics shared by every workload. */
void
latencyMetrics(Report &rep, const std::vector<double> &cell_ms,
               const std::vector<double> &batch_ms,
               const std::vector<double> &first_ms)
{
    Tail cell = tailOf(cell_ms);
    Tail batch = tailOf(batch_ms);
    rep.metric("cell_p50_ms", median(cell_ms), "ms",
               {{"samples", double(cell_ms.size())}});
    rep.metric("cell_tail_ms", cell.value, "ms",
               {{"percentile", cell.percentile},
                {"samples", double(cell.samples)}});
    rep.metric("batch_p50_ms", median(batch_ms), "ms",
               {{"samples", double(batch_ms.size())}});
    rep.metric("batch_tail_ms", batch.value, "ms",
               {{"percentile", batch.percentile},
                {"samples", double(batch.samples)}});
    rep.metric("first_result_ms", median(first_ms), "ms",
               {{"samples", double(first_ms.size())}});
}

/** Per-layer metrics measured only in-process (engine) or only on
 *  apsimd-rows (service); other workloads print them as not measured. */
constexpr std::pair<const char *, const char *> kEngineLayers[] = {
    {"trace.record_s", "s"},
    {"trace.compile_s", "s"},
    {"trace.wait_s", "s"},
    {"trace.lookup_s", "s"},
    {"trace.records", "count"},
    {"trace.replays", "count"},
    {"sim.construct_s", "s"},
    {"sim.warmup_s", "s"},
    {"snapshot.capture_s", "s"},
    {"snapshot.lookup_s", "s"},
    {"sim.teardown_s", "s"},
    {"sim.measured_s", "s"},
    {"sim.measured_ns_per_instr", "ns"},
    {"sim.l0_filtered_frac", "frac"},
    {"sim.l0_run_fastpaths", "count"},
    {"snapshot.restore_s", "s"},
    {"sim.pool_acquire_s", "s"},
    {"sim.pool_reuse_frac", "frac"},
    {"snapshot.forks", "count"},
    {"snapshot.captures", "count"},
    {"snapshot.evictions", "count"},
    {"snapshot.resident_mb", "MB"},
    {"sim.worker_busy_frac", "frac"},
    {"trace.uncovered_frac", "frac"},
};
constexpr std::pair<const char *, const char *> kServiceLayers[] = {
    {"service.affinity_hits", "count"},
    {"service.steals", "count"},
    {"service.retries", "count"},
    {"service.cell_errors", "count"},
    {"service.worker_cells_max_over_mean", "ratio"},
    {"service.encode_s", "s"},
    {"service.batch_self_s", "s"},
};

void
notMeasured(Report &rep, const char *name, const char *unit)
{
    rep.metric(name, 0, unit, {{"base_value", 0}},
               "not measured on this workload");
}

/** Exact simulated counts of one pass over the workload's cells. */
void
countMetrics(Report &rep, const std::vector<ap::RunResult> &runs)
{
    std::uint64_t instr = 0, traps = 0, shootdowns = 0, faults = 0,
                  misses = 0, walks = 0;
    double refs = 0;
    std::uint64_t h = kFnvBasis;
    for (const ap::RunResult &r : runs) {
        instr += r.instructions;
        traps += r.traps;
        shootdowns += r.shootdowns;
        faults += r.guestPageFaults;
        misses += r.tlbMisses;
        walks += r.walks;
        refs += r.avgWalkRefs * static_cast<double>(r.walks);
        h = fnv1a(h, runJson(r));
    }
    rep.metric("sim.instructions", double(instr), "count");
    rep.metric("sim.runs_hash", double(fold48(h)), "fnv48",
               {{"cells", double(runs.size())}});
    rep.metric("vmm.traps", double(traps), "count");
    rep.metric("tlb.shootdowns", double(shootdowns), "count");
    rep.metric("guestos.page_faults", double(faults), "count");
    rep.metric("tlb.misses", double(misses), "count");
    rep.metric("walker.walks", double(walks), "count");
    rep.metric("walker.refs_per_walk", walks ? refs / double(walks) : 0,
               "refs", {{"base_value", double(walks)}}, "walker.walks");
}

// ------------------------------------------------------------------
// In-process workloads
// ------------------------------------------------------------------

/** One run's caches: fresh per batch (cold) or kept warm (regen). */
struct Engine
{
    ap::TraceCache traces;
    ap::SnapshotCache snaps;
    ap::MachinePool pool;
};

struct Batch
{
    double wallMs = 0;
    double firstMs = 0;
    std::vector<double> cellMs;
    std::uint64_t instructions = 0;
    std::vector<ap::RunResult> runs;
    std::vector<char> cellFailed;
};

/** Simulated MIPS over a run: every batch's instructions over every
 *  batch's wall time (steadier than a median of per-batch rates). */
template <typename B>
double
mipsOver(const std::vector<B> &batches)
{
    double instr = 0, ms = 0;
    for (const B &b : batches) {
        instr += double(b.instructions);
        ms += b.wallMs;
    }
    return ms > 0 ? instr / 1e3 / ms : 0;
}

class InProcess
{
  public:
    InProcess(std::vector<ap::ExperimentSpec> specs, std::uint64_t seed,
              unsigned jobs)
        : specs_(std::move(specs)), seed_(seed), jobs_(jobs)
    {
        // Trace-key ids: cells sharing (workload, page size) share one
        // recorded stream (ops, seed and footprint are per-workload).
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            std::int64_t id = static_cast<std::int64_t>(i);
            for (std::size_t j = 0; j < i; ++j) {
                if (specs_[j].workload == specs_[i].workload &&
                    specs_[j].pageSize == specs_[i].pageSize) {
                    id = keyIds_[j];
                    break;
                }
            }
            keyIds_.push_back(id);
        }
    }

    const std::vector<ap::ExperimentSpec> &specs() const { return specs_; }
    unsigned jobs() const { return jobs_; }

    ap::WorkloadParams
    paramsFor(const ap::ExperimentSpec &spec) const
    {
        ap::WorkloadParams p = ap::defaultParamsFor(spec.workload);
        if (spec.operations)
            p.operations = spec.operations;
        p.seed = seed_;
        return p;
    }

    static ap::SimConfig
    configOf(const ap::ExperimentSpec &spec, const ap::WorkloadParams &p)
    {
        ap::SimConfig cfg =
            ap::configFor(spec.mode, spec.pageSize, p, spec.hwOpts);
        cfg.numVcpus = spec.numVcpus;
        cfg.tlbCoherence = spec.tlbCoherence;
        return cfg;
    }

    /** One pass over every cell through @p eng; traced when @p tracer
     *  is given, else through runCellSnapshotted itself. */
    Batch
    runBatch(Engine &eng, Tracer *tracer, std::int64_t batch_id) const
    {
        std::size_t n = specs_.size();
        std::vector<Clock::time_point> start(n), end(n);
        Batch b;
        b.cellFailed.assign(n, 0);
        ap::CellFn fn = [&](const ap::ExperimentSpec &spec) {
            auto i = static_cast<std::size_t>(&spec - specs_.data());
            ap_assert(i < n, "runExperiments passed a spec outside the "
                             "batch");
            start[i] = Clock::now();
            ap::RunResult r;
            try {
                ap::WorkloadParams p = paramsFor(spec);
                ap::SimConfig cfg = configOf(spec, p);
                if (tracer) {
                    r = tracedCell(eng, *tracer, batch_id, i, spec.workload,
                                   p, cfg);
                } else {
                    r = ap::runCellSnapshotted(eng.traces, eng.snaps,
                                               spec.workload, p, cfg,
                                               true, &eng.pool);
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "apbench: cell %zu failed: %s\n", i,
                             e.what());
                b.cellFailed[i] = 1;
            }
            end[i] = Clock::now();
            return r;
        };
        auto t0 = Clock::now();
        b.runs = ap::runExperiments(specs_, jobs_, fn);
        auto t1 = Clock::now();
        b.wallMs = msBetween(t0, t1);
        b.firstMs = msBetween(t0, *std::min_element(end.begin(), end.end()));
        for (std::size_t i = 0; i < n; ++i) {
            b.cellMs.push_back(msBetween(start[i], end[i]));
            b.instructions += b.runs[i].instructions;
        }
        return b;
    }

    /** Cold, uncached results of every cell at this seed. At the
     *  program's default seed this is runExperiment itself. */
    std::vector<ap::RunResult>
    reference() const
    {
        bool default_seed = true;
        for (const ap::ExperimentSpec &s : specs_)
            default_seed = default_seed &&
                           ap::defaultParamsFor(s.workload).seed == seed_;
        if (default_seed)
            return ap::runExperiments(specs_, jobs_);
        return ap::runExperiments(
            specs_, jobs_, [this](const ap::ExperimentSpec &spec) {
                ap::WorkloadParams p = paramsFor(spec);
                ap::Machine machine(configOf(spec, p));
                auto wl = ap::makeWorkload(spec.workload, p);
                if (!wl)
                    throw std::runtime_error("unknown workload " +
                                             spec.workload);
                return machine.run(*wl);
            });
    }

  private:
    /**
     * runCellSnapshotted's public calls, in its order, one span each.
     */
    ap::RunResult
    tracedCell(Engine &eng, Tracer &tr, std::int64_t batch, std::size_t cell_index,
               const std::string &workload_name,
               const ap::WorkloadParams &params,
               const ap::SimConfig &cfg) const
    {
        auto cell = static_cast<std::int64_t>(cell_index);
        Scope cell_span(tr, "cell", batch, cell);

        ap::TraceCacheKey tkey;
        tkey.workload = workload_name;
        tkey.pageSize = cfg.pageSize;
        tkey.operations = params.operations;
        tkey.seed = params.seed;
        tkey.footprintBytes = params.footprintBytes;
        tkey.warmupFraction = cfg.warmupFraction;

        std::optional<ap::RunResult> recorded;
        ap::TraceCache::TracePtr compiled;
        {
            Scope obtain(tr, "trace.obtain", batch, cell);
            compiled = eng.traces.obtain(tkey, [&] {
                std::unique_ptr<ap::Machine> machine;
                ap::RecordedRun rec;
                {
                    Scope s(tr, "trace.record", batch, cell);
                    auto workload =
                        ap::makeWorkload(workload_name, params);
                    if (!workload)
                        throw std::runtime_error("unknown workload " +
                                                 workload_name);
                    machine = std::make_unique<ap::Machine>(cfg);
                    rec = ap::recordRun(*machine, *workload);
                }
                recorded = rec.result;
                ap::TraceCache::TracePtr t;
                {
                    Scope s(tr, "trace.compile", batch, cell);
                    t = std::make_shared<const ap::CompiledTrace>(
                        ap::compileTrace(rec.trace));
                    ap::recycleTrace(std::move(rec.trace));
                }
                Scope s(tr, "sim.teardown", batch, cell);
                machine.reset();
                return t;
            });
            tr.tagKey(obtain.id(), keyIds_[cell_index],
                      recorded.has_value());
        }
        if (recorded)
            return *recorded;

        ap::SnapshotKey skey;
        skey.workload = workload_name;
        skey.operations = params.operations;
        skey.seed = params.seed;
        skey.footprintBytes = params.footprintBytes;
        skey.configDigest = ap::simConfigDigest(cfg);

        std::unique_ptr<ap::Machine> warm;
        std::unique_ptr<ap::BatchReplayWorkload> warm_replay;
        ap::SnapshotPtr snap;
        {
            Scope obtain(tr, "snapshot.obtain", batch, cell);
            snap = eng.snaps.obtain(skey, [&] {
                {
                    Scope s(tr, "sim.construct", batch, cell);
                    warm = std::make_unique<ap::Machine>(cfg);
                    warm_replay =
                        std::make_unique<ap::BatchReplayWorkload>(
                            compiled, true);
                }
                {
                    Scope s(tr, "sim.warmup", batch, cell);
                    warm->runWarmup(*warm_replay);
                }
                Scope s(tr, "snapshot.capture", batch, cell);
                return ap::captureSnapshot(*warm);
            });
        }

        ap::RunResult r;
        if (warm) {
            {
                Scope s(tr, "sim.measured", batch, cell);
                r = warm->runMeasured(*warm_replay);
            }
            Scope s(tr, "sim.teardown", batch, cell);
            warm_replay.reset();
            warm.reset();
        } else {
            ap::MachinePool::Lease lease;
            {
                Scope s(tr, "sim.pool_acquire", batch, cell);
                lease = eng.pool.acquire(cfg);
            }
            std::optional<ap::BatchReplayWorkload> replay;
            {
                Scope s(tr, "snapshot.restore", batch, cell);
                if (!ap::restoreSnapshot(*snap, *lease))
                    throw std::runtime_error("snapshot restore failed for " +
                                             workload_name);
                replay.emplace(compiled, true);
                replay->resumeAtBoundary(*lease);
            }
            {
                Scope s(tr, "sim.measured", batch, cell);
                r = lease->runMeasured(*replay);
            }
            Scope s(tr, "sim.teardown", batch, cell);
            replay.reset();
            lease.release();
        }
        r.workload = compiled->workload;
        return r;
    }

    std::vector<ap::ExperimentSpec> specs_;
    std::vector<std::int64_t> keyIds_;
    std::uint64_t seed_;
    unsigned jobs_;
};

/** Run batches until @p seconds have elapsed (at least one). */
template <typename Fn>
std::vector<Batch>
timedLoop(double seconds, Fn &&one)
{
    std::vector<Batch> out;
    auto t0 = Clock::now();
    while (out.empty() || msBetween(t0, Clock::now()) < seconds * 1e3)
        out.push_back(one(static_cast<std::int64_t>(out.size())));
    return out;
}

struct EngineCounters
{
    std::uint64_t records = 0, replays = 0, captures = 0, forks = 0,
                  evictions = 0, creates = 0, reuses = 0;

    static EngineCounters
    of(const Engine &e)
    {
        return {e.traces.records(), e.traces.replays(),
                e.snaps.captures(), e.snaps.forks(),
                e.snaps.evictions(), e.pool.creates(), e.pool.reuses()};
    }

    EngineCounters &
    operator+=(const EngineCounters &o)
    {
        records += o.records;
        replays += o.replays;
        captures += o.captures;
        forks += o.forks;
        evictions += o.evictions;
        creates += o.creates;
        reuses += o.reuses;
        return *this;
    }

    EngineCounters
    operator-(const EngineCounters &o) const
    {
        return {records - o.records,     replays - o.replays,
                captures - o.captures,   forks - o.forks,
                evictions - o.evictions, creates - o.creates,
                reuses - o.reuses};
    }
};

/** Per-layer metrics from the traced loop's spans and counters. */
void
inProcessLayerMetrics(Report &rep, const InProcess &ip,
                      const std::vector<Span> &spans,
                      const std::vector<Batch> &traced,
                      const EngineCounters &ctr, double resident_mb,
                      const ap::Machine::BatchFilterStats &filter,
                      double untraced_mips)
{
    double nb = double(traced.size());
    std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, double> self_s;
    double cell_total_s = 0, wait_s = 0, lookup_s = 0;
    std::uint64_t measured_instr = 0;
    // A trace.obtain that did not record waited on a sibling if the
    // key's recording call was still open when it started.
    std::map<std::pair<std::int64_t, std::int64_t>, double> recording_end;
    for (const Span &s : spans) {
        if (!std::strcmp(s.name, "trace.obtain") && s.recorded)
            recording_end[{s.batch, s.key}] = s.endUs;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double sec = self[i] / 1e6;
        if (!std::strcmp(s.name, "trace.obtain")) {
            auto it = recording_end.find({s.batch, s.key});
            bool waited = !s.recorded && it != recording_end.end() &&
                          s.startUs < it->second;
            (waited ? wait_s : lookup_s) += sec;
            continue;
        }
        self_s[s.name] += sec;
        if (!std::strcmp(s.name, "cell"))
            cell_total_s += (s.endUs - s.startUs) / 1e6;
        else if (!std::strcmp(s.name, "sim.measured"))
            measured_instr += traced[s.batch].runs[s.cell].instructions;
    }
    auto per_batch = [&](const char *name) { return self_s[name] / nb; };
    rep.metric("trace.record_s", per_batch("trace.record"), "s");
    rep.metric("trace.compile_s", per_batch("trace.compile"), "s");
    rep.metric("trace.wait_s", wait_s / nb, "s");
    rep.metric("trace.lookup_s", lookup_s / nb, "s");
    rep.metric("trace.records", double(ctr.records) / nb, "count");
    rep.metric("trace.replays", double(ctr.replays) / nb, "count");
    rep.metric("sim.construct_s", per_batch("sim.construct"), "s");
    rep.metric("sim.warmup_s", per_batch("sim.warmup"), "s");
    rep.metric("snapshot.capture_s", per_batch("snapshot.capture"), "s");
    rep.metric("snapshot.lookup_s", per_batch("snapshot.obtain"), "s");
    rep.metric("sim.teardown_s", per_batch("sim.teardown"), "s");
    rep.metric("sim.measured_s", per_batch("sim.measured"), "s");
    rep.metric("sim.measured_ns_per_instr",
               measured_instr ? self_s["sim.measured"] * 1e9 /
                                    double(measured_instr)
                              : 0,
               "ns", {{"base_value", double(measured_instr)}},
               "instructions retired inside sim.measured spans");
    rep.metric("sim.l0_filtered_frac",
               filter.lanesScanned ? double(filter.lanesFiltered) /
                                         double(filter.lanesScanned)
                                   : 0,
               "frac", {{"base_value", double(filter.lanesScanned)}},
               "lanes scanned");
    rep.metric("sim.l0_run_fastpaths", double(filter.runFastpaths) / nb,
               "count");
    rep.metric("snapshot.restore_s", per_batch("snapshot.restore"), "s");
    rep.metric("sim.pool_acquire_s", per_batch("sim.pool_acquire"), "s");
    double pool_base = double(ctr.creates + ctr.reuses);
    rep.metric("sim.pool_reuse_frac",
               pool_base ? double(ctr.reuses) / pool_base : 0, "frac",
               {{"base_value", pool_base}}, "pool creates + reuses");
    rep.metric("snapshot.forks", double(ctr.forks) / nb, "count");
    rep.metric("snapshot.captures", double(ctr.captures) / nb, "count");
    rep.metric("snapshot.evictions", double(ctr.evictions) / nb, "count");
    rep.metric("snapshot.resident_mb", resident_mb, "MB");

    double wall_s = 0;
    for (const Batch &b : traced)
        wall_s += b.wallMs / 1e3;
    double traced_mips = mipsOver(traced);
    rep.metric("sim.worker_busy_frac",
               wall_s > 0 ? cell_total_s / (ip.jobs() * wall_s) : 0, "frac",
               {{"base_value", ip.jobs() * wall_s}},
               "jobs x batch wall seconds");
    double uncovered_s = self_s["cell"];
    double overhead_frac =
        untraced_mips > 0 ? (untraced_mips - traced_mips) / untraced_mips
                          : 0;
    double uncovered_frac = cell_total_s > 0 ? uncovered_s / cell_total_s
                                             : 0;
    rep.metric("trace.overhead_mips", traced_mips - untraced_mips,
               "Minstr/s", {{"traced", traced_mips},
                            {"untraced", untraced_mips}});
    rep.metric("trace.overhead_frac", overhead_frac, "frac",
               {{"base_value", untraced_mips}}, "untraced sim_mips");
    rep.metric("trace.uncovered_frac", uncovered_frac, "frac",
               {{"base_value", cell_total_s}}, "summed cell span seconds");
    // The per-layer self times sum to the cell time minus the cell
    // spans' own uncovered time; that gap must stay within the
    // tracing overhead (floored at 0.5%, below what a wall-clock
    // overhead comparison can resolve).
    rep.check("self-times-cover-cells",
              uncovered_frac <= std::max(overhead_frac, 0.005),
              "uncovered " + std::to_string(uncovered_frac) +
                  " of cell time, tracing overhead " +
                  std::to_string(overhead_frac));
    for (const auto &[name, unit] : kServiceLayers)
        notMeasured(rep, name, unit);
}

/** Compare @p b against @p ref cell by cell; @return mismatches. */
std::uint64_t
countMismatches(const Batch &b, const std::vector<ap::RunResult> &ref)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (b.cellFailed[i] || !sameRun(b.runs[i], ref[i]))
            ++bad;
    }
    return bad;
}

int
runInProcess(const std::string &workload, InProcess &ip, double seconds,
             bool trace, Report &rep)
{
    const bool regen = workload == "fig5-regen";
    std::vector<double> setups;
    std::unique_ptr<Engine> warm;
    if (regen) {
        // Two passes warm every cache: the first records each trace
        // (the recording cells skip the snapshot cache), the second
        // captures the snapshots of those recording cells.
        for (unsigned i = 0; i < kRegenSetups; ++i) {
            warm.reset();
            auto t0 = Clock::now();
            warm = std::make_unique<Engine>();
            ip.runBatch(*warm, nullptr, -1);
            ip.runBatch(*warm, nullptr, -1);
            setups.push_back(msBetween(t0, Clock::now()) / 1e3);
        }
    } else {
        // The process's first pass grows its heap, thread stacks and
        // per-thread trace buffers; later passes start from there.
        auto t0 = Clock::now();
        Engine eng;
        ip.runBatch(eng, nullptr, -1);
        setups.push_back(msBetween(t0, Clock::now()) / 1e3);
    }

    auto one = [&](Tracer *tracer, EngineCounters *ctr,
                   double *resident_mb) {
        return [&, tracer, ctr, resident_mb](std::int64_t id) {
            if (regen)
                return ip.runBatch(*warm, tracer, id);
            Engine eng;
            Batch b = ip.runBatch(eng, tracer, id);
            if (ctr) {
                *ctr += EngineCounters::of(eng);
                *resident_mb = double(eng.snaps.residentBytes()) / 1048576.0;
            }
            return b;
        };
    };

    // A traced run splits its time between the untraced and the traced
    // loop, so it costs no more than an untraced run.
    const double loop_s = trace ? seconds / 2 : seconds;
    std::vector<Batch> timed =
        timedLoop(loop_s, one(nullptr, nullptr, nullptr));
    double peak_rss = selfPeakRssMb();

    std::vector<Batch> traced;
    Tracer tracer(Clock::now());
    EngineCounters ctr;
    double resident_mb = 0;
    ap::Machine::BatchFilterStats filter;
    if (trace) {
        EngineCounters before = regen ? EngineCounters::of(*warm)
                                      : EngineCounters{};
        ap::Machine::resetBatchFilterStats();
        traced = timedLoop(loop_s, one(&tracer, &ctr, &resident_mb));
        filter = ap::Machine::batchFilterStats();
        if (regen) {
            ctr = EngineCounters::of(*warm) - before;
            resident_mb = double(warm->snaps.residentBytes()) / 1048576.0;
        }
    }

    std::vector<ap::RunResult> ref = ip.reference();
    for (const Batch &b : timed) {
        rep.attempted += ref.size();
        rep.failed += countMismatches(b, ref);
    }
    for (const Batch &b : traced) {
        rep.attempted += ref.size();
        rep.failed += countMismatches(b, ref);
    }
    bool traced_same = true;
    for (const Batch &b : traced) {
        for (std::size_t i = 0; i < b.runs.size(); ++i)
            traced_same = traced_same &&
                          sameRun(b.runs[i], timed.front().runs[i]);
    }
    rep.check("reference", rep.failed == 0,
              std::to_string(rep.failed) + " of " +
                  std::to_string(rep.attempted) +
                  " cells differ from the cold uncached run");
    if (trace)
        rep.check("traced-equals-untraced", traced_same,
                  "traced results vs the untraced run, cell for cell");

    std::vector<double> cell_ms, batch_ms, first_ms;
    for (const Batch &b : timed) {
        cell_ms.insert(cell_ms.end(), b.cellMs.begin(), b.cellMs.end());
        batch_ms.push_back(b.wallMs);
        first_ms.push_back(b.firstMs);
        rep.batchWallsMs.push_back(b.wallMs);
    }
    double untraced_mips = mipsOver(timed);
    rep.metric("sim_mips", untraced_mips, "Minstr/s",
               {{"samples", double(timed.size())}});
    latencyMetrics(rep, cell_ms, batch_ms, first_ms);
    rep.metric("peak_rss_mb", peak_rss, "MB");
    rep.metric("setup_s", median(setups), "s",
               {{"samples", double(setups.size())}});
    rep.setupSamplesS = setups;
    rep.metric("ok_frac",
               1.0 - double(rep.failed) / double(rep.attempted), "frac",
               {{"base_value", double(rep.attempted)}}, "cells attempted");
    countMetrics(rep, ref);
    if (trace) {
        inProcessLayerMetrics(rep, ip, tracer.spans(), traced, ctr,
                              resident_mb, filter,
                              untraced_mips);
        rep.spans = tracer.spans();
    }
    return 0;
}

// ------------------------------------------------------------------
// apsimd-rows
// ------------------------------------------------------------------

std::vector<ap::ExperimentSpec>
rowSpecs(const std::vector<ap::ExperimentSpec> &matrix, unsigned row)
{
    return {matrix.begin() + row * kRowCells,
            matrix.begin() + (row + 1) * kRowCells};
}

/**
 * The seed's row sequence: rounds that each visit every Figure-5 row
 * once, in a seeded order. Rows repeat every round, so after the first
 * round batches hit warm worker pools, and every seed sends the same
 * mix of rows (a uniform draw would let the mix, and with it the
 * metrics, vary from seed to seed).
 */
class RowStream
{
  public:
    RowStream(std::uint64_t seed, unsigned rows) : gen_(seed), order_(rows)
    {
        for (unsigned i = 0; i < rows; ++i)
            order_[i] = i;
    }

    unsigned
    next()
    {
        if (pos_ == 0) {
            for (std::size_t i = order_.size() - 1; i > 0; --i)
                std::swap(order_[i], order_[gen_() % (i + 1)]);
        }
        unsigned row = order_[pos_];
        pos_ = (pos_ + 1) % order_.size();
        return row;
    }

  private:
    std::mt19937_64 gen_;
    std::vector<unsigned> order_;
    std::size_t pos_ = 0;
};

std::uint64_t
instructionsOf(const std::string &run_json)
{
    const char key[] = "\"instructions\": ";
    std::size_t pos = run_json.find(key);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(run_json.c_str() + pos + sizeof(key) - 1, nullptr,
                         10);
}

struct RowBatch
{
    RowBatch(unsigned r, std::size_t cells)
        : row(r), cellMs(cells, 0), runs(cells), workers(cells, -1)
    {
    }

    /** Book a RunFrame that arrived at @p now for a batch submitted at
     *  @p t0. @return its cell index, or -1 if it names none. */
    std::int64_t
    book(Clock::time_point t0, Clock::time_point now,
         const std::string &json)
    {
        std::int64_t cell = ap::service::cellOfFrame(json);
        if (cell < 0 || cell >= static_cast<std::int64_t>(runs.size()))
            return -1;
        if (frames++ == 0)
            firstMs = msBetween(t0, now);
        auto c = static_cast<std::size_t>(cell);
        cellMs[c] = msBetween(t0, now);
        runs[c] = ap::service::runObjectOfFrame(json);
        workers[c] = ap::service::workerOfFrame(json);
        instructions += instructionsOf(runs[c]);
        return cell;
    }

    unsigned row = 0;
    bool ok = false;
    double wallMs = 0;
    double firstMs = 0;
    std::size_t frames = 0;
    std::vector<double> cellMs;
    std::vector<std::string> runs;
    std::vector<std::int64_t> workers;
    std::uint64_t instructions = 0;
};

/** A started service with its dispatch thread. */
class Service
{
  public:
    explicit Service(unsigned workers)
    {
        ap::service::ServiceOptions opt;
        opt.tcpPort = 0;
        opt.workers = workers;
        server_ = std::make_unique<ap::service::ServiceServer>(opt);
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    ~Service() { stop(); }

    /** Pre-fork the workers (single-threaded caller) and serve. */
    bool
    start(std::string &err)
    {
        if (!server_->start(&err))
            return false;
        thread_ = std::thread([this] { server_->serve(); });
        return true;
    }

    int port() const { return server_->port(); }

    double
    workersPeakRssMb() const
    {
        double mb = 0;
        for (pid_t pid : server_->workerPids())
            mb += childPeakRssMb(pid);
        return mb;
    }

    /** Drain, reap the workers and join the dispatch thread. */
    void
    stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    /** Valid after stop(). */
    const ap::service::ServiceStats &stats() const
    {
        return server_->stats();
    }

  private:
    std::unique_ptr<ap::service::ServiceServer> server_;
    std::thread thread_;
};

/** One row batch through ServiceClient::runBatch. */
RowBatch
submitRow(ap::service::ServiceClient &client,
          const std::vector<ap::ExperimentSpec> &specs, unsigned row)
{
    RowBatch b(row, specs.size());
    auto t0 = Clock::now();
    ap::service::BatchOutcome out = client.runBatch(
        specs, [&](ap::service::FrameType type, const std::string &json) {
            if (type == ap::service::FrameType::RunFrame)
                b.book(t0, Clock::now(), json);
        });
    b.wallMs = msBetween(t0, Clock::now());
    b.ok = out.ok && out.errors == 0;
    return b;
}

/**
 * One row batch over a raw connection, composing runBatch's public
 * calls (encodeBatch, writeFrame, readFrame) with spans around them.
 */
RowBatch
submitRowTraced(int fd, Tracer &tr,
                const std::vector<ap::ExperimentSpec> &specs, unsigned row,
                std::int64_t batch)
{
    namespace sv = ap::service;
    RowBatch b(row, specs.size());
    std::vector<Clock::time_point> arrived(specs.size());
    Scope batch_span(tr, "service.batch", batch, -1);
    auto t0 = Clock::now();
    std::vector<std::uint8_t> payload;
    {
        Scope s(tr, "service.encode", batch, -1);
        payload = sv::encodeBatch(specs);
    }
    bool sent = sv::writeFrame(fd, sv::FrameType::BatchRequest, payload);
    for (bool done = !sent; !done;) {
        sv::Frame frame;
        if (sv::readFrame(fd, frame) != sv::ReadStatus::Ok)
            break;
        auto now = Clock::now();
        std::string json(frame.payload.begin(), frame.payload.end());
        switch (frame.type) {
          case sv::FrameType::RunFrame: {
            std::int64_t cell = b.book(t0, now, json);
            if (cell >= 0)
                arrived[static_cast<std::size_t>(cell)] = now;
            break;
          }
          case sv::FrameType::BatchEnd:
            b.ok = true;
            done = true;
            break;
          case sv::FrameType::Error:
            // A cell-scoped error still ends in BatchEnd; a batch
            // rejection does not.
            if (json.find("\"cell\":") == std::string::npos)
                done = true;
            break;
          default:
            break;
        }
    }
    b.wallMs = msBetween(t0, Clock::now());
    for (std::size_t c = 0; c < specs.size(); ++c) {
        if (b.runs[c].empty())
            b.ok = false;
        else
            tr.add("service.cell", t0, arrived[c], batch_span.id(), batch,
                   static_cast<std::int64_t>(c), b.workers[c]);
    }
    return b;
}

/** ServiceClient keeps its socket private, so the traced pass opens
 *  its own loopback connection. @return the fd, or -1. */
int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

template <typename Fn>
std::vector<RowBatch>
timedRows(double seconds, std::uint64_t seed, unsigned rows, Fn &&one)
{
    RowStream stream(seed, rows);
    std::vector<RowBatch> out;
    auto t0 = Clock::now();
    while (out.empty() || msBetween(t0, Clock::now()) < seconds * 1e3) {
        auto id = static_cast<std::int64_t>(out.size());
        out.push_back(one(stream.next(), id));
        if (!out.back().ok)
            break;
    }
    return out;
}

int
runService(std::uint64_t seed, double seconds, bool trace, unsigned jobs,
           Report &rep)
{
    const unsigned workers = std::min(kMaxServiceWorkers, jobs);
    const std::vector<ap::ExperimentSpec> matrix =
        ap::figure5Specs(kFig5Ops);
    const auto rows = static_cast<unsigned>(matrix.size() / kRowCells);

    // Set-up: daemon start + worker pre-fork + connect, repeated; the
    // last service stays up for the timed loop. Each start happens
    // with no other thread alive, as ServiceServer::start requires.
    std::vector<double> setups;
    std::unique_ptr<Service> svc;
    ap::service::ServiceClient client;
    for (unsigned i = 0; i < kServiceSetups; ++i) {
        if (svc) {
            client.close();
            svc->stop();
        }
        auto t0 = Clock::now();
        svc = std::make_unique<Service>(workers);
        std::string err;
        if (!svc->start(err) || !client.connectTcp(svc->port(), &err)) {
            std::fprintf(stderr, "apbench: service set-up: %s\n",
                         err.c_str());
            return 1;
        }
        setups.push_back(msBetween(t0, Clock::now()) / 1e3);
    }

    const double loop_s = trace ? seconds / 2 : seconds;
    std::vector<RowBatch> timed = timedRows(
        loop_s, seed, rows, [&](unsigned row, std::int64_t) {
            return submitRow(client, rowSpecs(matrix, row), row);
        });
    double peak_rss = selfPeakRssMb() + svc->workersPeakRssMb();
    client.close();
    svc->stop();
    ap::service::ServiceStats stats = svc->stats();
    svc.reset();

    // The traced pass replays the same row sequence on a fresh
    // service, so it pays the same cold rows the untraced pass did.
    Tracer tracer(Clock::now());
    std::vector<RowBatch> traced;
    if (trace) {
        Service tsvc(workers);
        std::string err;
        if (!tsvc.start(err)) {
            std::fprintf(stderr, "apbench: service: %s\n", err.c_str());
            return 1;
        }
        int fd = connectLoopback(tsvc.port());
        if (fd < 0) {
            std::fprintf(stderr, "apbench: cannot connect to service\n");
            return 1;
        }
        traced = timedRows(loop_s, seed, rows,
                           [&](unsigned row, std::int64_t id) {
                               return submitRowTraced(
                                   fd, tracer, rowSpecs(matrix, row), row,
                                   id);
                           });
        ::close(fd);
        tsvc.stop();
    }

    // Reference: cold uncached runExperiment of every cell (the wire
    // carries no seed, so the service always runs the default seed).
    std::vector<ap::RunResult> ref = ap::runExperiments(matrix, jobs);
    std::vector<std::string> expected;
    for (const ap::RunResult &r : ref)
        expected.push_back(runJson(r));

    // First received run object per matrix cell (untraced pass).
    std::vector<std::string> seen(matrix.size());
    auto check = [&](const std::vector<RowBatch> &batches,
                     bool record_seen) {
        for (const RowBatch &b : batches) {
            for (std::size_t c = 0; c < kRowCells; ++c) {
                std::size_t m = b.row * kRowCells + c;
                ++rep.attempted;
                if (!b.ok || b.runs[c] != expected[m])
                    ++rep.failed;
                if (record_seen && seen[m].empty())
                    seen[m] = b.runs[c];
            }
        }
    };
    check(timed, true);
    check(traced, false);
    bool traced_same = true;
    for (const RowBatch &b : traced) {
        for (std::size_t c = 0; c < kRowCells; ++c) {
            const std::string &u = seen[b.row * kRowCells + c];
            traced_same = traced_same && (u.empty() || u == b.runs[c]);
        }
    }
    rep.check("reference", rep.failed == 0,
              std::to_string(rep.failed) + " of " +
                  std::to_string(rep.attempted) +
                  " streamed run objects differ from writeRunResultJson "
                  "of the cold uncached run");
    if (trace)
        rep.check("traced-equals-untraced", traced_same,
                  "traced run objects vs the untraced run, cell for cell");

    std::vector<double> cell_ms, batch_ms, first_ms;
    std::vector<double> worker_cells(workers, 0);
    for (const RowBatch &b : timed) {
        cell_ms.insert(cell_ms.end(), b.cellMs.begin(), b.cellMs.end());
        batch_ms.push_back(b.wallMs);
        first_ms.push_back(b.firstMs);
        rep.batchWallsMs.push_back(b.wallMs);
        for (std::int64_t w : b.workers) {
            if (w >= 0 && w < static_cast<std::int64_t>(workers))
                worker_cells[static_cast<std::size_t>(w)] += 1;
        }
    }
    double untraced_mips = mipsOver(timed);
    rep.metric("sim_mips", untraced_mips, "Minstr/s",
               {{"samples", double(timed.size())}});
    latencyMetrics(rep, cell_ms, batch_ms, first_ms);
    rep.metric("peak_rss_mb", peak_rss, "MB", {{"workers", double(workers)}});
    rep.metric("setup_s", median(setups), "s",
               {{"samples", double(setups.size())}});
    rep.setupSamplesS = setups;
    rep.metric("ok_frac", 1.0 - double(rep.failed) / double(rep.attempted),
               "frac", {{"base_value", double(rep.attempted)}},
               "cells attempted");

    // Simulated counts over the distinct cells the stream reached.
    std::vector<ap::RunResult> distinct;
    for (std::size_t m = 0; m < matrix.size(); ++m) {
        if (!seen[m].empty())
            distinct.push_back(ref[m]);
    }
    countMetrics(rep, distinct);

    if (trace) {
        const std::vector<Span> &spans = tracer.spans();
        std::vector<double> self = selfTimesUs(spans);
        double encode_s = 0, batch_self_s = 0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (!std::strcmp(spans[i].name, "service.encode"))
                encode_s += self[i] / 1e6;
            else if (!std::strcmp(spans[i].name, "service.batch"))
                batch_self_s += self[i] / 1e6;
        }
        double nb = double(timed.size());
        double ntb = double(traced.size());
        double traced_mips = mipsOver(traced);
        // The engine layers run inside the worker processes, which
        // this benchmark cannot see into without program changes.
        for (const auto &[name, unit] : kEngineLayers)
            notMeasured(rep, name, unit);
        rep.metric("trace.overhead_mips", traced_mips - untraced_mips,
                   "Minstr/s",
                   {{"traced", traced_mips}, {"untraced", untraced_mips}});
        rep.metric("trace.overhead_frac",
                   untraced_mips > 0
                       ? (untraced_mips - traced_mips) / untraced_mips
                       : 0,
                   "frac", {{"base_value", untraced_mips}},
                   "untraced sim_mips");
        rep.metric("service.affinity_hits", double(stats.affinityHits) / nb,
                   "count");
        rep.metric("service.steals", double(stats.steals) / nb, "count");
        rep.metric("service.retries", double(stats.cellRetries) / nb,
                   "count");
        rep.metric("service.cell_errors", double(stats.cellErrors) / nb,
                   "count");
        double mean = 0, most = 0;
        for (double c : worker_cells) {
            mean += c / workers;
            most = std::max(most, c);
        }
        rep.metric("service.worker_cells_max_over_mean",
                   mean > 0 ? most / mean : 0, "ratio",
                   {{"base_value", mean}}, "mean cells per worker");
        rep.metric("service.encode_s", encode_s / ntb, "s");
        rep.metric("service.batch_self_s", batch_self_s / ntb, "s");
        rep.spans = spans;
    }
    return 0;
}

std::vector<ap::ExperimentSpec>
churnSpecs()
{
    std::vector<ap::ExperimentSpec> specs;
    for (const char *wl : {"shootdown_storm", "reclaim_scan",
                           "page_migration"}) {
        for (ap::TlbCoherence coh :
             {ap::TlbCoherence::Software, ap::TlbCoherence::Hardware}) {
            for (ap::VirtMode mode : {ap::VirtMode::Nested,
                                      ap::VirtMode::Shadow,
                                      ap::VirtMode::Agile}) {
                ap::ExperimentSpec s;
                s.workload = wl;
                s.mode = mode;
                s.pageSize = ap::PageSize::Size4K;
                s.operations = kChurnOps;
                s.numVcpus = 4;
                s.tlbCoherence = coh;
                specs.push_back(s);
            }
        }
    }
    return specs;
}

bool
parseU64Arg(const char *s, std::uint64_t &out)
{
    if (!s || !*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: apbench --workload fig5-cold|fig5-regen|"
                 "churn-4vcpu|apsimd-rows --seed N --seconds S "
                 "--trace 0|1 --report PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, report_path;
    std::uint64_t seed = 42, seconds = 10, trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        bool ok = v != nullptr;
        if (a == "--workload" && ok)
            workload = v;
        else if (a == "--report" && ok)
            report_path = v;
        else if (a == "--seed" && ok)
            ok = parseU64Arg(v, seed);
        else if (a == "--seconds" && ok)
            ok = parseU64Arg(v, seconds) && seconds >= 1;
        else if (a == "--trace" && ok)
            ok = parseU64Arg(v, trace) && trace <= 1;
        else
            ok = false;
        if (!ok)
            return usage();
        ++i;
    }
    if (report_path.empty())
        return usage();
    ap::setQuietLogging(true);

    Report rep;
    rep.workload = workload;
    rep.seed = seed;
    rep.seconds = double(seconds);
    rep.trace = trace != 0;
    rep.jobs = usableCpus();

    int rc = 0;
    if (workload == "apsimd-rows") {
        rep.opsPerCell = kFig5Ops;
        rep.cellsPerBatch = kRowCells;
        rep.jobs = std::min(kMaxServiceWorkers, rep.jobs);
        // Must run before this process starts any thread.
        rc = runService(seed, double(seconds), rep.trace, usableCpus(), rep);
    } else if (workload == "fig5-cold" || workload == "fig5-regen" ||
               workload == "churn-4vcpu") {
        bool churn = workload == "churn-4vcpu";
        InProcess ip(churn ? churnSpecs() : ap::figure5Specs(kFig5Ops), seed,
                     rep.jobs);
        rep.opsPerCell = churn ? kChurnOps : kFig5Ops;
        rep.cellsPerBatch = ip.specs().size();
        rc = runInProcess(workload, ip, double(seconds), rep.trace, rep);
    } else {
        return usage();
    }
    if (rc != 0)
        return rc;

    std::ofstream out(report_path);
    rep.write(out);
    out.close();
    if (!out) {
        std::fprintf(stderr, "apbench: cannot write %s\n",
                     report_path.c_str());
        return 1;
    }
    std::printf("apbench: %s seed %llu: %s, %llu cells, %llu failed\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                rep.correct() ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    return 0;
}
