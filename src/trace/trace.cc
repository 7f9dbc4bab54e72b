/**
 * @file
 * Trace serialization and replay implementation.
 */

#include "trace/trace.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "base/logging.hh"
#include "trace/compiled_trace.hh"

namespace ap
{

namespace
{
constexpr char kMagic[8] = {'A', 'P', 'T', 'R', 'A', 'C', 'E', '1'};

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
get(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return bool(is);
}
} // namespace

TraceReplayWorkload::TraceReplayWorkload(Trace trace)
    : Workload(WorkloadParams{}), trace_(std::move(trace))
{
    params_.seed = trace_.seed;
    params_.operations =
        trace_.events.size() > trace_.warmupEvents
            ? trace_.events.size() - trace_.warmupEvents
            : 0;
}

std::string
TraceReplayWorkload::name() const
{
    return "replay:" + trace_.workload;
}

void
TraceReplayWorkload::init(WorkloadHost &host)
{
    (void)host;
    next_ = 0;
}

void
TraceReplayWorkload::warmup(WorkloadHost &host)
{
    while (next_ < trace_.warmupEvents && next_ < trace_.events.size()) {
        applyTraceEvent(host, trace_.events[next_]);
        ++next_;
    }
}

bool
TraceReplayWorkload::step(WorkloadHost &host)
{
    if (next_ >= trace_.events.size())
        return false;
    applyTraceEvent(host, trace_.events[next_]);
    ++next_;
    return next_ < trace_.events.size();
}

bool
writeTrace(const Trace &trace, std::ostream &os)
{
    return writeCompiledTrace(compileTrace(trace), os);
}

bool
writeTraceV1(const Trace &trace, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    std::uint64_t name_len = trace.workload.size();
    put(os, name_len);
    os.write(trace.workload.data(),
             static_cast<std::streamsize>(name_len));
    put(os, trace.seed);
    put(os, trace.warmupEvents);
    std::uint64_t count = trace.events.size();
    put(os, count);
    for (const TraceEvent &e : trace.events) {
        put(os, static_cast<std::uint8_t>(e.kind));
        put(os, e.addr);
        put(os, e.arg);
        put(os, e.fileId);
        std::uint8_t flags = (e.flag ? 1 : 0) | (e.fileBacked ? 2 : 0);
        put(os, flags);
    }
    return bool(os);
}

bool
readTrace(std::istream &is, Trace &out)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is)
        return false;
    // Version sniff: v2 is the RLE/SoA compiled layout, v1 the legacy
    // per-event one. Both decode into the same in-memory Trace.
    if (std::memcmp(magic, "APTRACE2", 8) == 0) {
        CompiledTrace compiled;
        if (!detail::readCompiledTraceBody(is, compiled))
            return false;
        out = decompileTrace(compiled);
        return true;
    }
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return false;
    std::uint64_t name_len = 0;
    if (!get(is, name_len) || name_len > (1u << 20))
        return false;
    out.workload.resize(name_len);
    is.read(out.workload.data(), static_cast<std::streamsize>(name_len));
    std::uint64_t count = 0;
    if (!get(is, out.seed) || !get(is, out.warmupEvents) ||
        !get(is, count)) {
        return false;
    }
    // No reserve(count): the count is untrusted, so the vector grows
    // only as events actually arrive and a lying count fails at EOF.
    out.events.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceEvent e;
        std::uint8_t kind = 0, flags = 0;
        if (!get(is, kind) || !get(is, e.addr) || !get(is, e.arg) ||
            !get(is, e.fileId) || !get(is, flags)) {
            return false;
        }
        if (kind > static_cast<std::uint8_t>(
                       TraceEvent::Kind::SharePages)) {
            return false;
        }
        e.kind = static_cast<TraceEvent::Kind>(kind);
        e.flag = flags & 1;
        e.fileBacked = flags & 2;
        out.events.push_back(e);
    }
    return true;
}

bool
writeTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(trace, os);
}

bool
writeTraceFileV1(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTraceV1(trace, os);
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readTrace(is, out);
}

} // namespace ap
