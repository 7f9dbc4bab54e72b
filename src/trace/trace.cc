/**
 * @file
 * Trace serialization: the event-list form goes to disk through the
 * compiled RLE/SoA format, the only one on disk.
 */

#include "trace/trace.hh"

#include <fstream>

#include "trace/compiled_trace.hh"

namespace ap
{

bool
writeTrace(const Trace &trace, std::ostream &os)
{
    return writeCompiledTrace(compileTrace(trace), os);
}

bool
readTrace(std::istream &is, Trace &out)
{
    CompiledTrace compiled;
    if (!readCompiledTrace(is, compiled))
        return false;
    out = decompileTrace(compiled);
    return true;
}

bool
writeTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(trace, os);
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readTrace(is, out);
}

} // namespace ap
