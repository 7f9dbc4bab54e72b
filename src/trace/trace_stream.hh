/**
 * @file
 * Bounded-memory trace file streaming.
 *
 * readTraceFile materializes the whole event vector, which for a
 * multi-million-op capture is hundreds of MB. TraceFileReader decodes
 * an APTRACE2 trace file in chunks, holding at most one
 * access run (kMaxRunEvents) of scratch; StreamReplayWorkload replays
 * straight off such a reader so arbitrarily large trace files run in
 * constant memory. trace_tool uses the reader to summarize files it
 * could never load whole.
 */

#ifndef AGILEPAGING_TRACE_TRACE_STREAM_HH
#define AGILEPAGING_TRACE_TRACE_STREAM_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/compiled_trace.hh"
#include "trace/trace.hh"

namespace ap
{

/**
 * Incremental decoder for a trace file. Opens, reads the header, and
 * then serves events in file order via next(). Forward-only; reopen
 * to rewind.
 */
class TraceFileReader
{
  public:
    explicit TraceFileReader(const std::string &path);

    /** Header parsed and no decode error so far. */
    bool ok() const { return open_ && !bad_; }

    const std::string &workload() const { return workload_; }
    std::uint64_t seed() const { return seed_; }
    std::uint64_t warmupEvents() const { return warmup_; }
    /** Total events in the file (from the header). */
    std::uint64_t eventCount() const { return event_count_; }
    /** Events handed out so far. */
    std::uint64_t eventsRead() const { return events_read_; }

    /**
     * Decode up to @p max further events, appending to @p out (which
     * is cleared first). @return the number appended; 0 at end of
     * file or on a malformed stream (check ok()).
     */
    std::size_t next(std::vector<TraceEvent> &out, std::size_t max);

  private:
    bool readHeader();
    bool refillRun();

    std::ifstream is_;
    bool open_ = false;
    bool bad_ = false;
    std::string workload_;
    std::uint64_t seed_ = 0;
    std::uint64_t warmup_ = 0;
    std::uint64_t event_count_ = 0;
    std::uint64_t op_count_ = 0;
    std::uint64_t ops_read_ = 0;
    std::uint64_t events_read_ = 0;

    // The access run currently being drained.
    std::vector<Addr> run_vas_;
    std::vector<std::uint64_t> run_w_, run_i_;
    std::uint64_t run_pos_ = 0;
};

/**
 * Replays a trace file through a TraceFileReader with a small event
 * buffer — bounded memory regardless of file size. The per-event
 * path only (no batching): the point is capacity, not speed.
 */
class StreamReplayWorkload : public Workload
{
  public:
    explicit StreamReplayWorkload(const std::string &path);

    /** The file opened and parsed (checked again at init()). */
    bool ok() const { return reader_ && reader_->ok(); }

    std::string name() const override;
    void init(WorkloadHost &host) override;
    void warmup(WorkloadHost &host) override;
    bool step(WorkloadHost &host) override;
    /** The recorded warmup boundary is authoritative. */
    bool selfWarmup() const override { return true; }

  private:
    /** Apply the next event. @return false at end of stream. */
    bool applyNext(WorkloadHost &host);

    std::string path_;
    std::unique_ptr<TraceFileReader> reader_;
    std::vector<TraceEvent> buf_;
    std::size_t buf_pos_ = 0;
    std::uint64_t applied_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_TRACE_TRACE_STREAM_HH
