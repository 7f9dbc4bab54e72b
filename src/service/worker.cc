/**
 * @file
 * Worker loop implementation.
 */

#include "service/worker.hh"

#include <cstddef>
#include <exception>

#include "service/wire.hh"
#include "sim/machine_pool.hh"
#include "sim/snapshot.hh"
#include "trace/trace_cache.hh"

namespace ap
{
namespace service
{

namespace
{

/**
 * Most idle machines a worker's MachinePool keeps parked. Half the
 * in-process default: a fleet runs one pool per worker process, so
 * this bounds the fleet's parked-machine memory.
 */
constexpr std::size_t kWorkerIdleMachines = 8;

} // namespace

int
workerMain(int request_fd, int result_fd,
           std::uint64_t snapshot_pool_bytes)
{
    TraceCache traces;
    SnapshotCache snaps;
    snaps.setByteBudget(snapshot_pool_bytes);
    MachinePool pool(kWorkerIdleMachines);

    for (;;) {
        Frame frame;
        ReadStatus rs = readFrame(request_fd, frame);
        if (rs == ReadStatus::Eof)
            return 0; // dispatcher closed the pipe: drain complete
        if (rs == ReadStatus::Broken)
            return 1;
        if (frame.type == FrameType::Shutdown)
            return 0;
        if (frame.type != FrameType::CellRequest)
            continue; // unknown frame types are skipped, not fatal

        CellRequest req;
        CellResult res;
        if (!decodeCellRequest(frame.payload, req)) {
            // The dispatcher encoded this itself, so a decode failure
            // is a framing bug, not user input — but answering with an
            // error result keeps the one-in/one-out protocol intact.
            res.ok = false;
            res.error = "worker: malformed cell request";
        } else {
            res.batch = req.batch;
            res.cell = req.cell;
            try {
                res.run = runExperimentSnapshotted(traces, snaps,
                                                   req.spec, &pool);
                res.ok = true;
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            } catch (...) {
                res.ok = false;
                res.error = "unknown worker exception";
            }
        }
        if (!writeFrame(result_fd, FrameType::CellResult,
                        encodeCellResult(res)))
            return 1; // dispatcher gone
    }
}

} // namespace service
} // namespace ap
