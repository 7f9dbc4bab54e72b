/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "sim/parallel_runner.hh"

#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "base/debug.hh"

namespace ap
{

unsigned
effectiveJobs(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

/** Spec indices in claim order: round k holds the k-th cell of every
 *  sibling family, in spec order. */
std::vector<std::size_t>
familyStrideOrder(const std::vector<ExperimentSpec> &specs)
{
    // A family is every cell issuing one operation stream: the fields
    // of TraceCacheKey a spec can set (seed, footprint and warmup
    // fraction follow from the workload's defaults).
    using Family = std::tuple<std::string, PageSize, std::uint64_t>;
    std::map<Family, std::size_t> seen;
    std::vector<std::size_t> rank(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        rank[i] = seen[Family(specs[i].workload, specs[i].pageSize,
                              specs[i].operations)]++;

    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank[a] < rank[b];
                     });
    return order;
}

} // namespace

std::vector<RunResult>
runExperiments(const std::vector<ExperimentSpec> &specs, unsigned jobs,
               const CellFn &cell)
{
    // Force the one lazy global (the AP_DEBUG flag parse) before any
    // worker can race to it.
    debug::initFromEnvironment();
    const std::vector<std::size_t> order = familyStrideOrder(specs);
    std::vector<RunResult> results(specs.size());
    parallelFor(order.size(), jobs, [&](std::size_t k) {
        const ExperimentSpec &spec = specs[order[k]];
        results[order[k]] = cell ? cell(spec) : runExperiment(spec);
    });
    return results;
}

} // namespace ap
