/**
 * @file
 * One trial of one benchmark workload: set up a fresh simulated
 * platform and database, run a fixed, seed-determined closed-loop
 * transaction schedule, cut power, recover, and check every row
 * against the benchmark's own oracle of acknowledged commits.
 *
 * Workloads (perfbench/WORKLOADS.md has the full parameter table):
 *   insert-seq  -- direct Database API, one sequential insert per
 *                  Sync txn; loads the commit path.
 *   update-zipf -- one single-writer Connection over a 100k-row table,
 *                  half Zipfian update txns, half snapshot-read txns.
 *   mw-async    -- four multi-writer Connections committing Zipfian
 *                  updates with fire-and-forget Durability::Async.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct TrialOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Record spans and per-layer counters (the traced run). */
    bool traced = false;
    /** Where the traced run writes its spans (CSV); empty = nowhere. */
    std::string spansOut;
};

struct TrialReport
{
    /** Every checked output matched the oracle. */
    bool correct = true;
    std::vector<std::string> errors;
    /** Transactions attempted in the timed region, and those that
     *  did not commit within the retry budget. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metrics read off the simulated clock or engine counters: for
     *  a fixed seed they must repeat exactly. */
    std::map<std::string, double> exact;
    /** Metrics read off the host clock or the process. */
    std::map<std::string, double> host;
    /**
     * The timed region cut into chunks of consecutive txns: per chunk
     * its txn count ("txns"), wall time ("seconds") and median write
     * and read latency ("write_p50_us", "read_p50_us"; NaN when the
     * chunk has none). One seed gives the same chunks in every trial,
     * so trials can be compared chunk by chunk.
     */
    std::map<std::string, std::vector<double>> chunks;
};

/** Run one trial; an unknown workload name yields an error report. */
TrialReport runTrial(const TrialOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
