/**
 * @file
 * Runs a workload's rounds on one system and collects what the
 * metrics are computed from: per-block logs, per-round spans and host
 * times, and counter snapshots taken from the system's public stats
 * after the warm-up round and after the last round.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "workloads.hh"

namespace gpufs {
namespace perfbench {

/** CPU time all threads of the process have used, in seconds. */
double processCpuSeconds();

/** Named counter values; deltas for counters, levels for maxima. */
using Snapshot = std::map<std::string, double>;

/** Read every public counter of @p sys (summed over GPUs). */
Snapshot snapshot(core::GpufsSystem &sys);

/** @p after - @p before, keeping high-water marks as levels. */
Snapshot delta(const Snapshot &before, const Snapshot &after);

/** Everything one run on one system produced. */
struct RunData {
    unsigned gpus = 0;
    unsigned blocksPerGpu = 0;
    std::vector<BlockLog> logs;     ///< gpu-major, one per block

    unsigned measuredRounds = 0;
    Time span = 0;                  ///< sum of measured round spans
    uint64_t bytes = 0;             ///< application bytes, measured
    uint64_t calls = 0;             ///< API calls, measured rounds
    uint64_t scanBytes = 0;
    Time scanTime = 0;
    double hostSeconds = 0;         ///< measured rounds only
    double cpuSeconds = 0;          ///< process CPU time, measured rounds
    /** Kilo-calls per second of CPU time the process used (blocks and
     *  daemon together), so time the host gives to other processes
     *  does not count. */
    std::vector<double> roundKops;
    std::vector<double> roundMBps;  ///< goodput per virtual second
    /** Mean virtual latency of the round's foreground calls, us. */
    std::vector<double> roundFgMeanUs;
    Snapshot counters;              ///< delta over measured rounds
    uint64_t hostFileMismatches = 0;

    uint64_t totalCalls() const;
    uint64_t totalFailed() const;
    uint64_t totalMismatches() const;

    /** Virtual latencies of every measured call of @p op, merged over
     *  blocks and sorted. */
    std::vector<uint32_t> opSamples(Op op) const;
    /** The same for the workload's foreground call. */
    std::vector<uint32_t> fgSamples() const;
    /** Host latencies of the foreground call (traced runs). */
    std::vector<uint32_t> fgHostSamples() const;
};

/**
 * Run @p w on the freshly set-up @p sys: round 0 warms the caches,
 * then measured rounds follow until @p seconds of host time have
 * passed (or, when @p rounds > 0, exactly that many measured rounds).
 * Then the workload's sync calls run and the host files are checked.
 */
RunData runWorkload(Workload &w, core::GpufsSystem &sys, bool traced,
                    double seconds, unsigned rounds);

} // namespace perfbench
} // namespace gpufs

#endif // PERFBENCH_RUNNER_HH
