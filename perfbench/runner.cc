#include "runner.hh"

#include <algorithm>
#include <functional>
#include <thread>

#include <time.h>

namespace gpufs {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Largest I/O any workload issues (read_mixed's 256 KB scan reads). */
constexpr uint64_t kMaxIo = 256 * KiB;

/**
 * Launch one kernel per GPU, each from its own host thread, all ready
 * at the same virtual time; @return the round's virtual span (the
 * slowest GPU's).
 */
Time
launchRound(Workload &w, core::GpufsSystem &sys,
            const std::function<void(gpu::BlockCtx &, unsigned)> &body)
{
    Time ready = 0;
    for (unsigned g = 0; g < w.gpus; ++g)
        ready = std::max(ready, sys.device(g).lastIdle());
    std::vector<gpu::KernelStats> ks(w.gpus);
    auto run = [&](unsigned g) {
        ks[g] = gpu::launch(
            sys.device(g), w.blocksPerGpu, 256,
            [&, g](gpu::BlockCtx &ctx) { body(ctx, g); }, ready);
    };
    std::vector<std::thread> others;
    for (unsigned g = 1; g < w.gpus; ++g)
        others.emplace_back(run, g);
    run(0);
    for (std::thread &t : others)
        t.join();
    Time start = ks[0].start, end = ks[0].end;
    for (const gpu::KernelStats &k : ks) {
        start = std::min(start, k.start);
        end = std::max(end, k.end);
    }
    return end - start;
}

} // namespace

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

Snapshot
snapshot(core::GpufsSystem &sys)
{
    Snapshot s;
    sim::SimContext &sim = sys.sim();
    for (unsigned g = 0; g < sys.numGpus(); ++g) {
        for (const auto &kv : sys.fs(g).stats().snapshot())
            s["fs." + kv.first] += double(kv.second);
        rpc::RpcQueue &q = sys.rpcQueue(g);
        s["queue.submissions"] += double(q.submissions());
        s["queue.full_stalls"] += double(q.fullQueueStalls());
        s["queue.rings_suppressed"] += double(q.doorbellRingsSuppressed());
        s["max.queue_inflight"] = std::max(s["max.queue_inflight"],
                                           double(q.maxInFlightSlots()));
        gpu::GpuDevice &dev = sys.device(g);
        s["busy.h2d"] += double(dev.pcieH2D().busyTime());
        s["busy.d2h"] += double(dev.pcieD2H().busyTime());
        s["busy.host_stage"] += double(sim.hostStage(g).busyTime());
        for (unsigned peer = 0; peer < sys.numGpus(); ++peer) {
            if (peer != g)
                s["busy.p2p"] += double(sim.p2p(g, peer).busyTime());
        }
    }
    for (const auto &kv : sys.daemon().stats().snapshot())
        s["daemon." + kv.first] = double(kv.second);
    for (const auto &kv : sys.hostFs().cache().stats().snapshot())
        s["pagecache." + kv.first] = double(kv.second);
    s["busy.cpu_io"] = double(sim.cpuIo.busyTime());
    s["busy.disk"] = double(sim.disk.busyTime());
    return s;
}

Snapshot
delta(const Snapshot &before, const Snapshot &after)
{
    Snapshot d;
    for (const auto &kv : after) {
        auto it = before.find(kv.first);
        bool level = kv.first.rfind("max.", 0) == 0;
        d[kv.first] = level || it == before.end() ? kv.second
                                                  : kv.second - it->second;
    }
    return d;
}

uint64_t
RunData::totalCalls() const
{
    uint64_t n = 0;
    for (const BlockLog &l : logs)
        n += l.calls;
    return n;
}

uint64_t
RunData::totalFailed() const
{
    uint64_t n = 0;
    for (const BlockLog &l : logs)
        n += l.failed;
    return n;
}

uint64_t
RunData::totalMismatches() const
{
    uint64_t n = hostFileMismatches;
    for (const BlockLog &l : logs)
        n += l.mismatches;
    return n;
}

namespace {

/** Concatenate @p field of every block log, sorted. */
std::vector<uint32_t>
merged(const std::vector<BlockLog> &logs,
       const std::function<const std::vector<uint32_t> &(const BlockLog &)>
           &field)
{
    std::vector<uint32_t> all;
    for (const BlockLog &l : logs)
        all.insert(all.end(), field(l).begin(), field(l).end());
    std::sort(all.begin(), all.end());
    return all;
}

} // namespace

std::vector<uint32_t>
RunData::opSamples(Op op) const
{
    return merged(logs, [op](const BlockLog &l) -> const auto & {
        return l.virtNs[unsigned(op)];
    });
}

std::vector<uint32_t>
RunData::fgSamples() const
{
    return merged(logs, [](const BlockLog &l) -> const auto & {
        return l.fgNs;
    });
}

std::vector<uint32_t>
RunData::fgHostSamples() const
{
    return merged(logs, [](const BlockLog &l) -> const auto & {
        return l.fgHostNs;
    });
}

RunData
runWorkload(Workload &w, core::GpufsSystem &sys, bool traced,
            double seconds, unsigned rounds)
{
    RunData d;
    d.gpus = w.gpus;
    d.blocksPerGpu = w.blocksPerGpu;
    d.logs.resize(w.gpus * w.blocksPerGpu);
    for (BlockLog &l : d.logs) {
        l.buf.resize(kMaxIo);
        if (traced)
            l.spans.reserve(kSpansPerBlock);
    }
    w.startRun();

    const Clock::time_point epoch = Clock::now();
    Clock::time_point measure_start = epoch;
    Snapshot before;
    for (uint32_t round = 0;; ++round) {
        const bool measuring = round > 0;
        uint64_t calls0 = d.totalCalls(), bytes0 = 0;
        std::vector<size_t> fg0;
        for (const BlockLog &l : d.logs) {
            bytes0 += l.bytes;
            fg0.push_back(l.fgNs.size());
        }
        const double cpu0 = processCpuSeconds();
        Time span = launchRound(
            w, sys, [&](gpu::BlockCtx &ctx, unsigned g) {
                Client c(ctx, sys.fs(g),
                         d.logs[g * w.blocksPerGpu + ctx.blockId()],
                         measuring, traced, round, epoch);
                w.runBlock(c, g, round);
            });
        const double cpu = processCpuSeconds() - cpu0;
        if (!measuring) {
            before = snapshot(sys);
            for (BlockLog &l : d.logs) {
                l.scanBytes = 0;
                l.scanTime = 0;
            }
            measure_start = Clock::now();
            continue;
        }
        uint64_t calls = d.totalCalls() - calls0, bytes1 = 0;
        double fg_sum = 0;
        size_t fg_n = 0;
        for (size_t i = 0; i < d.logs.size(); ++i) {
            const BlockLog &l = d.logs[i];
            bytes1 += l.bytes;
            for (size_t k = fg0[i]; k < l.fgNs.size(); ++k)
                fg_sum += l.fgNs[k];
            fg_n += l.fgNs.size() - fg0[i];
        }
        ++d.measuredRounds;
        d.span += span;
        d.calls += calls;
        d.bytes += bytes1 - bytes0;
        d.cpuSeconds += cpu;
        d.roundKops.push_back(double(calls) / cpu / 1e3);
        d.roundMBps.push_back(throughputMBps(bytes1 - bytes0, span));
        if (fg_n)
            d.roundFgMeanUs.push_back(fg_sum / fg_n / 1e3);
        bool done = rounds > 0 ? d.measuredRounds >= rounds
                               : secondsSince(measure_start) >= seconds;
        if (done)
            break;
    }
    d.hostSeconds = secondsSince(measure_start);
    d.counters = delta(before, snapshot(sys));
    for (const BlockLog &l : d.logs) {
        d.scanBytes += l.scanBytes;
        d.scanTime += l.scanTime;
    }

    // Make what the workload wrote durable, then check the host copy.
    launchRound(w, sys, [&](gpu::BlockCtx &ctx, unsigned g) {
        Client c(ctx, sys.fs(g), d.logs[g * w.blocksPerGpu + ctx.blockId()],
                 false, false, 0, epoch);
        w.syncBlock(c, g);
    });
    d.hostFileMismatches = w.verifyHost(sys);
    return d;
}

} // namespace perfbench
} // namespace gpufs
