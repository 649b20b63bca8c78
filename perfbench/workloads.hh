/**
 * @file
 * The benchmark's four closed-loop workloads and the instrumented
 * client every block calls the GpuFs API through.
 *
 * A run is a sequence of rounds. Each round is one kernel launch per
 * GPU in which every block issues calls back to back (closed loop)
 * until its own virtual clock has advanced by Workload::window, so
 * all blocks cover the same stretch of virtual time whatever the host
 * thread interleaving. Round 0 fills the modelled caches and is not
 * measured. All files, offsets and written bytes derive from the seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/launch.hh"
#include "gpufs/system.hh"
#include "trace.hh"

namespace gpufs {
namespace perfbench {

/** Spans kept per block in a traced run (the rest are counted). */
constexpr size_t kSpansPerBlock = 16384;

/** What one block records. Only the thread running that block touches
 *  it during a round; rounds are separated by thread joins. */
struct BlockLog {
    /** Virtual latency of each call, ns, measured rounds only. */
    std::vector<uint32_t> virtNs[kNumOps];
    /** Virtual latency of the workload's foreground call, ns. */
    std::vector<uint32_t> fgNs;
    /** Host latency of the foreground call, ns, traced runs only. */
    std::vector<uint32_t> fgHostNs;
    SpanBuffer spans;

    // Cumulative over the run (every round and the final sync).
    uint64_t calls = 0;
    uint64_t failed = 0;        ///< negative or short returns
    uint64_t mismatches = 0;    ///< calls that returned wrong bytes
    uint64_t bytes = 0;         ///< application bytes read + written
    uint64_t scanBytes = 0;     ///< read_mixed scan block only
    Time scanTime = 0;          ///< virtual time the scan block ran

    std::vector<uint8_t> buf;   ///< the block's I/O buffer
};

/** The GpuFs API as one block sees it in one round: every call is
 *  timed on the block's virtual clock, counted, and (traced runs)
 *  recorded as a span. Failures are counted, never fatal. */
class Client
{
  public:
    Client(gpu::BlockCtx &ctx, core::GpuFs &fs, BlockLog &log,
           bool measuring, bool traced, uint32_t round,
           std::chrono::steady_clock::time_point epoch);

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    gpu::BlockCtx &ctx() { return ctx_; }
    BlockLog &log() { return log_; }

    /** @return fd, or -1 (counted as failed). */
    int open(const std::string &path, uint32_t flags);
    /** Read into the block's buffer and compare with @p expect.
     *  @return true when all @p len bytes came back and matched. */
    bool read(int fd, uint64_t offset, uint64_t len, const uint8_t *expect,
              bool foreground);
    /** @return true when all @p len bytes were written. */
    bool write(int fd, uint64_t offset, uint64_t len, const uint8_t *src,
               bool foreground);
    bool msync(int fd);
    bool fsync(int fd);
    void close(int fd);

  private:
    struct Stamp {
        Time virt;
        int64_t host;
    };
    Stamp begin() const;
    void end(Op op, bool foreground, const Stamp &s, bool ok);
    int64_t hostNow() const;

    gpu::BlockCtx &ctx_;
    core::GpuFs &fs_;
    BlockLog &log_;
    bool measuring_;
    bool traced_;
    uint32_t round_;
    std::chrono::steady_clock::time_point epoch_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    std::string name;
    /** One sentence: why this workload is in the benchmark. */
    std::string why;
    /** Name of the call whose latency is the op_* metrics. */
    std::string foreground;
    unsigned gpus = 1;
    /** Blocks per GPU; equals the resident block slots, so every block
     *  has its own host thread and all are resident at once. */
    unsigned blocksPerGpu = 3;
    core::GpuFsParams fs;
    /** Virtual time each block runs per round. */
    Time window = 0;

    /** Create the host files (part of set-up). */
    virtual void install(core::GpufsSystem &sys) = 0;
    /** Optional warm-up (part of set-up). @return false on failure. */
    virtual bool warm(core::GpufsSystem &) { return true; }
    /** Reset the benchmark-side state (cursors, shadow copies) for a
     *  new run on a freshly set-up system. */
    virtual void startRun() {}
    /** One block's closed loop for one round. */
    virtual void runBlock(Client &c, unsigned gpu, uint32_t round) = 0;
    /** Calls that make durable what runBlock wrote; the runner
     *  launches them once after the last round (none by default). */
    virtual void syncBlock(Client &, unsigned) {}
    /** Compare the host files with the benchmark's shadow copies after
     *  syncBlock. @return mismatching files. */
    virtual uint64_t verifyHost(core::GpufsSystem &) { return 0; }

    /** A system configured for this workload (no files yet). */
    std::unique_ptr<core::GpufsSystem> makeSystem() const;

    /** Round end for a block that starts now. */
    Time roundEnd(Client &c) const { return c.ctx().now() + window; }
};

/** Workload names in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed, or nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

} // namespace perfbench
} // namespace gpufs

#endif // PERFBENCH_WORKLOADS_HH
