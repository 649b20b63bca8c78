/**
 * @file
 * Span recording for the traced run, and its Chrome trace-event export.
 *
 * One span per GpuFs API call the benchmark makes: the call name, the
 * calling block (the request id), its virtual start/end read from the
 * block's clock and its host start/end from steady_clock. Spans land
 * in per-block buffers sized before the run; once a buffer is full,
 * further spans are counted as dropped instead of allocating on the
 * measured path. Recording charges no virtual time.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <ostream>
#include <vector>

namespace gpufs {
namespace perfbench {

/** API calls the benchmark issues (Table 1 of the paper). */
enum class Op : uint8_t { Gopen, Gread, Gwrite, Gmsync, Gfsync, Gclose };
constexpr unsigned kNumOps = 6;

const char *opName(Op op);

struct Span {
    uint64_t virtStart;     ///< block clock before the call, ns
    uint64_t virtEnd;       ///< block clock after the call, ns
    int64_t hostStart;      ///< steady_clock, ns since run start
    int64_t hostEnd;
    uint32_t round;
    Op op;
    bool ok;
};

/** Fixed-capacity span store owned by one block. */
class SpanBuffer
{
  public:
    void
    reserve(size_t capacity)
    {
        capacity_ = capacity;
        spans_.reserve(capacity);
    }

    void
    add(const Span &s)
    {
        if (spans_.size() < capacity_)
            spans_.push_back(s);
        else
            ++dropped_;
    }

    const std::vector<Span> &spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

  private:
    size_t capacity_ = 0;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/** The spans of one block of one GPU: a trace thread of a process. */
struct TraceTrack {
    unsigned gpu;
    unsigned block;
    const SpanBuffer *buffer;
};

/**
 * Write @p tracks as Chrome trace-event JSON: one process per GPU, one
 * thread per block, one complete ("X") event per span with `ts`/`dur`
 * in virtual microseconds and the host interval in `args`.
 */
void writeChromeTrace(std::ostream &out,
                      const std::vector<TraceTrack> &tracks);

} // namespace perfbench
} // namespace gpufs

#endif // PERFBENCH_TRACE_HH
