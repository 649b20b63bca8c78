#include "trace.hh"

#include <cstdio>
#include <set>

namespace gpufs {
namespace perfbench {

const char *
opName(Op op)
{
    switch (op) {
    case Op::Gopen: return "gopen";
    case Op::Gread: return "gread";
    case Op::Gwrite: return "gwrite";
    case Op::Gmsync: return "gmsync";
    case Op::Gfsync: return "gfsync";
    case Op::Gclose: return "gclose";
    }
    return "?";
}

void
writeChromeTrace(std::ostream &out, const std::vector<TraceTrack> &tracks)
{
    char buf[320];
    bool first = true;
    auto emit = [&](const char *event) {
        out << (first ? "\n" : ",\n") << event;
        first = false;
    };

    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    std::set<unsigned> gpus;
    for (const TraceTrack &t : tracks) {
        if (gpus.insert(t.gpu).second) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"process_name\",\"ph\":\"M\","
                          "\"pid\":%u,\"args\":{\"name\":\"gpu%u\"}}",
                          t.gpu, t.gpu);
            emit(buf);
        }
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"tid\":%u,\"args\":{\"name\":\"block%u\"}}",
                      t.gpu, t.block, t.block);
        emit(buf);
    }
    for (const TraceTrack &t : tracks) {
        for (const Span &s : t.buffer->spans()) {
            std::snprintf(
                buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"gpufs.api\",\"ph\":\"X\","
                "\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"req\":%u,\"round\":%u,\"ok\":%s,"
                "\"host_start_us\":%.3f,\"host_dur_us\":%.3f}}",
                opName(s.op), t.gpu, t.block, s.virtStart / 1e3,
                (s.virtEnd - s.virtStart) / 1e3, t.block, s.round,
                s.ok ? "true" : "false", s.hostStart / 1e3,
                (s.hostEnd - s.hostStart) / 1e3);
            emit(buf);
        }
    }
    out << "\n]}\n";
}

} // namespace perfbench
} // namespace gpufs
