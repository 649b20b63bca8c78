/**
 * @file
 * The repository benchmark: four closed-loop workloads driven through
 * the public GpuFs API on a core::GpufsSystem.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH]
 *   perfbench --list-metrics
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
 * untraced for S/2 seconds, then traced for the same number of rounds
 * on a fresh system, and prints the per-layer metrics, the tracing
 * overhead and whether the virtual results of the two runs agree. The
 * last line of standard output is the JSON result. Every byte read is
 * checked against the pattern the host files hold, every written file
 * against a shadow copy; a mismatch makes the run fail (exit 1).
 *
 * Virtual numbers come from the simulator's cost model, which is not
 * validated against hardware for these workloads; host numbers are
 * what the simulator itself takes on the machine it runs on.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "metrics.hh"
#include "runner.hh"

using namespace gpufs::perfbench;
using namespace gpufs;

namespace {

/** An untraced run sets up at least kMinSetups times, and more until
 *  kSetupBudgetS of set-up time is spent (at most kMaxSetups), so that
 *  the median is steady for set-ups of a millisecond or of a second. */
constexpr unsigned kMinSetups = 5;
constexpr unsigned kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.0;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceFile;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n"
                 "       perfbench --list-metrics\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], val;
        if (key == "--list-metrics") {
            a.listMetrics = true;
            continue;
        }
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
            val = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            usage(("missing value for " + key).c_str());
        }
        char *endp = nullptr;
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &endp, 10);
            if (val.empty() || *endp)
                usage("bad --seed");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &endp);
            if (val.empty() || *endp || !(a.seconds > 0) ||
                a.seconds > 600)
                usage("bad --seconds");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace (want 0 or 1)");
            a.trace = val == "1";
        } else if (key == "--trace-file") {
            a.traceFile = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!a.listMetrics && !have_workload)
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Peak resident set of the process (getrusage's ru_maxrss, in KiB). */
double
peakRssMB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

/** Set up a system for @p w; @p seconds gets the CPU time the process
 *  spent on it. CPU time, not wall time: set-up waits on nothing
 *  outside the process (host files are in memory), and wall time also
 *  counts the time a shared host gives to other processes. */
std::unique_ptr<gpufs::core::GpufsSystem>
setUp(Workload &w, double *seconds, bool *warm_ok)
{
    const double cpu0 = processCpuSeconds();
    auto sys = w.makeSystem();
    w.install(*sys);
    *warm_ok = w.warm(*sys) && *warm_ok;
    *seconds = processCpuSeconds() - cpu0;
    return sys;
}

/** A computed metric: its value and how it was obtained. */
struct Value {
    double v = 0;
    std::string detail;
};
using Values = std::map<std::string, Value>;

/** Percentile of @p s in microseconds (0 with a note if refused). */
Value
pctUs(const std::vector<uint32_t> &s, unsigned permille)
{
    double v = 0;
    if (s.empty())
        return {0, "absent (no calls)"};
    bool have = percentile(s, permille, &v);
    return {have ? v / 1e3 : 0, formatPercentile(s, permille, 1e-3, "us")};
}

/** "median of 207 rounds (11.5 .. 58.7)". */
std::string
roundsDetail(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    char buf[96];
    std::snprintf(buf, sizeof(buf), "median of %zu rounds (%.4g .. %.4g)",
                  v.size(), v.empty() ? 0.0 : v.front(),
                  v.empty() ? 0.0 : v.back());
    return buf;
}

/** The virtual end-to-end figures that both runs of a traced run
 *  must reproduce. Goodput and mean latency are medians over rounds,
 *  so a round that the host's thread scheduling made unusually slow or
 *  fast in virtual time does not move them. */
std::map<std::string, double>
virtualFigures(const RunData &d)
{
    std::vector<uint32_t> fg = d.fgSamples();
    double p50 = 0, p99 = 0;
    percentile(fg, 500, &p50);
    percentile(fg, 990, &p99);
    return {{"goodput_MBps", median(d.roundMBps)},
            {"op_mean_us", median(d.roundFgMeanUs)},
            {"op_p50_us", p50 / 1e3},
            {"op_p99_us", p99 / 1e3}};
}

void
addEndToEnd(const Workload &w, const RunData &d,
            const std::vector<double> &setups, Values *out)
{
    Values &m = *out;
    auto fig = virtualFigures(d);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s; %.1f MB over %.4f s virtual",
                  roundsDetail(d.roundMBps).c_str(), d.bytes / 1e6,
                  gpufs::toSeconds(d.span));
    m["goodput_MBps"] = {fig["goodput_MBps"], buf};
    std::snprintf(buf, sizeof(buf), "%s; %s, n=%zu",
                  roundsDetail(d.roundFgMeanUs).c_str(),
                  w.foreground.c_str(), d.fgSamples().size());
    m["op_mean_us"] = {fig["op_mean_us"], buf};
    std::snprintf(buf, sizeof(buf), "%s; %llu calls in %.2f CPU s (%.2f "
                  "host s)", roundsDetail(d.roundKops).c_str(),
                  static_cast<unsigned long long>(d.calls), d.cpuSeconds,
                  d.hostSeconds);
    m["sim_kops_per_cpu_s"] = {median(d.roundKops), buf};
    std::snprintf(buf, sizeof(buf), "median of %zu set-ups, CPU s "
                  "(construction, file install%s)", setups.size(),
                  w.name == "hot_hits" ? ", warm-up reads" : "");
    m["setup_s"] = {median(setups), buf};
}

/** Per-layer values of a traced run @p t (untraced twin @p u). */
void
addPerLayer(const RunData &u, const RunData &t, Values *out)
{
    Values &m = *out;
    const Snapshot &c = t.counters;
    auto get = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const double kcalls = t.calls / 1e3;
    const double span = double(t.span);
    const double user = double(t.bytes);
    auto perK = [&](const std::string &name, double count) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.0f over %.0f calls", count,
                      double(t.calls));
        m[name] = {kcalls > 0 ? count / kcalls : 0, buf};
    };
    auto ratio = [&](const std::string &name, double num, double den) {
        Ratio r{num, den};
        m[name] = {r.value(), r.str()};
    };

    // End-to-end figures of the traced run itself.
    std::vector<uint32_t> fg = t.fgSamples();
    m["op_p50_us"] = pctUs(fg, 500);
    m["op_p99_us"] = pctUs(fg, 990);
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.1f MB over %.4f s virtual",
                      t.scanBytes / 1e6, gpufs::toSeconds(t.scanTime));
        m["scan_MBps"] = {gpufs::throughputMBps(t.scanBytes, t.scanTime),
                          t.scanTime ? buf : "absent (no scan block)"};
    }

    // gpufs.api: the spans' virtual and host latencies.
    for (Op op : {Op::Gopen, Op::Gread, Op::Gwrite, Op::Gmsync,
                  Op::Gclose}) {
        std::string base = std::string("gpufs.api.") + opName(op);
        std::vector<uint32_t> v = t.opSamples(op);
        m[base + ".virt_p50_us"] = pctUs(v, 500);
        if (op == Op::Gread || op == Op::Gwrite || op == Op::Gmsync)
            m[base + ".virt_p99_us"] = pctUs(v, 990);
    }
    {
        // Host latency of the foreground call: the simulator's own cost.
        std::vector<uint32_t> h = t.fgHostSamples();
        double p = 0;
        bool have = percentile(h, 500, &p);
        m["gpufs.api.op_wall_p50_ns"] = {have ? p : 0,
                                         formatPercentile(h, 500, 1, "ns")};
    }

    // gpufs.cache / readahead / victim / shard.
    ratio("gpufs.cache.hit_ratio", get("fs.cache_hits"),
          get("fs.cache_hits") + get("fs.cache_misses"));
    perK("gpufs.cache.pages_reclaimed", get("fs.pages_reclaimed"));
    ratio("gpufs.cache.lockfree_frac", get("fs.radix_lockfree_walks"),
          get("fs.radix_lockfree_walks") + get("fs.radix_locked_walks"));
    perK("gpufs.readahead.issued", get("fs.ra_issued"));
    ratio("gpufs.readahead.useful_ratio", get("fs.ra_hit"),
          get("fs.ra_issued"));
    perK("gpufs.readahead.wasted", get("fs.ra_wasted"));
    double probes = get("daemon.vc_hits") + get("daemon.vc_misses") +
                    get("daemon.vc_version_stale");
    ratio("gpufs.victim.hit_ratio", get("daemon.vc_hits"), probes);
    perK("gpufs.victim.inserts", get("daemon.vc_inserts"));
    perK("gpufs.victim.stale", get("daemon.vc_version_stale"));
    ratio("gpufs.shard.peer_forward_ratio",
          get("daemon.peer_pages_forwarded"),
          get("daemon.peer_pages_forwarded") +
              get("daemon.peer_pages_host_fallback"));
    perK("gpufs.shard.peer_read_rpcs", get("daemon.peer_read_rpcs"));
    // Busy time of per-GPU resources is summed over GPUs, so divide by
    // the GPU count to keep a utilization in [0, 1].
    ratio("gpufs.shard.p2p_util", get("busy.p2p") / t.gpus, span);

    // rpc.queue / rpc.daemon.
    perK("rpc.queue.submissions", get("queue.submissions"));
    m["rpc.queue.max_inflight"] = {get("max.queue_inflight"),
                                   "high-water over the run"};
    perK("rpc.queue.full_stalls", get("queue.full_stalls"));
    ratio("rpc.queue.rings_suppressed_frac", get("queue.rings_suppressed"),
          get("queue.submissions"));
    perK("rpc.daemon.requests_served", get("daemon.requests_served"));
    ratio("rpc.daemon.rpcs_per_op", get("daemon.requests_served"),
          double(t.calls));
    perK("rpc.daemon.coalesced_rpcs", get("daemon.coalesced_rpcs"));
    ratio("rpc.daemon.host_reads_per_read_rpc",
          get("daemon.host_read_calls"),
          get("fs.read_rpcs") + get("fs.batch_read_rpcs") +
              get("fs.peer_read_rpcs"));
    perK("rpc.daemon.io_retries", get("daemon.io_retries"));
    ratio("rpc.daemon.cpu_io_util", get("busy.cpu_io"), span);

    // hostfs / storage / PCIe.
    ratio("hostfs.page_cache.hit_bytes_per_user_byte",
          get("pagecache.hit_bytes"), user);
    ratio("hostfs.page_cache.miss_bytes_per_user_byte",
          get("pagecache.miss_bytes"), user);
    ratio("hostfs.disk_util", get("busy.disk"), span);
    perK("hostfs.journal.commits", get("daemon.journal_commits"));
    perK("hostfs.journal.group_syncs", get("daemon.journal_group_syncs"));
    ratio("hostfs.journal.commits_per_sync", get("daemon.journal_commits"),
          get("daemon.journal_group_syncs"));
    perK("storage.reads", get("daemon.storage_reads"));
    perK("storage.writes", get("daemon.storage_writes"));
    ratio("storage.read_bytes_per_user_byte",
          get("daemon.storage_read_bytes"), user);
    ratio("storage.write_bytes_per_user_byte",
          get("daemon.storage_write_bytes"), user);
    ratio("gpu.pcie.h2d_util", get("busy.h2d") / t.gpus, span);
    ratio("gpu.pcie.d2h_util", get("busy.d2h") / t.gpus, span);
    ratio("gpu.pcie.h2d_bytes_per_user_byte", get("daemon.bytes_to_gpu"),
          user);
    ratio("gpu.pcie.host_stage_util", get("busy.host_stage") / t.gpus,
          span);

    m["host.peak_rss_MB"] = {peakRssMB(), "peak RSS of the process"};

    // Tracing overhead and virtual agreement of the two runs.
    double ku = median(u.roundKops), kt = median(t.roundKops);
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "1 - %.2f/%.2f kops/cpu_s (traced / "
                      "untraced, medians over rounds)", kt, ku);
        m["trace.overhead_frac"] = {ku > 0 ? 1 - kt / ku : 0, buf};
    }
    auto fu = virtualFigures(u), ft = virtualFigures(t);
    double drift = 0;
    std::string worst = "none";
    for (const auto &kv : fu) {
        double a = kv.second, b = ft[kv.first];
        double d = a != 0 ? std::fabs(b - a) / std::fabs(a) : (b != 0);
        if (d > drift) {
            drift = d;
            worst = kv.first;
        }
    }
    m["trace.virtual_drift_frac"] = {
        drift, drift == 0 ? "virtual figures identical in both runs"
                          : "virtual figures differ, most in " + worst};
}

void
printValues(const char *title, const std::vector<MetricSpec> &specs,
            const Values &m)
{
    std::printf("%s\n", title);
    for (const MetricSpec &s : specs) {
        const Value &v = m.at(s.name);
        std::printf("  %-44s %14.6g %-11s %-7s %s", s.name, v.v, s.unit,
                    s.clock, v.detail.c_str());
        if (*s.moves)
            std::printf("  -> %s", s.moves);
        std::printf("\n");
    }
}

/** The JSON result line: exactly the metrics of @p specs. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<MetricSpec> &specs, const Values &m)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < specs.size(); ++i) {
        double v = m.at(specs[i].name).v;
        out += std::string(i ? ", " : "") + "\"" + specs[i].name +
               "\": {\"value\": " + jsonNumber(std::isfinite(v) ? v : 0) +
               ", \"unit\": \"" + specs[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
listMetrics()
{
    auto list = [](const char *key, const std::vector<MetricSpec> &specs) {
        std::printf("\"%s\": [", key);
        for (size_t i = 0; i < specs.size(); ++i) {
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\"}",
                        i ? ", " : "", specs[i].name, specs[i].unit,
                        specs[i].better == Better::Higher ? "higher"
                                                          : "lower");
        }
        std::printf("]");
    };
    std::printf("{\"workloads\": [");
    const auto &names = workloadNames();
    for (size_t i = 0; i < names.size(); ++i) {
        auto w = makeWorkload(names[i], 0);
        std::printf("%s{\"name\": \"%s\", \"why\": \"%s\"}", i ? ", " : "",
                    w->name.c_str(), w->why.c_str());
    }
    std::printf("], ");
    list("end_to_end", endToEndMetrics());
    std::printf(", ");
    list("per_layer", perLayerMetrics());
    std::printf("}\n");
}

/** The "did every call succeed and return the right bytes" block. */
void
printChecks(const RunData &d)
{
    Ratio failed{double(d.totalFailed()), double(d.totalCalls())};
    std::printf("  failed_ops_frac %s (negative or short returns / calls "
                "attempted, all rounds and the final sync)\n",
                failed.str().c_str());
    std::printf("  verification: %llu calls returned wrong bytes, %llu "
                "host files differ from their shadow copy\n",
                static_cast<unsigned long long>(d.totalMismatches() -
                                                d.hostFileMismatches),
                static_cast<unsigned long long>(d.hostFileMismatches));
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (a.listMetrics) {
        listMetrics();
        return 0;
    }
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    if (!w)
        usage(("unknown workload " + a.workload).c_str());

    std::printf("perfbench %s seed=%llu: %u GPU(s) x %u block slot(s), "
                "1 daemon thread, no flusher; closed loop, %.0f ms "
                "virtual per round; round 0 fills the caches and is not "
                "measured\n",
                w->name.c_str(), static_cast<unsigned long long>(a.seed),
                w->gpus, w->blocksPerGpu, gpufs::toMillis(w->window));
    std::printf("  why: %s\n", w->why.c_str());
    std::printf("  clocks: virtual = the simulator's cost model (not "
                "validated against hardware for these workloads, so no "
                "error figure); host = time the simulator itself takes\n");

    bool warm_ok = true;
    uint64_t attempted = 0, failed = 0, mismatches = 0;
    Values m;
    if (!a.trace) {
        std::vector<double> setups;
        std::unique_ptr<gpufs::core::GpufsSystem> sys;
        double spent = 0;
        while (setups.size() < kMinSetups ||
               (spent < kSetupBudgetS && setups.size() < kMaxSetups)) {
            sys.reset();
            double s = 0;
            sys = setUp(*w, &s, &warm_ok);
            setups.push_back(s);
            spent += s;
        }
        RunData d = runWorkload(*w, *sys, false, a.seconds, 0);
        sys.reset();
        addEndToEnd(*w, d, setups, &m);
        printValues("end-to-end (untraced run):", endToEndMetrics(), m);
        {
            std::vector<uint32_t> fg = d.fgSamples();
            std::vector<uint32_t> ms = d.opSamples(Op::Gmsync);
            std::printf("  op_p50_us / op_p99_us (%s, virtual): %s, %s\n",
                        w->foreground.c_str(), pctUs(fg, 500).detail.c_str(),
                        pctUs(fg, 990).detail.c_str());
            if (d.scanTime) {
                std::printf("  scan_MBps %.2f MB/s (virtual; %.1f MB over "
                            "%.4f s of the scan block)\n",
                            gpufs::throughputMBps(d.scanBytes, d.scanTime),
                            d.scanBytes / 1e6,
                            gpufs::toSeconds(d.scanTime));
            }
            if (!ms.empty()) {
                std::printf("  sync_p50_us / sync_p99_us (gmsync, virtual): "
                            "%s, %s\n",
                            pctUs(ms, 500).detail.c_str(),
                            pctUs(ms, 990).detail.c_str());
            }
        }
        std::printf("  peak_rss_MB %.1f MB (host; peak RSS of the process)\n",
                    peakRssMB());
        printChecks(d);
        attempted = d.totalCalls();
        failed = d.totalFailed();
        mismatches = d.totalMismatches();
    } else {
        double s = 0;
        auto sys = setUp(*w, &s, &warm_ok);
        RunData u = runWorkload(*w, *sys, false, a.seconds / 2, 0);
        sys.reset();
        sys = setUp(*w, &s, &warm_ok);
        RunData t = runWorkload(*w, *sys, true, 0, u.measuredRounds);
        sys.reset();
        addPerLayer(u, t, &m);
        printValues("per-layer (traced run; counts per 1000 API calls, "
                    "utilizations over the virtual span):",
                    perLayerMetrics(), m);
        printChecks(t);
        attempted = u.totalCalls() + t.totalCalls();
        failed = u.totalFailed() + t.totalFailed();
        mismatches = u.totalMismatches() + t.totalMismatches();

        std::vector<TraceTrack> tracks;
        uint64_t kept = 0, dropped = 0;
        for (unsigned g = 0; g < t.gpus; ++g) {
            for (unsigned b = 0; b < t.blocksPerGpu; ++b) {
                const BlockLog &l = t.logs[g * t.blocksPerGpu + b];
                tracks.push_back({g, b, &l.spans});
                kept += l.spans.spans().size();
                dropped += l.spans.dropped();
            }
        }
        if (!a.traceFile.empty()) {
            std::ofstream out(a.traceFile);
            writeChromeTrace(out, tracks);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             a.traceFile.c_str());
                return 1;
            }
            std::printf("  trace: %s (%llu spans, %llu beyond the "
                        "per-block buffers not kept)\n",
                        a.traceFile.c_str(),
                        static_cast<unsigned long long>(kept),
                        static_cast<unsigned long long>(dropped));
        }
        std::printf("  tracing overhead: %s\n",
                    m.at("trace.overhead_frac").detail.c_str());
        std::printf("  virtual metrics of traced vs untraced run: %s\n",
                    m.at("trace.virtual_drift_frac").detail.c_str());
    }

    bool correct = warm_ok && mismatches == 0;
    if (!correct)
        std::printf("  INCORRECT: %s\n",
                    warm_ok ? "wrong bytes read, or a host file differs "
                              "from what was written"
                            : "set-up warm-up failed");
    printResult(correct, attempted, failed,
                a.trace ? perLayerMetrics() : endToEndMetrics(), m);
    return correct ? 0 : 1;
}
