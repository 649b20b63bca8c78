#include "metrics.hh"

namespace gpufs {
namespace perfbench {

namespace {
constexpr Better H = Better::Higher;
constexpr Better L = Better::Lower;
} // namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"goodput_MBps", "MB/s", H, "virtual", ""},
        {"op_mean_us", "virt_us", L, "virtual", ""},
        {"sim_kops_per_cpu_s", "kops/cpu_s", H, "host", ""},
        {"setup_s", "s", L, "host", ""},
    };
    return specs;
}

// Virtual-time latencies carry the unit "virt_us" to name their clock:
// they are cost-model outputs, and several are constants of the model
// (a buffer-cache hit costs the same in every run).
//
// Counts are per 1000 API calls of the measured rounds, busy times are
// shares of the measured virtual span, byte counts are per application
// byte: all independent of how many rounds the host managed to run.
const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"op_p50_us", "virt_us", L, "virtual", "op_mean_us, all"},
        {"op_p99_us", "virt_us", L, "virtual", "op_mean_us, all"},
        {"scan_MBps", "MB/s", H, "virtual", "goodput_MBps, read_mixed"},
        {"gpufs.api.gopen.virt_p50_us", "virt_us", L, "virtual",
         "op_mean_us, all"},
        {"gpufs.api.gread.virt_p50_us", "virt_us", L, "virtual",
         "op_mean_us, read workloads"},
        {"gpufs.api.gwrite.virt_p50_us", "virt_us", L, "virtual",
         "op_mean_us, write_durable"},
        {"gpufs.api.gmsync.virt_p50_us", "virt_us", L, "virtual",
         "goodput_MBps, write_durable"},
        {"gpufs.api.gclose.virt_p50_us", "virt_us", L, "virtual",
         "op_mean_us, all"},
        {"gpufs.api.gread.virt_p99_us", "virt_us", L, "virtual",
         "op_mean_us, read workloads"},
        {"gpufs.api.gwrite.virt_p99_us", "virt_us", L, "virtual",
         "op_mean_us, write_durable"},
        {"gpufs.api.gmsync.virt_p99_us", "virt_us", L, "virtual",
         "goodput_MBps, write_durable"},
        {"gpufs.api.op_wall_p50_ns", "ns", L, "host",
         "sim_kops_per_cpu_s, hot_hits"},
        {"gpufs.cache.hit_ratio", "ratio", H, "-",
         "op_mean_us, read_mixed and shard_peer"},
        {"gpufs.cache.pages_reclaimed", "count/kcall", L, "-",
         "op_mean_us, read_mixed; goodput_MBps, write_durable"},
        {"gpufs.cache.lockfree_frac", "ratio", H, "-",
         "sim_kops_per_cpu_s, hot_hits"},
        {"gpufs.readahead.issued", "count/kcall", H, "-",
         "scan_MBps, read_mixed"},
        {"gpufs.readahead.useful_ratio", "ratio", H, "-",
         "scan_MBps, read_mixed"},
        {"gpufs.readahead.wasted", "count/kcall", L, "-",
         "scan_MBps, read_mixed"},
        {"gpufs.victim.hit_ratio", "ratio", H, "-",
         "op_mean_us, read_mixed"},
        {"gpufs.victim.inserts", "count/kcall", L, "-",
         "op_mean_us, read_mixed"},
        {"gpufs.victim.stale", "count/kcall", L, "-",
         "op_mean_us, read_mixed"},
        {"gpufs.shard.peer_forward_ratio", "ratio", H, "-",
         "goodput_MBps, shard_peer"},
        {"gpufs.shard.peer_read_rpcs", "count/kcall", L, "-",
         "goodput_MBps, shard_peer"},
        {"gpufs.shard.p2p_util", "ratio", L, "virtual",
         "goodput_MBps, shard_peer"},
        {"rpc.queue.submissions", "count/kcall", L, "-",
         "op_mean_us, read_mixed"},
        {"rpc.queue.max_inflight", "count", L, "-",
         "op_mean_us, read_mixed"},
        {"rpc.queue.full_stalls", "count/kcall", L, "-",
         "op_mean_us, read_mixed"},
        {"rpc.queue.rings_suppressed_frac", "ratio", H, "-",
         "op_mean_us, read_mixed"},
        {"rpc.daemon.requests_served", "count/kcall", L, "-",
         "op_mean_us, read_mixed; goodput_MBps, write_durable"},
        {"rpc.daemon.rpcs_per_op", "ratio", L, "-",
         "op_mean_us, read_mixed; goodput_MBps, write_durable"},
        {"rpc.daemon.coalesced_rpcs", "count/kcall", H, "-",
         "op_mean_us, read_mixed"},
        {"rpc.daemon.host_reads_per_read_rpc", "ratio", L, "-",
         "op_mean_us, read_mixed"},
        {"rpc.daemon.io_retries", "count/kcall", L, "-",
         "op_mean_us, read_mixed"},
        {"rpc.daemon.cpu_io_util", "ratio", L, "virtual",
         "op_mean_us, read_mixed; goodput_MBps, write_durable"},
        {"hostfs.page_cache.hit_bytes_per_user_byte", "ratio", L, "-",
         "goodput_MBps, write_durable"},
        {"hostfs.page_cache.miss_bytes_per_user_byte", "ratio", L, "-",
         "goodput_MBps, write_durable"},
        {"hostfs.disk_util", "ratio", L, "virtual",
         "goodput_MBps, read_mixed and write_durable"},
        {"hostfs.journal.commits", "count/kcall", L, "-",
         "goodput_MBps, write_durable"},
        {"hostfs.journal.group_syncs", "count/kcall", L, "-",
         "goodput_MBps, write_durable"},
        {"hostfs.journal.commits_per_sync", "ratio", H, "-",
         "goodput_MBps, write_durable"},
        {"storage.reads", "count/kcall", L, "-",
         "goodput_MBps, read_mixed and write_durable"},
        {"storage.writes", "count/kcall", L, "-",
         "goodput_MBps, write_durable"},
        {"storage.read_bytes_per_user_byte", "ratio", L, "-",
         "goodput_MBps, read_mixed and write_durable"},
        {"storage.write_bytes_per_user_byte", "ratio", L, "-",
         "goodput_MBps, write_durable"},
        {"gpu.pcie.h2d_util", "ratio", L, "virtual",
         "goodput_MBps, read_mixed"},
        {"gpu.pcie.d2h_util", "ratio", L, "virtual",
         "goodput_MBps, write_durable"},
        {"gpu.pcie.h2d_bytes_per_user_byte", "ratio", L, "-",
         "goodput_MBps, read_mixed"},
        {"gpu.pcie.host_stage_util", "ratio", L, "virtual",
         "goodput_MBps, read_mixed"},
        {"host.peak_rss_MB", "MB", L, "host", "-, all"},
        {"trace.overhead_frac", "ratio", L, "host",
         "sim_kops_per_cpu_s, all"},
        {"trace.virtual_drift_frac", "ratio", L, "virtual",
         "all virtual metrics, all"},
    };
    return specs;
}

} // namespace perfbench
} // namespace gpufs
