/**
 * @file
 * Ablation: the paper's FIFO-like page reclamation vs an LRU scan.
 *
 * §4.2 argues that because paging hijacks application threads (no
 * daemon threadblocks exist), the replacement policy must do constant
 * work — GPUfs "does not use replacement policies that perform a
 * variable amount of work, such as the clock algorithm". This bench
 * quantifies the trade: a streaming workload (FIFO's best case, LRU
 * pays full-scan cost for nothing) and a skewed-reuse workload (where
 * LRU's hit-rate advantage can show up as fewer refetched pages).
 *
 * Virtual time captures transfer work (refetches); REAL wall-clock
 * captures the policy's own scan cost, which is the paper's concern.
 */

#include <algorithm>
#include <atomic>
#include <chrono>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/ablate.bin";

constexpr unsigned kBlocks = 28;

struct Result {
    Time virt;
    double wall;
    uint64_t reclaimed;
    uint64_t misses;
    uint64_t failed;
};

Result
run(core::EvictionPolicyKind policy, bool streaming, uint64_t file_bytes,
    uint64_t cache_bytes)
{
    core::GpuFsParams p;
    p.pageSize = 64 * KiB;
    // Keep paging pressure high but leave every resident block room
    // for a transient pin plus slack — an arena smaller than the wave
    // makes greads fail with NoSpace and the comparison meaningless.
    p.cacheBytes = std::max<uint64_t>(cache_bytes,
                                      2 * kBlocks * p.pageSize);
    p.evictPolicy = policy;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    std::atomic<uint64_t> failed{0};
    auto t0 = std::chrono::steady_clock::now();
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), kBlocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            const uint64_t chunk = 32 * KiB;
            const unsigned reads = 512;
            for (unsigned i = 0; i < reads; ++i) {
                uint64_t off;
                if (streaming) {
                    // Disjoint forward scan per block.
                    uint64_t span = file_bytes / ctx.numBlocks();
                    off = ctx.blockId() * span +
                        (uint64_t(i) * chunk) % (span - chunk);
                } else {
                    // Skewed reuse: 80% of accesses to the first 20%.
                    uint64_t hot = file_bytes / 5;
                    off = (ctx.rng().nextBelow(10) < 8)
                        ? ctx.rng().nextBelow(hot - chunk)
                        : hot + ctx.rng().nextBelow(file_bytes - hot -
                                                    chunk);
                }
                if (fs.gread(ctx, fd, off, chunk, ctx.sharedMem()) !=
                    int64_t(chunk)) {
                    failed.fetch_add(1, std::memory_order_relaxed);
                }
            }
            fs.gclose(ctx, fd);
        });
    auto t1 = std::chrono::steady_clock::now();

    Result r;
    r.virt = ks.elapsed();
    r.wall = std::chrono::duration<double>(t1 - t0).count();
    r.reclaimed = sys.fs().stats().counter("pages_reclaimed").get();
    r.misses = sys.fs().stats().counter("cache_misses").get();
    r.failed = failed.load();
    return r;
}

void
report(const char *label, bool streaming, uint64_t file_bytes,
       uint64_t cache_bytes)
{
    struct Row {
        const char *name;
        core::EvictionPolicyKind kind;
    };
    const Row rows[] = {
        {"tiered", core::EvictionPolicyKind::PaperTiered},
        {"LRU", core::EvictionPolicyKind::GlobalLru},
        {"2Q", core::EvictionPolicyKind::TwoQ},
    };
    double tiered_wall = 0.0;
    for (const Row &row : rows) {
        Result r = run(row.kind, streaming, file_bytes, cache_bytes);
        if (row.kind == core::EvictionPolicyKind::PaperTiered)
            tiered_wall = r.wall;
        std::printf("%-14s %-7s %7.1f ms virt, %7.1f ms wall, %6llu "
                    "reclaims, %6llu misses  (policy wall cost %.1fx "
                    "tiered)\n",
                    label, row.name, toMillis(r.virt), r.wall * 1e3,
                    static_cast<unsigned long long>(r.reclaimed),
                    static_cast<unsigned long long>(r.misses),
                    r.wall / std::max(1e-9, tiered_wall));
        if (r.failed != 0) {
            std::printf("#  INVALID RUN: %llu reads failed (arena too "
                        "small for the wave?)\n",
                        static_cast<unsigned long long>(r.failed));
        }
        label = "";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 1.0, "Ablation: FIFO vs LRU page reclamation");
    const uint64_t file_bytes = uint64_t(256 * MiB * opt.scale);
    const uint64_t cache_bytes = file_bytes / 4;   // heavy paging

    bench::printTitle(
        "Ablation: tiered FIFO-like (paper, §4.2) vs global-LRU vs "
        "2Q-style reclamation",
        "constant-work tiered FIFO pays no policy cost; LRU scans every "
        "frame per eviction on the hijacked application thread; 2Q "
        "evicts never-repinned probationary frames first (scan "
        "resistance)");
    report("streaming", true, file_bytes, cache_bytes);
    report("skewed_80_20", false, file_bytes, cache_bytes);
    return 0;
}
