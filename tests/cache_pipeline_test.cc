/**
 * @file
 * Characterization of the GPU-side buffer cache's I/O paths: the
 * synchronous demand miss (pinPage) with static, adaptive and strided
 * read-ahead, the split-phase vectored read, and every write-back
 * route gfsync, eviction, gmsync and the background flusher take —
 * private, sharded across two GPUs with mixed owners, diff-and-merge,
 * O_GWRONCE, and sharded with a host write fault exhausting the
 * daemon's retries in one partition. Each shape runs on a fresh
 * single-block system and is reduced to one line: the block's virtual
 * clock, a hash of the host file, which page extents are still dirty,
 * and every nonzero cache and daemon counter. The golden table at the
 * bottom pins them exactly, so a change to the RPC sequence, a charge
 * or a counter shows up here by name. Run with CACHE_PIPELINE_PRINT=1
 * to print the current lines instead of comparing.
 *
 * Split-phase submissions put several RPCs in flight at once; those
 * shapes submit with the daemon stopped and start it before waiting,
 * so every run hands the daemon the same single sweep.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr uint64_t kPage = 16 * KiB;

GpuFsParams
baseParams()
{
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 4 * MiB;
    return p;
}

/** Read-ahead off: write shapes fetch exactly their own pages. */
GpuFsParams
noReadAhead()
{
    GpuFsParams p = baseParams();
    p.readAheadPolicy = ReadAheadPolicy::Static;
    return p;
}

GpuFsParams
sharded()
{
    GpuFsParams p = noReadAhead();
    p.shardPolicy = ShardPolicy::HashPageGroup;
    p.shardPagesPerGroup = 4;
    return p;
}

/** One fresh machine and an application block on GPU 0. */
struct Rig {
    std::unique_ptr<GpufsSystem> sys;
    gpu::BlockCtx ctx;
    std::vector<std::string> hashed;    ///< host files hashed into the line

    Rig(unsigned gpus, const GpuFsParams &p)
        : sys(std::make_unique<GpufsSystem>(gpus, p)),
          ctx(test::makeBlock(sys->device(0)))
    {
    }

    GpuFs &fs() { return sys->fs(0); }

    /** Submit with the daemon stopped, then start it: the whole
     *  submission reaches the daemon as one sweep. */
    void
    paused(const std::function<void()> &submit)
    {
        sys->daemon().stop();
        submit();
        sys->daemon().start();
    }
};

uint64_t
fnv(const uint8_t *p, uint64_t n, uint64_t h = 1469598103934665603ull)
{
    for (uint64_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

std::string
hostHash(hostfs::HostFs &fs, const std::string &path)
{
    hostfs::FileInfo info;
    if (fs.stat(path, &info) != Status::Ok)
        return "absent";
    std::vector<uint8_t> bytes(info.size);
    int fd = fs.open(path, hostfs::O_RDONLY_F);
    fs.pread(fd, bytes.data(), bytes.size(), 0);
    fs.close(fd);
    std::ostringstream os;
    os << std::hex << fnv(bytes.data(), bytes.size()) << std::dec << "/"
       << info.size;
    return os.str();
}

/** The dirty page extents in @p fs's arena, by page index. */
std::string
dirtyOf(GpuFs &fs)
{
    std::map<uint64_t, std::string> pages;
    FrameArena &arena = fs.arena();
    for (uint32_t fr = 0; fr < arena.numFrames(); ++fr) {
        PFrame &pf = arena.frame(fr);
        if (pf.fileUid.load() == 0 || !pf.isDirty())
            continue;
        uint64_t e = pf.dirtyExtent.load();
        uint64_t idx = pf.pageIdx.load();
        pages[idx] = std::to_string(idx) + "[" +
            std::to_string(PFrame::extentLo(e)) + "," +
            std::to_string(PFrame::extentHi(e)) + ")";
    }
    std::string out;
    for (const auto &[idx, s] : pages)
        out += (out.empty() ? "" : ",") + s;
    return out.empty() ? "-" : out;
}

std::string
countersOf(const StatSet &stats)
{
    std::string out;
    for (const auto &[name, value] : stats.snapshot()) {
        // Queue high-water marks and doorbell census depend on how the
        // host scheduled the daemon thread, not on the I/O path.
        if (value != 0 && name.rfind("gpu", 0) != 0)
            out += " " + name + "=" + std::to_string(value);
    }
    return out;
}

/** A ramp-filled host file of @p pages pages plus @p tail bytes. */
void
addFile(Rig &rig, const char *path, uint64_t pages, uint64_t tail = 0)
{
    test::addRamp(rig.sys->hostFs(), path, pages * kPage + tail);
    rig.hashed.push_back(path);
}

/** gmmap one page of @p fd, check its bytes against the ramp, unmap. */
void
mapPage(Rig &rig, int fd, uint64_t idx, uint64_t fsize)
{
    uint64_t mapped = 0;
    Status st = Status::Ok;
    auto *p = static_cast<const uint8_t *>(
        rig.fs().gmmap(rig.ctx, fd, idx * kPage, kPage, &mapped, &st));
    ASSERT_NE(nullptr, p) << statusName(st) << " page " << idx;
    for (uint64_t i = 0; i < mapped && idx * kPage + i < fsize; i += 997)
        ASSERT_EQ(test::rampByte(idx * kPage + i), p[i]) << "page " << idx;
    ASSERT_EQ(Status::Ok,
              rig.fs().gmunmap(rig.ctx, const_cast<uint8_t *>(p)));
}

// ---- read shapes ----

void
pinStatic(Rig &rig)
{
    // Static window of 4 pages: each demand miss is one ReadPage plus
    // one ReadPages batch; page 3 then hits a prefetched page, and the
    // last miss clips its window at EOF (a 100-byte tail page).
    const uint64_t fsize = 40 * kPage + 100;
    addFile(rig, "/r", 40, 100);
    int fd = rig.fs().gopen(rig.ctx, "/r", G_RDONLY);
    ASSERT_GE(fd, 0);
    for (uint64_t idx : {0, 3, 10, 38, 39, 40})
        mapPage(rig, fd, idx, fsize);
    rig.fs().gclose(rig.ctx, fd);
}

void
pinAdaptive(Rig &rig)
{
    // A sequential scan ramps the adaptive window from its first miss.
    addFile(rig, "/r", 96);
    int fd = rig.fs().gopen(rig.ctx, "/r", G_RDONLY);
    ASSERT_GE(fd, 0);
    for (uint64_t idx = 0; idx < 96; ++idx)
        mapPage(rig, fd, idx, 96 * kPage);
    rig.fs().gclose(rig.ctx, fd);
}

void
pinStride2(Rig &rig)
{
    // Every other page: the tracker recognises stride 2 and prefetches
    // one page per RPC along it, never the gaps.
    addFile(rig, "/r", 96);
    int fd = rig.fs().gopen(rig.ctx, "/r", G_RDONLY);
    ASSERT_GE(fd, 0);
    for (uint64_t idx = 0; idx < 80; idx += 2)
        mapPage(rig, fd, idx, 96 * kPage);
    rig.fs().gclose(rig.ctx, fd);
}

void
readVectored(Rig &rig)
{
    // Two extents, one of them partial at both ends: the demand runs
    // coalesce into ReadPages batches and the read-ahead window rides
    // the whole demand run.
    addFile(rig, "/r", 64);
    int fd = rig.fs().gopen(rig.ctx, "/r", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> a(3 * kPage - 200), b(5 * kPage);
    GIoVec iov[2] = {{100, a.size(), a.data()},
                     {8 * kPage, b.size(), b.data()}};
    IoToken tok;
    rig.paused([&] { tok = rig.fs().greadv_async(rig.ctx, fd, iov, 2); });
    ASSERT_EQ(int64_t(a.size() + b.size()), rig.fs().gwait(rig.ctx, tok));
    for (uint64_t i = 0; i < a.size(); i += 311)
        ASSERT_EQ(test::rampByte(100 + i), a[i]);
    for (uint64_t i = 0; i < b.size(); i += 311)
        ASSERT_EQ(test::rampByte(8 * kPage + i), b[i]);
    rig.fs().gclose(rig.ctx, fd);
}

// ---- write shapes ----

/** Partial writes into pages [0, pages) of @p fd: page p gets 700
 *  bytes at a page-dependent offset. */
void
dirtyPages(GpuFs &fs, gpu::BlockCtx &ctx, int fd, uint64_t pages)
{
    std::vector<uint8_t> buf(700);
    for (uint64_t p = 0; p < pages; ++p) {
        std::memset(buf.data(), int(0x30 + p % 64), buf.size());
        uint64_t off = p * kPage + (p * 977) % (kPage - buf.size());
        ASSERT_EQ(int64_t(buf.size()),
                  fs.gwrite(ctx, fd, off, buf.size(), buf.data()));
    }
}

/** gfsync through the async core with the daemon paused across the
 *  submission; @return gwait's result. */
int64_t
fsyncPaused(Rig &rig, int fd)
{
    IoToken tok;
    rig.paused([&] { tok = rig.fs().gfsync_async(rig.ctx, fd); });
    return rig.fs().gwait(rig.ctx, tok);
}

void
fsyncPrivate(Rig &rig)
{
    // 80 dirty pages: four 16-extent batches go out split-phase at
    // submit, the residual 16 drain synchronously at wait.
    addFile(rig, "/w", 80);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    dirtyPages(rig.fs(), rig.ctx, fd, 80);
    ASSERT_EQ(0, fsyncPaused(rig, fd));
    rig.fs().gclose(rig.ctx, fd);
}

void
fsyncSharded(Rig &rig)
{
    // 2 GPUs, 4-page groups hashed to owners: every take splits into
    // a self WritePages and a PeerWritePages toward GPU 1 (which holds
    // some pages from the fetches' owner warming).
    addFile(rig, "/w", 48);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    dirtyPages(rig.fs(), rig.ctx, fd, 48);
    ASSERT_EQ(0, fsyncPaused(rig, fd));
    rig.fs().gclose(rig.ctx, fd);
}

void
fsyncShardedFault(Rig &rig)
{
    // As above, with four host write faults: the first partition the
    // daemon serves exhausts its three retries and fails; its extents
    // stay dirty, the landed partitions' do not.
    addFile(rig, "/w", 48);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    dirtyPages(rig.fs(), rig.ctx, fd, 48);
    rig.sys->sim().faults.injectIoError(sim::FaultOp::HostWrite, 4);
    EXPECT_EQ(-int64_t(Status::IoError), fsyncPaused(rig, fd));
    rig.sys->sim().faults.reset();
}

void
flusherSharded(Rig &rig)
{
    // The background flusher's bounded drain is the synchronous
    // write-back: take, partition by owner, one RPC per partition in
    // order, here with the first partition failing.
    addFile(rig, "/w", 40);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    dirtyPages(rig.fs(), rig.ctx, fd, 40);
    rig.sys->sim().faults.injectIoError(sim::FaultOp::HostWrite, 4);
    Time end = rig.fs().backgroundFlushPass(rig.ctx.now());
    rig.sys->sim().faults.reset();
    rig.ctx.waitUntil(end);
    end = rig.fs().backgroundFlushPass(rig.ctx.now());
    rig.ctx.waitUntil(end);
}

void
fsyncDiffMerge(Rig &rig)
{
    // Diff-and-merge: each page's changed runs are written, batched up
    // to 16 runs per WritePages; page 5 is fragmented into 40 runs.
    addFile(rig, "/w", 8);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    for (uint64_t p = 0; p < 8; ++p) {
        std::vector<uint8_t> buf(3000);
        for (uint64_t i = 0; i < buf.size(); ++i) {
            uint64_t off = p * kPage + 500 + i;
            bool changed = p != 5 || (i / 37) % 2 == 0;
            buf[i] = changed ? uint8_t(test::rampByte(off) ^ 0x5A)
                             : test::rampByte(off);
        }
        ASSERT_EQ(int64_t(buf.size()),
                  rig.fs().gwrite(rig.ctx, fd, p * kPage + 500, buf.size(),
                                  buf.data()));
    }
    ASSERT_EQ(0, fsyncPaused(rig, fd));
    rig.fs().gclose(rig.ctx, fd);
}

void
fsyncWronce(Rig &rig)
{
    // O_GWRONCE: zero-pristine pages, no fetch; the write-back sends
    // whole extents with the daemon diffing against zeros.
    addFile(rig, "/o", 24);
    int fd = rig.fs().gopen(rig.ctx, "/o", G_GWRONCE);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> chunk(kPage, 0);
    for (unsigned pg = 0; pg < 24; ++pg) {
        std::fill(chunk.begin(), chunk.end(), uint8_t(0));
        std::memset(chunk.data() + 10, pg + 1, 50);
        std::memset(chunk.data() + 1000, pg + 101, 50);
        ASSERT_EQ(int64_t(kPage),
                  rig.fs().gwrite(rig.ctx, fd, uint64_t(pg) * kPage, kPage,
                                  chunk.data()));
    }
    ASSERT_EQ(0, fsyncPaused(rig, fd));
    rig.fs().gclose(rig.ctx, fd);
}

void
gmsyncPage(Rig &rig)
{
    // gmsync(ctx, ptr): one page's dirty extent as a single WriteBack.
    addFile(rig, "/w", 4);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(900, 0xAB);
    ASSERT_EQ(int64_t(buf.size()),
              rig.fs().gwrite(rig.ctx, fd, 2 * kPage + 300, buf.size(),
                              buf.data()));
    uint64_t mapped = 0;
    auto *p = static_cast<uint8_t *>(
        rig.fs().gmmap(rig.ctx, fd, 2 * kPage, kPage, &mapped));
    ASSERT_NE(nullptr, p);
    ASSERT_EQ(Status::Ok, rig.fs().gmsync(rig.ctx, p));
    ASSERT_EQ(Status::Ok, rig.fs().gmunmap(rig.ctx, p));
    rig.fs().gclose(rig.ctx, fd);
}

void
evictDirty(Rig &rig)
{
    // A 32-frame arena and 48 whole-page writes: reclaim pushes the
    // oldest dirty extents home in batches before evicting them.
    addFile(rig, "/w", 48);
    int fd = rig.fs().gopen(rig.ctx, "/w", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> chunk(kPage);
    for (unsigned pg = 0; pg < 48; ++pg) {
        std::memset(chunk.data(), int(pg + 1), chunk.size());
        ASSERT_EQ(int64_t(kPage),
                  rig.fs().gwrite(rig.ctx, fd, uint64_t(pg) * kPage, kPage,
                                  chunk.data()));
    }
    ASSERT_EQ(Status::Ok, rig.fs().gfsync(rig.ctx, fd));
    rig.fs().gclose(rig.ctx, fd);
}

struct ShapeDef {
    const char *name;
    unsigned gpus;
    GpuFsParams params;
    void (*run)(Rig &);
};

std::vector<ShapeDef>
shapes()
{
    GpuFsParams stat4 = baseParams();
    stat4.readAheadPages = 4;
    GpuFsParams diff = noReadAhead();
    diff.enableDiffMerge = true;
    GpuFsParams small = noReadAhead();
    small.cacheBytes = 32 * kPage;
    return {
        {"pin.static_ra", 1, stat4, pinStatic},
        {"pin.adaptive_ra", 1, baseParams(), pinAdaptive},
        {"pin.stride2", 1, baseParams(), pinStride2},
        {"readv.vectored", 1, baseParams(), readVectored},
        {"fsync.private", 1, noReadAhead(), fsyncPrivate},
        {"fsync.sharded", 2, sharded(), fsyncSharded},
        {"fsync.sharded_fault", 2, sharded(), fsyncShardedFault},
        {"flusher.sharded_fault", 2, sharded(), flusherSharded},
        {"fsync.diffmerge", 1, diff, fsyncDiffMerge},
        {"fsync.gwronce", 1, noReadAhead(), fsyncWronce},
        {"gmsync.page", 1, noReadAhead(), gmsyncPage},
        {"evict.dirty", 1, small, evictDirty},
    };
}

const char *golden();

std::map<std::string, std::string>
goldenLines()
{
    std::map<std::string, std::string> m;
    std::istringstream in(golden());
    std::string line;
    while (std::getline(in, line)) {
        size_t sep = line.find(": ");
        if (sep != std::string::npos)
            m[line.substr(0, sep)] = line.substr(sep + 2);
    }
    return m;
}

TEST(CachePipeline, MatchesGolden)
{
    const bool print = std::getenv("CACHE_PIPELINE_PRINT") != nullptr;
    const std::map<std::string, std::string> golden = goldenLines();
    for (const ShapeDef &s : shapes()) {
        std::ostringstream line;
        {
            Rig rig(s.gpus, s.params);
            s.run(rig);
            ASSERT_FALSE(::testing::Test::HasFatalFailure()) << s.name;
            line << "now=" << rig.ctx.now();
            for (const std::string &path : rig.hashed) {
                line << " " << path << "="
                     << hostHash(rig.sys->hostFs(), path);
            }
            for (unsigned g = 0; g < s.gpus; ++g) {
                line << " | g" << g << " dirty=" << dirtyOf(rig.sys->fs(g))
                     << countersOf(rig.sys->fs(g).stats());
            }
            rig.sys->daemon().stop();
            line << " | daemon" << countersOf(rig.sys->daemon().stats());
        }
        if (print) {
            std::printf("%s: %s\n", s.name, line.str().c_str());
            continue;
        }
        auto it = golden.find(s.name);
        ASSERT_NE(golden.end(), it) << "no golden line for " << s.name;
        EXPECT_EQ(it->second, line.str()) << s.name;
    }
}

const char *
golden()
{
    return R"(
pin.static_ra: now=3766335 /r=f9c29525ca0a3327/655460 | g0 dirty=- batch_read_pages=10 batch_read_rpcs=3 cache_hits=3 cache_misses=13 closes=1 locked_accesses=3 lockfree_accesses=3 open_rpcs=1 opens=1 ra_hit=3 ra_issued=10 radix_lockfree_walks=16 read_rpcs=3 | daemon bytes_to_gpu=196708 host_read_calls=6 ra_pages_fetched=10 requests_served=8 storage_read_bytes=196708 storage_reads=6 tenant0_rpcs=8
pin.adaptive_ra: now=14739394 /r=d734d9205ba50383/1572864 | g0 dirty=- batch_read_pages=88 batch_read_rpcs=8 cache_hits=88 cache_misses=96 closes=1 locked_accesses=8 lockfree_accesses=88 open_rpcs=1 opens=1 ra_hit=88 ra_issued=88 ra_streams_active=1 radix_lockfree_walks=184 read_rpcs=8 | daemon bytes_to_gpu=1572864 host_read_calls=16 ra_pages_fetched=88 requests_served=18 storage_read_bytes=1572864 storage_reads=16 tenant0_rpcs=18
pin.stride2: now=13047192 /r=d734d9205ba50383/1572864 | g0 dirty=- batch_read_pages=38 batch_read_rpcs=38 cache_hits=32 cache_misses=46 closes=1 locked_accesses=8 lockfree_accesses=32 open_rpcs=1 opens=1 ra_hit=32 ra_issued=38 ra_streams_active=1 radix_lockfree_walks=78 read_rpcs=8 | daemon bytes_to_gpu=753664 host_read_calls=46 ra_pages_fetched=38 requests_served=48 storage_read_bytes=753664 storage_reads=46 tenant0_rpcs=48
readv.vectored: now=1794746 /r=37b72afb0e4d0383/1048576 | g0 dirty=- async_peak_inflight=1 async_reads=1 batch_read_pages=8 batch_read_rpcs=2 bytes_read=130872 cache_hits=8 cache_misses=8 closes=1 lockfree_accesses=8 open_rpcs=1 opens=1 ra_streams_active=1 radix_lockfree_walks=16 | daemon bytes_to_gpu=131072 coalesced_rpcs=1 host_read_calls=1 requests_served=4 storage_read_bytes=131072 storage_reads=1 tenant0_rpcs=4
fsync.private: now=36126725 /w=b1d0ea29be3930f3/1310720 | g0 dirty=- async_peak_inflight=1 async_syncs=1 async_writes=80 batch_write_pages=80 batch_write_rpcs=5 bytes_written=56000 cache_hits=80 cache_misses=80 closes=1 locked_accesses=80 lockfree_accesses=80 open_rpcs=1 opens=1 radix_lockfree_walks=160 read_rpcs=80 | daemon bytes_from_gpu=56000 bytes_to_gpu=1310720 host_read_calls=80 requests_served=88 storage_read_bytes=1310720 storage_reads=80 storage_syncs=1 storage_write_bytes=56000 storage_writes=5 tenant0_rpcs=88
fsync.sharded: now=21761548 /w=87dd73ef2bb06a93/786432 | g0 dirty=- async_peak_inflight=1 async_syncs=1 async_writes=48 batch_write_pages=28 batch_write_rpcs=3 bytes_written=33600 cache_hits=48 cache_misses=48 closes=1 locked_accesses=48 lockfree_accesses=48 open_rpcs=1 opens=1 peer_pages_fallback=20 peer_read_rpcs=20 peer_write_rpcs=3 radix_lockfree_walks=96 read_rpcs=28 | g1 dirty=- | daemon bytes_from_gpu=33600 bytes_to_gpu=786432 host_read_calls=48 peer_pages_host_fallback=20 peer_read_rpcs=20 peer_write_rpcs=3 requests_served=57 storage_read_bytes=786432 storage_reads=48 storage_syncs=1 storage_write_bytes=33600 storage_writes=6 tenant0_rpcs=57
fsync.sharded_fault: now=14580229 /w=a8476cfec7864633/786432 | g0 dirty=0[0,700),1[977,1677),2[1954,2654),3[2931,3631),4[3908,4608),5[4885,5585),6[5862,6562),7[6839,7539),12[11724,12424),13[12701,13401),14[13678,14378),15[14655,15355),32[15580,16280),33[873,1573),34[1850,2550),35[2827,3527),36[3804,4504),37[4781,5481),38[5758,6458),39[6735,7435),40[7712,8412),41[8689,9389),42[9666,10366),43[10643,11343),44[11620,12320),45[12597,13297),46[13574,14274),47[14551,15251) async_peak_inflight=1 async_syncs=1 async_writes=48 batch_write_pages=16 batch_write_rpcs=2 bytes_written=33600 cache_hits=48 cache_misses=48 locked_accesses=48 lockfree_accesses=48 open_rpcs=1 opens=1 peer_pages_fallback=20 peer_read_rpcs=20 peer_write_rpcs=2 radix_lockfree_walks=96 read_rpcs=28 | g1 dirty=- | daemon bytes_from_gpu=14000 bytes_to_gpu=786432 host_read_calls=48 io_retries=3 io_retry_giveups=1 peer_pages_host_fallback=20 peer_read_rpcs=20 peer_write_rpcs=2 requests_served=53 storage_read_bytes=786432 storage_reads=48 storage_write_bytes=14000 storage_writes=3 tenant0_rpcs=53
flusher.sharded_fault: now=12101111 /w=5c2e7f6d611c8f7b/655360 | g0 dirty=- async_peak_inflight=1 async_writes=40 batch_write_pages=24 batch_write_rpcs=4 bytes_written=28000 cache_hits=40 cache_misses=40 flusher_drains=2 flusher_pages=40 locked_accesses=40 lockfree_accesses=40 open_rpcs=1 opens=1 peer_pages_fallback=16 peer_read_rpcs=16 peer_write_rpcs=3 radix_lockfree_walks=80 read_rpcs=24 | g1 dirty=- | daemon bytes_from_gpu=28000 bytes_to_gpu=655360 host_read_calls=40 io_retries=3 io_retry_giveups=1 peer_pages_host_fallback=16 peer_read_rpcs=16 peer_write_rpcs=3 requests_served=49 storage_read_bytes=655360 storage_reads=40 storage_syncs=1 storage_write_bytes=28000 storage_writes=6 tenant0_rpcs=49
fsync.diffmerge: now=3856085 /w=2768430759e6cfc5/131072 | g0 dirty=- async_peak_inflight=1 async_syncs=1 async_writes=8 batch_write_pages=48 batch_write_rpcs=10 bytes_written=24000 cache_misses=8 closes=1 locked_accesses=8 open_rpcs=1 opens=1 radix_lockfree_walks=8 read_rpcs=8 | daemon bytes_from_gpu=22517 bytes_to_gpu=131072 host_read_calls=8 requests_served=21 storage_read_bytes=131072 storage_reads=8 storage_syncs=1 storage_write_bytes=22517 storage_writes=10 tenant0_rpcs=21
fsync.gwronce: now=8381155 /o=8e0f415b64999283/393216 | g0 dirty=- async_peak_inflight=1 async_syncs=1 async_writes=24 batch_write_pages=24 batch_write_rpcs=2 bytes_written=393216 cache_misses=24 closes=1 locked_accesses=24 open_rpcs=1 opens=1 radix_lockfree_walks=24 | daemon bytes_from_gpu=393216 requests_served=5 storage_syncs=1 storage_write_bytes=2400 storage_writes=2 tenant0_rpcs=5
gmsync.page: now=666341 /w=975c63d5e6c0e243/65536 | g0 dirty=- async_peak_inflight=1 async_writes=1 bytes_written=900 cache_hits=2 cache_misses=1 closes=1 locked_accesses=1 lockfree_accesses=2 open_rpcs=1 opens=1 radix_lockfree_walks=3 read_rpcs=1 writeback_rpcs=1 | daemon bytes_from_gpu=900 bytes_to_gpu=16384 host_read_calls=1 requests_served=4 storage_read_bytes=16384 storage_reads=1 storage_write_bytes=900 storage_writes=1 tenant0_rpcs=4
evict.dirty: now=16816698 /w=5a69dc44745f0383/786432 | g0 dirty=- async_peak_inflight=1 async_syncs=1 async_writes=48 batch_write_pages=48 batch_write_rpcs=3 bytes_written=786432 cache_misses=48 closes=1 locked_accesses=48 open_rpcs=1 opens=1 pages_reclaimed=16 radix_lockfree_walks=48 | daemon bytes_from_gpu=786432 requests_served=6 storage_syncs=1 storage_write_bytes=786432 storage_writes=3 tenant0_rpcs=6
)";
}

} // namespace
} // namespace core
} // namespace gpufs
