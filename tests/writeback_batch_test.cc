/**
 * @file
 * Batched write-back (RpcOp::WritePages) and async-flusher tests:
 * multi-extent coalescing correctness, failure propagation through the
 * batched path, and the flusher's races against eviction and close.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "gpufs/system.hh"
#include "hostfs/journal.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

/** Poll @p cond (ms granularity) until true or ~5 s elapse. */
bool
eventually(const std::function<bool()> &cond)
{
    for (int i = 0; i < 5000; ++i) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
}

/** Writable provider whose writes start failing once a fuse burns
 *  (and can be healed), for write-back failure injection. */
class FailingWriteContent : public hostfs::ContentProvider
{
  public:
    void
    readAt(uint64_t offset, uint64_t len, uint8_t *dst) override
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (uint64_t i = 0; i < len; ++i) {
            uint64_t off = offset + i;
            dst[i] = off < bytes.size() ? bytes[off] : 0;
        }
    }

    bool
    writeAt(uint64_t offset, uint64_t len, const uint8_t *src) override
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (failing)
            return false;
        if (offset + len > bytes.size())
            bytes.resize(offset + len, 0);
        std::memcpy(bytes.data() + offset, src, len);
        return true;
    }

    bool writable() const override { return true; }

    void
    setFailing(bool f)
    {
        std::lock_guard<std::mutex> lock(mtx);
        failing = f;
    }

  private:
    std::mutex mtx;
    bool failing = false;
    std::vector<uint8_t> bytes;
};

class WritebackBatchTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kPage = 16 * KiB;

    void
    makeSystem(const GpuFsParams &p)
    {
        sys = std::make_unique<GpufsSystem>(1, p);
    }

    GpuFsParams
    baseParams()
    {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 16 * MiB;
        return p;
    }

    uint64_t
    stat(const char *name)
    {
        return sys->fs().stats().counter(name).get();
    }

    std::unique_ptr<GpufsSystem> sys;
};

// ---------------------------------------------------------------------
// Multi-extent coalescing
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, CoalescedExtentsLandAtRightOffsets)
{
    makeSystem(baseParams());
    // 100 pages spans two radix leaves (64 pages each): the write-back
    // offsets must come out right across the leaf boundary too.
    constexpr unsigned kPages = 100;
    constexpr uint64_t kFile = kPages * kPage;
    test::addRamp(sys->hostFs(), "/f", kFile);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDWR);
    ASSERT_GE(fd, 0);

    // One small extent per page at a page-dependent offset: write-back
    // must gather 100 sub-page extents, not whole pages.
    std::vector<uint8_t> stamp(100);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        for (size_t i = 0; i < stamp.size(); ++i)
            stamp[i] = uint8_t(pg * 7 + i);
        uint64_t off = uint64_t(pg) * kPage + 37 + pg;  // varies per page
        ASSERT_EQ(int64_t(stamp.size()),
                  sys->fs().gwrite(ctx, fd, off, stamp.size(),
                                   stamp.data()));
    }
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));

    // All 100 page extents rode batched WritePages RPCs, none the
    // per-page path, and the batch factor is the full kMaxBatchPages.
    EXPECT_EQ(0u, stat("writeback_rpcs"));
    EXPECT_EQ(kPages, stat("batch_write_pages"));
    EXPECT_EQ((kPages + rpc::kMaxBatchPages - 1) / rpc::kMaxBatchPages,
              stat("batch_write_rpcs"));

    // Bytes landed exactly where written; neighbours kept the ramp.
    int hfd = sys->hostFs().open("/f", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> page(kPage);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        sys->hostFs().pread(hfd, page.data(), kPage,
                            uint64_t(pg) * kPage);
        uint64_t lo = 37 + pg;
        for (uint64_t i = 0; i < kPage; ++i) {
            uint64_t off = uint64_t(pg) * kPage + i;
            uint8_t want = (i >= lo && i < lo + 100)
                ? uint8_t(pg * 7 + (i - lo))
                : test::rampByte(off);
            ASSERT_EQ(want, page[i]) << "page " << pg << " byte " << i;
        }
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

TEST_F(WritebackBatchTest, WronceZeroDiffRidesBatchedPath)
{
    makeSystem(baseParams());
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/once", G_GWRONCE);
    ASSERT_GE(fd, 0);

    // Chunks with interior zeros: the daemon's zero-diff must split
    // them into non-zero runs inside one gathered pwritev.
    constexpr unsigned kPages = 20;
    std::vector<uint8_t> chunk(kPage, 0);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        std::fill(chunk.begin(), chunk.end(), uint8_t(0));
        std::memset(chunk.data() + 10, pg + 1, 50);
        std::memset(chunk.data() + 1000, pg + 101, 50);
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   chunk.data()));
    }
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_EQ(0u, stat("writeback_rpcs"));
    EXPECT_GE(stat("batch_write_pages"), uint64_t(kPages));

    int hfd = sys->hostFs().open("/once", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> got(kPage);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        sys->hostFs().pread(hfd, got.data(), kPage, uint64_t(pg) * kPage);
        EXPECT_EQ(uint8_t(pg + 1), got[10]) << pg;
        EXPECT_EQ(uint8_t(pg + 1), got[59]) << pg;
        EXPECT_EQ(0u, got[500]) << pg;
        EXPECT_EQ(uint8_t(pg + 101), got[1000]) << pg;
        EXPECT_EQ(uint8_t(pg + 101), got[1049]) << pg;
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

TEST_F(WritebackBatchTest, TruncateFlushesThroughBatchedPath)
{
    makeSystem(baseParams());
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/t", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0xAB);
    for (unsigned pg = 0; pg < 40; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   buf.data()));
    }
    // Truncate below the written range: dirty pages under the cut are
    // pushed home (batched), pages beyond are dropped.
    ASSERT_EQ(Status::Ok, sys->fs().gftruncate(ctx, fd, 10 * kPage));
    EXPECT_GE(stat("batch_write_rpcs"), 1u);
    EXPECT_EQ(0u, stat("writeback_rpcs"));

    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/t", &info));
    EXPECT_EQ(10 * kPage, info.size);
    int hfd = sys->hostFs().open("/t", hostfs::O_RDONLY_F);
    uint8_t b = 0;
    sys->hostFs().pread(hfd, &b, 1, 5 * kPage + 123);
    EXPECT_EQ(0xAB, b);
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Failure propagation
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, BatchedWritebackFailureRestoresDirtyPages)
{
    makeSystem(baseParams());
    auto owned = std::make_unique<FailingWriteContent>();
    FailingWriteContent *content = owned.get();
    ASSERT_EQ(Status::Ok,
              sys->hostFs().addFile("/flaky", std::move(owned),
                                    30 * kPage));

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/flaky", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0x7E);
    for (unsigned pg = 0; pg < 30; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   buf.data()));
    }

    content->setFailing(true);
    EXPECT_NE(Status::Ok, sys->fs().gfsync(ctx, fd));

    // The failed batch restored its extents: healing the file and
    // retrying the sync lands every byte.
    content->setFailing(false);
    EXPECT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    int hfd = sys->hostFs().open("/flaky", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    for (unsigned pg = 0; pg < 30; ++pg) {
        uint8_t b = 0;
        sys->hostFs().pread(hfd, &b, 1, uint64_t(pg) * kPage + 99);
        EXPECT_EQ(0x7E, b) << "page " << pg;
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Async flusher
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, FlusherDrainsDirtyPagesWithoutSync)
{
    GpuFsParams p = baseParams();
    p.asyncWriteback = true;
    p.flusherIntervalUs = 100;
    makeSystem(p);
    ASSERT_TRUE(sys->flusherRunning());

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/bg", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0x42);
    for (unsigned pg = 0; pg < 24; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   buf.data()));
    }

    // NO gfsync: the background flusher alone must land the bytes.
    EXPECT_TRUE(eventually([&] {
        hostfs::FileInfo info;
        if (!ok(sys->hostFs().stat("/bg", &info)) ||
            info.size < 24 * kPage) {
            return false;
        }
        int hfd = sys->hostFs().open("/bg", hostfs::O_RDONLY_F);
        if (hfd < 0)
            return false;
        bool all = true;
        for (unsigned pg = 0; pg < 24 && all; ++pg) {
            uint8_t b = 0;
            sys->hostFs().pread(hfd, &b, 1, uint64_t(pg) * kPage + 7);
            all = (b == 0x42);
        }
        sys->hostFs().close(hfd);
        return all;
    }));
    // The bytes become host-visible mid-RPC, before the flush pass
    // updates its counters — poll those too.
    EXPECT_TRUE(eventually([&] {
        return stat("flusher_pages") >= 24 && stat("flusher_drains") >= 1;
    }));
    sys->fs().gclose(ctx, fd);
}

TEST_F(WritebackBatchTest, FlusherVsEvictionRaceKeepsDataIntact)
{
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 2 * MiB;          // 128 frames: constant paging
    p.maxOpenFiles = 64;
    p.asyncWriteback = true;
    p.flusherIntervalUs = 50;
    makeSystem(p);

    constexpr unsigned kFiles = 8;
    constexpr uint64_t kFileSize = 512 * KiB;   // 4 MiB working set
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys->hostFs(), "/in" + std::to_string(f), kFileSize);

    // Readers force eviction (including of dirty pages) while writers
    // dirty their own output files and the flusher drains concurrently.
    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 24, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::vector<uint8_t> buf(32 * KiB);
        std::string out = "/out" + std::to_string(ctx.blockId());
        int ofd = fs.gopen(ctx, out, G_RDWR | G_CREAT);
        if (ofd < 0) {
            errors.fetch_add(1);
            return;
        }
        for (int iter = 0; iter < 20; ++iter) {
            unsigned f = unsigned(ctx.rng().nextBelow(kFiles));
            int fd = fs.gopen(ctx, "/in" + std::to_string(f), G_RDONLY);
            if (fd < 0) {
                errors.fetch_add(1);
                continue;
            }
            uint64_t off = ctx.rng().nextBelow(kFileSize - buf.size());
            int64_t n = fs.gread(ctx, fd, off, buf.size(), buf.data());
            if (n != int64_t(buf.size())) {
                errors.fetch_add(1);
            } else {
                for (size_t i = 0; i < buf.size(); i += 509) {
                    if (buf[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
            uint8_t stamp = uint8_t(ctx.blockId() * 31 + iter);
            std::memset(buf.data(), stamp, 1024);
            if (fs.gwrite(ctx, ofd, uint64_t(iter) * 1024, 1024,
                          buf.data()) != 1024) {
                errors.fetch_add(1);
            }
            fs.gclose(ctx, fd);
        }
        if (!ok(fs.gfsync(ctx, ofd)))
            errors.fetch_add(1);
        fs.gclose(ctx, ofd);
    });
    ASSERT_EQ(0u, errors.load());

    for (unsigned b = 0; b < 24; ++b) {
        int hfd = sys->hostFs().open("/out" + std::to_string(b),
                                     hostfs::O_RDONLY_F);
        ASSERT_GE(hfd, 0) << b;
        for (int iter = 0; iter < 20; ++iter) {
            uint8_t byte = 0;
            sys->hostFs().pread(hfd, &byte, 1, uint64_t(iter) * 1024);
            EXPECT_EQ(uint8_t(b * 31 + iter), byte)
                << "block " << b << " iter " << iter;
        }
        sys->hostFs().close(hfd);
    }
}

TEST_F(WritebackBatchTest, FlusherVsCloseRaceDrainsAndReleasesFds)
{
    GpuFsParams p = baseParams();
    p.asyncWriteback = true;
    p.flusherIntervalUs = 50;
    makeSystem(p);

    auto ctx = test::makeBlock(sys->device(0));
    // Race close-with-dirty-pages against the flusher: each round
    // leaves the file dirty at gclose (close does NOT sync, §3.2);
    // the flusher must drain it, release the parked fd, and keep the
    // data consistent for the next reopen.
    for (int round = 0; round < 20; ++round) {
        int fd = sys->fs().gopen(ctx, "/churn", G_RDWR | G_CREAT);
        ASSERT_GE(fd, 0) << round;
        std::vector<uint8_t> buf(kPage, uint8_t(round + 1));
        for (unsigned pg = 0; pg < 6; ++pg) {
            ASSERT_EQ(int64_t(kPage),
                      sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage,
                                       kPage, buf.data()));
        }
        ASSERT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
    }

    // Everything drained: the host file holds the last round's stamp
    // and no host fd (or consistency claim) is left behind.
    EXPECT_TRUE(eventually([&] {
        return sys->fs().hostFdsHeld() == 0 &&
            sys->hostFs().openCount() == 0;
    }));
    int hfd = sys->hostFs().open("/churn", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    for (unsigned pg = 0; pg < 6; ++pg) {
        uint8_t b = 0;
        sys->hostFs().pread(hfd, &b, 1, uint64_t(pg) * kPage + 11);
        EXPECT_EQ(20u, b) << pg;
    }
    sys->hostFs().close(hfd);
}

TEST_F(WritebackBatchTest, FlusherCollectsDrainedClosedCaches)
{
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 8 * kPage;        // tiny: reads of B evict A fully
    p.asyncWriteback = true;
    p.flusherIntervalUs = 50;
    makeSystem(p);
    test::addRamp(sys->hostFs(), "/a", 4 * kPage);
    test::addRamp(sys->hostFs(), "/b", 32 * kPage);

    auto ctx = test::makeBlock(sys->device(0));
    int fa = sys->fs().gopen(ctx, "/a", G_RDONLY);
    ASSERT_GE(fa, 0);
    std::vector<uint8_t> buf(kPage);
    for (unsigned pg = 0; pg < 4; ++pg)
        sys->fs().gread(ctx, fa, uint64_t(pg) * kPage, kPage, buf.data());
    sys->fs().gclose(ctx, fa);       // parked: cache retained

    // Stream B through the tiny cache: A's closed clean pages are the
    // first eviction tier and drain completely.
    int fb = sys->fs().gopen(ctx, "/b", G_RDONLY);
    ASSERT_GE(fb, 0);
    for (unsigned pg = 0; pg < 32; ++pg)
        sys->fs().gread(ctx, fb, uint64_t(pg) * kPage, kPage, buf.data());

    // The flusher (not a later gopen) destroys the drained cache.
    EXPECT_TRUE(eventually(
        [&] { return stat("drained_caches_collected") >= 1; }));
    sys->fs().gclose(ctx, fb);
}

// ---------------------------------------------------------------------
// Write-back bytes are a stable snapshot
// ---------------------------------------------------------------------

/**
 * Every extent record in the daemon's journal, parsed from the
 * journal file as recovery would read it.
 */
std::vector<std::vector<uint8_t>>
journalPayloads(GpufsSystem &sys)
{
    hostfs::HostFs &hfs = sys.hostFs();
    int fd = hfs.open(hostfs::WriteJournal::kPath, hostfs::O_RDONLY_F);
    hostfs::FileInfo fi;
    hfs.fstat(fd, &fi);
    std::vector<uint8_t> img(fi.size);
    hfs.pread(fd, img.data(), img.size(), 0);
    hfs.close(fd);
    std::vector<std::vector<uint8_t>> out;
    uint64_t pos = 0;
    while (pos + sizeof(hostfs::JRecHeader) <= img.size()) {
        hostfs::JRecHeader h;
        std::memcpy(&h, img.data() + pos, sizeof h);
        pos += sizeof h;
        if (h.type != hostfs::kJRecExtent)
            continue;
        out.emplace_back(img.data() + pos, img.data() + pos + h.len);
        pos += h.len;
    }
    return out;
}

TEST_F(WritebackBatchTest, WriteBackSendsSnapshotNotFrameWritersFill)
{
    // One block rewrites a whole page over and over, each time with a
    // single byte value, while another block keeps syncing the same
    // durable file. Each gwrite is one memcpy into the frame, so a
    // write-back that read the live frame while that memcpy ran would
    // journal (and write in place) a mix of two values. Write-back
    // copies the extent at its take, with writers fenced off, so
    // every journaled extent holds exactly one gwrite's value.
    GpuFsParams p = baseParams();
    p.pageSize = 64 * KiB;
    p.journalWriteback = true;
    makeSystem(p);
    test::addRamp(sys->hostFs(), "/hot", p.pageSize);

    constexpr int kWrites = 3000;
    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 2, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        int fd = fs.gopen(ctx, "/hot", G_RDWR | G_GDURABLE);
        if (fd < 0) {
            errors.fetch_add(1);
            writer_done.store(true);
            return;
        }
        if (ctx.blockId() == 0) {
            std::vector<uint8_t> page(p.pageSize);
            for (int i = 0; i < kWrites; ++i) {
                std::memset(page.data(), uint8_t(i), page.size());
                if (fs.gwrite(ctx, fd, 0, page.size(), page.data()) !=
                    int64_t(page.size())) {
                    errors.fetch_add(1);
                }
            }
            writer_done.store(true);
        } else {
            while (!writer_done.load()) {
                if (!ok(fs.gfsync(ctx, fd)))
                    errors.fetch_add(1);
            }
        }
        fs.gclose(ctx, fd);
    });
    gpu::launch(sys->device(0), 1, 256, [&](gpu::BlockCtx &ctx) {
        int fd = sys->fs().gopen(ctx, "/hot", G_RDWR | G_GDURABLE);
        if (fd < 0 || !ok(sys->fs().gfsync(ctx, fd)))
            errors.fetch_add(1);
        sys->fs().gclose(ctx, fd);
    });
    ASSERT_EQ(0u, errors.load());

    auto payloads = journalPayloads(*sys);
    ASSERT_FALSE(payloads.empty());
    unsigned torn = 0;
    for (const auto &pl : payloads) {
        for (uint8_t b : pl) {
            if (b != pl[0]) {
                ++torn;
                break;
            }
        }
    }
    EXPECT_EQ(0u, torn) << "of " << payloads.size() << " extents";
    // And the host holds the last gwrite, whole.
    std::vector<uint8_t> got(p.pageSize);
    int hfd = sys->hostFs().open("/hot", hostfs::O_RDONLY_F);
    sys->hostFs().pread(hfd, got.data(), got.size(), 0);
    sys->hostFs().close(hfd);
    EXPECT_EQ(std::vector<uint8_t>(p.pageSize, uint8_t(kWrites - 1)), got);
}

TEST_F(WritebackBatchTest, ConcurrentWriteBacksNeverLookRemoteAtReopen)
{
    // Many blocks write back pages of one shared file at once, so the
    // host versions their write-backs return reach the file's cache on
    // different threads, in any order. The cache must end at the
    // newest of them: anything older makes the next gopen mistake the
    // file for remotely modified and drop the cache, dirty pages and
    // all (which is how a block's gwrite went missing after its final
    // gfsync). Every reopen must therefore reuse the cache.
    GpuFsParams p = baseParams();
    makeSystem(p);
    constexpr unsigned kBlocks = 8;
    constexpr int kRounds = 60;
    test::addRamp(sys->hostFs(), "/shared", kBlocks * kPage);
    std::atomic<uint64_t> errors{0};
    for (int r = 0; r < kRounds; ++r) {
        gpu::launch(sys->device(0), kBlocks, 256, [&](gpu::BlockCtx &ctx) {
            GpuFs &fs = sys->fs();
            int fd = fs.gopen(ctx, "/shared", G_RDWR);
            if (fd < 0) {
                errors.fetch_add(1);
                return;
            }
            std::vector<uint8_t> buf(kPage / 2, uint8_t(r + ctx.blockId()));
            if (fs.gwrite(ctx, fd, ctx.blockId() * kPage, buf.size(),
                          buf.data()) != int64_t(buf.size()) ||
                !ok(fs.gfsync(ctx, fd))) {
                errors.fetch_add(1);
            }
            fs.gclose(ctx, fd);
        });
    }
    ASSERT_EQ(0u, errors.load());
    EXPECT_EQ(0u, stat("cache_invalidations"));
    int hfd = sys->hostFs().open("/shared", hostfs::O_RDONLY_F);
    for (unsigned b = 0; b < kBlocks; ++b) {
        uint8_t byte = 0;
        sys->hostFs().pread(hfd, &byte, 1, b * kPage);
        EXPECT_EQ(uint8_t(kRounds - 1 + b), byte) << "block " << b;
    }
    sys->hostFs().close(hfd);
}

TEST_F(WritebackBatchTest, ReopenRacingEvictionWriteBackKeepsDirtyPages)
{
    // A closed file keeps its dirty pages. One block streams another
    // file through a small arena, so eviction writes those pages back,
    // while a second block keeps reopening the closed file. A reopen
    // can see the host version an eviction write-back produced before
    // the evicting thread has stored it in the cache, and so take the
    // file for remotely modified and drop the cache. Whatever it
    // decides, no dirty byte may be lost.
    GpuFsParams p = baseParams();
    p.cacheBytes = 32 * kPage;
    makeSystem(p);
    constexpr unsigned kHotPages = 24;
    constexpr unsigned kBigPages = 256;
    constexpr int kRounds = 150;
    test::addRamp(sys->hostFs(), "/hot", kHotPages * kPage);
    test::addRamp(sys->hostFs(), "/big", kBigPages * kPage);
    std::atomic<uint64_t> errors{0};
    for (int r = 0; r < kRounds; ++r) {
        const uint8_t value = uint8_t(r + 1);
        gpu::launch(sys->device(0), 1, 256, [&](gpu::BlockCtx &ctx) {
            GpuFs &fs = sys->fs();
            int fd = fs.gopen(ctx, "/hot", G_RDWR);
            if (fd < 0) {
                errors.fetch_add(1);
                return;
            }
            std::vector<uint8_t> buf(kPage, value);
            for (unsigned pg = 0; pg < kHotPages; ++pg) {
                if (fs.gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                              buf.data()) != int64_t(kPage)) {
                    errors.fetch_add(1);
                }
            }
            fs.gclose(ctx, fd);     // no sync: dirty pages stay cached
        });
        std::atomic<bool> streamed{false};
        gpu::launch(sys->device(0), 2, 256, [&](gpu::BlockCtx &ctx) {
            GpuFs &fs = sys->fs();
            if (ctx.blockId() == 0) {
                int fd = fs.gopen(ctx, "/big", G_RDONLY);
                std::vector<uint8_t> buf(kPage);
                for (unsigned pg = 0; fd >= 0 && pg < kBigPages; ++pg) {
                    if (fs.gread(ctx, fd, uint64_t(pg) * kPage, kPage,
                                 buf.data()) != int64_t(kPage)) {
                        errors.fetch_add(1);
                    }
                }
                if (fd < 0)
                    errors.fetch_add(1);
                else
                    fs.gclose(ctx, fd);
                streamed.store(true);
            } else {
                while (!streamed.load()) {
                    int fd = fs.gopen(ctx, "/hot", G_RDWR);
                    if (fd < 0) {
                        errors.fetch_add(1);
                        return;
                    }
                    fs.gclose(ctx, fd);
                }
            }
        });
        gpu::launch(sys->device(0), 1, 256, [&](gpu::BlockCtx &ctx) {
            int fd = sys->fs().gopen(ctx, "/hot", G_RDWR);
            if (fd < 0 || !ok(sys->fs().gfsync(ctx, fd)))
                errors.fetch_add(1);
            sys->fs().gclose(ctx, fd);
        });
        ASSERT_EQ(0u, errors.load()) << "round " << r;
        int hfd = sys->hostFs().open("/hot", hostfs::O_RDONLY_F);
        std::vector<uint8_t> got(kPage);
        unsigned stale = 0;
        for (unsigned pg = 0; pg < kHotPages; ++pg) {
            sys->hostFs().pread(hfd, got.data(), kPage,
                                uint64_t(pg) * kPage);
            if (got != std::vector<uint8_t>(kPage, value))
                ++stale;
        }
        sys->hostFs().close(hfd);
        ASSERT_EQ(0u, stale) << "round " << r << " lost dirty pages";
    }
}

} // namespace
} // namespace core
} // namespace gpufs
