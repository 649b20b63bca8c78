/** @file Unit tests for the simulated host file system. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hostfs/content.hh"
#include "hostfs/hostfs.hh"
#include "hostfs/journal.hh"
#include "hostfs/page_cache.hh"
#include "sim/context.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace hostfs {
namespace {

class HostFsTest : public ::testing::Test
{
  protected:
    sim::SimContext sim;
    HostFs fs{sim};
};

TEST_F(HostFsTest, OpenMissingFileFails)
{
    Status st;
    EXPECT_LT(fs.open("/nope", O_RDONLY_F, &st), 0);
    EXPECT_EQ(Status::NoEnt, st);
}

TEST_F(HostFsTest, CreateWriteReadBack)
{
    int fd = fs.open("/f", O_CREAT_F | O_RDWR_F);
    ASSERT_GE(fd, 0);
    const char data[] = "hello gpufs";
    auto r = fs.pwrite(fd, reinterpret_cast<const uint8_t *>(data),
                       sizeof(data), 0);
    EXPECT_EQ(Status::Ok, r.status);
    EXPECT_EQ(sizeof(data), r.bytes);

    uint8_t buf[64] = {};
    r = fs.pread(fd, buf, sizeof(buf), 0);
    EXPECT_EQ(sizeof(data), r.bytes);   // clamped at EOF
    EXPECT_STREQ(data, reinterpret_cast<char *>(buf));
    EXPECT_EQ(Status::Ok, fs.close(fd));
}

TEST_F(HostFsTest, PreadAtOffset)
{
    test::addRamp(fs, "/r", 1000);
    int fd = fs.open("/r", O_RDONLY_F);
    uint8_t buf[10];
    auto r = fs.pread(fd, buf, 10, 500);
    EXPECT_EQ(10u, r.bytes);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(test::rampByte(500 + i), buf[i]);
    fs.close(fd);
}

TEST_F(HostFsTest, PreadPastEofReturnsZeroBytes)
{
    test::addRamp(fs, "/r", 100);
    int fd = fs.open("/r", O_RDONLY_F);
    uint8_t buf[10];
    EXPECT_EQ(0u, fs.pread(fd, buf, 10, 200).bytes);
    fs.close(fd);
}

TEST_F(HostFsTest, WriteToReadOnlyFdFails)
{
    test::addRamp(fs, "/r", 10);
    int fd = fs.open("/r", O_RDONLY_F);
    uint8_t b = 1;
    EXPECT_EQ(Status::ReadOnlyFile, fs.pwrite(fd, &b, 1, 0).status);
    fs.close(fd);
}

TEST_F(HostFsTest, VersionBumpsOnWriteTruncateUnlink)
{
    test::addRamp(fs, "/v", 10);
    FileInfo a, b;
    fs.stat("/v", &a);
    int fd = fs.open("/v", O_RDWR_F);
    uint8_t x = 9;
    fs.pwrite(fd, &x, 1, 0);
    fs.stat("/v", &b);
    EXPECT_GT(b.version, a.version);
    fs.ftruncate(fd, 5);
    FileInfo c;
    fs.stat("/v", &c);
    EXPECT_GT(c.version, b.version);
    EXPECT_EQ(5u, c.size);
    fs.close(fd);
}

TEST_F(HostFsTest, OpenTruncResetsSizeAndBumpsVersion)
{
    test::addRamp(fs, "/t", 100);
    FileInfo before;
    fs.stat("/t", &before);
    int fd = fs.open("/t", O_RDWR_F | O_TRUNC_F);
    FileInfo after;
    fs.fstat(fd, &after);
    EXPECT_EQ(0u, after.size);
    EXPECT_GT(after.version, before.version);
    fs.close(fd);
}

TEST_F(HostFsTest, UnlinkedFileStaysReadableViaOpenFd)
{
    test::addRamp(fs, "/u", 10);
    int fd = fs.open("/u", O_RDONLY_F);
    EXPECT_EQ(Status::Ok, fs.unlink("/u"));
    EXPECT_EQ(Status::NoEnt, fs.stat("/u", nullptr));
    uint8_t buf[10];
    EXPECT_EQ(10u, fs.pread(fd, buf, 10, 0).bytes);   // POSIX semantics
    fs.close(fd);
}

TEST_F(HostFsTest, WriteExtendsSize)
{
    int fd = fs.open("/grow", O_CREAT_F | O_WRONLY_F);
    uint8_t b = 0xAB;
    fs.pwrite(fd, &b, 1, 999);
    FileInfo info;
    fs.fstat(fd, &info);
    EXPECT_EQ(1000u, info.size);
    fs.close(fd);
}

TEST_F(HostFsTest, OpenCountTracksLeaks)
{
    test::addRamp(fs, "/x", 4);
    EXPECT_EQ(0u, fs.openCount());
    int fd = fs.open("/x", O_RDONLY_F);
    EXPECT_EQ(1u, fs.openCount());
    fs.close(fd);
    EXPECT_EQ(0u, fs.openCount());
}

TEST_F(HostFsTest, BadFdRejectedEverywhere)
{
    uint8_t b;
    EXPECT_EQ(Status::BadFd, fs.pread(77, &b, 1, 0).status);
    EXPECT_EQ(Status::BadFd, fs.pwrite(77, &b, 1, 0).status);
    EXPECT_EQ(Status::BadFd, fs.close(77));
    EXPECT_EQ(Status::BadFd, fs.ftruncate(77, 0));
    EXPECT_EQ(Status::BadFd, fs.fsync(77).status);
}

// ---- content providers ----

TEST(Content, InMemoryZeroFillsPastEnd)
{
    InMemoryContent c(std::vector<uint8_t>{1, 2, 3});
    uint8_t buf[6] = {9, 9, 9, 9, 9, 9};
    c.readAt(0, 6, buf);
    EXPECT_EQ(1, buf[0]);
    EXPECT_EQ(3, buf[2]);
    EXPECT_EQ(0, buf[3]);
    EXPECT_EQ(0, buf[5]);
}

TEST(Content, PatternIsOffsetStable)
{
    auto p = SyntheticContent::pattern(77);
    // Reading [100, 200) must agree with reading [0, 4096) sliced.
    uint8_t big[4096], small[100];
    p->readAt(0, sizeof(big), big);
    p->readAt(100, sizeof(small), small);
    EXPECT_EQ(0, std::memcmp(big + 100, small, sizeof(small)));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(SyntheticContent::patternByte(77, i), big[i]);
}

TEST(Content, PatternDiffersBySeed)
{
    auto a = SyntheticContent::pattern(1);
    auto b = SyntheticContent::pattern(2);
    uint8_t ba[256], bb[256];
    a->readAt(0, 256, ba);
    b->readAt(0, 256, bb);
    EXPECT_NE(0, std::memcmp(ba, bb, 256));
}

TEST(Content, OverlayWritePatchesSyntheticContent)
{
    auto p = SyntheticContent::pattern(5);
    uint8_t patch[16];
    std::memset(patch, 0xEE, sizeof(patch));
    EXPECT_TRUE(p->writeAt(1000, sizeof(patch), patch));
    uint8_t buf[32];
    p->readAt(992, sizeof(buf), buf);
    // 8 pattern bytes, 16 patched, 8 pattern bytes.
    EXPECT_EQ(SyntheticContent::patternByte(5, 992), buf[0]);
    EXPECT_EQ(0xEE, buf[8]);
    EXPECT_EQ(0xEE, buf[23]);
    EXPECT_EQ(SyntheticContent::patternByte(5, 1016), buf[24]);
}

TEST(Content, OverlayStraddlesChunkBoundary)
{
    auto p = SyntheticContent::pattern(6);
    std::vector<uint8_t> patch(128 * 1024, 0x5A);
    EXPECT_TRUE(p->writeAt(60 * 1024, patch.size(), patch.data()));
    uint8_t b;
    p->readAt(60 * 1024, 1, &b);
    EXPECT_EQ(0x5A, b);
    p->readAt(60 * 1024 + patch.size() - 1, 1, &b);
    EXPECT_EQ(0x5A, b);
    p->readAt(60 * 1024 + patch.size(), 1, &b);
    EXPECT_EQ(SyntheticContent::patternByte(6, 60 * 1024 + patch.size()), b);
}

TEST(Content, InMemoryChunksStraddleAndTruncateToZeros)
{
    // Writes and reads that cross the storage-chunk boundary, a grow
    // that leaves a never-written hole, and a truncate into the middle
    // of a chunk followed by a regrow: every byte reads as a plain
    // resizable byte array would hold it.
    const uint64_t c = InMemoryContent::kChunk;
    InMemoryContent m;
    std::vector<uint8_t> shadow;
    auto put = [&](uint64_t off, uint64_t len, uint8_t v) {
        std::vector<uint8_t> src(len, v);
        ASSERT_TRUE(m.writeAt(off, len, src.data()));
        if (shadow.size() < off + len)
            shadow.resize(off + len, 0);
        std::memset(shadow.data() + off, v, len);
    };
    auto check = [&](uint64_t off, uint64_t len) {
        std::vector<uint8_t> got(len, 0xFF), want(len, 0);
        m.readAt(off, len, got.data());
        for (uint64_t i = 0; i < len; ++i)
            want[i] = off + i < shadow.size() ? shadow[off + i] : 0;
        EXPECT_EQ(want, got) << "off=" << off << " len=" << len;
    };
    put(c - 100, 300, 0xA1);          // straddles chunks 0 and 1
    put(3 * c + 7, 50, 0xB2);         // chunk 2 stays a hole
    check(0, 4 * c);
    check(c - 150, 400);
    m.truncate(c - 40);               // mid-chunk, inside the first write
    shadow.resize(c - 40);
    put(3 * c, 10, 0xC3);             // regrow: [c-40, 3c) must read 0
    check(c - 200, 3 * c);
    check(0, 4 * c);
}

TEST(Content, InMemoryHoldsOnlyWhatIsWritten)
{
    // A small file costs its own size, not a storage chunk; an
    // append-only file (the journal's pattern) holds full chunks plus
    // at most one partly grown one.
    InMemoryContent small(std::vector<uint8_t>(4096, 7));
    EXPECT_EQ(4096u, small.footprintBytes());

    InMemoryContent log;
    std::vector<uint8_t> rec(48 * 1024 + 64, 1);
    uint64_t size = 0;
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(log.writeAt(size, rec.size(), rec.data()));
        size += rec.size();
    }
    EXPECT_GE(log.footprintBytes(), size);
    EXPECT_LE(log.footprintBytes(), size + InMemoryContent::kChunk);
    std::vector<uint8_t> got(rec.size());
    log.readAt(size - rec.size(), got.size(), got.data());
    EXPECT_EQ(rec, got);
}

TEST(Content, OverlayReadMatchesGenerateThenPatch)
{
    // Reference model: generate the whole file, then apply every write
    // in order. Writes and reads are unaligned and often straddle the
    // 64 KiB overlay-chunk boundaries, and reads cover unwritten,
    // written and mixed ranges.
    const uint64_t file = 1 * MiB;
    const uint64_t seed = 11;
    auto p = SyntheticContent::pattern(seed);
    std::vector<uint8_t> shadow(file);
    for (uint64_t i = 0; i < file; ++i)
        shadow[i] = SyntheticContent::patternByte(seed, i);
    SplitMix64 rng(42);
    auto check_read = [&]() {
        uint64_t off = rng.nextBelow(file);
        uint64_t len = 1 + rng.nextBelow(std::min<uint64_t>(
                               file - off, 200 * KiB));
        std::vector<uint8_t> got(len);
        p->readAt(off, len, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), shadow.data() + off, len))
            << "off=" << off << " len=" << len;
    };
    for (int i = 0; i < 20; ++i)
        check_read();                 // never written: lock-free path
    for (int round = 0; round < 200; ++round) {
        uint64_t off = rng.nextBelow(file);
        uint64_t len = 1 + rng.nextBelow(std::min<uint64_t>(
                               file - off, 150 * KiB));
        std::vector<uint8_t> src(len);
        for (auto &b : src)
            b = static_cast<uint8_t>(rng.next());
        ASSERT_TRUE(p->writeAt(off, len, src.data()));
        std::memcpy(shadow.data() + off, src.data(), len);
        check_read();
        check_read();
    }
    std::vector<uint8_t> all(file);
    p->readAt(0, file, all.data());
    EXPECT_EQ(shadow, all);
}

// ---- journal checksum ----

/** The documented definition, byte by byte: FNV-1a 64 over 8-byte
 *  little-endian words, then the tail bytes one at a time. */
uint64_t
referenceChecksum(const std::vector<uint8_t> &d)
{
    uint64_t h = 0xcbf29ce484222325ull;
    size_t i = 0;
    for (; i + 8 <= d.size(); i += 8) {
        uint64_t w = 0;
        for (int b = 7; b >= 0; --b)
            w = (w << 8) | d[i + b];
        h = (h ^ w) * 0x100000001b3ull;
    }
    for (; i < d.size(); ++i)
        h = (h ^ d[i]) * 0x100000001b3ull;
    return h;
}

TEST(JournalChecksum, MatchesWordWiseFnv1aDefinition)
{
    SplitMix64 rng(3);
    for (size_t len : {0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 4099}) {
        std::vector<uint8_t> d(len);
        for (auto &b : d)
            b = static_cast<uint8_t>(rng.next());
        EXPECT_EQ(referenceChecksum(d), journalChecksum(d.data(), len))
            << "len=" << len;
    }
    EXPECT_EQ(0xcbf29ce484222325ull, journalChecksum(nullptr, 0));
}

TEST(JournalChecksum, AnySingleByteFlipChangesIt)
{
    // Head byte, a byte in the middle of a word, and every byte of a
    // tail shorter than one word, over lengths around word multiples;
    // then every byte and every bit value of one payload exhaustively.
    SplitMix64 rng(9);
    for (size_t len : {1, 5, 8, 13, 16, 21, 64, 69}) {
        std::vector<uint8_t> d(len);
        for (auto &b : d)
            b = static_cast<uint8_t>(rng.next());
        const uint64_t base = journalChecksum(d.data(), len);
        std::vector<size_t> spots = {0};
        if (len >= 16)
            spots.push_back(8 + 3);                  // mid-word
        for (size_t i = len / 8 * 8; i < len; ++i)
            spots.push_back(i);                      // the tail
        for (size_t at : spots) {
            for (uint8_t x : {0x01, 0x80, 0xFF}) {
                d[at] ^= x;
                EXPECT_NE(base, journalChecksum(d.data(), len))
                    << "len=" << len << " at=" << at;
                d[at] ^= x;
            }
        }
    }
    std::vector<uint8_t> d(37);
    for (auto &b : d)
        b = static_cast<uint8_t>(rng.next());
    const uint64_t base = journalChecksum(d.data(), d.size());
    for (size_t at = 0; at < d.size(); ++at) {
        for (unsigned x = 1; x < 256; ++x) {
            d[at] ^= static_cast<uint8_t>(x);
            ASSERT_NE(base, journalChecksum(d.data(), d.size()))
                << "at=" << at << " x=" << x;
            d[at] ^= static_cast<uint8_t>(x);
        }
    }
}

// ---- page cache timing ----

class PageCacheTest : public ::testing::Test
{
  protected:
    sim::SimContext sim;
    HostFs fs{sim};
};

TEST_F(PageCacheTest, ColdReadPaysDiskWarmReadDoesNot)
{
    test::addRamp(fs, "/c", 1 * MiB);
    int fd = fs.open("/c", O_RDONLY_F);
    std::vector<uint8_t> buf(1 * MiB);
    Time cold = fs.pread(fd, buf.data(), buf.size(), 0, 0).done;
    Time warm_start = cold;
    Time warm = fs.pread(fd, buf.data(), buf.size(), 0, warm_start).done
        - warm_start;
    EXPECT_GT(cold, warm * 5);   // disk ~25x slower than cache here
    fs.close(fd);
}

TEST_F(PageCacheTest, DropCachesMakesReadsColdAgain)
{
    test::addRamp(fs, "/c", 256 * KiB);
    int fd = fs.open("/c", O_RDONLY_F);
    std::vector<uint8_t> buf(256 * KiB);
    fs.pread(fd, buf.data(), buf.size(), 0, 0);
    uint64_t miss1 = fs.cache().stats().counter("miss_bytes").get();
    fs.dropCaches();
    fs.pread(fd, buf.data(), buf.size(), 0, 0);
    uint64_t miss2 = fs.cache().stats().counter("miss_bytes").get();
    EXPECT_GT(miss2, miss1);
    fs.close(fd);
}

TEST_F(PageCacheTest, PinnedMemoryShrinksCapacity)
{
    uint64_t cap = fs.cache().effectiveCapacity();
    ASSERT_TRUE(fs.cache().reservePinned(1 * GiB));
    EXPECT_EQ(cap - 1 * GiB, fs.cache().effectiveCapacity());
    fs.cache().releasePinned(1 * GiB);
    EXPECT_EQ(cap, fs.cache().effectiveCapacity());
}

TEST_F(PageCacheTest, PinnedBeyondTotalRejected)
{
    EXPECT_FALSE(fs.cache().reservePinned(1ull << 60));
}

TEST_F(PageCacheTest, EvictionUnderCapacityPressure)
{
    sim.params.hostCacheBytes = 1 * MiB;   // tiny cache
    test::addRamp(fs, "/big", 4 * MiB);
    int fd = fs.open("/big", O_RDONLY_F);
    std::vector<uint8_t> buf(4 * MiB);
    fs.pread(fd, buf.data(), buf.size(), 0, 0);
    EXPECT_GT(fs.cache().stats().counter("evictions").get(), 0u);
    EXPECT_LE(fs.cache().residentBytes(), 1 * MiB + sim.params.hostCacheGranule);
    fs.close(fd);
}

TEST_F(PageCacheTest, FsyncChargesDiskForDirtyData)
{
    int fd = fs.open("/w", O_CREAT_F | O_WRONLY_F);
    std::vector<uint8_t> buf(1 * MiB, 0x11);
    Time t = fs.pwrite(fd, buf.data(), buf.size(), 0, 0).done;
    Time synced = fs.fsync(fd, t).done;
    EXPECT_GT(synced - t, transferTime(1 * MiB, sim.params.diskWriteMBps) / 2);
    // Second fsync: nothing dirty, ~free.
    EXPECT_EQ(synced, fs.fsync(fd, synced).done);
    fs.close(fd);
}

TEST_F(PageCacheTest, ChargeHostIoToggleZeroesCosts)
{
    sim.params.chargeHostIo = false;
    test::addRamp(fs, "/z", 1 * MiB);
    int fd = fs.open("/z", O_RDONLY_F);
    std::vector<uint8_t> buf(1 * MiB);
    EXPECT_EQ(Time(0), fs.pread(fd, buf.data(), buf.size(), 0, 0).done);
    fs.close(fd);
}

TEST_F(PageCacheTest, PrefaultMakesFirstReadWarm)
{
    test::addRamp(fs, "/p", 512 * KiB);
    FileInfo info;
    fs.stat("/p", &info);
    fs.cache().prefault(info.ino, 0, 512 * KiB);
    int fd = fs.open("/p", O_RDONLY_F);
    std::vector<uint8_t> buf(512 * KiB);
    fs.pread(fd, buf.data(), buf.size(), 0, 0);
    EXPECT_EQ(0u, fs.cache().stats().counter("miss_bytes").get());
    fs.close(fd);
}

// ---- per-inode dirty index: sync charges exactly one inode's granules ----

class PageCacheSyncTest : public ::testing::Test
{
  protected:
    sim::SimContext sim;
    HostPageCache cache{sim};
    const uint64_t g = sim.params.hostCacheGranule;
    const Time t0 = 1 * kSecond;   // past every earlier disk grant

    /** What chargeSync must charge for @p granules dirty granules. */
    Time
    syncCost(uint64_t granules) const
    {
        return sim.params.diskAccessLat
            + transferTime(granules * g, sim.params.diskWriteMBps);
    }
};

TEST_F(PageCacheSyncTest, SyncChargesExactlyTheInodesDirtyGranules)
{
    ASSERT_EQ(64 * KiB, g);
    // Unaligned 3-granule-long write: touches granules 0..3 (4).
    cache.chargeWrite(1, 10, 3 * g, 0, nullptr);
    cache.chargeWrite(2, 0, 7 * g, 0, nullptr);          // 7 others
    cache.chargeRead(1, 20 * g, 2 * g, 0, nullptr);      // clean, 1's
    EXPECT_EQ(t0 + syncCost(4), cache.chargeSync(1, t0));
}

TEST_F(PageCacheSyncTest, SecondSyncChargesNothing)
{
    cache.chargeWrite(1, 0, 5 * g, 0, nullptr);
    Time first = cache.chargeSync(1, t0);
    EXPECT_EQ(t0 + syncCost(5), first);
    EXPECT_EQ(first, cache.chargeSync(1, first));
    // Re-dirtying one granule makes exactly it chargeable again.
    cache.chargeWrite(1, 2 * g + 5, 10, first, nullptr);
    EXPECT_EQ(first + syncCost(1), cache.chargeSync(1, first));
}

TEST_F(PageCacheSyncTest, OtherInodesDirtyGranulesSurviveASync)
{
    cache.chargeWrite(1, 0, 2 * g, 0, nullptr);
    cache.chargeWrite(2, 4 * g, 3 * g, 0, nullptr);
    cache.chargeWrite(3, 0, 1, 0, nullptr);
    Time t1 = cache.chargeSync(1, t0);
    EXPECT_EQ(t0 + syncCost(2), t1);
    EXPECT_EQ(t1 + syncCost(3), cache.chargeSync(2, t1));
    Time t3 = t1 + syncCost(3);
    EXPECT_EQ(t3 + syncCost(1), cache.chargeSync(3, t3));
}

TEST_F(PageCacheSyncTest, RedirtyAfterDropIsCountedOnce)
{
    cache.chargeWrite(1, 0, 3 * g, 0, nullptr);
    cache.chargeWrite(2, 0, 2 * g, 0, nullptr);
    cache.dropFile(1);
    EXPECT_EQ(2 * g, cache.residentBytes());
    cache.chargeWrite(1, 0, 3 * g, 0, nullptr);
    EXPECT_EQ(t0 + syncCost(3), cache.chargeSync(1, t0));

    Time t1 = t0 + syncCost(3);
    cache.chargeWrite(1, 0, 4 * g, 0, nullptr);
    cache.dropAll();
    EXPECT_EQ(0u, cache.residentBytes());
    EXPECT_EQ(t1, cache.chargeSync(2, t1));       // dropped, not synced
    cache.chargeWrite(1, 0, 4 * g, 0, nullptr);
    cache.chargeWrite(1, g, 2 * g, 0, nullptr);   // already dirty
    EXPECT_EQ(t1 + syncCost(4), cache.chargeSync(1, t1));
}

TEST_F(PageCacheSyncTest, EvictedDirtyGranuleIsNotChargedAgainAtSync)
{
    // A dirty granule evicted under capacity pressure pays its write-
    // back at eviction; the later sync charges only what stayed dirty.
    sim.params.hostCacheBytes = 4 * g;
    cache.chargeWrite(1, 0, 2 * g, 0, nullptr);        // dirty 0, 1
    cache.chargeRead(2, 0, 3 * g, 0, nullptr);         // evicts 1's 0
    cache.chargeWrite(1, 5 * g, g, 0, nullptr);        // dirty 5, evicts 1

    EXPECT_EQ(4 * g, cache.residentBytes());
    EXPECT_EQ(t0 + syncCost(1), cache.chargeSync(1, t0));
}

} // namespace
} // namespace hostfs
} // namespace gpufs
