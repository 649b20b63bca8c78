#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "base/rng.hh"
#include "hostfs/content.hh"

namespace gpufs {
namespace perfbench {

namespace {

/** Generator of one block's choices in one round. */
SplitMix64
blockRng(uint64_t seed, uint32_t round, unsigned gpu, unsigned block)
{
    return SplitMix64(hashCombine(hashCombine(seed, round),
                                  uint64_t(gpu) * 64 + block));
}

/** A pattern-content file and the bytes it holds before any write. */
struct PatternFile {
    std::string path;
    uint64_t seed;
    std::vector<uint8_t> expect;
};

/** Files named @p fmt % 0..count-1; each path gets its own content
 *  seed, so no two files of a run hold the same bytes. */
std::vector<PatternFile>
makePatternFiles(const char *fmt, unsigned count, uint64_t size,
                 uint64_t seed)
{
    std::vector<PatternFile> files(count);
    for (unsigned i = 0; i < count; ++i) {
        char path[64];
        std::snprintf(path, sizeof(path), fmt, i);
        files[i].path = path;
        files[i].seed = seed;
        for (char ch : files[i].path)
            files[i].seed = hashCombine(files[i].seed, uint8_t(ch));
        files[i].expect.resize(size);
        hostfs::SyntheticContent::pattern(files[i].seed)
            ->readAt(0, size, files[i].expect.data());
    }
    return files;
}

/** Install @p files on the host, warm in the host page cache. */
void
installAll(core::GpufsSystem &sys, const std::vector<PatternFile> &files)
{
    for (const PatternFile &f : files) {
        Status st = sys.hostFs().addFile(
            f.path, hostfs::SyntheticContent::pattern(f.seed),
            f.expect.size());
        gpufs_assert(ok(st), "addFile(%s) failed", f.path.c_str());
        hostfs::FileInfo info;
        gpufs_assert(ok(sys.hostFs().stat(f.path, &info)), "stat failed");
        sys.hostFs().cache().prefault(info.ino, 0, info.size);
    }
}

/** Open every file of @p files; fds[i] < 0 where the open failed. */
std::vector<int>
openAll(Client &c, const std::vector<PatternFile> &files)
{
    std::vector<int> fds;
    fds.reserve(files.size());
    for (const PatternFile &f : files)
        fds.push_back(c.open(f.path, core::G_RDONLY));
    return fds;
}

void
closeAll(Client &c, const std::vector<int> &fds)
{
    for (int fd : fds)
        c.close(fd);
}

// ---------------------------------------------------------------------

/**
 * One block streams a file 4x the arena in 256 KB greads under the
 * default adaptive read-ahead while two blocks do Zipf(1.0) 32 KB
 * lookups over a catalog of 1 MB files: the read path under memory
 * pressure (demand and batched fetches, eviction, victim probe,
 * O_DIRECT storage reads, H2D DMA).
 */
class ReadMixed : public Workload
{
  public:
    static constexpr uint64_t kScanBytes = 64 * MiB;
    static constexpr uint64_t kScanIo = 256 * KiB;
    static constexpr uint64_t kLookupFileBytes = 1 * MiB;
    static constexpr unsigned kLookupFiles = 32;
    static constexpr uint64_t kLookupIo = 32 * KiB;

    explicit ReadMixed(uint64_t seed) : seed_(seed)
    {
        name = "read_mixed";
        why = "Read path under memory pressure: a scan 4x the arena "
              "against Zipf lookups, via eviction, victim tier, O_DIRECT "
              "storage and H2D DMA. Threads: 3 blocks + 1 daemon";
        foreground = "lookup gread";
        fs.pageSize = 64 * KiB;
        fs.cacheBytes = 16 * MiB;
        fs.storageBackend = storage::BackendKind::Direct;
        fs.victimCachePages = 512;
        window = 300 * kMillisecond;

        scan_ = makePatternFiles("/read_mixed/scan%u.bin", 1, kScanBytes,
                                 seed);
        lookups_ = makePatternFiles("/read_mixed/rec%02u.bin",
                                    kLookupFiles, kLookupFileBytes, seed);
        // Zipf(1.0) popularity over every 32 KB record.
        const unsigned n = kLookupFiles * (kLookupFileBytes / kLookupIo);
        cdf_.resize(n);
        double sum = 0;
        for (unsigned i = 0; i < n; ++i)
            cdf_[i] = (sum += 1.0 / (i + 1));
        for (double &c : cdf_)
            c /= sum;
        // Which record holds which popularity rank is part of the
        // catalogue, fixed like its file names: a scrambled layout, the
        // same in every run, that stays put for the whole run. The seed
        // draws the lookups. Where the hottest records land moves the
        // buffer-cache hit ratio (0.51 against 0.61 for two layouts) and
        // goodput by up to 20%, so a layout drawn from the seed would
        // make the placement, not the code, decide the spread between
        // seeds.
        rankToRecord_.resize(n);
        for (unsigned i = 0; i < n; ++i)
            rankToRecord_[i] = i;
        SplitMix64 layout(0x21bf);
        for (size_t i = n; i-- > 1;)
            std::swap(rankToRecord_[i],
                      rankToRecord_[layout.nextBelow(i + 1)]);
    }

    void
    install(core::GpufsSystem &sys) override
    {
        installAll(sys, scan_);
        installAll(sys, lookups_);
    }

    void startRun() override { scanPos_ = 0; }

    void
    runBlock(Client &c, unsigned gpu, uint32_t round) override
    {
        const Time end = roundEnd(c);
        if (c.ctx().blockId() == 0) {
            const std::vector<uint8_t> &expect = scan_[0].expect;
            const Time start = c.ctx().now();
            int fd = c.open(scan_[0].path, core::G_RDONLY);
            while (fd >= 0 && c.ctx().now() < end) {
                if (c.read(fd, scanPos_, kScanIo, &expect[scanPos_], false))
                    c.log().scanBytes += kScanIo;
                scanPos_ = (scanPos_ + kScanIo) % kScanBytes;
            }
            c.close(fd);
            c.log().scanTime += c.ctx().now() - start;
            return;
        }
        SplitMix64 rng = blockRng(seed_, round, gpu, c.ctx().blockId());
        std::vector<int> fds = openAll(c, lookups_);
        const uint64_t per_file = kLookupFileBytes / kLookupIo;
        while (c.ctx().now() < end) {
            double u = rng.nextDouble();
            size_t rank = std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin();
            unsigned rec = rankToRecord_[std::min(rank, cdf_.size() - 1)];
            const PatternFile &f = lookups_[rec / per_file];
            uint64_t off = (rec % per_file) * kLookupIo;
            if (fds[rec / per_file] < 0)
                break;
            c.read(fds[rec / per_file], off, kLookupIo, &f.expect[off],
                   true);
        }
        closeAll(c, fds);
    }

  private:
    uint64_t seed_;
    std::vector<PatternFile> scan_;
    std::vector<PatternFile> lookups_;
    std::vector<double> cdf_;
    std::vector<unsigned> rankToRecord_;
    /** Scan cursor; touched only by block 0's thread. */
    uint64_t scanPos_ = 0;
};

// ---------------------------------------------------------------------

/**
 * Three blocks each own one durable file and do 48 KB gwrites at
 * 16 KB-aligned random offsets (partial pages: read-modify-write) with
 * a gmsync barrier every 8 writes, through a 4 MB arena: batched
 * write-back, dirty eviction, journal group commit, host pwritev and
 * fsync, D2H DMA.
 */
class WriteDurable : public Workload
{
  public:
    static constexpr uint64_t kFileBytes = 8 * MiB;
    static constexpr uint64_t kWriteIo = 48 * KiB;
    static constexpr uint64_t kAlign = 16 * KiB;
    static constexpr unsigned kWritesPerSync = 8;

    explicit WriteDurable(uint64_t seed) : seed_(seed)
    {
        name = "write_durable";
        why = "Write path: partial-page gwrites with a gmsync barrier "
              "every 8 through a 4 MB arena, journal group commit, host "
              "pwritev/fsync and D2H DMA. Threads: 3 blocks + 1 daemon";
        foreground = "gwrite";
        fs.pageSize = 64 * KiB;
        fs.cacheBytes = 4 * MiB;
        fs.storageBackend = storage::BackendKind::Buffered;
        fs.journalWriteback = true;
        window = 200 * kMillisecond;
        files_ = makePatternFiles("/write_durable/log%u.bin",
                                  blocksPerGpu, kFileBytes, seed);
        shadow_.resize(files_.size());
        writes_.resize(files_.size());
    }

    void
    install(core::GpufsSystem &sys) override
    {
        installAll(sys, files_);
    }

    void
    startRun() override
    {
        for (size_t i = 0; i < files_.size(); ++i) {
            shadow_[i] = files_[i].expect;
            writes_[i] = 0;
        }
    }

    void
    runBlock(Client &c, unsigned gpu, uint32_t round) override
    {
        const Time end = roundEnd(c);
        const unsigned b = c.ctx().blockId();
        SplitMix64 rng = blockRng(seed_, round, gpu, b);
        std::vector<uint8_t> &shadow = shadow_[b];
        std::vector<uint8_t> data(kWriteIo);
        int fd = c.open(files_[b].path, core::G_RDWR | core::G_GDURABLE);
        const uint64_t slots = (kFileBytes - kWriteIo) / kAlign + 1;
        while (fd >= 0 && c.ctx().now() < end) {
            uint64_t off = rng.nextBelow(slots) * kAlign;
            for (uint64_t i = 0; i < kWriteIo; i += 8) {
                uint64_t w = rng.next();
                std::memcpy(&data[i], &w, 8);
            }
            if (c.write(fd, off, kWriteIo, data.data(), true))
                std::memcpy(&shadow[off], data.data(), kWriteIo);
            if (++writes_[b] % kWritesPerSync == 0)
                c.msync(fd);
        }
        c.close(fd);
    }

    void
    syncBlock(Client &c, unsigned) override
    {
        int fd = c.open(files_[c.ctx().blockId()].path,
                        core::G_RDWR | core::G_GDURABLE);
        if (fd >= 0)
            c.fsync(fd);
        c.close(fd);
    }

    uint64_t
    verifyHost(core::GpufsSystem &sys) override
    {
        uint64_t bad = 0;
        std::vector<uint8_t> got(kFileBytes);
        for (size_t i = 0; i < files_.size(); ++i) {
            Status st = Status::Ok;
            int fd = sys.hostFs().open(files_[i].path, hostfs::O_RDONLY_F,
                                       &st);
            hostfs::IoResult r{Status::Inval, 0, 0};
            if (fd >= 0) {
                r = sys.hostFs().pread(fd, got.data(), kFileBytes, 0);
                sys.hostFs().close(fd);
            }
            if (!ok(r.status) || r.bytes != kFileBytes || got != shadow_[i])
                ++bad;
        }
        return bad;
    }

  private:
    uint64_t seed_;
    std::vector<PatternFile> files_;
    /** Expected host contents; block b owns shadow_[b]. */
    std::vector<std::vector<uint8_t>> shadow_;
    std::vector<uint64_t> writes_;
};

// ---------------------------------------------------------------------

/**
 * A working set read fully during set-up, then uniform random 4 KB
 * greads at byte offsets (some straddle two pages): every call is a
 * buffer-cache hit, so only the API, the radix lookup and the frame
 * pin run, and the simulator's own per-call cost sets the pace.
 */
class HotHits : public Workload
{
  public:
    static constexpr uint64_t kFileBytes = 4 * MiB;
    static constexpr unsigned kFiles = 8;
    static constexpr uint64_t kReadIo = 4 * KiB;
    static constexpr uint64_t kWarmIo = 256 * KiB;

    explicit HotHits(uint64_t seed) : seed_(seed)
    {
        name = "hot_hits";
        why = "Buffer-cache hits only (API, radix lookup, frame pin): the "
              "no-change control for daemon and storage work, and the "
              "simulator's own per-call cost. Threads: 3 blocks + 1 daemon";
        foreground = "gread";
        window = 40 * kMillisecond;
        files_ = makePatternFiles("/hot_hits/f%u.bin", kFiles,
                                  kFileBytes, seed);
    }

    void
    install(core::GpufsSystem &sys) override
    {
        installAll(sys, files_);
    }

    bool
    warm(core::GpufsSystem &sys) override
    {
        std::atomic<bool> good{true};
        std::vector<std::vector<uint8_t>> bufs(
            blocksPerGpu, std::vector<uint8_t>(kWarmIo));
        gpu::launch(sys.device(0), blocksPerGpu, 256,
                    [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs(0);
            uint8_t *buf = bufs[ctx.blockId()].data();
            for (unsigned i = ctx.blockId(); i < kFiles; i += blocksPerGpu) {
                int fd = fs.gopen(ctx, files_[i].path, core::G_RDONLY);
                if (fd < 0) {
                    good = false;
                    continue;
                }
                for (uint64_t off = 0; off < kFileBytes; off += kWarmIo) {
                    int64_t n = fs.gread(ctx, fd, off, kWarmIo, buf);
                    if (n != int64_t(kWarmIo) ||
                        std::memcmp(buf, &files_[i].expect[off], kWarmIo))
                        good = false;
                }
                fs.gclose(ctx, fd);
            }
        });
        return good;
    }

    void
    runBlock(Client &c, unsigned gpu, uint32_t round) override
    {
        const Time end = roundEnd(c);
        SplitMix64 rng = blockRng(seed_, round, gpu, c.ctx().blockId());
        std::vector<int> fds = openAll(c, files_);
        while (c.ctx().now() < end) {
            unsigned f = rng.nextBelow(kFiles);
            uint64_t off = rng.nextBelow(kFileBytes - kReadIo + 1);
            if (fds[f] < 0)
                break;
            c.read(fds[f], off, kReadIo, &files_[f].expect[off], true);
        }
        closeAll(c, fds);
    }

  private:
    uint64_t seed_;
    std::vector<PatternFile> files_;
};

// ---------------------------------------------------------------------

/**
 * Two GPUs, one block each, share a catalog larger than one arena and
 * smaller than two under HashPageGroup sharding: misses on pages the
 * peer owns become PeerReadPages over the P2P channel, falling back to
 * the host when the owner no longer holds the page.
 */
class ShardPeer : public Workload
{
  public:
    static constexpr uint64_t kFileBytes = 2 * MiB;
    static constexpr unsigned kFiles = 16;
    static constexpr uint64_t kReadIo = 32 * KiB;

    explicit ShardPeer(uint64_t seed) : seed_(seed)
    {
        name = "shard_peer";
        why = "The only workload on PeerReadPages, P2P channels and the "
              "shard map: 2 GPUs share a catalog larger than one arena. "
              "Threads: 2 blocks (1 per GPU) + 1 daemon";
        foreground = "gread";
        gpus = 2;
        blocksPerGpu = 1;
        fs.pageSize = 64 * KiB;
        fs.cacheBytes = 24 * MiB;
        fs.shardPolicy = core::ShardPolicy::HashPageGroup;
        // Each GPU's block runs on its own host thread, so within a
        // round one GPU's virtual clock runs ahead of the other's as
        // far as host scheduling lets it, and books the shared daemon,
        // disk and P2P timelines ahead of the peer's misses. Every
        // round starts both GPUs at the same virtual time; a short
        // round bounds that drift.
        window = 20 * kMillisecond;
        files_ = makePatternFiles("/shard_peer/f%02u.bin", kFiles,
                                  kFileBytes, seed);
    }

    void
    install(core::GpufsSystem &sys) override
    {
        installAll(sys, files_);
    }

    void
    runBlock(Client &c, unsigned gpu, uint32_t round) override
    {
        const Time end = roundEnd(c);
        SplitMix64 rng = blockRng(seed_, round, gpu, c.ctx().blockId());
        std::vector<int> fds = openAll(c, files_);
        const uint64_t per_file = kFileBytes / kReadIo;
        while (c.ctx().now() < end) {
            unsigned f = rng.nextBelow(kFiles);
            uint64_t off = rng.nextBelow(per_file) * kReadIo;
            if (fds[f] < 0)
                break;
            c.read(fds[f], off, kReadIo, &files_[f].expect[off], true);
        }
        closeAll(c, fds);
    }

  private:
    uint64_t seed_;
    std::vector<PatternFile> files_;
};

} // namespace

// ---- Client ----------------------------------------------------------

Client::Client(gpu::BlockCtx &ctx, core::GpuFs &fs, BlockLog &log,
               bool measuring, bool traced, uint32_t round,
               std::chrono::steady_clock::time_point epoch)
    : ctx_(ctx), fs_(fs), log_(log), measuring_(measuring),
      traced_(traced && measuring), round_(round), epoch_(epoch)
{
}

int64_t
Client::hostNow() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Client::Stamp
Client::begin() const
{
    return {ctx_.now(), traced_ ? hostNow() : 0};
}

void
Client::end(Op op, bool foreground, const Stamp &s, bool ok)
{
    ++log_.calls;
    if (!ok)
        ++log_.failed;
    if (!measuring_)
        return;
    Time v = ctx_.now() - s.virt;
    uint32_t v32 = static_cast<uint32_t>(std::min<Time>(v, UINT32_MAX));
    log_.virtNs[unsigned(op)].push_back(v32);
    if (foreground)
        log_.fgNs.push_back(v32);
    if (traced_) {
        int64_t h = hostNow();
        if (foreground) {
            log_.fgHostNs.push_back(static_cast<uint32_t>(
                std::min<int64_t>(h - s.host, UINT32_MAX)));
        }
        log_.spans.add({s.virt, ctx_.now(), s.host, h, round_, op, ok});
    }
}

int
Client::open(const std::string &path, uint32_t flags)
{
    Stamp s = begin();
    int fd = fs_.gopen(ctx_, path, flags);
    end(Op::Gopen, false, s, fd >= 0);
    return fd < 0 ? -1 : fd;
}

bool
Client::read(int fd, uint64_t offset, uint64_t len, const uint8_t *expect,
             bool foreground)
{
    Stamp s = begin();
    int64_t n = fs_.gread(ctx_, fd, offset, len, log_.buf.data());
    bool full = n == int64_t(len);
    end(Op::Gread, foreground, s, full);
    if (n > 0 && std::memcmp(log_.buf.data(), expect, size_t(n)) != 0) {
        ++log_.mismatches;
        return false;
    }
    if (full)
        log_.bytes += len;
    return full;
}

bool
Client::write(int fd, uint64_t offset, uint64_t len, const uint8_t *src,
              bool foreground)
{
    Stamp s = begin();
    int64_t n = fs_.gwrite(ctx_, fd, offset, len, src);
    bool full = n == int64_t(len);
    end(Op::Gwrite, foreground, s, full);
    if (full)
        log_.bytes += len;
    return full;
}

bool
Client::msync(int fd)
{
    Stamp s = begin();
    bool good = ok(fs_.gmsync(ctx_, fd));
    end(Op::Gmsync, false, s, good);
    return good;
}

bool
Client::fsync(int fd)
{
    Stamp s = begin();
    bool good = ok(fs_.gfsync(ctx_, fd));
    end(Op::Gfsync, false, s, good);
    return good;
}

void
Client::close(int fd)
{
    if (fd < 0)
        return;
    Stamp s = begin();
    bool good = ok(fs_.gclose(ctx_, fd));
    end(Op::Gclose, false, s, good);
}

// ---- registry --------------------------------------------------------

std::unique_ptr<core::GpufsSystem>
Workload::makeSystem() const
{
    sim::HwParams h;
    // Resident block slots per GPU = blocksPerGpu: one host thread per
    // block, plus the daemon thread; no async flusher.
    h.mpCount = 1;
    h.blocksPerMp = blocksPerGpu;
    core::GpuFsParams p = fs;
    p.asyncWriteback = false;
    return std::make_unique<core::GpufsSystem>(gpus, p, h);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "read_mixed", "write_durable", "hot_hits", "shard_peer"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "read_mixed")
        return std::make_unique<ReadMixed>(seed);
    if (name == "write_durable")
        return std::make_unique<WriteDurable>(seed);
    if (name == "hot_hits")
        return std::make_unique<HotHits>(seed);
    if (name == "shard_peer")
        return std::make_unique<ShardPeer>(seed);
    return nullptr;
}

} // namespace perfbench
} // namespace gpufs
