/**
 * @file
 * Characterization of the daemon's read and write service: every
 * request shape the GPU side sends, under every storage backend, with
 * the host-RAM victim tier on and off. Each case runs on a fresh
 * daemon and is reduced to one line — the response (status, bytes,
 * virtual done, version, peer pages), the owner-side peer events and
 * every nonzero daemon/storage counter — compared against the golden
 * table at the bottom of this file. The table pins virtual time and
 * accounting exactly, so any change to a charge or a counter shows up
 * here by name. Run with DAEMON_PIPELINE_PRINT=1 to print the current
 * lines instead of comparing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "consistency/consistency.hh"
#include "gpu/device.hh"
#include "gpufs/victim.hh"
#include "hostfs/hostfs.hh"
#include "rpc/daemon.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace rpc {
namespace {

constexpr uint64_t kPage = 16 * KiB;
/** /r: pages 0..7 full, page 8 half, pages 9+ beyond EOF. */
constexpr uint64_t kReadSize = 8 * kPage + kPage / 2;
constexpr uint64_t kWriteSize = 8 * kPage;
constexpr Time kIssue = 1000 * kMicrosecond;

/** Owner GPU 1's cache, as the daemon's peer source sees it. */
class FakeOwner : public PeerPageSource
{
  public:
    std::set<uint64_t> serve;       ///< pages peerCopyPage serves
    std::set<uint64_t> resident;    ///< pages peerMirrorExtent accepts
    std::vector<Time> adoptReady;
    unsigned mirrored = 0;
    uint64_t published = 0;

    bool
    peerCopyPage(uint64_t, uint64_t page_idx, uint64_t, uint8_t *dst,
                 uint32_t *valid_out, Time *ready_out) override
    {
        if (!serve.count(page_idx))
            return false;
        for (uint64_t i = 0; i < kPage; ++i)
            dst[i] = test::rampByte(page_idx * kPage + i);
        *valid_out = kPage;
        // The owner's frame finished its own fetch late: the P2P copy
        // cannot start before it.
        *ready_out = std::max(*ready_out, kIssue + 30 * kMicrosecond);
        return true;
    }

    bool
    peerMirrorExtent(uint64_t, uint64_t page_idx, uint64_t, uint32_t,
                     const uint8_t *, uint32_t) override
    {
        if (!resident.count(page_idx))
            return false;
        ++mirrored;
        return true;
    }

    void
    peerPublishVersion(uint64_t, uint64_t, uint64_t new_version) override
    {
        published = new_version;
    }

    bool
    peerAdoptPage(uint64_t, uint64_t, uint64_t, const uint8_t *, uint32_t,
                  Time ready, uint8_t) override
    {
        adoptReady.push_back(ready);
        return true;
    }
};

/** One fresh machine: two GPUs, a journaled daemon on @p kind, and
 *  optionally a victim tier holding pages 1, 3, 4 and the half page 8
 *  of /r plus page 1 of /w. */
struct Rig {
    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev0{sim, 0};
    gpu::GpuDevice dev1{sim, 1};
    CpuDaemon daemon{fs, mgr};
    std::unique_ptr<core::VictimCache> victim;
    FakeOwner owner;
    RpcQueue *q0 = nullptr;
    int rfd = -1;
    hostfs::FileInfo rinfo{};

    Rig(storage::BackendKind kind, bool with_victim)
    {
        daemon.setStorageBackend(kind);
        q0 = &daemon.attachGpu(dev0);
        daemon.attachGpu(dev1);
        daemon.enableJournal();
        daemon.setPeerSource(1, &owner);
        test::addRamp(fs, "/r", kReadSize);
        test::addRamp(fs, "/w", kWriteSize);
        rfd = fs.open("/r", hostfs::O_RDONLY_F);
        fs.fstat(rfd, &rinfo);
        if (!with_victim)
            return;
        victim = std::make_unique<core::VictimCache>(64, kPage,
                                                     daemon.stats());
        daemon.setVictimCache(victim.get());
        for (uint64_t idx : {1, 3, 4, 8})
            demote(rinfo, idx, idx == 4 ? 40 * kMicrosecond : 0);
        int wfd = fs.open("/w", hostfs::O_RDONLY_F);
        hostfs::FileInfo winfo;
        fs.fstat(wfd, &winfo);
        demote(winfo, 1, 0);
        fs.close(wfd);
    }

    ~Rig()
    {
        daemon.stop();
        fs.close(rfd);
    }

    void
    demote(const hostfs::FileInfo &info, uint64_t idx, Time ready)
    {
        uint64_t off = idx * kPage;
        uint32_t valid = uint32_t(std::min(kPage, info.size - off));
        std::vector<uint8_t> bytes(kPage);
        for (uint64_t i = 0; i < valid; ++i)
            bytes[i] = test::rampByte(off + i);
        victim->insert(info.ino, idx, info.version, bytes.data(), valid,
                       ready);
    }

    /** Open @p path through the daemon (so its durability claim is
     *  registered) for writing. */
    RpcResponse
    openForWrite(const char *path, bool durable)
    {
        RpcRequest req;
        req.op = RpcOp::Open;
        std::strncpy(req.path, path, kMaxPath - 1);
        req.flags = hostfs::O_RDWR_F;
        if (durable)
            req.flags |= hostfs::O_GDURABLE_F;
        req.wantsWrite = true;
        return q0->call(req);
    }
};

/** A ReadPages-shaped request over pages [first, first + n) of /r. */
RpcRequest
readPages(const Rig &rig, RpcOp op, uint64_t first, unsigned n,
          std::vector<std::vector<uint8_t>> &bufs)
{
    RpcRequest req;
    req.op = op;
    req.hostFd = rig.rfd;
    req.offset = first * kPage;
    req.len = n * kPage;
    req.pageLen = kPage;
    req.pageCount = n;
    req.issueTime = kIssue;
    for (unsigned i = 0; i < n; ++i) {
        bufs.emplace_back(kPage, 0xEE);
        req.batch[i] = bufs.back().data();
    }
    return req;
}

/** Every page buffer holds /r's bytes up to EOF and is untouched
 *  after it. */
void
expectPages(uint64_t first, const std::vector<std::vector<uint8_t>> &bufs,
            size_t from = 0)
{
    for (size_t p = from; p < bufs.size(); ++p) {
        uint64_t base = (first + p - from) * kPage;
        for (uint64_t i = 0; i < kPage; i += 509) {
            uint8_t want = base + i < kReadSize ? test::rampByte(base + i)
                                                : 0xEE;
            ASSERT_EQ(want, bufs[p][i]) << "page " << first + p - from
                                        << " byte " << i;
        }
    }
}

std::string
describe(const RpcResponse &r)
{
    std::ostringstream os;
    os << statusName(r.status) << " b=" << r.bytes << " d=" << r.done
       << " v=" << r.version << " pp=" << r.peerPages;
    return os.str();
}

/** Host bytes of /w at [off, off+len) equal @p want. */
void
expectHost(Rig &rig, uint64_t off, const uint8_t *want, uint64_t len)
{
    if (len == 0)
        return;
    int fd = rig.fs.open("/w", hostfs::O_RDONLY_F);
    std::vector<uint8_t> got(len);
    rig.fs.pread(fd, got.data(), len, off);
    rig.fs.close(fd);
    EXPECT_EQ(0, std::memcmp(want, got.data(), len)) << "host @" << off;
}

using Shape = std::string (*)(Rig &);

std::string
readPageAt(Rig &rig, uint64_t idx)
{
    rig.daemon.start();
    std::vector<uint8_t> page(kPage, 0xEE);
    RpcRequest req;
    req.op = RpcOp::ReadPage;
    req.hostFd = rig.rfd;
    req.offset = idx * kPage;
    req.len = kPage;
    req.data = page.data();
    req.issueTime = kIssue;
    std::string out = describe(rig.q0->call(req));
    std::vector<std::vector<uint8_t>> bufs{page};
    expectPages(idx, bufs);
    return out;
}

std::string
readPagesAt(Rig &rig, uint64_t first, unsigned n, bool speculative = false)
{
    rig.daemon.start();
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(n);
    RpcRequest req = readPages(rig, RpcOp::ReadPages, first, n, bufs);
    req.speculative = speculative;
    std::string out = describe(rig.q0->call(req));
    expectPages(first, bufs);
    return out;
}

std::string
readGroup(Rig &rig)
{
    // Submitted before the daemon starts, so all three land in its
    // first sweep: one same-file aggregation group.
    const uint64_t first[3] = {0, 5, 7};
    const unsigned count[3] = {2, 2, 3};
    std::vector<std::vector<uint8_t>> bufs[3];
    RpcSlot *slots[3];
    for (unsigned m = 0; m < 3; ++m) {
        bufs[m].reserve(count[m]);
        RpcRequest req =
            readPages(rig, RpcOp::ReadPages, first[m], count[m], bufs[m]);
        req.issueTime = kIssue + 10 * m;
        req.speculative = m == 0;
        slots[m] = rig.q0->trySubmit(req);
        EXPECT_NE(nullptr, slots[m]);
    }
    rig.daemon.start();
    std::string out;
    for (unsigned m = 0; m < 3; ++m) {
        out += (m ? " / " : "") + describe(rig.q0->collect(*slots[m]));
        expectPages(first[m], bufs[m]);
    }
    return out;
}

std::string
peerRead(Rig &rig)
{
    // Owner serves pages 0 and 4; with the tier on, pages 1 and 3 come
    // from host RAM; the rest falls back to storage in two runs.
    rig.owner.serve = {0, 4};
    rig.daemon.start();
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(6);
    RpcRequest req = readPages(rig, RpcOp::PeerReadPages, 0, 6, bufs);
    req.peerGpu = 1;
    req.gpuId = 0;
    req.ino = rig.rinfo.ino;
    req.version = rig.rinfo.version;
    req.speculative = true;
    std::string out = describe(rig.q0->call(req));
    expectPages(0, bufs);
    out += " adopt=";
    for (Time t : rig.owner.adoptReady)
        out += std::to_string(t) + ",";
    return out;
}

/** Extent bytes: plain 0x5A.., or with zero gaps for the diff shapes
 *  (only the nonzero bytes may land). */
std::vector<uint8_t>
extentBytes(uint64_t len, bool zero_gaps, uint8_t seed)
{
    std::vector<uint8_t> v(len);
    for (uint64_t i = 0; i < len; ++i) {
        bool gap = zero_gaps && (i / 700) % 2 == 0;
        v[i] = gap ? 0 : uint8_t(seed + i % 13 + 1);
    }
    return v;
}

/** Expected host bytes after an extent landed (zero gaps keep the
 *  old ramp). */
std::vector<uint8_t>
landed(uint64_t off, const std::vector<uint8_t> &ext)
{
    std::vector<uint8_t> v(ext.size());
    for (uint64_t i = 0; i < ext.size(); ++i)
        v[i] = ext[i] ? ext[i] : test::rampByte(off + i);
    return v;
}

std::string
writeBack(Rig &rig, bool diff)
{
    rig.daemon.start();
    RpcResponse open = rig.openForWrite("/w", /*durable=*/true);
    const uint64_t off = kPage + 100;
    std::vector<uint8_t> data = extentBytes(3000, diff, 0x20);
    RpcRequest req;
    req.op = RpcOp::WriteBack;
    req.hostFd = open.hostFd;
    req.offset = off;
    req.len = data.size();
    req.data = data.data();
    req.diffAgainstZeros = diff;
    req.issueTime = kIssue;
    std::string out = describe(rig.q0->call(req));
    std::vector<uint8_t> want = landed(off, data);
    expectHost(rig, off, want.data(), want.size());
    return out;
}

std::string
writePages(Rig &rig, bool diff)
{
    rig.daemon.start();
    RpcResponse open = rig.openForWrite("/w", /*durable=*/false);
    const uint64_t offs[3] = {100, 2 * kPage, 5 * kPage + 9000};
    const uint64_t lens[3] = {5000, 0, 4000};
    std::vector<uint8_t> ext[3];
    RpcRequest req;
    req.op = RpcOp::WritePages;
    req.hostFd = open.hostFd;
    req.diffAgainstZeros = diff;
    req.issueTime = kIssue;
    req.pageCount = 3;
    for (unsigned i = 0; i < 3; ++i) {
        ext[i] = extentBytes(lens[i], diff, uint8_t(0x40 + i));
        req.batch[i] = ext[i].data();
        req.batchOff[i] = offs[i];
        req.batchLen[i] = uint32_t(lens[i]);
        req.len += lens[i];
    }
    std::string out = describe(rig.q0->call(req));
    for (unsigned i = 0; i < 3; ++i) {
        std::vector<uint8_t> want = landed(offs[i], ext[i]);
        expectHost(rig, offs[i], want.data(), want.size());
    }
    return out;
}

std::string
peerWrite(Rig &rig, bool publish)
{
    // The owner holds page 1 always and page 3 only in the publishing
    // shape, where every extent mirrors and the version is published.
    rig.owner.resident = publish ? std::set<uint64_t>{1, 3}
                                 : std::set<uint64_t>{1};
    rig.daemon.start();
    RpcResponse open = rig.openForWrite("/w", /*durable=*/true);
    const uint64_t offs[2] = {kPage + 200, 3 * kPage};
    std::vector<uint8_t> ext[2];
    RpcRequest req;
    req.op = RpcOp::PeerWritePages;
    req.hostFd = open.hostFd;
    req.peerGpu = 1;
    req.gpuId = 0;
    req.ino = open.ino;
    req.version = open.version;
    req.peerPublish = publish;
    req.pageLen = kPage;
    req.issueTime = kIssue;
    req.pageCount = 2;
    for (unsigned i = 0; i < 2; ++i) {
        ext[i] = extentBytes(6000, false, uint8_t(0x60 + i));
        req.batch[i] = ext[i].data();
        req.batchOff[i] = offs[i];
        req.batchLen[i] = 6000;
        req.len += 6000;
    }
    std::string out = describe(rig.q0->call(req));
    for (unsigned i = 0; i < 2; ++i)
        expectHost(rig, offs[i], ext[i].data(), ext[i].size());
    out += " mirrored=" + std::to_string(rig.owner.mirrored) +
           " published=" + std::to_string(rig.owner.published);
    return out;
}

const std::vector<std::pair<const char *, Shape>> kShapes = {
    {"ReadPage.aligned", [](Rig &r) { return readPageAt(r, 1); }},
    {"ReadPage.eof", [](Rig &r) { return readPageAt(r, 8); }},
    {"ReadPage.beyond_eof", [](Rig &r) { return readPageAt(r, 9); }},
    {"ReadPages.all_hit", [](Rig &r) { return readPagesAt(r, 3, 2); }},
    {"ReadPages.mid_hit", [](Rig &r) { return readPagesAt(r, 0, 3); }},
    {"ReadPages.no_hit",
     [](Rig &r) { return readPagesAt(r, 5, 3, /*speculative=*/true); }},
    {"ReadPages.eof_straddle", [](Rig &r) { return readPagesAt(r, 7, 3); }},
    {"ReadPages.beyond_eof", [](Rig &r) { return readPagesAt(r, 9, 2); }},
    {"ReadPages.group3", readGroup},
    {"PeerReadPages.mix", peerRead},
    {"WriteBack.plain", [](Rig &r) { return writeBack(r, false); }},
    {"WriteBack.diff", [](Rig &r) { return writeBack(r, true); }},
    {"WritePages.plain", [](Rig &r) { return writePages(r, false); }},
    {"WritePages.diff", [](Rig &r) { return writePages(r, true); }},
    {"PeerWritePages.publish", [](Rig &r) { return peerWrite(r, true); }},
    {"PeerWritePages.nopublish",
     [](Rig &r) { return peerWrite(r, false); }},
};

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

class DaemonPipeline
    : public ::testing::TestWithParam<std::tuple<storage::BackendKind, bool>>
{
};

TEST_P(DaemonPipeline, MatchesGolden)
{
    const storage::BackendKind kind = std::get<0>(GetParam());
    const bool with_victim = std::get<1>(GetParam());
    const bool print = std::getenv("DAEMON_PIPELINE_PRINT") != nullptr;
    const std::map<std::string, std::string> golden = goldenLines();
    for (const auto &[name, shape] : kShapes) {
        std::string key = std::string(storage::backendName(kind)) +
                          (with_victim ? " vc " : " -- ") + name;
        std::string line;
        {
            Rig rig(kind, with_victim);
            line = shape(rig);
            rig.daemon.stop();
            line += " |";
            for (const auto &[counter, value] : rig.daemon.stats().snapshot()) {
                // Queue high-water marks are the RPC layer's, not the
                // pipeline's.
                if (value != 0 && counter.rfind("gpu", 0) != 0)
                    line += " " + counter + "=" + std::to_string(value);
            }
        }
        if (print) {
            std::printf("%s: %s\n", key.c_str(), line.c_str());
            continue;
        }
        auto it = golden.find(key);
        ASSERT_NE(golden.end(), it) << "no golden line for " << key;
        EXPECT_EQ(it->second, line) << key;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DaemonPipeline,
    ::testing::Combine(::testing::Values(storage::BackendKind::Buffered,
                                         storage::BackendKind::Direct,
                                         storage::BackendKind::Gds,
                                         storage::BackendKind::RemoteFlash),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(storage::backendName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_victim" : "_novictim");
    });

// Golden lines: "<backend> <vc|--> <shape>: <status> b=<bytes>
// d=<virtual done ns> v=<version> pp=<peer pages> [owner events] |
// <nonzero daemon counters>".
const char *
golden()
{
    return R"(
buffered -- ReadPage.aligned: Ok b=16384 d=1625306 v=0 pp=0 | bytes_to_gpu=16384 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPage.eof: Ok b=8192 d=1621395 v=0 pp=0 | bytes_to_gpu=8192 host_read_calls=1 requests_served=1 storage_read_bytes=8192 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.all_hit: Ok b=32768 d=2129615 v=0 pp=0 | bytes_to_gpu=32768 host_read_calls=1 requests_served=1 storage_read_bytes=32768 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.mid_hit: Ok b=49152 d=1640954 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.no_hit: Ok b=49152 d=1640954 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.eof_straddle: Ok b=24576 d=2125704 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 requests_served=1 storage_read_bytes=24576 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 storage_reads=1 tenant0_rpcs=1
buffered -- ReadPages.group3: Ok b=32768 d=2853503 v=0 pp=0 / Ok b=32768 d=2853503 v=0 pp=0 / Ok b=24576 d=2853503 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3
buffered -- PeerReadPages.mix: Ok b=98304 d=2230367 v=0 pp=2 adopt=1624378,1624378,1624378,2210932, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 peer_pages_adopted=4 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=65536 storage_reads=2 tenant0_rpcs=1
buffered -- WriteBack.plain: Ok b=3000 d=1712627 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2
buffered -- WriteBack.diff: Ok b=1400 d=1711672 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2
buffered -- WritePages.plain: Ok b=9000 d=1025297 v=2 pp=0 | bytes_from_gpu=9000 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2
buffered -- WritePages.diff: Ok b=4100 d=1023812 v=2 pp=0 | bytes_from_gpu=9000 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2
buffered -- PeerWritePages.publish: Ok b=12000 d=1718096 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
buffered -- PeerWritePages.nopublish: Ok b=12000 d=1718096 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
buffered vc ReadPage.aligned: Ok b=16384 d=1018858 v=0 pp=0 | bytes_to_gpu=16384 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
buffered vc ReadPage.eof: Ok b=8192 d=1017429 v=0 pp=0 | bytes_to_gpu=8192 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
buffered vc ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 storage_reads=1 tenant0_rpcs=1 vc_inserts=5
buffered vc ReadPages.all_hit: Ok b=32768 d=1021717 v=0 pp=0 | bytes_to_gpu=32768 requests_served=1 tenant0_rpcs=1 vc_hits=2 vc_inserts=5
buffered vc ReadPages.mid_hit: Ok b=49152 d=1625306 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=2 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=2
buffered vc ReadPages.no_hit: Ok b=49152 d=1640954 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1 vc_inserts=5 vc_misses=3
buffered vc ReadPages.eof_straddle: Ok b=24576 d=1625306 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=1
buffered vc ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 storage_reads=1 tenant0_rpcs=1 vc_inserts=5
buffered vc ReadPages.group3: Ok b=32768 d=2853503 v=0 pp=0 / Ok b=32768 d=2853503 v=0 pp=0 / Ok b=24576 d=2853503 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3 vc_inserts=5
buffered vc PeerReadPages.mix: Ok b=98304 d=2224649 v=0 pp=2 adopt=1614448,2210932, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 peer_pages_adopted=2 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=2 vc_inserts=5 vc_misses=2
buffered vc WriteBack.plain: Ok b=3000 d=1712627 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
buffered vc WriteBack.diff: Ok b=1400 d=1711672 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
buffered vc WritePages.plain: Ok b=9000 d=1025297 v=2 pp=0 | bytes_from_gpu=9000 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
buffered vc WritePages.diff: Ok b=4100 d=1023812 v=2 pp=0 | bytes_from_gpu=9000 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
buffered vc PeerWritePages.publish: Ok b=12000 d=1718096 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
buffered vc PeerWritePages.nopublish: Ok b=12000 d=1718096 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct -- ReadPage.aligned: Ok b=16384 d=1247979 v=0 pp=0 | bytes_to_gpu=16384 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1
direct -- ReadPage.eof: Ok b=8192 d=1184489 v=0 pp=0 | bytes_to_gpu=8192 host_read_calls=1 requests_served=1 storage_read_bytes=8192 storage_reads=1 tenant0_rpcs=1
direct -- ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
direct -- ReadPages.all_hit: Ok b=32768 d=1374959 v=0 pp=0 | bytes_to_gpu=32768 host_read_calls=1 requests_served=1 storage_read_bytes=32768 storage_reads=1 tenant0_rpcs=1
direct -- ReadPages.mid_hit: Ok b=49152 d=1501939 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
direct -- ReadPages.no_hit: Ok b=49152 d=1501939 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
direct -- ReadPages.eof_straddle: Ok b=24576 d=1311469 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 requests_served=1 storage_read_bytes=24576 storage_reads=1 tenant0_rpcs=1
direct -- ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
direct -- ReadPages.group3: Ok b=32768 d=2019409 v=0 pp=0 / Ok b=32768 d=2019409 v=0 pp=0 / Ok b=24576 d=2019409 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3
direct -- PeerReadPages.mix: Ok b=98304 d=1728919 v=0 pp=2 adopt=1485363,1485363,1485363,1709484, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 peer_pages_adopted=4 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=65536 storage_reads=2 tenant0_rpcs=1
direct -- WriteBack.plain: Ok b=3000 d=1848954 v=2 pp=0 | bytes_from_gpu=3000 direct_unaligned_bytes=1096 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2
direct -- WriteBack.diff: Ok b=1400 d=1985720 v=2 pp=0 | bytes_from_gpu=3000 direct_unaligned_bytes=6792 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2
direct -- WritePages.plain: Ok b=9000 d=1371515 v=2 pp=0 | bytes_from_gpu=9000 direct_unaligned_bytes=7384 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2
direct -- WritePages.diff: Ok b=4100 d=2020460 v=2 pp=0 | bytes_from_gpu=9000 direct_unaligned_bytes=28668 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2
direct -- PeerWritePages.publish: Ok b=12000 d=2063405 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 direct_unaligned_bytes=4384 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
direct -- PeerWritePages.nopublish: Ok b=12000 d=2063405 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 direct_unaligned_bytes=4384 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
direct vc ReadPage.aligned: Ok b=16384 d=1018858 v=0 pp=0 | bytes_to_gpu=16384 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
direct vc ReadPage.eof: Ok b=8192 d=1017429 v=0 pp=0 | bytes_to_gpu=8192 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
direct vc ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
direct vc ReadPages.all_hit: Ok b=32768 d=1021717 v=0 pp=0 | bytes_to_gpu=32768 requests_served=1 tenant0_rpcs=1 vc_hits=2 vc_inserts=5
direct vc ReadPages.mid_hit: Ok b=49152 d=1472100 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=2 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=2
direct vc ReadPages.no_hit: Ok b=49152 d=1501939 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1 vc_inserts=5 vc_misses=3
direct vc ReadPages.eof_straddle: Ok b=24576 d=1247979 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=1
direct vc ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
direct vc ReadPages.group3: Ok b=32768 d=2019409 v=0 pp=0 / Ok b=32768 d=2019409 v=0 pp=0 / Ok b=24576 d=2019409 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3 vc_inserts=5
direct vc PeerReadPages.mix: Ok b=98304 d=1474959 v=0 pp=2 adopt=1237121,1461242, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 peer_pages_adopted=2 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=2 vc_inserts=5 vc_misses=2
direct vc WriteBack.plain: Ok b=3000 d=1848954 v=2 pp=0 | bytes_from_gpu=3000 direct_unaligned_bytes=1096 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct vc WriteBack.diff: Ok b=1400 d=1985720 v=2 pp=0 | bytes_from_gpu=3000 direct_unaligned_bytes=6792 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct vc WritePages.plain: Ok b=9000 d=1371515 v=2 pp=0 | bytes_from_gpu=9000 direct_unaligned_bytes=7384 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct vc WritePages.diff: Ok b=4100 d=2020460 v=2 pp=0 | bytes_from_gpu=9000 direct_unaligned_bytes=28668 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct vc PeerWritePages.publish: Ok b=12000 d=2063405 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 direct_unaligned_bytes=4384 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
direct vc PeerWritePages.nopublish: Ok b=12000 d=2063405 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 direct_unaligned_bytes=4384 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds -- ReadPage.aligned: Ok b=16384 d=1237121 v=0 pp=0 | bytes_to_gpu=16384 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1
gds -- ReadPage.eof: Ok b=8192 d=1175060 v=0 pp=0 | bytes_to_gpu=8192 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=8192 storage_reads=1 tenant0_rpcs=1
gds -- ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
gds -- ReadPages.all_hit: Ok b=32768 d=1361242 v=0 pp=0 | bytes_to_gpu=32768 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=32768 storage_reads=1 tenant0_rpcs=1
gds -- ReadPages.mid_hit: Ok b=49152 d=1485363 v=0 pp=0 | bytes_to_gpu=49152 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
gds -- ReadPages.no_hit: Ok b=49152 d=1485363 v=0 pp=0 | bytes_to_gpu=49152 gds_dmas=1 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
gds -- ReadPages.eof_straddle: Ok b=24576 d=1299181 v=0 pp=0 | bytes_to_gpu=24576 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=24576 storage_reads=1 tenant0_rpcs=1
gds -- ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
gds -- ReadPages.group3: Ok b=32768 d=1995686 v=0 pp=0 / Ok b=32768 d=1995686 v=0 pp=0 / Ok b=24576 d=1995686 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 gds_dmas=1 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3
gds -- PeerReadPages.mix: Ok b=98304 d=1709484 v=0 pp=2 adopt=1485363,1485363,1485363,1709484, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 gds_dmas=2 host_read_calls=2 peer_pages_adopted=4 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=65536 storage_reads=2 tenant0_rpcs=1
gds -- WriteBack.plain: Ok b=3000 d=1848954 v=2 pp=0 | bytes_from_gpu=3000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2
gds -- WriteBack.diff: Ok b=1400 d=1985720 v=2 pp=0 | bytes_from_gpu=3000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2
gds -- WritePages.plain: Ok b=9000 d=1361945 v=2 pp=0 | bytes_from_gpu=9000 gds_dmas=1 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2
gds -- WritePages.diff: Ok b=4100 d=2010890 v=2 pp=0 | bytes_from_gpu=9000 gds_dmas=1 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2
gds -- PeerWritePages.publish: Ok b=12000 d=2063405 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
gds -- PeerWritePages.nopublish: Ok b=12000 d=2063405 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
gds vc ReadPage.aligned: Ok b=16384 d=1018858 v=0 pp=0 | bytes_to_gpu=16384 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
gds vc ReadPage.eof: Ok b=8192 d=1017429 v=0 pp=0 | bytes_to_gpu=8192 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
gds vc ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
gds vc ReadPages.all_hit: Ok b=32768 d=1021717 v=0 pp=0 | bytes_to_gpu=32768 requests_served=1 tenant0_rpcs=1 vc_hits=2 vc_inserts=5
gds vc ReadPages.mid_hit: Ok b=49152 d=1461242 v=0 pp=0 | bytes_to_gpu=49152 gds_dmas=2 host_read_calls=2 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=2
gds vc ReadPages.no_hit: Ok b=49152 d=1485363 v=0 pp=0 | bytes_to_gpu=49152 gds_dmas=1 host_read_calls=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1 vc_inserts=5 vc_misses=3
gds vc ReadPages.eof_straddle: Ok b=24576 d=1237121 v=0 pp=0 | bytes_to_gpu=24576 gds_dmas=1 host_read_calls=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=1
gds vc ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
gds vc ReadPages.group3: Ok b=32768 d=1995686 v=0 pp=0 / Ok b=32768 d=1995686 v=0 pp=0 / Ok b=24576 d=1995686 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 gds_dmas=1 host_read_calls=1 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3 vc_inserts=5
gds vc PeerReadPages.mix: Ok b=98304 d=1461242 v=0 pp=2 adopt=1237121,1461242, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 gds_dmas=2 host_read_calls=2 peer_pages_adopted=2 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=2 vc_inserts=5 vc_misses=2
gds vc WriteBack.plain: Ok b=3000 d=1848954 v=2 pp=0 | bytes_from_gpu=3000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds vc WriteBack.diff: Ok b=1400 d=1985720 v=2 pp=0 | bytes_from_gpu=3000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds vc WritePages.plain: Ok b=9000 d=1361945 v=2 pp=0 | bytes_from_gpu=9000 gds_dmas=1 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds vc WritePages.diff: Ok b=4100 d=2010890 v=2 pp=0 | bytes_from_gpu=9000 gds_dmas=1 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds vc PeerWritePages.publish: Ok b=12000 d=2063405 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
gds vc PeerWritePages.nopublish: Ok b=12000 d=2063405 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 gds_dmas=1 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote -- ReadPage.aligned: Ok b=16384 d=1156954 v=0 pp=0 | bytes_to_gpu=16384 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1
remote -- ReadPage.eof: Ok b=8192 d=1148976 v=0 pp=0 | bytes_to_gpu=8192 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=8192 storage_reads=1 tenant0_rpcs=1
remote -- ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
remote -- ReadPages.all_hit: Ok b=32768 d=1172910 v=0 pp=0 | bytes_to_gpu=32768 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=32768 storage_reads=1 tenant0_rpcs=1
remote -- ReadPages.mid_hit: Ok b=49152 d=1188865 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
remote -- ReadPages.no_hit: Ok b=49152 d=1188865 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 nvmf_commands=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1
remote -- ReadPages.eof_straddle: Ok b=24576 d=1164932 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=24576 storage_reads=1 tenant0_rpcs=1
remote -- ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1
remote -- ReadPages.group3: Ok b=32768 d=1386175 v=0 pp=0 / Ok b=32768 d=1386175 v=0 pp=0 / Ok b=24576 d=1386175 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 nvmf_commands=3 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3
remote -- PeerReadPages.mix: Ok b=98304 d=1277872 v=0 pp=2 adopt=1172289,1172289,1172289,1258437, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 nvmf_commands=2 peer_pages_adopted=4 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=65536 storage_reads=2 tenant0_rpcs=1
remote -- WriteBack.plain: Ok b=3000 d=1835677 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2
remote -- WriteBack.diff: Ok b=1400 d=1927339 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2
remote -- WritePages.plain: Ok b=9000 d=1245651 v=2 pp=0 | bytes_from_gpu=9000 nvmf_commands=2 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2
remote -- WritePages.diff: Ok b=4100 d=1706143 v=2 pp=0 | bytes_from_gpu=9000 nvmf_commands=7 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2
remote -- PeerWritePages.publish: Ok b=12000 d=1938230 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
remote -- PeerWritePages.nopublish: Ok b=12000 d=1938230 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2
remote vc ReadPage.aligned: Ok b=16384 d=1018858 v=0 pp=0 | bytes_to_gpu=16384 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
remote vc ReadPage.eof: Ok b=8192 d=1017429 v=0 pp=0 | bytes_to_gpu=8192 requests_served=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5
remote vc ReadPage.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
remote vc ReadPages.all_hit: Ok b=32768 d=1021717 v=0 pp=0 | bytes_to_gpu=32768 requests_served=1 tenant0_rpcs=1 vc_hits=2 vc_inserts=5
remote vc ReadPages.mid_hit: Ok b=49152 d=1254401 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=2 nvmf_commands=2 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=2
remote vc ReadPages.no_hit: Ok b=49152 d=1188865 v=0 pp=0 | bytes_to_gpu=49152 host_read_calls=1 nvmf_commands=1 ra_pages_fetched=3 requests_served=1 storage_read_bytes=49152 storage_reads=1 tenant0_rpcs=1 vc_inserts=5 vc_misses=3
remote vc ReadPages.eof_straddle: Ok b=24576 d=1156954 v=0 pp=0 | bytes_to_gpu=24576 host_read_calls=1 nvmf_commands=1 requests_served=1 storage_read_bytes=16384 storage_reads=1 tenant0_rpcs=1 vc_hits=1 vc_inserts=5 vc_misses=1
remote vc ReadPages.beyond_eof: Ok b=0 d=1008000 v=0 pp=0 | host_read_calls=1 requests_served=1 tenant0_rpcs=1 vc_inserts=5
remote vc ReadPages.group3: Ok b=32768 d=1386175 v=0 pp=0 / Ok b=32768 d=1386175 v=0 pp=0 / Ok b=24576 d=1386175 v=0 pp=0 | bytes_to_gpu=90112 coalesced_rpcs=2 host_read_calls=1 nvmf_commands=3 ra_pages_fetched=2 requests_served=3 storage_read_bytes=90112 storage_reads=1 tenant0_rpcs=3 vc_inserts=5
remote vc PeerReadPages.mix: Ok b=98304 d=1257260 v=0 pp=2 adopt=1146096,1243543, | bytes_peer_to_peer=32768 bytes_to_gpu=65536 host_read_calls=2 nvmf_commands=2 peer_pages_adopted=2 peer_pages_forwarded=2 peer_pages_host_fallback=4 peer_read_rpcs=1 ra_pages_fetched=6 requests_served=1 storage_read_bytes=32768 storage_reads=2 tenant0_rpcs=1 vc_hits=2 vc_inserts=5 vc_misses=2
remote vc WriteBack.plain: Ok b=3000 d=1835677 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=1 requests_served=2 storage_write_bytes=3000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote vc WriteBack.diff: Ok b=1400 d=1927339 v=2 pp=0 | bytes_from_gpu=3000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 requests_served=2 storage_write_bytes=1400 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote vc WritePages.plain: Ok b=9000 d=1245651 v=2 pp=0 | bytes_from_gpu=9000 nvmf_commands=2 requests_served=2 storage_write_bytes=9000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote vc WritePages.diff: Ok b=4100 d=1706143 v=2 pp=0 | bytes_from_gpu=9000 nvmf_commands=7 requests_served=2 storage_write_bytes=4100 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote vc PeerWritePages.publish: Ok b=12000 d=1938230 v=2 pp=2 mirrored=2 published=2 | bytes_from_gpu=12000 bytes_peer_to_peer=12000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 peer_extents_mirrored=2 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
remote vc PeerWritePages.nopublish: Ok b=12000 d=1938230 v=2 pp=1 mirrored=1 published=0 | bytes_from_gpu=12000 bytes_peer_to_peer=6000 journal_checkpoints=1 journal_commits=1 journal_group_syncs=1 nvmf_commands=2 peer_extents_mirrored=1 peer_write_rpcs=1 requests_served=2 storage_write_bytes=12000 storage_writes=1 tenant0_rpcs=2 vc_inserts=5
)";
}

} // namespace
} // namespace rpc
} // namespace gpufs
