#include "hostfs/journal.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <set>
#include <vector>

#include "base/logging.hh"

namespace gpufs {
namespace hostfs {

uint64_t
journalChecksum(const uint8_t *data, uint64_t len)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = 0xcbf29ce484222325ull;
    uint64_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        h ^= w;
        h *= kPrime;
    }
    for (; i < len; ++i) {
        h ^= data[i];
        h *= kPrime;
    }
    return h;
}

namespace {

/** Commit checksum: over the header's own fields up to the checksum. */
uint64_t
headerChecksum(const JRecHeader &h)
{
    return journalChecksum(reinterpret_cast<const uint8_t *>(&h),
                           offsetof(JRecHeader, checksum));
}

} // namespace

WriteJournal::WriteJournal(HostFs &fs) : fs_(fs)
{
    Status st;
    jfd_ = fs_.open(kPath, O_RDWR_F | O_CREAT_F, &st);
    gpufs_assert(jfd_ >= 0, "journal open failed");
    FileInfo fi;
    fs_.fstat(jfd_, &fi);
    jino_ = fi.ino;
}

WriteJournal::~WriteJournal()
{
    if (jfd_ >= 0)
        fs_.close(jfd_);
}

IoResult
WriteJournal::logWrite(uint64_t ino, const WriteRun *runs, unsigned n,
                       Time ready, sim::Resource *io_path)
{
    IoResult a = append(ino, runs, n, ready, io_path);
    if (!ok(a.status))
        return a;
    IoResult s = groupSync(a.done);
    if (!ok(s.status))
        return {s.status, 0, s.done};
    return {Status::Ok, a.bytes, s.done};
}

IoResult
WriteJournal::append(uint64_t ino, const WriteRun *runs, unsigned n,
                     Time ready, sim::Resource *io_path)
{
    std::lock_guard<std::mutex> lk(mtx_);
    const uint64_t txn = nextTxn_;

    // Assemble the whole transaction (extent records, then the commit
    // record) once, in a buffer sized up front and reused across
    // appends.
    uint64_t payload_total = 0;
    for (unsigned r = 0; r < n; ++r)
        payload_total += runs[r].len;
    const uint64_t extents_len = n * sizeof(JRecHeader) + payload_total;
    txnBuf_.resize(extents_len + sizeof(JRecHeader));
    uint8_t *pos = txnBuf_.data();
    for (unsigned r = 0; r < n; ++r) {
        JRecHeader h{};
        h.magic = kJournalMagic;
        h.type = kJRecExtent;
        h.txn = txn;
        h.ino = ino;
        h.offset = runs[r].offset;
        h.len = runs[r].len;
        // Checksum the copy, not the source: the record is then
        // consistent with itself whatever the source does meanwhile.
        uint8_t *payload = pos + sizeof h;
        std::memcpy(payload, runs[r].data, runs[r].len);
        h.checksum = journalChecksum(payload, runs[r].len);
        std::memcpy(pos, &h, sizeof h);
        pos += sizeof h + runs[r].len;
    }
    JRecHeader c{};
    c.magic = kJournalMagic;
    c.type = kJRecCommit;
    c.txn = txn;
    c.ino = ino;
    c.offset = n;
    c.len = 0;
    c.checksum = headerChecksum(c);
    std::memcpy(pos, &c, sizeof c);

    IoResult w = fs_.pwrite(jfd_, txnBuf_.data(), extents_len, tail_, ready,
                            io_path);
    if (!ok(w.status))
        return {w.status, 0, w.done};

    // Torn-tail crash point: the extent records happened to reach
    // stable media, the commit never did — recovery must discard them.
    IoSpan span{tail_, extents_len};
    if (fs_.maybeCrash(sim::CrashPoint::MidJournalAppend, jino_, &span, 1))
        return {Status::IoError, 0, w.done};

    IoResult wc = fs_.pwrite(jfd_, pos, sizeof c, tail_ + extents_len,
                             w.done, io_path);
    if (!ok(wc.status))
        return {wc.status, 0, wc.done};

    tail_ += extents_len + sizeof c;
    nextTxn_ = txn + 1;
    Time &p = pendingCommit_[ino];
    p = std::max(p, wc.done);
    pendingReady_ = std::max(pendingReady_, wc.done);
    return {Status::Ok, payload_total, wc.done};
}

IoResult
WriteJournal::groupSync(Time ready)
{
    std::lock_guard<std::mutex> lk(mtx_);
    if (pendingCommit_.empty())
        return {Status::Ok, 0, ready};
    IoResult s = fs_.fsync(jfd_, std::max(ready, pendingReady_));
    if (!ok(s.status))
        return {s.status, 0, s.done};
    for (const auto &kv : pendingCommit_) {
        Time &last = lastCommit_[kv.first];
        last = std::max(last, s.done);
    }
    pendingCommit_.clear();
    pendingReady_ = 0;
    return {Status::Ok, 0, s.done};
}

bool
WriteJournal::syncPending() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return !pendingCommit_.empty();
}

RecoveryStats
WriteJournal::recover(Time ready)
{
    std::lock_guard<std::mutex> lk(mtx_);
    RecoveryStats st;
    st.done = ready;

    FileInfo fi;
    if (!ok(fs_.fstat(jfd_, &fi)) || fi.size == 0) {
        tail_ = 0;
        lastCommit_.clear();
        pendingCommit_.clear();
        pendingReady_ = 0;
        return st;
    }
    std::vector<uint8_t> img(fi.size);
    IoResult rd = fs_.pread(jfd_, img.data(), fi.size, 0, ready, nullptr);
    if (!ok(rd.status))
        return st;
    st.done = rd.done;

    struct Extent {
        uint64_t ino;
        uint64_t offset;
        uint64_t len;
        uint64_t at;    ///< payload position in img
    };
    std::vector<Extent> committed;
    std::vector<Extent> pending;
    uint64_t pos = 0;
    uint64_t max_txn = 0;
    uint64_t commits = 0;
    while (pos + sizeof(JRecHeader) <= img.size()) {
        JRecHeader h;
        std::memcpy(&h, img.data() + pos, sizeof h);
        if (h.magic != kJournalMagic)
            break;
        if (h.type == kJRecExtent) {
            if (pos + sizeof h + h.len > img.size())
                break;
            const uint8_t *payload = img.data() + pos + sizeof h;
            if (journalChecksum(payload, h.len) != h.checksum)
                break;
            pending.push_back({h.ino, h.offset, h.len,
                               pos + sizeof(JRecHeader)});
            pos += sizeof h + h.len;
        } else if (h.type == kJRecCommit) {
            if (headerChecksum(h) != h.checksum)
                break;
            if (h.offset != pending.size())
                break;  // commit doesn't match its extents: torn
            committed.insert(committed.end(), pending.begin(),
                             pending.end());
            pending.clear();
            max_txn = std::max(max_txn, h.txn);
            commits++;
            pos += sizeof h;
        } else {
            break;
        }
    }

    st.tornRecords = pending.size();
    st.tornBytes = img.size() - pos + [&] {
        uint64_t b = 0;
        for (const Extent &e : pending)
            b += sizeof(JRecHeader) + e.len;
        return b;
    }();
    // Committed extents replay in append order, so the newest
    // committed value of every byte wins; replay is idempotent.
    std::set<uint64_t> inos;
    for (const Extent &e : committed) {
        if (ok(fs_.replayExtent(e.ino, e.offset, img.data() + e.at,
                                e.len))) {
            st.bytesReplayed += e.len;
            inos.insert(e.ino);
        }
    }
    st.txnsReplayed = commits;
    Time t = st.done;
    for (uint64_t ino : inos)
        t = std::max(t, fs_.fsyncIno(ino, t));
    st.done = t;

    fs_.ftruncate(jfd_, 0);
    tail_ = 0;
    nextTxn_ = max_txn + 1;
    lastCommit_.clear();
    pendingCommit_.clear();
    pendingReady_ = 0;
    return st;
}

Time
WriteJournal::checkpoint(Time ready)
{
    std::lock_guard<std::mutex> lk(mtx_);
    // Durability order matters: flush the covered files BEFORE
    // discarding the records that could re-create their bytes. (The
    // reverse order would open a window where neither the journal nor
    // the data file holds the committed bytes durably.)
    Time t = ready;
    for (const auto &kv : lastCommit_)
        t = std::max(t, fs_.fsyncIno(kv.first, t));
    // Unsynced appends (a crash raced the sweep's groupSync) get the
    // same treatment: their bytes are applied in place, so flush the
    // file and let the records die with the truncate.
    for (const auto &kv : pendingCommit_)
        t = std::max(t, fs_.fsyncIno(kv.first, t));
    fs_.ftruncate(jfd_, 0);
    tail_ = 0;
    lastCommit_.clear();
    pendingCommit_.clear();
    pendingReady_ = 0;
    return t;
}

Time
WriteJournal::lastCommitDone(uint64_t ino) const
{
    std::lock_guard<std::mutex> lk(mtx_);
    auto it = lastCommit_.find(ino);
    return it == lastCommit_.end() ? 0 : it->second;
}

uint64_t
WriteJournal::tailOffset() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return tail_;
}

} // namespace hostfs
} // namespace gpufs
