/**
 * @file
 * Write-ahead journal for the GPUfs daemon's write-back path.
 *
 * Journal-first ordering: for a durable file (O_GDURABLE_F), the
 * daemon appends checksummed extent records plus a commit record to
 * the journal file and fsyncs it BEFORE the in-place write-back. A
 * write-back RPC that completed therefore has its commit record on
 * stable media, and gmsync/gfsync on a durable file only needs the
 * commit-durable time — no data-file fsync.
 *
 * Record format (exposed so recovery tests can craft torn tails):
 *
 *   [JRecHeader type=extent, payload follows] * n   one per write run
 *   [JRecHeader type=commit, offset=n]              terminates the txn
 *
 * Extent checksums cover the payload as copied into the record; the
 * commit checksum covers its own header fields. Both use
 * journalChecksum (FNV-1a 64 over 8-byte little-endian words, then
 * the 0-7 tail bytes one at a time).
 * Recovery replays committed transactions in order and discards
 * everything from the first invalid record on — a torn tail is an
 * uncommitted transaction and simply never happened.
 */

#ifndef GPUFS_HOSTFS_JOURNAL_HH
#define GPUFS_HOSTFS_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "hostfs/hostfs.hh"

namespace gpufs {
namespace hostfs {

constexpr uint32_t kJournalMagic = 0x474A524E;  // "GJRN"

enum JRecType : uint32_t {
    kJRecExtent = 1,
    kJRecCommit = 2,
};

/** On-journal record header; extent payload bytes follow directly. */
struct JRecHeader {
    uint32_t magic;     ///< kJournalMagic
    uint32_t type;      ///< JRecType
    uint64_t txn;       ///< transaction id (monotonic)
    uint64_t ino;       ///< target inode (commit: same as extents)
    uint64_t offset;    ///< extent: file offset; commit: extent count
    uint64_t len;       ///< extent: payload bytes; commit: 0
    uint64_t checksum;  ///< extent: journalChecksum(payload); commit: header
};

/**
 * The journal's checksum: FNV-1a 64 over 8-byte words. Each whole
 * little-endian 64-bit word w of @p data is folded in as
 * h = (h ^ w) * 0x100000001b3, starting from the FNV offset basis
 * 0xcbf29ce484222325; the 0-7 tail bytes then fold in one byte at a
 * time the same way. Every step is a bijection of h, so changing any
 * single byte (or word) always changes the result.
 */
uint64_t journalChecksum(const uint8_t *data, uint64_t len);

/** What a recovery pass found and did. */
struct RecoveryStats {
    uint64_t txnsReplayed = 0;   ///< committed txns re-applied
    uint64_t bytesReplayed = 0;  ///< extent payload bytes re-applied
    uint64_t tornRecords = 0;    ///< valid extents with no commit
    uint64_t tornBytes = 0;      ///< journal bytes discarded as tail
    Time done = 0;               ///< virtual time recovery finished
};

/**
 * The daemon's write-ahead journal. One instance per daemon; all
 * mutating calls come from the daemon service thread (internally
 * locked anyway so tests can poke at it while the daemon is idle).
 */
class WriteJournal
{
  public:
    static constexpr const char *kPath = "/.gpufs-journal";

    explicit WriteJournal(HostFs &fs);
    ~WriteJournal();

    WriteJournal(const WriteJournal &) = delete;
    WriteJournal &operator=(const WriteJournal &) = delete;

    /**
     * Append one transaction (extent records for @p runs + commit),
     * fsync the journal, and return with .done = the commit-durable
     * time. On error or an injected crash nothing is committed and
     * the caller must fail its write-back. Composition of append() +
     * groupSync() — the per-txn-fsync path kept for callers outside
     * the daemon's sweep loop.
     */
    IoResult logWrite(uint64_t ino, const WriteRun *runs, unsigned n,
                      Time ready, sim::Resource *io_path);

    /**
     * Group commit, step 1: append one transaction's extent + commit
     * records (pwrites only — NO journal fsync). Returns .bytes = the
     * payload total and .done = the commit-record write's completion.
     * The records are on media (the crash model persists pwrites
     * unless a crash point tears them explicitly), but the txn has no
     * commit-DURABLE time until the next groupSync() — lastCommitDone
     * does not see it before then.
     */
    IoResult append(uint64_t ino, const WriteRun *runs, unsigned n,
                    Time ready, sim::Resource *io_path);

    /**
     * Group commit, step 2: ONE journal fsync covering every append()
     * since the last sync; each covered ino's lastCommitDone advances
     * to the fsync's completion time. No-op ({Ok, 0, ready}) when
     * nothing is pending. The daemon calls this once per service
     * sweep, so N same-sweep write-backs share one barrier.
     */
    IoResult groupSync(Time ready);

    /** True when append()ed txns await their groupSync(). */
    bool syncPending() const;

    /**
     * Replay committed-but-possibly-unapplied transactions in commit
     * order, fsync every touched file, discard the torn tail, and
     * truncate the journal. Run at daemon start (idempotent: replay
     * re-applies physical extents).
     */
    RecoveryStats recover(Time ready);

    /**
     * Checkpoint on clean shutdown: every committed transaction has
     * been applied in place, so the journal's history is dead weight —
     * fsync each file it covers (the commit record was the durability
     * point; the in-place writes may still sit volatile in the host
     * page cache), then truncate to empty. The caller (CpuDaemon::
     * stop) guarantees no committed-but-unapplied txns remain.
     * @return the virtual time the truncate is durable.
     */
    Time checkpoint(Time ready);

    /** Commit-durable time of the last committed txn touching @p ino
     *  (0 if none since recovery) — the gmsync barrier's answer. */
    Time lastCommitDone(uint64_t ino) const;

    /** Current append position (tests craft torn tails here). */
    uint64_t tailOffset() const;

    int fd() const { return jfd_; }

  private:
    HostFs &fs_;
    int jfd_ = -1;
    uint64_t jino_ = 0;
    mutable std::mutex mtx_;
    uint64_t tail_ = 0;
    uint64_t nextTxn_ = 1;
    std::unordered_map<uint64_t, Time> lastCommit_;
    /** Appends awaiting their group fsync: per-ino commit-record write
     *  completion, and the max across them (the fsync's ready time). */
    std::unordered_map<uint64_t, Time> pendingCommit_;
    Time pendingReady_ = 0;
    /** append()'s transaction image, reused so appends don't allocate. */
    std::vector<uint8_t> txnBuf_;
};

} // namespace hostfs
} // namespace gpufs

#endif // GPUFS_HOSTFS_JOURNAL_HH
