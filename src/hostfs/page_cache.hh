/**
 * @file
 * Simulated CPU (host OS) page cache.
 *
 * Content always comes from the ContentProvider (the provider *is* the
 * disk image), so the cache tracks only *residency* and *dirtiness* of
 * fixed-size granules plus an LRU order, and charges virtual time:
 * resident granules are read at host-cache bandwidth, missing granules
 * first pay a disk reservation. This reproduces the effects the paper's
 * evaluation depends on — warm-vs-cold runs, `hdparm` cached vs disk
 * rates, pinned CUDA buffers squeezing cache capacity (Figure 8), and
 * explicit cache flushes before cold experiments (§5.2.1).
 */

#ifndef GPUFS_HOSTFS_PAGE_CACHE_HH
#define GPUFS_HOSTFS_PAGE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "base/stats.hh"
#include "base/units.hh"
#include "sim/context.hh"

namespace gpufs {
namespace hostfs {

/** One extent of a vectored I/O charge (offset/len only; the data
 *  movement itself is functional and untimed). */
struct IoSpan {
    uint64_t offset;
    uint64_t len;
};

/**
 * LRU residency map over (inode, granule) pairs with a byte capacity.
 * Thread safe.
 */
class HostPageCache
{
  public:
    explicit HostPageCache(sim::SimContext &sim_ctx);

    /**
     * Charge a read of [offset, offset+len) of inode @p ino, ready at
     * virtual time @p ready. Missing granules reserve the disk; all
     * bytes then pay host-cache read bandwidth on @p io_path if
     * non-null (the serialized daemon path) or inline otherwise.
     * @return virtual completion time.
     */
    Time chargeRead(uint64_t ino, uint64_t offset, uint64_t len, Time ready,
                    sim::Resource *io_path);

    /**
     * Charge a write of [offset, offset+len): bytes land in the cache
     * (become resident + dirty) at cache-write bandwidth.
     */
    Time chargeWrite(uint64_t ino, uint64_t offset, uint64_t len, Time ready,
                     sim::Resource *io_path);

    /**
     * Vectored chargeWrite: touch every run's granules (resident +
     * dirty) but charge ONE syscall overhead plus the runs' total
     * bytes — the cost of a single gathered pwritev, which is how the
     * daemon lands multi-run write-backs.
     */
    Time chargeWritev(uint64_t ino, const IoSpan *runs, unsigned n,
                      Time ready, sim::Resource *io_path);

    /**
     * Vectored chargeRead: miss/disk accounting runs per span exactly
     * as n chargeRead calls would, but the copy out of the cache pays
     * ONE syscall overhead plus the spans' total bytes — a single
     * gathered preadv, which is how the daemon serves a cross-slot
     * aggregated ReadPages group.
     */
    Time chargeReadv(uint64_t ino, const IoSpan *spans, unsigned n,
                     Time ready, sim::Resource *io_path);

    /** Write back dirty granules of @p ino to disk. ~fsync. */
    Time chargeSync(uint64_t ino, Time ready);

    /** Drop every granule of @p ino (unlink / invalidate). */
    void dropFile(uint64_t ino);

    /** Drop everything (the pre-benchmark `echo 3 > drop_caches`). */
    void dropAll();

    /** Mark [offset, offset+len) resident without timing (warmup). */
    void prefault(uint64_t ino, uint64_t offset, uint64_t len);

    /**
     * Reserve @p bytes as pinned (cudaHostAlloc-style). Pinned memory
     * competes with the page cache (§5.1.4), shrinking its effective
     * capacity. @return false if more than the total would be pinned.
     */
    bool reservePinned(uint64_t bytes);
    void releasePinned(uint64_t bytes);

    /** Bytes of cache capacity currently usable. */
    uint64_t effectiveCapacity() const;

    /** Resident bytes right now. */
    uint64_t residentBytes() const;

    StatSet &stats() { return stats_; }

  private:
    struct Key {
        uint64_t ino;
        uint64_t granule;
    };
    struct Entry {
        std::list<Key>::iterator lruPos;
        bool dirty;
    };
    /** One inode's resident granules plus the index of its dirty ones,
     *  so a sync or a drop touches only that inode's granules. */
    struct InodeGranules {
        std::unordered_map<uint64_t, Entry> granules;
        std::unordered_set<uint64_t> dirty;
    };

    sim::SimContext &sim;
    mutable std::mutex mtx;
    std::unordered_map<uint64_t, InodeGranules> inodes;
    std::list<Key> lru;              // front = most recent
    uint64_t pinnedBytes;
    StatSet stats_;
    Counter &hitBytes;
    Counter &missBytes;
    Counter &evictions;

    uint64_t granuleSize() const { return sim.params.hostCacheGranule; }

    /** Insert/refresh granule @p granule of @p ino (whose granule
     *  set is @p ig); evict LRU victims past capacity.
     *  @return disk-writeback bytes evicted dirty (charged by caller). */
    uint64_t touchLocked(InodeGranules &ig, uint64_t ino, uint64_t granule,
                         bool dirty, bool &was_resident);
};

} // namespace hostfs
} // namespace gpufs

#endif // GPUFS_HOSTFS_PAGE_CACHE_HH
