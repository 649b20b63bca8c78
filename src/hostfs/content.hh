/**
 * @file
 * File content providers for the simulated host file system.
 *
 * The paper's benchmarks use multi-gigabyte inputs (a 1.8 GB sequential
 * file, a 1 GB random-read file, an 11 GB matrix). Materializing those
 * in RAM would be wasteful and would couple the benchmarks to the test
 * machine's memory size, so the host FS separates the *namespace* from
 * the *bytes*: a ContentProvider produces the bytes of any extent on
 * demand. Procedural (synthetic) providers derive content from a seed
 * and the offset, so a read at offset 10 GB costs the same as one at
 * offset 0 and no storage is needed.
 */

#ifndef GPUFS_HOSTFS_CONTENT_HH
#define GPUFS_HOSTFS_CONTENT_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"

namespace gpufs {
namespace hostfs {

/**
 * Interface producing / accepting the bytes of a host file.
 * All methods are thread safe; the host daemon and CPU-baseline
 * workloads may touch the same file concurrently.
 */
class ContentProvider
{
  public:
    virtual ~ContentProvider() = default;

    /** Copy @p len bytes starting at @p offset into @p dst.
     *  Reads past logical EOF produce zeros (the caller clamps sizes). */
    virtual void readAt(uint64_t offset, uint64_t len, uint8_t *dst) = 0;

    /** Store @p len bytes at @p offset. @return false if read-only. */
    virtual bool writeAt(uint64_t offset, uint64_t len, const uint8_t *src)
        = 0;

    /** True if writeAt() is supported. */
    virtual bool writable() const = 0;
};

/**
 * Heap-backed content, growable; used for all writable files. Bytes
 * live in chunks of up to kChunk bytes, each holding only as much as
 * has been written inside it: a 4 KiB file costs 4 KiB, growth copies
 * at most one chunk, never what is already stored (the daemon's
 * journal grows to GBs), and never-written ranges read as zeros
 * without holding memory.
 */
class InMemoryContent : public ContentProvider
{
  public:
    InMemoryContent() = default;
    explicit InMemoryContent(const std::vector<uint8_t> &initial);

    void readAt(uint64_t offset, uint64_t len, uint8_t *dst) override;
    bool writeAt(uint64_t offset, uint64_t len, const uint8_t *src) override;
    bool writable() const override { return true; }

    /** Drop bytes beyond @p new_size (ftruncate shrink path). */
    void truncate(uint64_t new_size);

    /** Bytes of heap the stored chunks hold (their capacities). */
    uint64_t footprintBytes();

    /** Most bytes one storage chunk holds. */
    static constexpr uint64_t kChunk = 1 << 20;

  private:
    std::mutex mtx;
    uint64_t size_ = 0;
    /** chunks[i] backs the start of [i * kChunk, (i + 1) * kChunk);
     *  bytes past its size read as zeros. */
    std::vector<std::vector<uint8_t>> chunks;

    void writeLocked(uint64_t offset, uint64_t len, const uint8_t *src);
};

/**
 * Procedural content: bytes are a pure function of (seed, offset).
 * Optionally supports sparse overlay writes, so a mostly-synthetic file
 * (e.g. an image database with planted query images) can be patched.
 */
class SyntheticContent : public ContentProvider
{
  public:
    /** Generator filling dst[0..len) with the bytes at [offset, offset+len). */
    using Generator =
        std::function<void(uint64_t offset, uint64_t len, uint8_t *dst)>;

    SyntheticContent(Generator gen, bool allow_overlay_writes = false)
        : generate(std::move(gen)), allowOverlay(allow_overlay_writes) {}

    void readAt(uint64_t offset, uint64_t len, uint8_t *dst) override;
    bool writeAt(uint64_t offset, uint64_t len, const uint8_t *src) override;
    bool writable() const override { return allowOverlay; }

    /** A provider whose every byte is hash(seed, offset-block): fast to
     *  generate, verifiable at any offset. */
    static std::unique_ptr<SyntheticContent> pattern(uint64_t seed);

    /** Compute the pattern byte a pattern(seed) provider yields at
     *  @p offset (for verification in tests). */
    static uint8_t patternByte(uint64_t seed, uint64_t offset);

  private:
    Generator generate;
    bool allowOverlay;
    std::mutex mtx;
    // Sparse overlay: 64 KiB chunks that have been written, by index.
    static constexpr uint64_t kOverlayChunk = 64 * 1024;
    std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> overlay;
    /** Set (under mtx) by the first overlay write; until then readAt
     *  generates without taking the lock. */
    std::atomic<bool> written{false};
};

} // namespace hostfs
} // namespace gpufs

#endif // GPUFS_HOSTFS_CONTENT_HH
