#include "hostfs/content.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gpufs {
namespace hostfs {

InMemoryContent::InMemoryContent(const std::vector<uint8_t> &initial)
{
    writeLocked(0, initial.size(), initial.data());
}

void
InMemoryContent::readAt(uint64_t offset, uint64_t len, uint8_t *dst)
{
    std::lock_guard<std::mutex> lock(mtx);
    uint64_t n = size_ > offset ? std::min(len, size_ - offset) : 0;
    if (n < len)
        std::memset(dst + n, 0, len - n);
    for (uint64_t pos = offset; pos < offset + n;) {
        uint64_t idx = pos / kChunk;
        uint64_t in = pos % kChunk;
        uint64_t m = std::min(kChunk - in, offset + n - pos);
        const std::vector<uint8_t> &c = chunks[idx];
        uint64_t have = c.size() > in ? std::min<uint64_t>(m, c.size() - in)
                                      : 0;
        if (have > 0)
            std::memcpy(dst + (pos - offset), c.data() + in, have);
        if (have < m)
            std::memset(dst + (pos - offset) + have, 0, m - have);
        pos += m;
    }
}

bool
InMemoryContent::writeAt(uint64_t offset, uint64_t len, const uint8_t *src)
{
    std::lock_guard<std::mutex> lock(mtx);
    writeLocked(offset, len, src);
    return true;
}

void
InMemoryContent::writeLocked(uint64_t offset, uint64_t len,
                             const uint8_t *src)
{
    if (len == 0)
        return;
    size_ = std::max(size_, offset + len);
    uint64_t need = (offset + len + kChunk - 1) / kChunk;
    if (chunks.size() < need)
        chunks.resize(need);
    for (uint64_t pos = offset; pos < offset + len;) {
        uint64_t idx = pos / kChunk;
        uint64_t in = pos % kChunk;
        uint64_t m = std::min(kChunk - in, offset + len - pos);
        std::vector<uint8_t> &c = chunks[idx];
        if (c.size() < in + m) {
            // Grow geometrically, but never past kChunk: appends stay
            // amortized O(1) and no chunk holds more than it may store.
            if (c.capacity() < in + m)
                c.reserve(std::min(kChunk,
                                   std::max<uint64_t>(in + m,
                                                      2 * c.capacity())));
            c.resize(in + m);
        }
        std::memcpy(c.data() + in, src + (pos - offset), m);
        pos += m;
    }
}

void
InMemoryContent::truncate(uint64_t new_size)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (new_size >= size_)
        return;
    size_ = new_size;
    // Chunks wholly past the end go; the last kept chunk drops its
    // tail, so a later grow reads zeros there.
    chunks.resize((new_size + kChunk - 1) / kChunk);
    uint64_t in = new_size % kChunk;
    if (in != 0 && chunks.back().size() > in)
        chunks.back().resize(in);
}

uint64_t
InMemoryContent::footprintBytes()
{
    std::lock_guard<std::mutex> lock(mtx);
    uint64_t total = 0;
    for (const std::vector<uint8_t> &c : chunks)
        total += c.capacity();
    return total;
}

void
SyntheticContent::readAt(uint64_t offset, uint64_t len, uint8_t *dst)
{
    // Never-written files (all read-only workloads) generate without
    // the lock.
    if (!allowOverlay || !written.load(std::memory_order_acquire)) {
        generate(offset, len, dst);
        return;
    }
    // Copy overlay chunks; generate only the gaps between them.
    std::lock_guard<std::mutex> lock(mtx);
    const uint64_t end = offset + len;
    uint64_t gap = offset;      // start of the not-yet-filled range
    for (uint64_t idx = offset / kOverlayChunk; idx * kOverlayChunk < end;
         ++idx) {
        auto it = overlay.find(idx);
        if (it == overlay.end())
            continue;
        uint64_t base = idx * kOverlayChunk;
        uint64_t lo = std::max(base, offset);
        uint64_t hi = std::min(base + kOverlayChunk, end);
        if (gap < lo)
            generate(gap, lo - gap, dst + (gap - offset));
        std::memcpy(dst + (lo - offset), it->second.get() + (lo - base),
                    hi - lo);
        gap = hi;
    }
    if (gap < end)
        generate(gap, end - gap, dst + (gap - offset));
}

bool
SyntheticContent::writeAt(uint64_t offset, uint64_t len, const uint8_t *src)
{
    if (!allowOverlay)
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    uint64_t pos = offset;
    while (pos < offset + len) {
        uint64_t idx = pos / kOverlayChunk;
        uint64_t base = idx * kOverlayChunk;
        std::unique_ptr<uint8_t[]> &chunk = overlay[idx];
        if (!chunk) {
            // New overlay chunk starts as the synthetic content so that
            // partial writes keep surrounding bytes intact.
            chunk.reset(new uint8_t[kOverlayChunk]);
            generate(base, kOverlayChunk, chunk.get());
        }
        uint64_t hi = std::min(base + kOverlayChunk, offset + len);
        std::memcpy(chunk.get() + (pos - base), src + (pos - offset),
                    hi - pos);
        pos = hi;
    }
    written.store(true, std::memory_order_release);
    return true;
}

uint8_t
SyntheticContent::patternByte(uint64_t seed, uint64_t offset)
{
    // One hash per 8-byte lane; byte extracted by position.
    uint64_t lane = offset / 8;
    uint64_t word = hashCombine(seed, lane);
    return static_cast<uint8_t>(word >> ((offset % 8) * 8));
}

std::unique_ptr<SyntheticContent>
SyntheticContent::pattern(uint64_t seed)
{
    auto gen = [seed](uint64_t offset, uint64_t len, uint8_t *dst) {
        uint64_t pos = offset;
        uint64_t end = offset + len;
        // Head: unaligned bytes.
        while (pos < end && pos % 8 != 0) {
            dst[pos - offset] = patternByte(seed, pos);
            ++pos;
        }
        // Body: whole 8-byte lanes.
        while (pos + 8 <= end) {
            uint64_t word = hashCombine(seed, pos / 8);
            std::memcpy(dst + (pos - offset), &word, 8);
            pos += 8;
        }
        // Tail.
        while (pos < end) {
            dst[pos - offset] = patternByte(seed, pos);
            ++pos;
        }
    };
    return std::make_unique<SyntheticContent>(std::move(gen), true);
}

} // namespace hostfs
} // namespace gpufs
