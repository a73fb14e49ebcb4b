#include "hw/cache.hh"

#include <sys/mman.h>

#include <bit>
#include <new>

#include "support/logging.hh"

namespace aregion::hw {

Cache::WayArray
Cache::mapWays(int num_lines, int assoc)
{
    AREGION_ASSERT(num_lines % assoc == 0, "lines not divisible");
    AREGION_ASSERT(num_lines / assoc > 0, "empty cache");
    const size_t bytes = static_cast<size_t>(num_lines) * sizeof(Way);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return WayArray(static_cast<Way *>(p), UnmapWays{bytes});
}

Cache::Cache(int num_lines, int assoc_)
    : assoc(assoc_), numSets(num_lines / assoc_),
      ways(mapWays(num_lines, assoc_))
{
    const auto sets = static_cast<uint64_t>(numSets);
    setsPow2 = (sets & (sets - 1)) == 0;
    setMask = sets - 1;
}

void
Cache::UnmapWays::operator()(Way *p) const
{
    munmap(p, bytes);
}

bool
Cache::access(uint64_t line)
{
    const uint64_t tag = line + 1;
    ++clock;
    const size_t set = setOf(line);
    Way *lru = nullptr;
    for (int w = 0; w < assoc; ++w) {
        Way &way = ways[set * static_cast<size_t>(assoc) +
                        static_cast<size_t>(w)];
        if (way.tag == tag) {
            way.lastUse = clock;
            ++hits;
            return true;
        }
        if (!lru || way.lastUse < lru->lastUse)
            lru = &way;
    }
    ++misses;
    lru->tag = tag;
    lru->lastUse = clock;
    return false;
}

void
Cache::install(uint64_t line)
{
    const uint64_t tag = line + 1;
    ++clock;
    const size_t set = setOf(line);
    Way *lru = nullptr;
    for (int w = 0; w < assoc; ++w) {
        Way &way = ways[set * static_cast<size_t>(assoc) +
                        static_cast<size_t>(w)];
        if (way.tag == tag) {
            way.lastUse = clock;
            return;
        }
        if (!lru || way.lastUse < lru->lastUse)
            lru = &way;
    }
    lru->tag = tag;
    lru->lastUse = clock;
}

CacheHierarchy::CacheHierarchy(int l1_lines, int l1_assoc,
                               int l2_lines, int l2_assoc, int l1_lat,
                               int l2_lat, int mem_lat, bool prefetch_)
    : l1(l1_lines, l1_assoc), l2(l2_lines, l2_assoc), l1Lat(l1_lat),
      l2Lat(l2_lat), memLat(mem_lat), prefetch(prefetch_)
{
}

int
CacheHierarchy::accessLatency(uint64_t word_addr, int line_words)
{
    const uint64_t line = lineOf(word_addr, line_words);
    if (l1.access(line))
        return l1Lat;
    // Stream prefetch: a second consecutive miss line pulls the next
    // line into both levels.
    if (prefetch) {
        if (line == lastMissLine + 1) {
            l1.install(line + 1);
            l2.install(line + 1);
        }
        lastMissLine = line;
    }
    if (l2.access(line))
        return l2Lat;
    return memLat;
}

} // namespace aregion::hw
