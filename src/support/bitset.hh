/**
 * @file
 * Dense fixed-width bitset used by the dataflow passes (liveness,
 * available-value sets). Word-parallel set algebra only — no
 * iteration helpers beyond test(), because the passes that need to
 * enumerate members keep their own side indexes.
 */

#ifndef AREGION_SUPPORT_BITSET_HH
#define AREGION_SUPPORT_BITSET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aregion::support {

class DenseBitset
{
  public:
    explicit DenseBitset(size_t bits = 0)
        : words((bits + 63) / 64, 0), numBits(bits)
    {
    }

    /** Resize to `bits` bits, all clear, reusing the word storage
     *  when it is already large enough. */
    void
    reset(size_t bits)
    {
        words.assign((bits + 63) / 64, 0);
        numBits = bits;
    }

    void set(size_t i) { words[i / 64] |= 1ull << (i % 64); }
    void clear(size_t i) { words[i / 64] &= ~(1ull << (i % 64)); }
    bool test(size_t i) const { return words[i / 64] >> (i % 64) & 1; }

    size_t size() const { return numBits; }

    void
    setAll()
    {
        for (auto &w : words)
            w = ~0ull;
        trim();
    }

    void
    reset()
    {
        for (auto &w : words)
            w = 0;
    }

    void
    intersect(const DenseBitset &o)
    {
        for (size_t i = 0; i < words.size(); ++i)
            words[i] &= o.words[i];
    }

    void
    subtract(const DenseBitset &o)
    {
        for (size_t i = 0; i < words.size(); ++i)
            words[i] &= ~o.words[i];
    }

    /** this |= o; returns true if any bit changed. */
    bool
    unite(const DenseBitset &o)
    {
        bool changed = false;
        for (size_t i = 0; i < words.size(); ++i) {
            const uint64_t next = words[i] | o.words[i];
            changed |= next != words[i];
            words[i] = next;
        }
        return changed;
    }

    bool
    operator==(const DenseBitset &o) const
    {
        return words == o.words;
    }

  private:
    void
    trim()
    {
        if (numBits % 64 && !words.empty())
            words.back() &= (1ull << (numBits % 64)) - 1;
    }

    std::vector<uint64_t> words;
    size_t numBits = 0;
};

/** Size the first `n` rows to `bits` clear bits. The row vector
 *  grows but never shrinks, so every row keeps its storage for the
 *  next, possibly larger, problem. */
inline void
resetRows(std::vector<DenseBitset> &rows, size_t n, size_t bits)
{
    if (rows.size() < n)
        rows.resize(n);
    for (size_t i = 0; i < n; ++i)
        rows[i].reset(bits);
}

} // namespace aregion::support

#endif // AREGION_SUPPORT_BITSET_HH
