/**
 * @file
 * Per-compile analysis scratch shared by every pass.
 *
 * The scalar pipeline re-derives the same CFG facts (reverse
 * post-order, predecessor lists, dominators, liveness, def-use
 * chains) dozens of times per function, and each derivation used to
 * build fresh containers. A PassScratch owns that storage instead:
 * each pass or analysis keeps a private state struct in it, clears
 * the struct's vectors on entry and refills them, so after the first
 * few functions a compile stops asking the allocator for analysis
 * memory.
 *
 * Ownership: core::compileProgram creates one PassScratch per call
 * and threads it through opt::OptContext; it is freed when the
 * compile returns. It is never global or thread_local, so concurrent
 * compiles (service workers, grid cells) share nothing. Only storage
 * is reused — every analysis is recomputed from the function on each
 * call, never cached across CFG edits.
 */

#ifndef AREGION_IR_SCRATCH_HH
#define AREGION_IR_SCRATCH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "support/bitset.hh"

namespace aregion::ir {

/** Reverse post-order over reachable blocks into a reused buffer
 *  (the order Function::reversePostOrder() returns). */
struct RpoBuffer
{
    std::vector<int> order;
    std::vector<uint8_t> seen;
    std::vector<std::pair<int, size_t>> stack;

    const std::vector<int> &compute(const Function &func);
};

/**
 * Lists of T keyed by a dense int (a block, a vreg) in compressed
 * sparse row form: one offset array and one item array, refilled in
 * place by build(). The list of key k is items[offsets[k] ..
 * offsets[k+1]).
 */
template <class T>
struct Csr
{
    std::vector<int> offsets;   ///< keys + 1
    std::vector<T> items;

    /** Refill for keys [0, keys) from `walk(emit)`, which must call
     *  emit(key, item) for the same pairs in the same order each
     *  time it runs (it runs twice: count, then fill); each list
     *  keeps that order. */
    template <class Walk>
    void
    build(size_t keys, Walk walk)
    {
        offsets.assign(keys + 1, 0);
        walk([&](int key, const T &) {
            offsets[static_cast<size_t>(key) + 1]++;
        });
        for (size_t k = 0; k < keys; ++k)
            offsets[k + 1] += offsets[k];
        items.resize(static_cast<size_t>(offsets[keys]));
        // Fill with the offsets as cursors, then shift them back.
        walk([&](int key, const T &item) {
            items[static_cast<size_t>(
                offsets[static_cast<size_t>(key)]++)] = item;
        });
        for (size_t k = keys; k > 0; --k)
            offsets[k] = offsets[k - 1];
        offsets[0] = 0;
    }

    std::span<const T>
    of(int key) const
    {
        const auto k = static_cast<size_t>(key);
        return {items.data() + offsets[k],
                static_cast<size_t>(offsets[k + 1] - offsets[k])};
    }

    int
    count(int key) const
    {
        const auto k = static_cast<size_t>(key);
        return offsets[k + 1] - offsets[k];
    }
};

/** Predecessor lists of every block, reachable or not; each list is
 *  in the order Function::computePreds() gives. */
struct PredLists : Csr<int>
{
    void compute(const Function &func);
};

/** Per-block bitset rows for the dataflow problems that never run at
 *  the same time: liveness (inside buildSSA and destroySSA, two sets)
 *  and GVN (four sets). They share these rows, so a compile holds one
 *  problem's worth of rows rather than one per analysis. */
struct DataflowRows
{
    std::vector<support::DenseBitset> sets[4];
};

/**
 * Storage for one compile's analyses. Each user asks for its own
 * state type with get<T>(); the first request default-constructs it,
 * later requests return the same object, whose buffers still hold
 * their capacity from the last use. Users reset what they read.
 * The largest states (GVN's tables, SCCP's lattice and def-use
 * lists, SSA construction's per-name arrays; all sized by one
 * function) use getForFunction() instead and live for one scalar
 * pipeline run, so a big function's buffers are not held through
 * the rest of the compile.
 */
class PassScratch
{
  public:
    PassScratch() = default;
    PassScratch(const PassScratch &) = delete;
    PassScratch &operator=(const PassScratch &) = delete;

    template <class T>
    T &
    get()
    {
        const size_t slot = slotOf<T>();
        if (slots.size() <= slot)
            slots.resize(slot + 1);
        auto &held = slots[slot];
        if (!held)
            held = std::make_unique<Holder<T>>();
        return static_cast<Holder<T> &>(*held).value;
    }

    /** get<T>() for a state sized by one function and too large to
     *  keep beside the others: endFunction() frees it. */
    template <class T>
    T &
    getForFunction()
    {
        const size_t slot = slotOf<T>();
        if (perFunction.size() <= slot)
            perFunction.resize(slot + 1, 0);
        perFunction[slot] = 1;
        return get<T>();
    }

    /** Free every getForFunction() state (a function's scalar
     *  pipeline run is over). */
    void
    endFunction()
    {
        for (size_t slot = 0; slot < perFunction.size(); ++slot) {
            if (perFunction[slot] && slot < slots.size())
                slots[slot].reset();
        }
    }

  private:
    struct Base
    {
        virtual ~Base() = default;
    };

    template <class T>
    struct Holder : Base
    {
        T value;
    };

    static size_t
    nextSlot()
    {
        static std::atomic<size_t> counter{0};
        return counter.fetch_add(1);
    }

    template <class T>
    static size_t
    slotOf()
    {
        static const size_t slot = nextSlot();
        return slot;
    }

    std::vector<std::unique_ptr<Base>> slots;
    std::vector<uint8_t> perFunction;   ///< by slot
};

} // namespace aregion::ir

#endif // AREGION_IR_SCRATCH_HH
