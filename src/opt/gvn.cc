/**
 * @file
 * Sparse global value numbering over SSA form.
 *
 * This is the successor of the available-expression CSE pass and
 * keeps its decision procedure: an occurrence is redundant only if
 * the same expression was computed on EVERY path reaching it with no
 * intervening kill (meet = intersection). That property is the
 * paper's lever — cold join edges block the optimization in baseline
 * code, and replacing them with Asserts (no control-flow join) lets
 * this very pass perform the speculative optimizations.
 *
 * What changed is the cost model. The old pass re-simulated every
 * predecessor block instruction-by-instruction for every dataflow
 * query, which is quadratic in block size and was the dominant
 * compile-time term on the bench workloads. Here expressions are
 * hash-consed into dense ids once, each block's GEN/KILL bitvectors
 * are precomputed in one scan, and the fixpoint iterates pure
 * bitvector transfer functions. Redundant occurrences are then
 * rewritten in a single forward walk: SSA names make register kills
 * impossible, and instead of the old "home temp" convention (compute
 * into a shared temp in every arm, copy out) the walk materialises
 * the reaching value directly, inserting a phi at joins whose arms
 * provide it under different names. destroySSA's coalescer folds
 * those phis back into the home-temp shape when registers allow.
 *
 * Kill classes are unchanged and encode the isolation guarantee:
 * stores kill field/element/slot-matching loads (with store-to-load
 * forwarding), calls and region boundaries kill all loads, monitor
 * operations inside a region kill only the lock word, safepoints
 * kill loads only outside regions, allocations kill nothing.
 */

#include "opt/pass.hh"

#include <algorithm>
#include <array>
#include <span>
#include <tuple>

#include "ir/scratch.hh"
#include "support/bitset.hh"
#include "support/logging.hh"
#include "vm/layout.hh"

namespace aregion::opt {

using namespace aregion::ir;
using support::DenseBitset;

namespace {

/** Canonical key identifying a syntactic expression. Sources are
 *  stored inline: every numbered op is unary or binary (the widest
 *  are binary arithmetic, LoadElem and BoundsCheck), so keys never
 *  touch the heap. */
struct ExprKey
{
    Op op = Op::Const;
    uint8_t nsrcs = 0;
    int aux = 0;
    int64_t imm = 0;
    std::array<Vreg, 2> srcs{};
};

/** Non-owning view of an ExprKey. Lookups happen once per
 *  instruction per episode, so the view keeps the hit path
 *  allocation-free: the owning key is only materialised when an
 *  expression enters the universe. */
struct ExprRef
{
    Op op = Op::Const;
    const Vreg *srcs = nullptr;
    size_t nsrcs = 0;
    int64_t imm = 0;
    int aux = 0;
};

/** FNV-1a over an expression's fields. */
size_t
hashExpr(const ExprRef &r)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(r.op));
    mix(static_cast<uint64_t>(r.imm));
    mix(static_cast<uint64_t>(r.aux));
    for (size_t i = 0; i < r.nsrcs; ++i)
        mix(static_cast<uint64_t>(r.srcs[i]));
    return static_cast<size_t>(h);
}

bool
sameExpr(const ExprKey &k, const ExprRef &r)
{
    return k.op == r.op && k.imm == r.imm && k.aux == r.aux &&
           k.nsrcs == r.nsrcs &&
           std::equal(k.srcs.data(), k.srcs.data() + k.nsrcs, r.srcs);
}

bool
isCommutative(Op op)
{
    switch (op) {
      case Op::Add: case Op::Mul: case Op::And: case Op::Or:
      case Op::Xor: case Op::CmpEq: case Op::CmpNe:
        return true;
      default:
        return false;
    }
}

/** Is this op an expression we number? */
bool
isExpr(Op op)
{
    if (isPureValue(op) && op != Op::Const && op != Op::Mov &&
        op != Op::Phi) {
        return true;
    }
    if (isLoad(op))
        return true;
    if (isCheck(op))
        return true;
    return op == Op::Assert;
}

/** View of `in`'s canonical key. `swapped` is caller-provided
 *  storage for the commutative-operand normalization (the view may
 *  alias it, so it must outlive the returned ref). */
ExprRef
refOf(const Instr &in, Vreg (&swapped)[2])
{
    ExprRef ref;
    ref.op = in.op;
    ref.srcs = in.srcs.data();
    ref.nsrcs = in.srcs.size();
    switch (in.op) {
      case Op::LoadField:
      case Op::LoadSubtype:
        ref.aux = in.aux;
        break;
      case Op::LoadRaw:
        ref.imm = in.imm;
        break;
      case Op::Assert:
        // Asserts with the same condition and polarity are
        // interchangeable even when their abort ids differ.
        ref.imm = in.imm;
        break;
      default:
        break;
    }
    if (isCommutative(in.op) && ref.nsrcs == 2 &&
        ref.srcs[0] > ref.srcs[1]) {
        swapped[0] = ref.srcs[1];
        swapped[1] = ref.srcs[0];
        ref.srcs = swapped;
    }
    return ref;
}

/** A load expression's kill class: stores of one field / any element
 *  / one raw slot kill exactly the loads of the matching class. */
struct LoadClass
{
    Op op;              ///< LoadField, LoadElem or LoadRaw
    int64_t key;        ///< field index, 0, or raw offset
    int id;

    bool
    operator<(const LoadClass &o) const
    {
        return std::tie(op, key, id) < std::tie(o.op, o.key, o.id);
    }
};

/** Hash-consed expression universe (open addressing over expression
 *  ids) with the loads sorted by kill class. */
struct Universe
{
    std::vector<ExprKey> exprs;
    std::vector<int> slots;         ///< expression id, -1 = empty
    std::vector<LoadClass> loads;   ///< sorted once interning ends

    /** Empty the universe, with room for `expected` entries before
     *  the table has to grow. */
    void
    reset(size_t expected)
    {
        exprs.clear();
        loads.clear();
        size_t cap = 16;
        while (cap < 2 * expected)
            cap *= 2;
        slots.assign(cap, -1);
    }

    /** Slot of `ref`: its entry, or the empty slot it belongs in. */
    size_t
    find(const ExprRef &ref) const
    {
        const size_t mask = slots.size() - 1;
        size_t i = hashExpr(ref) & mask;
        while (slots[i] >= 0 &&
               !sameExpr(exprs[static_cast<size_t>(slots[i])], ref)) {
            i = (i + 1) & mask;
        }
        return i;
    }

    int
    intern(const ExprRef &ref)
    {
        size_t i = find(ref);
        if (slots[i] >= 0)
            return slots[i];
        AREGION_ASSERT(ref.nsrcs <= 2,
                       "numbered expressions are at most binary");
        if (2 * (exprs.size() + 1) > slots.size()) {
            // Keep the load factor at or below one half.
            slots.assign(2 * slots.size(), -1);
            for (const ExprKey &k : exprs) {
                const ExprRef old{k.op, k.srcs.data(), k.nsrcs, k.imm,
                                  k.aux};
                slots[find(old)] = static_cast<int>(&k - exprs.data());
            }
            i = find(ref);
        }
        ExprKey key;
        key.op = ref.op;
        key.nsrcs = static_cast<uint8_t>(ref.nsrcs);
        for (size_t k = 0; k < ref.nsrcs; ++k)
            key.srcs[k] = ref.srcs[k];
        key.imm = ref.imm;
        key.aux = ref.aux;
        const int id = static_cast<int>(exprs.size());
        exprs.push_back(key);
        slots[i] = id;
        switch (key.op) {
          case Op::LoadField:
            loads.push_back({key.op, key.aux, id});
            break;
          case Op::LoadElem:
            loads.push_back({key.op, 0, id});
            break;
          case Op::LoadRaw:
            loads.push_back({key.op, key.imm, id});
            break;
          default:
            break;
        }
        return id;
    }

    int
    idOf(const Instr &in)
    {
        Vreg swapped[2];
        return intern(refOf(in, swapped));
    }

    /** Load ids of one kill class, ascending. */
    std::span<const LoadClass>
    loadsOf(Op op, int64_t key) const
    {
        const auto range = std::equal_range(
            loads.begin(), loads.end(), LoadClass{op, key, 0},
            [](const LoadClass &a, const LoadClass &b) {
                return std::tie(a.op, a.key) < std::tie(b.op, b.key);
            });
        return {range.first, range.second};
    }
};

/**
 * Expression ids killed by the side effects of one instruction.
 * "Kills every load" is the common and potentially huge case (calls,
 * region boundaries), so it is reported through `kills_all_loads`
 * rather than materialised — callers apply a precomputed load-id
 * bitmask instead of walking an id list per call site.
 */
void
memoryKills(const Instr &in, bool in_region, const Universe &uni,
            std::vector<int> &out, bool &kills_all_loads)
{
    out.clear();
    kills_all_loads = false;
    auto addAll = [&](std::span<const LoadClass> loads) {
        for (const LoadClass &l : loads)
            out.push_back(l.id);
    };
    switch (in.op) {
      case Op::StoreField:
        addAll(uni.loadsOf(Op::LoadField, in.aux));
        break;
      case Op::StoreElem:
        addAll(uni.loadsOf(Op::LoadElem, 0));
        break;
      case Op::StoreRaw:
        addAll(uni.loadsOf(Op::LoadRaw, in.imm));
        break;
      case Op::CallStatic:
      case Op::CallVirtual:
      case Op::Spawn:
      case Op::AtomicBegin:
      case Op::AtomicEnd:
        kills_all_loads = true;
        break;
      case Op::MonitorEnter:
      case Op::MonitorExit:
        if (in_region) {
            // Isolation: within a region only the lock word itself
            // is written.
            addAll(uni.loadsOf(Op::LoadRaw, vm::layout::HDR_LOCK));
        } else {
            kills_all_loads = true;
        }
        break;
      case Op::Safepoint:
        if (!in_region)
            kills_all_loads = true;
        break;
      case Op::NewObject:
      case Op::NewArray:
        // Fresh memory: existing loads unaffected.
        break;
      default:
        break;
    }
}

/** Store-to-load forwarding: the load expression this store makes
 *  available (value held in a source vreg), or -1. */
int
forwardedExpr(const Instr &in, Universe &uni, Vreg &value_out)
{
    Vreg buf[2];
    ExprRef ref;
    ref.srcs = buf;
    switch (in.op) {
      case Op::StoreField:
        ref.op = Op::LoadField;
        buf[0] = in.s0();
        ref.nsrcs = 1;
        ref.aux = in.aux;
        value_out = in.s1();
        break;
      case Op::StoreElem:
        ref.op = Op::LoadElem;
        buf[0] = in.s0();
        buf[1] = in.s1();
        ref.nsrcs = 2;
        value_out = in.s2();
        break;
      case Op::StoreRaw:
        ref.op = Op::LoadRaw;
        buf[0] = in.s0();
        ref.nsrcs = 1;
        ref.imm = in.imm;
        value_out = in.s1();
        break;
      default:
        return -1;
    }
    return uni.intern(ref);
}

/** Providers (expression -> name) valid at one program point: a dense
 *  name per expression plus the list of expressions ever set, so
 *  clearing costs what was set rather than the universe size. */
struct ProviderSet
{
    std::vector<Vreg> name;     ///< NO_VREG = no provider
    std::vector<uint8_t> listed;
    std::vector<int> touched;

    void
    reset(size_t n)
    {
        name.assign(n, NO_VREG);
        listed.assign(n, 0);
        touched.clear();
    }

    void
    set(int e, Vreg v)
    {
        if (!listed[static_cast<size_t>(e)]) {
            listed[static_cast<size_t>(e)] = 1;
            touched.push_back(e);
        }
        name[static_cast<size_t>(e)] = v;
    }

    void kill(int e) { name[static_cast<size_t>(e)] = NO_VREG; }

    /** Drop every load provider. */
    void
    killLoads(const std::vector<uint8_t> &is_load)
    {
        for (int e : touched) {
            if (is_load[static_cast<size_t>(e)])
                kill(e);
        }
    }

    /** Empty the set (touched entries only). */
    void
    clear()
    {
        for (int e : touched) {
            kill(e);
            listed[static_cast<size_t>(e)] = 0;
        }
        touched.clear();
    }
};

/** One numbering/rewriting episode over a function. The object lives
 *  in the compile's PassScratch for one scalar pipeline run
 *  (getForFunction) and is reused by that run's gvn() calls: run()
 *  resets each buffer it reads. */
struct Gvn
{
    Function *fn = nullptr;
    Universe uni;
    RpoBuffer rpoBuf;
    PredLists preds;
    std::vector<uint8_t> reachable;
    size_t n = 0;                       // expression universe size

    /** Per-block sets, borrowed from the compile's DataflowRows:
     *  generated & live at block end, killed at any point in the
     *  block, available at entry, and available at exit (maintained
     *  with availIn). */
    DataflowRows *rows = nullptr;
    DenseBitset merged, avail;
    /** Interned ids aligned with instruction order, flat across the
     *  function (instruction i of block b lives at blockBase[b]+i),
     *  so the universe map is consulted once per instruction: the
     *  expression id (-1 if not numbered) and the store-forwarded
     *  load id (-1) with its value vreg. */
    std::vector<int> blockBase;
    std::vector<int> exprIds;
    std::vector<int> fwdIds;
    std::vector<Vreg> fwdVals;
    /** Kill lists recorded once by computeLocal and replayed by
     *  rewrite: killOff[g]..killOff[g+1] indexes killDat for the
     *  instruction at flat index g (contiguous because both walks
     *  visit blocks in the same RPO). A -1 entry is the "kills every
     *  load" sentinel, applied with `loadsMask` instead of a list. */
    std::vector<int> killOff;
    std::vector<int> killDat;
    std::vector<int> kills;
    DenseBitset loadsMask;              // every load id (no LoadSubtype)
    std::vector<uint8_t> isLoadId;      // indexed by expression id
    /** Last provider name per (block, expr) still valid at block
     *  end: block b's (expr, name) pairs, sorted by expr, are
     *  provEnd[provOff[b] .. provOff[b+1]). */
    std::vector<int> provOff;
    std::vector<std::pair<int, Vreg>> provEnd;
    /** Providers within the block being scanned or rewritten. */
    ProviderSet local;
    /** Memoized provider valid at block entry, per block. */
    std::vector<std::vector<std::pair<int, Vreg>>> provInMemo;
    /** Phis synthesized for join providers, prepended at the end. */
    std::vector<std::vector<Instr>> pendingPhis;
    /** dst of a deleted occurrence -> the name that replaced it. */
    std::vector<Vreg> replacedBy;

    DenseBitset &row(int set, int b)
    {
        return rows->sets[set][static_cast<size_t>(b)];
    }
    DenseBitset &genEnd(int b) { return row(0, b); }
    DenseBitset &killAny(int b) { return row(1, b); }
    DenseBitset &availIn(int b) { return row(2, b); }
    DenseBitset &availOut(int b) { return row(3, b); }

    bool run(Function &func, DataflowRows &dataflow_rows);
    void computeLocal();
    void solveAvail();
    bool rewrite();
    Vreg providerIn(int b, int e);
    Vreg providerOut(int p, int e);
};

void
Gvn::computeLocal()
{
    Function &func = *fn;
    const auto nb = static_cast<size_t>(func.numBlocks());
    support::resetRows(rows->sets[0], nb, n);
    support::resetRows(rows->sets[1], nb, n);
    provOff.assign(nb + 1, 0);
    provEnd.clear();
    local.reset(n);
    killOff.clear();
    killOff.push_back(0);
    killDat.clear();
    for (int b : rpoBuf.order) {
        Block &blk = func.block(b);
        const bool in_region = blk.regionId >= 0;
        DenseBitset &gen = genEnd(b);
        DenseBitset &kill = killAny(b);
        const auto base =
            static_cast<size_t>(blockBase[static_cast<size_t>(b)]);
        for (size_t i = 0; i < blk.instrs.size(); ++i) {
            const Instr &in = blk.instrs[i];
            const int e = exprIds[base + i];
            if (e >= 0) {
                gen.set(static_cast<size_t>(e));
                kill.clear(static_cast<size_t>(e));
                if (in.dst != NO_VREG)
                    local.set(e, in.dst);
            }
            bool kills_all = false;
            memoryKills(in, in_region, uni, kills, kills_all);
            if (kills_all) {
                kill.unite(loadsMask);
                gen.subtract(loadsMask);
                local.killLoads(isLoadId);
                killDat.push_back(-1);
            } else {
                for (int k : kills) {
                    kill.set(static_cast<size_t>(k));
                    gen.clear(static_cast<size_t>(k));
                    local.kill(k);
                }
                killDat.insert(killDat.end(), kills.begin(),
                               kills.end());
            }
            killOff.push_back(static_cast<int>(killDat.size()));
            const int f = fwdIds[base + i];
            if (f >= 0) {
                gen.set(static_cast<size_t>(f));
                kill.clear(static_cast<size_t>(f));
                local.set(f, fwdVals[base + i]);
            }
        }
        // Freeze the block-end providers, sorted for lookup.
        const size_t from = provEnd.size();
        for (int e : local.touched) {
            const Vreg v = local.name[static_cast<size_t>(e)];
            if (v != NO_VREG)
                provEnd.emplace_back(e, v);
        }
        std::sort(provEnd.begin() + static_cast<long>(from),
                  provEnd.end());
        provOff[static_cast<size_t>(b) + 1] =
            static_cast<int>(provEnd.size() - from);
        local.clear();
    }
    for (size_t b = 0; b < nb; ++b)
        provOff[b + 1] += provOff[b];
}

void
Gvn::solveAvail()
{
    Function &func = *fn;
    const auto nb = static_cast<size_t>(func.numBlocks());
    support::resetRows(rows->sets[2], nb, n);
    support::resetRows(rows->sets[3], nb, n);
    // Out-sets are maintained alongside in-sets so the fixpoint loop
    // never recomputes (or reallocates) a predecessor's transfer.
    auto flowOut = [&](int b) {
        DenseBitset &out = availOut(b);
        out = availIn(b);
        out.subtract(killAny(b));
        out.unite(genEnd(b));
    };
    const std::vector<int> &rpo = rpoBuf.order;
    for (int b : rpo) {
        if (b != func.entry)
            availIn(b).setAll();
        flowOut(b);
    }
    merged.reset(n);
    bool dirty = true;
    while (dirty) {
        dirty = false;
        for (int b : rpo) {
            if (b == func.entry)
                continue;
            merged.setAll();
            bool any = false;
            for (int p : preds.of(b)) {
                if (!reachable[static_cast<size_t>(p)])
                    continue;
                merged.intersect(availOut(p));
                any = true;
            }
            if (!any)
                merged.reset();
            if (!(merged == availIn(b))) {
                availIn(b) = merged;
                flowOut(b);
                dirty = true;
            }
        }
    }
}

/** Name holding expression e at the end of block p. */
Vreg
Gvn::providerOut(int p, int e)
{
    const auto first = provEnd.begin() + provOff[static_cast<size_t>(p)];
    const auto last =
        provEnd.begin() + provOff[static_cast<size_t>(p) + 1];
    const auto it = std::lower_bound(first, last,
                                     std::pair<int, Vreg>{e, NO_VREG});
    if (it != last && it->first == e)
        return it->second;
    return providerIn(p, e);
}

/** Name holding expression e at the entry of block b; inserts a phi
 *  when the predecessors provide it under different names. */
Vreg
Gvn::providerIn(int b, int e)
{
    auto &memo = provInMemo[static_cast<size_t>(b)];
    for (const auto &[me, mv] : memo) {
        if (me == e)
            return mv;
    }

    // Reachable pred edges, with multiplicity.
    int first = -1;
    int edges = 0;
    bool single = true;
    for (int p : preds.of(b)) {
        if (!reachable[static_cast<size_t>(p)])
            continue;
        if (edges++ == 0)
            first = p;
        single &= p == first;
    }
    AREGION_ASSERT(edges > 0,
                   "gvn provider requested at the entry block");
    if (single) {
        const Vreg v = providerOut(first, e);
        memo.emplace_back(e, v);
        return v;
    }
    // Join: materialise a phi. Memoize its name first so a cycle
    // through a loop back edge resolves to the phi itself.
    const Vreg dst = fn->newVreg();
    memo.emplace_back(e, dst);
    Instr phi;
    phi.op = Op::Phi;
    phi.dst = dst;
    phi.srcs.reserve(static_cast<size_t>(edges));
    phi.phiBlocks.reserve(static_cast<size_t>(edges));
    for (int p : preds.of(b)) {
        if (!reachable[static_cast<size_t>(p)])
            continue;
        phi.srcs.push_back(providerOut(p, e));
        phi.phiBlocks.push_back(p);
    }
    pendingPhis[static_cast<size_t>(b)].push_back(std::move(phi));
    return dst;
}

bool
Gvn::rewrite()
{
    Function &func = *fn;
    bool changed = false;
    local.reset(n);
    for (int b : rpoBuf.order) {
        std::vector<Instr> &instrs = func.block(b).instrs;
        avail = availIn(b);
        const auto base =
            static_cast<size_t>(blockBase[static_cast<size_t>(b)]);
        size_t kept = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            Instr &in = instrs[i];
            if (exprIds[base + i] >= 0) {
                const int e = exprIds[base + i];
                if (avail.test(static_cast<size_t>(e))) {
                    changed = true;
                    if (in.dst != NO_VREG) {
                        const Vreg here =
                            local.name[static_cast<size_t>(e)];
                        const Vreg prov = here != NO_VREG
                                              ? here
                                              : providerIn(b, e);
                        replacedBy[static_cast<size_t>(in.dst)] =
                            prov;
                        // Keep the provider for later occurrences.
                        local.set(e, prov);
                    }
                    continue;   // redundant check/assert/value
                }
                avail.set(static_cast<size_t>(e));
                if (in.dst != NO_VREG)
                    local.set(e, in.dst);
            }
            for (int j = killOff[base + i]; j < killOff[base + i + 1];
                 ++j) {
                const int k = killDat[static_cast<size_t>(j)];
                if (k < 0) {    // kills-every-load sentinel
                    avail.subtract(loadsMask);
                    local.killLoads(isLoadId);
                    continue;
                }
                avail.clear(static_cast<size_t>(k));
                local.kill(k);
            }
            const int f = fwdIds[base + i];
            if (f >= 0) {
                avail.set(static_cast<size_t>(f));
                local.set(f, fwdVals[base + i]);
            }
            if (kept != i)
                instrs[kept] = std::move(in);
            ++kept;
        }
        instrs.erase(instrs.begin() + static_cast<long>(kept),
                     instrs.end());
        local.clear();
    }
    return changed;
}

bool
Gvn::run(Function &func, DataflowRows &dataflow_rows)
{
    fn = &func;
    rows = &dataflow_rows;
    const auto nb = static_cast<size_t>(func.numBlocks());
    const std::vector<int> &rpo = rpoBuf.compute(func);
    preds.compute(func);
    reachable.assign(nb, 0);
    for (int b : rpo)
        reachable[static_cast<size_t>(b)] = 1;

    blockBase.assign(nb, 0);
    size_t total_instrs = 0;
    for (int b : rpo) {
        blockBase[static_cast<size_t>(b)] =
            static_cast<int>(total_instrs);
        total_instrs += func.block(b).instrs.size();
    }
    uni.reset(total_instrs);
    exprIds.resize(total_instrs);
    fwdIds.resize(total_instrs);
    fwdVals.resize(total_instrs);
    for (int b : rpo) {
        const Block &blk = func.block(b);
        size_t g = static_cast<size_t>(blockBase[static_cast<size_t>(b)]);
        for (const Instr &in : blk.instrs) {
            exprIds[g] = isExpr(in.op) ? uni.idOf(in) : -1;
            Vreg fwd_value = NO_VREG;
            fwdIds[g] = forwardedExpr(in, uni, fwd_value);
            fwdVals[g] = fwd_value;
            ++g;
        }
    }
    n = uni.exprs.size();
    if (n == 0)
        return false;

    std::sort(uni.loads.begin(), uni.loads.end());
    loadsMask.reset(n);
    isLoadId.assign(n, 0);
    for (const LoadClass &l : uni.loads) {
        loadsMask.set(static_cast<size_t>(l.id));
        isLoadId[static_cast<size_t>(l.id)] = 1;
    }

    if (pendingPhis.size() < nb)
        pendingPhis.resize(nb);
    if (provInMemo.size() < nb)
        provInMemo.resize(nb);
    for (size_t b = 0; b < nb; ++b) {
        pendingPhis[b].clear();
        provInMemo[b].clear();
    }
    replacedBy.assign(static_cast<size_t>(func.numVregs()), NO_VREG);

    computeLocal();
    solveAvail();
    if (!rewrite())
        return false;

    // Splice in the provider phis, then route every operand through
    // the replacement map (a deleted occurrence's name may feed
    // other deleted occurrences, so chase chains). Back-edge phi
    // inputs are only fixed up here, which is why this runs after
    // the whole walk.
    for (int b : rpo) {
        auto &pend = pendingPhis[static_cast<size_t>(b)];
        if (pend.empty())
            continue;
        Block &blk = func.block(b);
        blk.instrs.insert(blk.instrs.begin(),
                          std::make_move_iterator(pend.begin()),
                          std::make_move_iterator(pend.end()));
        pend.clear();
    }
    auto resolve = [&](Vreg v) {
        while (v < static_cast<Vreg>(replacedBy.size()) &&
               replacedBy[static_cast<size_t>(v)] != NO_VREG) {
            v = replacedBy[static_cast<size_t>(v)];
        }
        return v;
    };
    for (int b : rpo) {
        for (Instr &in : func.block(b).instrs) {
            for (Vreg &s : in.srcs)
                s = resolve(s);
        }
    }
    return true;
}

} // namespace

bool
gvn(Function &func)
{
    PassScratch scratch;
    return gvn(func, scratch);
}

bool
gvn(Function &func, PassScratch &scratch)
{
    AREGION_ASSERT(func.ssaForm, "gvn requires SSA form");
    return scratch.getForFunction<Gvn>().run(
        func, scratch.get<DataflowRows>());
}

} // namespace aregion::opt
