#include "ir/ssa.hh"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "ir/dominators.hh"
#include "ir/scratch.hh"
#include "support/bitset.hh"

namespace aregion::ir {

using support::DenseBitset;

namespace {

/** Number of leading Phi instructions in a block. */
size_t
phiCount(const Block &blk)
{
    size_t n = 0;
    while (n < blk.instrs.size() && blk.instrs[n].op == Op::Phi)
        ++n;
    return n;
}

/**
 * Liveness over vregs. Phi semantics: a phi's source for predecessor
 * P is a use at the *end of P* (not a live-in of the phi's block),
 * and a phi's dst is an ordinary def at the head of its block. This
 * is the convention under which SSA interference is exact; for
 * non-SSA functions (no phis) it degenerates to textbook liveness.
 * The rows are borrowed from the compile's DataflowRows and stay
 * valid until the next analysis refills them.
 */
struct Liveness
{
    const std::vector<DenseBitset> *liveIn = nullptr;
    const std::vector<DenseBitset> *liveOut = nullptr;
    /** Per block: upward-exposed uses, defs, and phi-edge uses (for
     *  each pred block, the names its outgoing edges feed into
     *  successor phis). Sparse lists: only the two result sets need
     *  a full row per block. */
    Csr<Vreg> uses, defs, edgeUses;
    std::vector<int> defStamp;      ///< block that last defined a name
    DenseBitset out, in;
    RpoBuffer rpo;

    bool
    isLiveIn(int b, Vreg v) const
    {
        return (*liveIn)[static_cast<size_t>(b)].test(
            static_cast<size_t>(v));
    }

    bool
    isLiveOut(int b, Vreg v) const
    {
        return (*liveOut)[static_cast<size_t>(b)].test(
            static_cast<size_t>(v));
    }

    void
    compute(const Function &func, DataflowRows &rows)
    {
        const auto nb = static_cast<size_t>(func.numBlocks());
        const size_t nv = static_cast<size_t>(func.numVregs());
        uses.build(nb, [&](auto &&emit) {
            defStamp.assign(nv, -1);
            for (int b = 0; b < func.numBlocks(); ++b) {
                for (const Instr &in : func.block(b).instrs) {
                    if (in.op != Op::Phi) {
                        for (Vreg s : in.srcs) {
                            if (defStamp[static_cast<size_t>(s)] != b)
                                emit(b, s);
                        }
                    }
                    if (in.dst != NO_VREG)
                        defStamp[static_cast<size_t>(in.dst)] = b;
                }
            }
        });
        defs.build(nb, [&](auto &&emit) {
            for (int b = 0; b < func.numBlocks(); ++b) {
                for (const Instr &in : func.block(b).instrs) {
                    if (in.dst != NO_VREG)
                        emit(b, in.dst);
                }
            }
        });
        edgeUses.build(nb, [&](auto &&emit) {
            for (int b = 0; b < func.numBlocks(); ++b) {
                for (const Instr &in : func.block(b).instrs) {
                    if (in.op != Op::Phi)
                        continue;
                    for (size_t i = 0; i < in.srcs.size(); ++i)
                        emit(in.phiBlocks[i], in.srcs[i]);
                }
            }
        });

        std::vector<DenseBitset> &live_in = rows.sets[0];
        std::vector<DenseBitset> &live_out = rows.sets[1];
        support::resetRows(live_in, nb, nv);
        support::resetRows(live_out, nb, nv);
        liveIn = &live_in;
        liveOut = &live_out;

        // Backward fixpoint over reverse RPO:
        // out = edge uses + live-in of succs, in = out - defs + uses.
        const std::vector<int> &order = rpo.compute(func);
        bool dirty = true;
        while (dirty) {
            dirty = false;
            for (auto it = order.rbegin(); it != order.rend(); ++it) {
                const int b = *it;
                const auto bi = static_cast<size_t>(b);
                out.reset(nv);
                for (Vreg v : edgeUses.of(b))
                    out.set(static_cast<size_t>(v));
                for (int s : func.block(b).succs)
                    out.unite(live_in[static_cast<size_t>(s)]);
                in = out;
                for (Vreg v : defs.of(b))
                    in.clear(static_cast<size_t>(v));
                for (Vreg v : uses.of(b))
                    in.set(static_cast<size_t>(v));
                if (!(out == live_out[bi])) {
                    live_out[bi] = out;
                    dirty = true;
                }
                if (!(in == live_in[bi])) {
                    live_in[bi] = in;
                    dirty = true;
                }
            }
        }
    }
};

/** Union-find over SSA names with class member lists and the entry
 *  initial-value kind: kNone (has a def), kZero (implicit zero),
 *  or an argument index. Classes with conflicting kinds never
 *  merge. Member lists are linked through `nextMember` (a class's
 *  members in merge order: first the surviving root's, then the
 *  absorbed one's). */
struct PhiWebs
{
    static constexpr int kNone = -2;
    static constexpr int kZero = -1;

    std::vector<int> parent;
    std::vector<int> kind;
    std::vector<int> firstMember, lastMember, nextMember;

    void
    reset(int n)
    {
        parent.resize(static_cast<size_t>(n));
        std::iota(parent.begin(), parent.end(), 0);
        kind.assign(static_cast<size_t>(n), kNone);
        firstMember.assign(parent.begin(), parent.end());
        lastMember.assign(parent.begin(), parent.end());
        nextMember.assign(static_cast<size_t>(n), -1);
    }

    int
    find(int x)
    {
        while (parent[static_cast<size_t>(x)] != x) {
            parent[static_cast<size_t>(x)] =
                parent[static_cast<size_t>(
                    parent[static_cast<size_t>(x)])];
            x = parent[static_cast<size_t>(x)];
        }
        return x;
    }

    /** Merge root rb's class into root ra's. */
    void
    absorb(int ra, int rb)
    {
        parent[static_cast<size_t>(rb)] = ra;
        nextMember[static_cast<size_t>(
            lastMember[static_cast<size_t>(ra)])] =
            firstMember[static_cast<size_t>(rb)];
        lastMember[static_cast<size_t>(ra)] =
            lastMember[static_cast<size_t>(rb)];
        firstMember[static_cast<size_t>(rb)] = -1;
    }

    void
    grow()
    {
        const int id = static_cast<int>(parent.size());
        parent.push_back(id);
        kind.push_back(kNone);
        firstMember.push_back(id);
        lastMember.push_back(id);
        nextMember.push_back(-1);
    }
};

/** One pending phi copy: class(dstName) := class(srcName) on the
 *  edge pred -> target. */
struct EdgeCopy
{
    Vreg dst;
    Vreg src;
};

/** An EdgeCopy keyed by its edge and its collection order, so one
 *  sort groups copies per edge in (pred, target) order. */
struct PendingCopy
{
    int pred;
    int target;
    int seq;
    EdgeCopy copy;
};

/** One block of buildSSA's dominator-tree renaming walk. */
struct RenameFrame
{
    int block;
    size_t child = 0;
    size_t undoMark = 0;
    bool entered = false;
};

/** Everything buildSSA and destroySSA allocate. Sized by the
 *  function's names, so it lives for one scalar pipeline run
 *  (PassScratch::getForFunction): the run's buildSSA and destroySSA
 *  share it. */
struct SsaState
{
    Liveness live;
    DominatorTree doms;
    PredLists preds;
    DominanceFrontiers df;
    RpoBuffer rpo;

    // buildSSA
    Csr<int> defBlocks;                             ///< vreg -> blocks
    std::vector<int> lastDefBlock;
    std::vector<std::pair<int, Vreg>> phiSites;     ///< (block, vreg)
    std::vector<int> placed, onList, worklist;
    std::vector<Vreg> current;
    std::vector<std::pair<Vreg, Vreg>> undo;        ///< (orig, previous)
    std::vector<RenameFrame> walk;

    // destroySSA
    std::vector<Vreg> subst;
    std::vector<int> defBlock, defIndex;            ///< -1 index = at entry
    std::vector<uint8_t> hasDef;
    PhiWebs webs;
    std::vector<PendingCopy> pending;
    std::vector<EdgeCopy> copies;
    std::vector<Instr> movs;
    std::vector<Vreg> classReg;
};

/** Ensure the entry block has no predecessors: the implicit
 *  function-entry edge cannot host phi inputs, so loops back to the
 *  entry get a fresh pre-entry block. */
void
normalizeEntry(Function &func, PassScratch &scratch, PredLists &preds)
{
    preds.compute(func);
    if (preds.count(func.entry) == 0)
        return;
    double entryExec = func.block(func.entry).execCount;
    for (int p : preds.of(func.entry)) {
        const Block &pb = func.block(p);
        for (size_t k = 0; k < pb.succs.size(); ++k) {
            if (pb.succs[k] == func.entry && k < pb.succCount.size())
                entryExec -= pb.succCount[k];
        }
    }
    Block &pre = func.newBlock();
    Instr jump;
    jump.op = Op::Jump;
    pre.instrs.push_back(std::move(jump));
    pre.succs = {func.entry};
    pre.execCount = std::max(0.0, entryExec);
    pre.succCount = {pre.execCount};
    func.entry = pre.id;
    func.compact(scratch);
}

} // namespace

void
buildSSA(Function &func)
{
    PassScratch scratch;
    buildSSA(func, scratch);
}

void
buildSSA(Function &func, PassScratch &scratch)
{
    AREGION_ASSERT(!func.ssaForm, "buildSSA on SSA function ",
                   func.name);
    SsaState &st = scratch.getForFunction<SsaState>();
    func.compact(scratch);
    normalizeEntry(func, scratch, st.preds);

    const int nb = func.numBlocks();
    const int nv0 = func.numVregs();
    st.doms.compute(func);
    const DominatorTree &doms = st.doms;
    st.preds.compute(func);
    st.df.compute(func, doms, st.preds);
    st.live.compute(func, scratch.get<DataflowRows>());
    const Liveness &live = st.live;

    // Definition sites per original vreg (blocks ascending, each
    // block once).
    st.defBlocks.build(static_cast<size_t>(nv0), [&](auto &&emit) {
        st.lastDefBlock.assign(static_cast<size_t>(nv0), -1);
        for (int b = 0; b < nb; ++b) {
            for (const Instr &in : func.block(b).instrs) {
                if (in.dst != NO_VREG &&
                    st.lastDefBlock[static_cast<size_t>(in.dst)] != b) {
                    st.lastDefBlock[static_cast<size_t>(in.dst)] = b;
                    emit(in.dst, b);
                }
            }
        }
    });

    // Pruned phi placement: iterated dominance frontier of the def
    // sites, filtered by liveness at the join.
    st.phiSites.clear();
    st.placed.assign(static_cast<size_t>(nb), -1);
    st.onList.assign(static_cast<size_t>(nb), -1);
    std::vector<int> &worklist = st.worklist;
    for (Vreg v = 0; v < nv0; ++v) {
        const std::span<const int> sites = st.defBlocks.of(v);
        if (sites.empty())
            continue;
        worklist.assign(sites.begin(), sites.end());
        for (int b : worklist)
            st.onList[static_cast<size_t>(b)] = v;
        while (!worklist.empty()) {
            const int b = worklist.back();
            worklist.pop_back();
            for (int j : st.df.of(b)) {
                if (st.placed[static_cast<size_t>(j)] == v)
                    continue;
                if (!live.isLiveIn(j, v))
                    continue;
                st.placed[static_cast<size_t>(j)] = v;
                st.phiSites.emplace_back(j, v);
                if (st.onList[static_cast<size_t>(j)] != v) {
                    st.onList[static_cast<size_t>(j)] = v;
                    worklist.push_back(j);
                }
            }
        }
    }
    // Per block, phis for its variables in ascending vreg order.
    std::sort(st.phiSites.begin(), st.phiSites.end());
    for (size_t i = 0; i < st.phiSites.size();) {
        const int b = st.phiSites[i].first;
        size_t end = i;
        while (end < st.phiSites.size() && st.phiSites[end].first == b)
            ++end;
        Block &blk = func.block(b);
        blk.instrs.reserve(blk.instrs.size() + (end - i));
        blk.instrs.insert(blk.instrs.begin(), end - i, Instr{});
        // Every predecessor edge contributes one slot during renaming.
        const auto slots = static_cast<size_t>(st.preds.count(b));
        for (size_t k = i; k < end; ++k) {
            Instr &phi = blk.instrs[k - i];
            const Vreg v = st.phiSites[k].second;
            phi.op = Op::Phi;
            phi.dst = v;        // renamed below
            phi.imm = v;        // original variable, used during
                                // renaming only
            phi.srcs.reserve(slots);
            phi.phiBlocks.reserve(slots);
        }
        i = end;
    }

    // Rename by dominator walk. current[v] carries the live name of
    // original vreg v; the initial value (arg or zero) keeps the
    // original id, every real definition gets a fresh name.
    std::vector<Vreg> &current = st.current;
    current.resize(static_cast<size_t>(nv0));
    std::iota(current.begin(), current.end(), 0);
    std::vector<std::pair<Vreg, Vreg>> &undo = st.undo;
    undo.clear();

    std::vector<RenameFrame> &stack = st.walk;
    stack.clear();
    stack.push_back({doms.root(), 0, 0, false});
    while (!stack.empty()) {
        RenameFrame &frame = stack.back();
        Block &blk = func.block(frame.block);
        if (!frame.entered) {
            frame.entered = true;
            frame.undoMark = undo.size();
            for (Instr &in : blk.instrs) {
                if (in.op == Op::Phi) {
                    const Vreg orig = static_cast<Vreg>(in.imm);
                    const Vreg fresh = func.newVreg();
                    undo.emplace_back(
                        orig, current[static_cast<size_t>(orig)]);
                    current[static_cast<size_t>(orig)] = fresh;
                    in.dst = fresh;
                    continue;
                }
                for (Vreg &s : in.srcs)
                    s = current[static_cast<size_t>(s)];
                if (in.dst != NO_VREG) {
                    const Vreg orig = in.dst;
                    const Vreg fresh = func.newVreg();
                    undo.emplace_back(
                        orig, current[static_cast<size_t>(orig)]);
                    current[static_cast<size_t>(orig)] = fresh;
                    in.dst = fresh;
                }
            }
            for (int s : blk.succs) {
                Block &succ = func.block(s);
                const size_t phis = phiCount(succ);
                for (size_t i = 0; i < phis; ++i) {
                    Instr &phi = succ.instrs[i];
                    const Vreg orig = static_cast<Vreg>(phi.imm);
                    phi.srcs.push_back(
                        current[static_cast<size_t>(orig)]);
                    phi.phiBlocks.push_back(frame.block);
                }
            }
        }
        const auto kids = doms.children(frame.block);
        if (frame.child < kids.size()) {
            const int child = kids[frame.child++];
            stack.push_back({child, 0, 0, false});
            continue;
        }
        while (undo.size() > frame.undoMark) {
            current[static_cast<size_t>(undo.back().first)] =
                undo.back().second;
            undo.pop_back();
        }
        stack.pop_back();
    }

    for (int b = 0; b < nb; ++b) {
        for (Instr &in : func.block(b).instrs) {
            if (in.op == Op::Phi)
                in.imm = 0;
        }
    }
    func.ssaForm = true;
}

namespace {

/** destroySSA implementation state, a view over the SsaState
 *  buffers it fills. */
struct OutOfSSA
{
    Function &func;
    const Liveness &live;
    std::vector<int> &defBlock;
    std::vector<int> &defIndex;
    PhiWebs &webs;

    OutOfSSA(Function &f, SsaState &st, DataflowRows &rows)
        : func(f), live(st.live), defBlock(st.defBlock),
          defIndex(st.defIndex), webs(st.webs)
    {
        st.live.compute(func, rows);
        const int nv = func.numVregs();
        webs.reset(nv);
        defBlock.assign(static_cast<size_t>(nv), func.entry);
        defIndex.assign(static_cast<size_t>(nv), -1);
        std::vector<uint8_t> &hasDef = st.hasDef;
        hasDef.assign(static_cast<size_t>(nv), 0);
        for (int b = 0; b < func.numBlocks(); ++b) {
            const Block &blk = func.block(b);
            for (size_t i = 0; i < blk.instrs.size(); ++i) {
                const Vreg d = blk.instrs[i].dst;
                if (d == NO_VREG)
                    continue;
                AREGION_ASSERT(!hasDef[static_cast<size_t>(d)],
                               "multiple defs of v", d, " in SSA ",
                               func.name);
                hasDef[static_cast<size_t>(d)] = 1;
                defBlock[static_cast<size_t>(d)] = b;
                defIndex[static_cast<size_t>(d)] =
                    static_cast<int>(i);
            }
        }
        for (Vreg v = 0; v < nv; ++v) {
            if (hasDef[static_cast<size_t>(v)])
                continue;
            webs.kind[static_cast<size_t>(v)] =
                v < func.numArgs ? v : PhiWebs::kZero;
        }
    }

    bool
    hasDefOf(Vreg v) const
    {
        return defIndex[static_cast<size_t>(v)] >= 0 ||
               defBlock[static_cast<size_t>(v)] != func.entry;
    }

    /** Is `a` live just after position i of block b? Position -1
     *  means the very top of the block (before any instruction). */
    bool
    liveAfter(int b, int i, Vreg a)
    {
        if (hasDefOf(a) && defBlock[static_cast<size_t>(a)] == b) {
            if (defIndex[static_cast<size_t>(a)] > i)
                return false;   // not yet defined at this point
        } else if (!live.isLiveIn(b, a)) {
            return false;       // never live inside this block
        }
        if (live.isLiveOut(b, a)) {
            return true;
        }
        const Block &blk = func.block(b);
        for (size_t j = static_cast<size_t>(i + 1);
             j < blk.instrs.size(); ++j) {
            const Instr &in = blk.instrs[j];
            if (in.op == Op::Phi)
                continue;   // phi sources are pred-end uses
            for (Vreg s : in.srcs) {
                if (s == a)
                    return true;
            }
        }
        return false;
    }

    bool
    interferes(Vreg a, Vreg b)
    {
        if (a == b)
            return false;
        if (!hasDefOf(a) && !hasDefOf(b)) {
            // Two entry values; only merged when their initial
            // values coincide (kind check), where they are
            // indistinguishable.
            return false;
        }
        return liveAfter(defBlock[static_cast<size_t>(b)],
                         defIndex[static_cast<size_t>(b)], a) ||
               liveAfter(defBlock[static_cast<size_t>(a)],
                         defIndex[static_cast<size_t>(a)], b);
    }

    bool
    tryUnion(Vreg a, Vreg b)
    {
        const int ra = webs.find(a);
        const int rb = webs.find(b);
        if (ra == rb)
            return true;
        const int ka = webs.kind[static_cast<size_t>(ra)];
        const int kb = webs.kind[static_cast<size_t>(rb)];
        if (ka != PhiWebs::kNone && kb != PhiWebs::kNone && ka != kb)
            return false;
        for (Vreg x = webs.firstMember[static_cast<size_t>(ra)];
             x != -1; x = webs.nextMember[static_cast<size_t>(x)]) {
            for (Vreg y = webs.firstMember[static_cast<size_t>(rb)];
                 y != -1; y = webs.nextMember[static_cast<size_t>(y)]) {
                if (interferes(x, y))
                    return false;
            }
        }
        // Merge rb into ra (keep ra stable for determinism).
        webs.absorb(ra, rb);
        webs.kind[static_cast<size_t>(ra)] =
            ka != PhiWebs::kNone ? ka : kb;
        return true;
    }
};

/** Fold phis whose (non-self) sources all resolve to one name. */
void
foldTrivialPhis(Function &func, std::vector<Vreg> &subst)
{
    const int nv = func.numVregs();
    subst.resize(static_cast<size_t>(nv));
    std::iota(subst.begin(), subst.end(), 0);
    auto resolve = [&](Vreg v) {
        while (subst[static_cast<size_t>(v)] != v)
            v = subst[static_cast<size_t>(v)];
        return v;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = 0; b < func.numBlocks(); ++b) {
            Block &blk = func.block(b);
            for (size_t i = phiCount(blk); i-- > 0;) {
                Instr &phi = blk.instrs[i];
                const Vreg d = resolve(phi.dst);
                Vreg unique = NO_VREG;
                bool trivial = true;
                for (Vreg s : phi.srcs) {
                    const Vreg r = resolve(s);
                    if (r == d)
                        continue;
                    if (unique == NO_VREG) {
                        unique = r;
                    } else if (unique != r) {
                        trivial = false;
                        break;
                    }
                }
                if (!trivial || unique == NO_VREG)
                    continue;
                subst[static_cast<size_t>(d)] = unique;
                blk.instrs.erase(blk.instrs.begin() +
                                 static_cast<long>(i));
                changed = true;
            }
        }
    }

    for (int b = 0; b < func.numBlocks(); ++b) {
        for (Instr &in : func.block(b).instrs) {
            for (Vreg &s : in.srcs)
                s = resolve(s);
        }
    }
}

/** Convert same-target Branches to Jumps so that every (pred, succ)
 *  edge is unique before copy placement, dropping the duplicate phi
 *  slot in the target. */
void
collapseDuplicateEdges(Function &func)
{
    for (int b = 0; b < func.numBlocks(); ++b) {
        Block &blk = func.block(b);
        if (blk.instrs.empty())
            continue;
        Instr &term = blk.terminator();
        if (term.op != Op::Branch || blk.succs.size() != 2 ||
            blk.succs[0] != blk.succs[1]) {
            continue;
        }
        const int target = blk.succs[0];
        term.op = Op::Jump;
        term.srcs.clear();
        blk.succs = {target};
        blk.succCount = {blk.execCount};
        Block &succ = func.block(target);
        const size_t phis = phiCount(succ);
        for (size_t i = 0; i < phis; ++i) {
            Instr &phi = succ.instrs[i];
            for (size_t k = 0; k < phi.phiBlocks.size(); ++k) {
                if (phi.phiBlocks[k] == b) {
                    phi.srcs.erase(phi.srcs.begin() +
                                   static_cast<long>(k));
                    phi.phiBlocks.erase(phi.phiBlocks.begin() +
                                        static_cast<long>(k));
                    break;      // drop exactly one duplicate slot
                }
            }
        }
    }
}

/** Sequentialize one edge's parallel copy in class space into
 *  `out` as Mov instructions (cycles broken with a fresh temp);
 *  consumes `copies`. */
void
sequentializeCopies(std::vector<EdgeCopy> &copies, OutOfSSA &state,
                    std::vector<Instr> &out)
{
    out.clear();
    auto emit = [&](Vreg dst, Vreg src) {
        Instr &mov = out.emplace_back();
        mov.op = Op::Mov;
        mov.dst = dst;
        mov.srcs = {src};
    };
    while (!copies.empty()) {
        bool progressed = false;
        for (size_t i = 0; i < copies.size(); ++i) {
            const int dstClass = state.webs.find(copies[i].dst);
            bool blocked = false;
            for (size_t j = 0; j < copies.size(); ++j) {
                if (j != i &&
                    state.webs.find(copies[j].src) == dstClass) {
                    blocked = true;
                    break;
                }
            }
            if (!blocked) {
                emit(copies[i].dst, copies[i].src);
                copies.erase(copies.begin() +
                             static_cast<long>(i));
                progressed = true;
                break;
            }
        }
        if (progressed)
            continue;
        // Cycle: rotate through a fresh temporary.
        const Vreg temp = state.func.newVreg();
        state.webs.grow();
        emit(temp, copies.front().src);
        copies.front().src = temp;
    }
}

/** True if pred -> target is a region's pseudo abort edge. */
bool
isAbortEdge(const Function &func, int pred, int target)
{
    for (const RegionInfo &r : func.regions) {
        if (r.entryBlock == pred && r.altBlock == target)
            return true;
    }
    return false;
}

} // namespace

void
destroySSA(Function &func)
{
    PassScratch scratch;
    destroySSA(func, scratch);
}

void
destroySSA(Function &func, PassScratch &scratch)
{
    AREGION_ASSERT(func.ssaForm, "destroySSA on non-SSA function ",
                   func.name);
    SsaState &st = scratch.getForFunction<SsaState>();
    func.compact(scratch);
    foldTrivialPhis(func, st.subst);
    collapseDuplicateEdges(func);

    OutOfSSA state(func, st, scratch.get<DataflowRows>());
    st.preds.compute(func);
    const PredLists &preds = st.preds;

    // Coalesce phi webs: deterministic RPO order.
    const std::vector<int> &rpo = st.rpo.compute(func);
    for (int b : rpo) {
        Block &blk = func.block(b);
        const size_t phis = phiCount(blk);
        for (size_t i = 0; i < phis; ++i) {
            const Instr &phi = blk.instrs[i];
            for (Vreg s : phi.srcs)
                state.tryUnion(phi.dst, s);
        }
    }

    // Collect unresolved copies per edge, in RPO target order, then
    // group them by edge in (pred, target) order.
    std::vector<PendingCopy> &pending = st.pending;
    pending.clear();
    for (int t : rpo) {
        Block &blk = func.block(t);
        const size_t phis = phiCount(blk);
        for (size_t i = 0; i < phis; ++i) {
            const Instr &phi = blk.instrs[i];
            for (size_t k = 0; k < phi.srcs.size(); ++k) {
                if (state.webs.find(phi.dst) ==
                    state.webs.find(phi.srcs[k])) {
                    continue;
                }
                pending.push_back({phi.phiBlocks[k], t,
                                   static_cast<int>(pending.size()),
                                   {phi.dst, phi.srcs[k]}});
            }
        }
    }
    std::sort(pending.begin(), pending.end(),
              [](const PendingCopy &a, const PendingCopy &b) {
                  return std::tie(a.pred, a.target, a.seq) <
                         std::tie(b.pred, b.target, b.seq);
              });

    std::vector<Instr> &movs = st.movs;
    for (size_t first = 0; first < pending.size();) {
        const int p = pending[first].pred;
        const int t = pending[first].target;
        st.copies.clear();
        size_t end = first;
        for (; end < pending.size() && pending[end].pred == p &&
               pending[end].target == t;
             ++end) {
            st.copies.push_back(pending[end].copy);
        }
        first = end;
        Block &pred = func.block(p);
        sequentializeCopies(st.copies, state, movs);
        if (pred.succs.size() == 1) {
            // Host at the end of the predecessor.
            pred.instrs.insert(pred.instrs.end() - 1,
                               std::make_move_iterator(movs.begin()),
                               std::make_move_iterator(movs.end()));
        } else if (preds.count(t) == 1) {
            // Host at the head of the target (after its phis). For
            // a single-pred alt block this is also the rollback-
            // correct spot: the copies execute after the register
            // restore and read checkpoint values, which equal the
            // region entry's values because the entry block defines
            // nothing after its phis.
            Block &target = func.block(t);
            const auto at = target.instrs.begin() +
                            static_cast<long>(phiCount(target));
            target.instrs.insert(
                at, std::make_move_iterator(movs.begin()),
                std::make_move_iterator(movs.end()));
        } else if (isAbortEdge(func, p, t)) {
            // Pseudo abort edges (region entry -> alt) cannot be
            // split and cannot host copies after AtomicBegin
            // (rollback would undo them). Into a multi-pred alt
            // block, place the copies before AtomicBegin so the
            // checkpoint captures them. Writing those classes there
            // must not clobber a value some other path still needs.
            const size_t insertAt = phiCount(pred);
            AREGION_ASSERT(insertAt < pred.instrs.size() &&
                               pred.instrs[insertAt].op ==
                                   Op::AtomicBegin,
                           "abort edge source is not a region entry");
            const int liveNames =
                static_cast<int>(state.defBlock.size());
            for (const Instr &mov : movs) {
                const int cls = state.webs.find(mov.dst);
                for (Vreg m = state.webs.firstMember[
                         static_cast<size_t>(cls)];
                     m != -1;
                     m = state.webs.nextMember[static_cast<size_t>(m)]) {
                    if (m >= liveNames)
                        continue;   // cycle temp: born in this copy
                    AREGION_ASSERT(
                        m == mov.s0() ||
                            !state.liveAfter(
                                p, static_cast<int>(insertAt) - 1,
                                m),
                        "phi copy on abort edge clobbers live value v",
                        m, " in ", func.name);
                }
            }
            pred.instrs.insert(pred.instrs.begin() +
                                   static_cast<long>(insertAt),
                               std::make_move_iterator(movs.begin()),
                               std::make_move_iterator(movs.end()));
        } else {
            // Critical edge: split.
            Block &split = func.newBlock();
            const int splitId = split.id;
            split.instrs.reserve(movs.size() + 1);
            split.instrs.assign(std::make_move_iterator(movs.begin()),
                                std::make_move_iterator(movs.end()));
            split.instrs.emplace_back().op = Op::Jump;
            split.succs = {t};
            Block &p2 = func.block(p);   // newBlock invalidated refs
            split.regionId =
                p2.regionId == func.block(t).regionId ? p2.regionId
                                                      : -1;
            double edgeCount = 0;
            for (size_t k = 0; k < p2.succs.size(); ++k) {
                if (p2.succs[k] == t) {
                    if (k < p2.succCount.size())
                        edgeCount = p2.succCount[k];
                    p2.succs[k] = splitId;
                }
            }
            split.execCount = edgeCount;
            split.succCount = {edgeCount};
        }
    }

    // Drop the phis.
    for (int b = 0; b < func.numBlocks(); ++b) {
        Block &blk = func.block(b);
        const size_t phis = phiCount(blk);
        if (phis)
            blk.instrs.erase(blk.instrs.begin(),
                             blk.instrs.begin() +
                                 static_cast<long>(phis));
    }

    // Dense renumbering: argument classes keep their slots, every
    // other class gets the next id in order of first appearance.
    const int total = func.numVregs();
    std::vector<Vreg> &classReg = st.classReg;
    classReg.assign(static_cast<size_t>(total), NO_VREG);
    for (Vreg v = 0; v < total; ++v) {
        const int r = state.webs.find(v);
        const int k = state.webs.kind[static_cast<size_t>(r)];
        if (k >= 0)
            classReg[static_cast<size_t>(r)] = k;
    }
    Vreg next = func.numArgs;
    auto assign = [&](Vreg v) -> Vreg {
        const int r = state.webs.find(v);
        if (classReg[static_cast<size_t>(r)] == NO_VREG)
            classReg[static_cast<size_t>(r)] = next++;
        return classReg[static_cast<size_t>(r)];
    };
    for (int b : st.rpo.compute(func)) {
        for (Instr &in : func.block(b).instrs) {
            for (Vreg &s : in.srcs)
                s = assign(s);
            if (in.dst != NO_VREG)
                in.dst = assign(in.dst);
        }
    }
    func.resetVregCount(next);

    // A pre-entry block that only jumps is no longer needed once
    // phis are gone.
    {
        const Block &entry = func.block(func.entry);
        if (entry.instrs.size() == 1 &&
            entry.instrs[0].op == Op::Jump &&
            entry.succs.size() == 1 && entry.succs[0] != func.entry) {
            func.entry = entry.succs[0];
        }
    }
    func.ssaForm = false;
    func.compact(scratch);
}

} // namespace aregion::ir
