/**
 * @file
 * CFG cleanup: collapse same-target branches, thread trivial jumps,
 * merge straight-line chains, drop unreachable blocks.
 *
 * The pass runs both before SSA construction (on translate output)
 * and inside the SSA pipeline, so every edge edit keeps phi inputs
 * consistent: collapsing a duplicate edge removes its phi slot,
 * retargeting an edge through a trivial jump copies the threaded
 * value into a new slot for the new predecessor, and merging a
 * single-predecessor block lowers its (necessarily arity-1) phis to
 * copies. A block that carries phis is never itself a threading
 * candidate — a trivial jump is a single instruction by definition.
 */

#include "opt/pass.hh"

#include "ir/cfg.hh"
#include "ir/scratch.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

bool
isRegionEntry(const Block &blk)
{
    return isRegionEntryBlock(blk);
}

/** A block containing only a jump (threading candidate); a block
 *  with phis can never qualify. */
bool
isTrivialJump(const Block &blk)
{
    return blk.instrs.size() == 1 && blk.terminator().op == Op::Jump &&
           blk.succs.size() == 1 && blk.succs[0] != blk.id;
}

/** Calls terminate blocks (region formation relies on it): a block
 *  whose penultimate instruction is a call must not absorb more
 *  instructions. */
bool
endsWithCall(const Block &blk)
{
    if (blk.instrs.size() < 2)
        return false;
    const Op op = blk.instrs[blk.instrs.size() - 2].op;
    return op == Op::CallStatic || op == Op::CallVirtual;
}

bool
hasPhis(const Block &blk)
{
    return !blk.instrs.empty() && blk.instrs.front().op == Op::Phi;
}

/** Remove one phi slot for the edge pred -> blk. */
void
dropPhiSlot(Block &blk, int pred)
{
    for (Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == pred) {
                in.phiBlocks.erase(in.phiBlocks.begin() +
                                   static_cast<long>(k));
                in.srcs.erase(in.srcs.begin() +
                              static_cast<long>(k));
                break;
            }
        }
    }
}

/** Phi slots distinguish edges only by predecessor id, so two edges
 *  from the same predecessor must carry identical values — otherwise
 *  the value would depend on which edge was taken, which the
 *  representation cannot express. Returns false if giving `newPred`
 *  a copy of `via`'s slots would break that. */
bool
threadKeepsPhisUnambiguous(const Block &blk, int via, int newPred)
{
    for (const Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        Vreg via_val = NO_VREG;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == via)
                via_val = in.srcs[k];
        }
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == newPred && in.srcs[k] != via_val)
                return false;
        }
    }
    return true;
}

/** A same-target branch can only collapse to a jump if the target's
 *  phis do not distinguish its two edges. */
bool
dupEdgeSlotsAgree(const Block &blk, int pred)
{
    for (const Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        Vreg first = NO_VREG;
        bool seen = false;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] != pred)
                continue;
            if (seen && in.srcs[k] != first)
                return false;
            first = in.srcs[k];
            seen = true;
        }
    }
    return true;
}

/** The edge newPred -> blk replaces an edge that used to run through
 *  `via` (still a predecessor for its other edges): duplicate the
 *  threaded slot value for the new predecessor. */
void
addThreadedPhiSlot(Block &blk, int via, int newPred)
{
    for (Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == via) {
                in.srcs.push_back(in.srcs[k]);
                in.phiBlocks.push_back(newPred);
                break;
            }
        }
    }
}

/** Rename predecessor `from` to `to` in every phi slot of blk. */
void
renamePhiPred(Block &blk, int from, int to)
{
    for (Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        for (int &p : in.phiBlocks) {
            if (p == from)
                p = to;
        }
    }
}

/** Reused buffers of one compile's simplifyCfg calls. */
struct SimplifyState
{
    RpoBuffer rpo;
    /** Predecessor edge count per block, over every block (reachable
     *  or not, as Function::computePreds() counts them). */
    std::vector<int> predCount;
    /** Blocks merged into their predecessor in this sweep. */
    std::vector<uint8_t> merged;
};

/** Can b absorb its single successor? (Straight-line pair b -> s
 *  where s has b as its only predecessor; region boundaries are kept
 *  intact.) */
bool
canMerge(const Function &func, const std::vector<int> &pred_count,
         int b)
{
    const Block &blk = func.block(b);
    if (blk.succs.size() != 1 || blk.terminator().op != Op::Jump)
        return false;
    const int s = blk.succs[0];
    if (s == b || s == func.entry)
        return false;
    const Block &next = func.block(s);
    if (pred_count[static_cast<size_t>(s)] != 1)
        return false;
    if (isRegionEntry(blk) || isRegionEntry(next))
        return false;
    if (blk.regionId != next.regionId)
        return false;
    if (endsWithCall(blk))
        return false;
    // Keep synchronized-method epilogues (MonitorExit blocks)
    // separate from their Ret blocks: region formation stops at Ret
    // blocks but must replicate the epilogue so SLE sees balanced
    // monitor pairs.
    bool has_monitor_exit = false;
    for (const Instr &in : blk.instrs)
        has_monitor_exit |= in.op == Op::MonitorExit;
    if (has_monitor_exit && next.terminator().op == Op::Ret)
        return false;
    // Don't merge into a region alt block (reached by the abort
    // exception edge, which preds don't see).
    for (const RegionInfo &r : func.regions) {
        if (r.altBlock == s)
            return false;
    }
    return true;
}

/** Append b's single successor s to b, leaving s a dead tombstone.
 *  Every other block keeps its predecessor count: s's out-edges now
 *  leave b instead. */
int
mergeSuccessor(Function &func, int b)
{
    Block &blk = func.block(b);
    const int s = blk.succs[0];
    Block &next = func.block(s);
    // A single-predecessor block's phis are arity-1; they lower to
    // plain copies at the merge point.
    for (Instr &in : next.instrs) {
        if (in.op != Op::Phi)
            break;
        in.op = Op::Mov;
        in.srcs.resize(1);
        in.phiBlocks.clear();
    }
    blk.instrs.pop_back();      // drop the jump
    blk.instrs.insert(blk.instrs.end(),
                      std::make_move_iterator(next.instrs.begin()),
                      std::make_move_iterator(next.instrs.end()));
    blk.succs = next.succs;
    blk.succCount = next.succCount;
    // Successor phis now see the merged block as their predecessor.
    for (int t : blk.succs)
        renamePhiPred(func.block(t), s, b);
    next.instrs.clear();
    next.succs.clear();
    next.instrs.emplace_back().op = Op::Ret;    // dead tombstone
    return s;
}

} // namespace

bool
simplifyCfg(Function &func)
{
    PassScratch scratch;
    return simplifyCfg(func, scratch);
}

/*
 * Each round runs the rewrites (collapse, thread, entry) once and
 * then merges straight-line pairs. The result must equal restarting
 * the whole sweep after every single merge, for at most 63 rounds
 * with each merge counting as one. While the rewrites still change
 * the CFG, a round therefore merges only the first mergeable pair in
 * RPO. Once a round's rewrites change nothing, no merge can enable a
 * rewrite: a merged block is a trivial jump only if both halves
 * were, and a quiet threading round leaves no reachable trivial jump
 * whose successor is one. The rest of the budget is then spent in
 * one RPO sweep that merges whole chains in place. The RPO stays
 * valid because a merged-away block was reachable only through its
 * predecessor, and merges never change another block's predecessor
 * count.
 */
bool
simplifyCfg(Function &func, PassScratch &scratch)
{
    constexpr int kMaxRounds = 63;
    SimplifyState &st = scratch.get<SimplifyState>();
    bool changed_any = false;
    for (int round = 1; round <= kMaxRounds; ++round) {
        bool rewritten = false;
        // Collapsing a branch keeps reachability and DFS order, so
        // one RPO serves both the collapse and the threading sweep.
        const std::vector<int> &rpo = st.rpo.compute(func);

        // Collapse branches whose arms agree (one phi slot per
        // dropped duplicate edge goes with it).
        for (int b : rpo) {
            Block &blk = func.block(b);
            if (blk.terminator().op == Op::Branch &&
                blk.succs.size() == 2 && blk.succs[0] == blk.succs[1] &&
                dupEdgeSlotsAgree(func.block(blk.succs[0]), b)) {
                Instr jump;
                jump.op = Op::Jump;
                jump.bcPc = blk.terminator().bcPc;
                jump.bcMethod = blk.terminator().bcMethod;
                blk.instrs.back() = std::move(jump);
                blk.succs.pop_back();
                const double total =
                    blk.succCount.size() == 2
                        ? blk.succCount[0] + blk.succCount[1]
                        : blk.execCount;
                blk.succCount = {total};
                dropPhiSlot(func.block(blk.succs[0]), b);
                rewritten = true;
            }
        }

        // Thread edges through trivial jump blocks. Region entries
        // are skipped: their second successor is the abort exception
        // edge and must stay equal to RegionInfo::altBlock.
        for (int b : rpo) {
            Block &blk = func.block(b);
            if (isRegionEntry(blk))
                continue;
            for (int &s : blk.succs) {
                int hops = 0;
                while (hops++ < 8) {
                    Block &target = func.block(s);
                    if (!isTrivialJump(target) || target.id == blk.id)
                        break;
                    const int next = target.succs[0];
                    if (!threadKeepsPhisUnambiguous(func.block(next),
                                                    target.id, blk.id))
                        break;
                    // The threaded block stays a predecessor of
                    // `next` for its remaining edges; our new edge
                    // needs its own phi slot carrying the same
                    // values.
                    addThreadedPhiSlot(func.block(next), target.id,
                                       blk.id);
                    s = next;
                    rewritten = true;
                }
            }
        }
        if (isTrivialJump(func.block(func.entry)) &&
            !isRegionEntry(func.block(func.entry)) &&
            !hasPhis(func.block(
                func.block(func.entry).succs[0]))) {
            // The new entry must not carry phis: the implicit
            // function-entry edge has no slot to populate.
            func.entry = func.block(func.entry).succs[0];
            rewritten = true;
        }

        // Merge straight-line pairs.
        const std::vector<int> &order =
            rewritten ? st.rpo.compute(func) : rpo;
        st.predCount.assign(static_cast<size_t>(func.numBlocks()), 0);
        for (int b = 0; b < func.numBlocks(); ++b) {
            for (int s : func.block(b).succs)
                st.predCount[static_cast<size_t>(s)]++;
        }
        st.merged.assign(static_cast<size_t>(func.numBlocks()), 0);
        const int budget = rewritten ? 1 : kMaxRounds - round + 1;
        int merges = 0;
        for (size_t i = 0; i < order.size() && merges < budget; ++i) {
            const int b = order[i];
            if (st.merged[static_cast<size_t>(b)])
                continue;
            while (merges < budget && canMerge(func, st.predCount, b)) {
                st.merged[static_cast<size_t>(mergeSuccessor(func, b))] =
                    1;
                ++merges;
            }
        }

        changed_any |= rewritten || merges > 0;
        if (!rewritten)
            break;  // merges (if any) ran to completion above
    }

    if (changed_any)
        func.compact(scratch);
    return changed_any;
}

} // namespace aregion::opt
