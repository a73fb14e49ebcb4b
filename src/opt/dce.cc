/**
 * @file
 * Dead code elimination by mark-and-sweep over def-use chains.
 *
 * Only pure value producers and loads are removable. Asserts and
 * checks are essential side effects — the single piece of
 * region-awareness the paper says DCE needs ("Only dead code
 * elimination needs to be informed that these operations are
 * essential", Section 4) — and that is already encoded in
 * ir::hasSideEffect.
 *
 * The sweep marks names transitively reachable from essential
 * instructions (side effects, checks, terminators) and deletes every
 * removable instruction whose destination stays unmarked. In SSA
 * form this is exact and, unlike the liveness formulation it
 * replaced, also removes dead phi cycles — a loop-carried value
 * chain nothing essential consumes keeps itself "live" under a
 * backward liveness fixpoint but is never marked here. On non-SSA
 * input the pass remains correct (a marked name keeps all of its
 * defs) but is conservative about partially dead names.
 */

#include "opt/pass.hh"

#include "ir/scratch.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

bool
removableIfDead(Op op)
{
    return isPureValue(op) || isLoad(op);
}

/** Reused buffers of one compile's DCE calls. */
struct DceState
{
    RpoBuffer rpo;
    /** Defs of each name (multiple only in non-SSA input). */
    Csr<const Instr *> defs;
    std::vector<uint8_t> marked;
    std::vector<Vreg> work;
};

} // namespace

bool
deadCodeElim(Function &func)
{
    PassScratch scratch;
    return deadCodeElim(func, scratch);
}

bool
deadCodeElim(Function &func, PassScratch &scratch)
{
    DceState &st = scratch.get<DceState>();
    const std::vector<int> &rpo = st.rpo.compute(func);
    const size_t nv = static_cast<size_t>(func.numVregs());

    st.defs.build(nv, [&](auto &&emit) {
        for (int b : rpo) {
            for (const Instr &in : func.block(b).instrs) {
                if (in.dst != NO_VREG)
                    emit(in.dst, &in);
            }
        }
    });

    std::vector<uint8_t> &marked = st.marked;
    marked.assign(nv, 0);
    std::vector<Vreg> &work = st.work;
    work.clear();
    auto mark = [&](Vreg v) {
        if (v < 0 || static_cast<size_t>(v) >= nv)
            return;
        if (marked[static_cast<size_t>(v)])
            return;
        marked[static_cast<size_t>(v)] = 1;
        work.push_back(v);
    };

    for (int b : rpo) {
        for (const Instr &in : func.block(b).instrs) {
            if (removableIfDead(in.op))
                continue;   // kept only if its dst gets marked
            for (Vreg s : in.srcs)
                mark(s);
        }
    }
    while (!work.empty()) {
        const Vreg v = work.back();
        work.pop_back();
        for (const Instr *def : st.defs.of(v)) {
            for (Vreg s : def->srcs)
                mark(s);
        }
    }

    bool changed = false;
    for (int b : rpo) {
        std::vector<Instr> &instrs = func.block(b).instrs;
        size_t kept = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            Instr &in = instrs[i];
            const bool dead = in.dst != NO_VREG &&
                              removableIfDead(in.op) &&
                              !marked[static_cast<size_t>(in.dst)];
            if (dead) {
                changed = true;
                continue;
            }
            if (kept != i)
                instrs[kept] = std::move(in);
            ++kept;
        }
        instrs.erase(instrs.begin() + static_cast<long>(kept),
                     instrs.end());
    }

    return changed;
}

} // namespace aregion::opt
