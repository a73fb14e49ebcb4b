/**
 * @file
 * Profile-guided inlining and guarded devirtualization.
 *
 * Static calls to small callees are spliced into the caller (hot
 * sites first, bounded by a growth budget). Virtual call sites with a
 * dominant receiver class are rewritten into a class-check guard, a
 * direct call on the fast path, and the original virtual call on the
 * (cold) slow path; the guard's cold edge later becomes an Assert
 * inside atomic regions, which is how the paper's compiler speculates
 * on receiver types.
 */

#include "opt/pass.hh"

#include <algorithm>

#include "ir/dominators.hh"
#include "ir/loops.hh"
#include "ir/scratch.hh"
#include "vm/layout.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

struct CallSite
{
    int block;
    double heat;
    bool isVirtual;
};

/** Calls sit right before the block terminator by construction. */
const Instr &
callOf(const Function &func, int block)
{
    const Block &blk = func.block(block);
    AREGION_ASSERT(blk.instrs.size() >= 2, "call block too small");
    const Instr &in = blk.instrs[blk.instrs.size() - 2];
    AREGION_ASSERT(in.op == Op::CallStatic || in.op == Op::CallVirtual,
                   "no call at end of block ", block);
    return in;
}

/**
 * Splice a copy of `callee` into `caller` at the call in `site`.
 * The call block keeps its prefix, gains argument moves, and jumps
 * to the cloned entry; cloned returns jump to the continuation.
 */
void
spliceInline(Function &caller, const Function &callee, int site)
{
    Block &blk = caller.block(site);
    AREGION_ASSERT(blk.terminator().op == Op::Jump &&
                   blk.succs.size() == 1,
                   "call block lacks continuation jump");
    const int continuation = blk.succs[0];
    const double site_heat = blk.execCount;
    Instr call = blk.instrs[blk.instrs.size() - 2];
    AREGION_ASSERT(call.srcs.size() ==
                   static_cast<size_t>(callee.numArgs),
                   "inline arity mismatch");

    // Vreg remapping: every callee vreg becomes a fresh caller vreg.
    std::vector<Vreg> vmap(static_cast<size_t>(callee.numVregs()));
    for (auto &v : vmap)
        v = caller.newVreg();

    // Profile scaling: callee entry count approximates invocations.
    const double callee_entry =
        callee.block(callee.entry).execCount;
    const double scale =
        callee_entry > 0 ? site_heat / callee_entry : 0.0;

    // Clone callee blocks.
    std::vector<int> bmap(static_cast<size_t>(callee.numBlocks()), -1);
    for (int b = 0; b < callee.numBlocks(); ++b)
        bmap[static_cast<size_t>(b)] = caller.newBlock().id;
    for (int b = 0; b < callee.numBlocks(); ++b) {
        const Block &src = callee.block(b);
        Block &dst = caller.block(bmap[static_cast<size_t>(b)]);
        dst.execCount = src.execCount * scale;
        dst.succCount = src.succCount;
        for (double &c : dst.succCount)
            c *= scale;
        dst.succs = src.succs;
        for (int &s : dst.succs)
            s = bmap[static_cast<size_t>(s)];
        dst.instrs = src.instrs;
        for (Instr &in : dst.instrs) {
            if (in.dst != NO_VREG)
                in.dst = vmap[static_cast<size_t>(in.dst)];
            for (Vreg &v : in.srcs)
                v = vmap[static_cast<size_t>(v)];
        }
        // Returns become moves + jumps to the continuation.
        if (dst.terminator().op == Op::Ret) {
            Instr ret = dst.terminator();
            dst.instrs.pop_back();
            if (call.dst != NO_VREG) {
                AREGION_ASSERT(!ret.srcs.empty(),
                               "void return into call destination");
                Instr mov;
                mov.op = Op::Mov;
                mov.dst = call.dst;
                mov.srcs = {ret.srcs[0]};
                mov.bcPc = ret.bcPc;
                mov.bcMethod = ret.bcMethod;
                dst.instrs.push_back(std::move(mov));
            }
            Instr jump;
            jump.op = Op::Jump;
            jump.bcPc = ret.bcPc;
            jump.bcMethod = ret.bcMethod;
            dst.instrs.push_back(std::move(jump));
            dst.succs = {continuation};
            dst.succCount = {dst.execCount};
        }
    }

    // Rewrite the call block: prefix + argument moves + jump.
    blk.instrs.pop_back();      // jump
    blk.instrs.pop_back();      // call
    for (size_t i = 0; i < call.srcs.size(); ++i) {
        Instr mov;
        mov.op = Op::Mov;
        mov.dst = vmap[i];
        mov.srcs = {call.srcs[i]};
        mov.bcPc = call.bcPc;
        mov.bcMethod = call.bcMethod;
        blk.instrs.push_back(std::move(mov));
    }
    Instr jump;
    jump.op = Op::Jump;
    jump.bcPc = call.bcPc;
    jump.bcMethod = call.bcMethod;
    blk.instrs.push_back(std::move(jump));
    blk.succs = {bmap[static_cast<size_t>(callee.entry)]};
    blk.succCount = {site_heat};
}

/** Rewrite a monomorphic virtual call into guard + direct call. */
void
devirtualize(Function &caller, int site, vm::ClassId expected,
             vm::MethodId target, double bias)
{
    // bias == 1.0 (forced-monomorphic mode) profiles the guard's
    // slow edge as cold, so region formation converts it into an
    // assert and the callee becomes region-encapsulatable.
    Block &blk = caller.block(site);
    const int continuation = blk.succs[0];
    Instr call = blk.instrs[blk.instrs.size() - 2];
    const double heat = blk.execCount;

    Block &fast = caller.newBlock();
    Block &slow = caller.newBlock();
    fast.execCount = heat * bias;
    slow.execCount = heat * (1.0 - bias);

    // Guard in the call block.
    blk.instrs.pop_back();      // jump
    blk.instrs.pop_back();      // call
    const Vreg cls = caller.newVreg();
    const Vreg want = caller.newVreg();
    const Vreg differs = caller.newVreg();
    auto mk = [&](Op op, Vreg dst, std::vector<Vreg> srcs, int64_t imm,
                  int aux) {
        Instr in;
        in.op = op;
        in.dst = dst;
        in.srcs = std::move(srcs);
        in.imm = imm;
        in.aux = aux;
        in.bcPc = call.bcPc;
        in.bcMethod = call.bcMethod;
        return in;
    };
    blk.instrs.push_back(mk(Op::LoadRaw, cls, {call.srcs[0]},
                            vm::layout::HDR_CLASS, 0));
    blk.instrs.push_back(mk(Op::Const, want, {}, expected, 0));
    blk.instrs.push_back(mk(Op::CmpNe, differs, {cls, want}, 0, 0));
    blk.instrs.push_back(mk(Op::Branch, NO_VREG, {differs}, 0, 0));
    blk.succs = {slow.id, fast.id};
    blk.succCount = {heat * (1.0 - bias), heat * bias};

    // Fast path: direct call, inlinable next sweep.
    Instr direct = call;
    direct.op = Op::CallStatic;
    direct.aux = target;
    fast.instrs.push_back(std::move(direct));
    fast.instrs.push_back(mk(Op::Jump, NO_VREG, {}, 0, 0));
    fast.succs = {continuation};
    fast.succCount = {fast.execCount};

    // Slow path: the original virtual call, tagged (imm=1) so later
    // sweeps do not devirtualize it again.
    Instr residual = call;
    residual.imm = 1;
    slow.instrs.push_back(std::move(residual));
    slow.instrs.push_back(mk(Op::Jump, NO_VREG, {}, 0, 0));
    slow.succs = {continuation};
    slow.succCount = {slow.execCount};
}

/** Does the callee contain an executed virtual call site with no
 *  dominant receiver (a polymorphic site)? Used by the paper's
 *  partial-inlining criterion. */
bool
hasPolymorphicSite(const Function &callee, const OptContext &ctx)
{
    if (!ctx.profile || ctx.assumeMonomorphic)
        return false;
    for (int b : callee.reversePostOrder()) {
        for (const Instr &in : callee.block(b).instrs) {
            // Residual slow-path calls (imm == 1) still mark the
            // method as containing a polymorphic site.
            if (in.op != Op::CallVirtual)
                continue;
            const auto &mprof = ctx.profile->forMethod(in.bcMethod);
            auto it = mprof.callSites.find(in.bcPc);
            if (it == mprof.callSites.end() || it->second.total == 0)
                continue;   // never executed: cold, not blocking
            // Any non-cold polymorphism blocks partial inlining (the
            // paper's conservative criterion): a minority receiver
            // above the 1% cold threshold makes the site polymorphic
            // even when devirtualization (95%) would still fire.
            if (it->second.dominantReceiver(0.99) == vm::NO_CLASS)
                return true;
        }
    }
    return false;
}

/**
 * Region-encapsulation criterion for partial inlining (Algorithm 1's
 * un-inline step, applied at inline time): the callee must have no
 * loops and no calls reachable along non-cold paths, so its hot body
 * will be fully contained in the caller's atomic region.
 */
bool
isEncapsulatable(const Function &callee, const OptContext &ctx)
{
    const DominatorTree doms(callee);
    const LoopForest forest(callee, doms);
    if (forest.numLoops() > 0)
        return false;
    const double entry_exec = callee.block(callee.entry).execCount;
    for (int b : callee.reversePostOrder()) {
        const Block &blk = callee.block(b);
        if (blk.instrs.size() < 2)
            continue;
        const Op op = blk.instrs[blk.instrs.size() - 2].op;
        if ((op == Op::CallStatic || op == Op::CallVirtual) &&
            blk.execCount >= 0.01 * entry_exec) {
            return false;   // warm non-inlined call
        }
    }
    if (hasPolymorphicSite(callee, ctx))
        return false;
    return true;
}

} // namespace

bool
inlineCalls(Module &mod, const OptContext &ctx,
            std::vector<vm::MethodId> *touched)
{
    PassScratch own;
    PassScratch &scratch = ctx.scratch ? *ctx.scratch : own;
    struct InlineState
    {
        RpoBuffer rpo;
        std::vector<CallSite> sites;
    };
    InlineState &st = scratch.get<InlineState>();
    bool changed = false;
    for (auto &[mid, caller] : mod.funcs) {
        // Callee splicing renumbers vregs without phi maintenance;
        // the module must be in conventional form here (the pipeline
        // driver lowers out of SSA before structural passes run).
        AREGION_ASSERT(!caller.ssaForm,
                       "inlineCalls requires conventional form");
        const int initial_size = caller.countInstrs(scratch);
        int grown = 0;
        bool caller_any = false;
        bool caller_changed = true;
        int guard = 0;
        while (caller_changed && ++guard < 32 &&
               grown < ctx.inlineGrowthLimit) {
            caller_changed = false;

            // Collect sites hottest-first.
            std::vector<CallSite> &sites = st.sites;
            sites.clear();
            for (int b : st.rpo.compute(caller)) {
                const Block &blk = caller.block(b);
                if (blk.instrs.size() < 2)
                    continue;
                const Instr &in =
                    blk.instrs[blk.instrs.size() - 2];
                if (in.op == Op::CallStatic ||
                    in.op == Op::CallVirtual) {
                    sites.push_back(
                        {b, blk.execCount,
                         in.op == Op::CallVirtual});
                }
            }
            std::sort(sites.begin(), sites.end(),
                      [](const CallSite &a, const CallSite &b) {
                          return a.heat > b.heat;
                      });

            for (const CallSite &site : sites) {
                const Instr call = callOf(caller, site.block);
                if (site.isVirtual) {
                    if (!ctx.profile || call.imm == 1)
                        continue;
                    const auto &mprof =
                        ctx.profile->forMethod(call.bcMethod);
                    auto pit = mprof.callSites.find(call.bcPc);
                    if (pit == mprof.callSites.end())
                        continue;
                    const vm::ClassId expected =
                        pit->second.dominantReceiver(ctx.devirtBias);
                    if (expected == vm::NO_CLASS)
                        continue;
                    const vm::MethodId target =
                        mod.prog->resolveVirtual(expected, call.aux);
                    const double bias =
                        static_cast<double>(
                            pit->second.receivers.at(expected)) /
                        static_cast<double>(pit->second.total);
                    devirtualize(caller, site.block, expected, target,
                                 ctx.assumeMonomorphic ? 1.0 : bias);
                    caller_changed = true;
                    caller_any = true;
                    changed = true;
                    break;  // block list changed; re-scan
                }
                // Static call: splice if the callee fits the budget.
                const vm::MethodId callee_id = call.aux;
                if (callee_id == mid)
                    continue;       // no self-inlining
                auto fit = mod.funcs.find(callee_id);
                if (fit == mod.funcs.end())
                    continue;
                const Function &callee = fit->second;
                if (!callee.regions.empty())
                    continue;       // never inline formed regions
                const int callee_size = callee.countInstrs(scratch);
                int limit = ctx.inlineCalleeLimit;
                if (ctx.partialInlineLimit > limit &&
                    isEncapsulatable(callee, ctx)) {
                    limit = ctx.partialInlineLimit;
                }
                if (callee_size > limit)
                    continue;
                if (ctx.refusePolymorphicCallees &&
                    hasPolymorphicSite(callee, ctx)) {
                    continue;
                }
                if (grown + callee_size > ctx.inlineGrowthLimit)
                    continue;
                spliceInline(caller, callee, site.block);
                grown = caller.countInstrs(scratch) - initial_size;
                caller_changed = true;
                caller_any = true;
                changed = true;
                break;      // re-scan with fresh block ids
            }
        }
        if (caller_any) {
            caller.compact(scratch);
            if (touched != nullptr)
                touched->push_back(mid);
        }
    }
    return changed;
}

} // namespace aregion::opt
