/**
 * @file
 * Pass declarations and pipeline drivers.
 *
 * Every pass here is a *non-speculative* formulation — correct over
 * all CFG paths with no knowledge of atomic regions beyond generic
 * facts (e.g. Assert is essential for DCE; monitor/safepoint
 * instructions inside an isolated region do not invalidate loads).
 * That property is the paper's central claim: converting cold edges
 * into asserts lets these same passes perform speculative
 * optimizations with zero new pass code.
 *
 * The scalar passes run on SSA form: runScalarPipeline builds SSA,
 * iterates simplify/sccp/gvn/dce to a fixpoint, and lowers back out
 * of SSA before returning, so callers (region formation, translation,
 * machine-code emission) never see phis. The structural passes
 * (inlining, unrolling) operate on conventional form.
 *
 * Each scalar pass takes its analysis storage from an
 * ir::PassScratch; the overloads without one build a scratch of
 * their own (tests, one-off callers).
 */

#ifndef AREGION_OPT_PASS_HH
#define AREGION_OPT_PASS_HH

#include <string>
#include <vector>

#include "ir/ir.hh"
#include "ir/scratch.hh"
#include "vm/profile.hh"

namespace aregion::opt {

/** Tunables shared by the pipeline (baseline vs aggressive etc.). */
struct OptContext
{
    const vm::Profile *profile = nullptr;

    /** Max callee size (IR instrs) eligible for inlining. The
     *  paper's "aggressive" configurations scale these by 5x. */
    int inlineCalleeLimit = 40;
    /** Max per-function growth (IR instrs) per inlining sweep. */
    int inlineGrowthLimit = 450;
    /** Receiver bias needed to devirtualize a virtual call site. */
    double devirtBias = 0.95;
    /** Partial-inlining criterion (paper Section 6.1): refuse to
     *  inline callees containing polymorphic virtual call sites. */
    bool refusePolymorphicCallees = false;
    /** Treat every profiled virtual site as effectively monomorphic
     *  (the jython grey-bar experiment). */
    bool assumeMonomorphic = false;
    /** Atomic-mode partial inlining (region formation Step 1): a
     *  callee whose hot body will be fully encapsulated in a region
     *  (no loops, no warm calls, no polymorphic sites) may be
     *  inlined up to this size even when it exceeds
     *  inlineCalleeLimit. 0 disables. */
    int partialInlineLimit = 0;
    /** Baseline loop unrolling (factor 2) body size limit; 0 = off. */
    int unrollBodyLimit = 24;
    /** Min (back-edge count / entry count) before unrolling pays. */
    double unrollMinTrip = 4.0;
    /** Scalar pipeline fixpoint bound. */
    int maxScalarIters = 8;
    /** Analysis storage for the passes (ir/scratch.hh), not a
     *  tunable: core::compileProgram points it at a PassScratch it
     *  owns for the length of one compile. Null: every
     *  runScalarPipeline call uses a scratch of its own. */
    ir::PassScratch *scratch = nullptr;
};

/** CFG cleanup: thread trivial jumps, merge straight-line pairs,
 *  collapse same-target branches, drop unreachable blocks. Phi-aware;
 *  runs on SSA and conventional form alike. */
bool simplifyCfg(ir::Function &func);
bool simplifyCfg(ir::Function &func, ir::PassScratch &scratch);

/** Sparse conditional constant propagation (SSA only): constant and
 *  copy lattices over executable edges, folding, algebraic
 *  identities, constant-branch elimination, dead asserts/checks, and
 *  copy forwarding (subsumes the old constant-fold + copy-prop
 *  pair). */
bool sccp(ir::Function &func);
bool sccp(ir::Function &func, ir::PassScratch &scratch);

/** Global value numbering over available expressions (SSA only):
 *  arithmetic, loads with field-sensitive kills and store-to-load
 *  forwarding, safety checks, asserts. GEN/KILL sets are built in a
 *  single scan per block and merged by bitvector dataflow, replacing
 *  the quadratic per-query predecessor re-simulation of the old CSE.
 *  The isolation guarantee of atomic regions is honoured: safepoints
 *  and monitor operations kill loads only outside regions. */
bool gvn(ir::Function &func);
bool gvn(ir::Function &func, ir::PassScratch &scratch);

/** Mark-and-sweep dead code elimination (asserts and checks are
 *  essential and never removed here). Exact in SSA form — dead phi
 *  cycles are removed — and conservative on conventional form. */
bool deadCodeElim(ir::Function &func);
bool deadCodeElim(ir::Function &func, ir::PassScratch &scratch);

/** Profile-guided inlining of static calls plus guarded
 *  devirtualization of monomorphic virtual call sites (module
 *  level). Requires conventional (non-SSA) form. When `touched` is
 *  non-null it receives the ids of the callers this sweep modified,
 *  so the driver can re-clean only those. */
bool inlineCalls(ir::Module &mod, const OptContext &ctx,
                 std::vector<vm::MethodId> *touched = nullptr);

/** Baseline factor-2 unrolling of hot innermost loops. Requires
 *  conventional (non-SSA) form. */
bool unrollLoops(ir::Function &func, const OptContext &ctx);

/** Build SSA, run the scalar passes (simplify/sccp/gvn/dce) to a
 *  fixpoint, lower out of SSA; returns true if anything changed.
 *  Set AREGION_VERIFY_PASSES=1 to verify the function between every
 *  pass (debug aid; used by the sanitizer presets). */
bool runScalarPipeline(ir::Function &func, const OptContext &ctx);

/** Whole-module optimization: inline to fixpoint, scalar pipeline,
 *  unrolling, scalar pipeline again. */
void optimizeModule(ir::Module &mod, const OptContext &ctx);

/** Names of the passes in pipeline order (introspection/reporting). */
std::vector<std::string> pipelinePassNames();

} // namespace aregion::opt

#endif // AREGION_OPT_PASS_HH
