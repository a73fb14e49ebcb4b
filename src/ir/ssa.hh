/**
 * @file
 * SSA construction and destruction.
 *
 * buildSSA rewrites a conventional function into pruned SSA form:
 * phis are placed on the iterated dominance frontier of each
 * variable's definition sites (filtered by liveness), and a
 * rename-by-dominator-walk gives every definition a fresh name. The
 * *initial* value of each original vreg — the argument value for
 * vregs below numArgs, zero otherwise (frames are zero-initialised
 * by every executor) — keeps the original vreg id, so a name without
 * a defining instruction always denotes that entry value.
 *
 * destroySSA lowers back out: trivial phis are folded, phi webs are
 * coalesced with a dominance/liveness interference test, remaining
 * phis become parallel copies on their incoming edges (critical
 * edges are split), and every name is renumbered densely with
 * argument classes pinned to [0, numArgs).
 *
 * Both take their analysis storage from a PassScratch (ir/scratch.hh);
 * the overloads without one use a scratch of their own.
 *
 * Atomic-region subtlety: the pseudo edge from a region entry block
 * (AtomicBegin) to its alternate block is traversed only by a
 * rollback, which restores the register checkpoint taken at
 * AtomicBegin. Copies for phi inputs on that edge therefore cannot
 * live after AtomicBegin (they would be rolled back) nor on a split
 * block (it would never execute); they are placed *before* the
 * AtomicBegin, where the checkpoint captures them.
 */

#ifndef AREGION_IR_SSA_HH
#define AREGION_IR_SSA_HH

#include "ir/ir.hh"
#include "ir/scratch.hh"

namespace aregion::ir {

/** Rewrite into pruned SSA form (no-op requirements: !func.ssaForm).
 *  Compacts the function and, when the entry block has predecessors,
 *  inserts a fresh pre-entry block so the implicit entry edge cannot
 *  carry phi inputs. Sets func.ssaForm. */
void buildSSA(Function &func);
void buildSSA(Function &func, PassScratch &scratch);

/** Lower out of SSA form (requires func.ssaForm). Removes every Phi,
 *  inserts the minimal copies coalescing could not avoid, renumbers
 *  vregs densely (args keep [0, numArgs)) and clears func.ssaForm. */
void destroySSA(Function &func);
void destroySSA(Function &func, PassScratch &scratch);

} // namespace aregion::ir

#endif // AREGION_IR_SSA_HH
