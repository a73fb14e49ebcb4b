/**
 * @file
 * Dominator and post-dominator trees (Cooper-Harvey-Kennedy).
 *
 * Dominance drives CSE availability intuition, loop detection, and
 * region formation; post-dominance drives the paper's Section 7
 * check-elimination extension inside atomic regions.
 */

#ifndef AREGION_IR_DOMINATORS_HH
#define AREGION_IR_DOMINATORS_HH

#include <span>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "ir/scratch.hh"

namespace aregion::ir {

/** Immediate-dominator tree over a function's reachable blocks.
 *  Its storage is reusable: compute() rebuilds the tree for another
 *  function (or the same one after CFG edits) without reallocating
 *  once its arrays have grown to the function's size. */
class DominatorTree
{
  public:
    /** An empty tree; call compute() before any query. */
    DominatorTree() = default;

    /** Build dominators (post=false) or post-dominators (post=true).
     *  Post-dominance uses a virtual exit joining every Ret block. */
    DominatorTree(const Function &func, bool post = false);

    /** Rebuild for `func`, reusing this tree's storage. */
    void compute(const Function &func, bool post = false);

    /** Immediate dominator of b, or -1 for the root / unreachable. */
    int idom(int block) const;

    /** True if a dominates b (every node dominates itself). */
    bool dominates(int a, int b) const;

    /** Children of b in the dominator tree, in ascending id order. */
    std::span<const int> children(int block) const;

    /** True if the block is reachable (has a tree position). */
    bool reachable(int block) const;

    int root() const { return rootBlock; }

  private:
    // The graph being dominated (the reversed CFG plus a virtual
    // exit for post-dominance).
    Csr<int> succs, preds;
    std::vector<int> rpo, rpoNum;
    std::vector<std::pair<int, size_t>> stack;

    std::vector<int> idomVec;           ///< -1 if unreachable
    Csr<int> kids;                      ///< children, ascending ids
    std::vector<int> dfnum;             ///< preorder number, -1 unreachable
    std::vector<int> dfLast;            ///< max dfnum in subtree
    int rootBlock = -1;
};

/**
 * Dominance frontiers per block (Cytron et al. / Cooper-Harvey-
 * Kennedy "runner" formulation): DF(b) contains every join j with a
 * predecessor dominated by b while j itself is not strictly
 * dominated by b. of(b) is sorted ascending (empty for unreachable
 * blocks); drives pruned phi placement in ssa.cc.
 */
struct DominanceFrontiers : Csr<int>
{
    /** (frontier owner, join) pairs before sorting. */
    std::vector<std::pair<int, int>> pairs;

    /** Fill from `func`, its forward tree `doms` and its predecessor
     *  lists `preds`. */
    void compute(const Function &func, const DominatorTree &doms,
                 const PredLists &preds);
};

} // namespace aregion::ir

#endif // AREGION_IR_DOMINATORS_HH
