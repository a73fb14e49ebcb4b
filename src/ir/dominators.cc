#include "ir/dominators.hh"

#include <algorithm>

namespace aregion::ir {

DominatorTree::DominatorTree(const Function &func, bool post)
{
    compute(func, post);
}

void
DominatorTree::compute(const Function &func, bool post)
{
    const int n = func.numBlocks();
    // Forward: the CFG from the entry. Post: the reversed CFG plus a
    // virtual exit node (id n) joined from every Ret block.
    const int num_nodes = post ? n + 1 : n;
    rootBlock = post ? n : func.entry;
    auto edges = [&](auto &&edge) {
        for (int b = 0; b < n; ++b) {
            for (int s : func.block(b).succs) {
                if (post)
                    edge(s, b);
                else
                    edge(b, s);
            }
            if (post && func.block(b).terminator().op == Op::Ret)
                edge(n, b);
        }
    };
    const auto nn = static_cast<size_t>(num_nodes);
    succs.build(nn, [&](auto &&emit) {
        edges([&](int from, int to) { emit(from, to); });
    });
    preds.build(nn, [&](auto &&emit) {
        edges([&](int from, int to) { emit(to, from); });
    });
    const int root = rootBlock;

    // Reverse post-order from the root (rpoNum doubles as the
    // visited mark: -2 = seen, then the final number).
    rpo.clear();
    rpoNum.assign(nn, -1);
    stack.clear();
    stack.emplace_back(root, 0);
    rpoNum[static_cast<size_t>(root)] = -2;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const std::span<const int> out = succs.of(b);
        if (next < out.size()) {
            const int s = out[next++];
            if (rpoNum[static_cast<size_t>(s)] == -1) {
                rpoNum[static_cast<size_t>(s)] = -2;
                stack.emplace_back(s, 0);
            }
        } else {
            rpo.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(rpo.begin(), rpo.end());
    for (size_t i = 0; i < rpo.size(); ++i)
        rpoNum[static_cast<size_t>(rpo[i])] = static_cast<int>(i);

    // Cooper-Harvey-Kennedy fixed point.
    idomVec.assign(nn, -1);
    idomVec[static_cast<size_t>(root)] = root;
    auto meet = [&](int a, int b) {
        while (a != b) {
            while (rpoNum[static_cast<size_t>(a)] >
                   rpoNum[static_cast<size_t>(b)]) {
                a = idomVec[static_cast<size_t>(a)];
            }
            while (rpoNum[static_cast<size_t>(b)] >
                   rpoNum[static_cast<size_t>(a)]) {
                b = idomVec[static_cast<size_t>(b)];
            }
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : rpo) {
            if (b == root)
                continue;
            int best = -1;
            for (int p : preds.of(b)) {
                if (rpoNum[static_cast<size_t>(p)] == -1 ||
                    idomVec[static_cast<size_t>(p)] == -1) {
                    continue;   // unreachable or unprocessed
                }
                best = best == -1 ? p : meet(best, p);
            }
            if (best != -1 && idomVec[static_cast<size_t>(b)] != best) {
                idomVec[static_cast<size_t>(b)] = best;
                changed = true;
            }
        }
    }

    // Children lists (CSR, ascending ids) and preorder numbering for
    // O(1) dominance tests.
    kids.build(nn, [&](auto &&emit) {
        for (size_t b = 0; b < nn; ++b) {
            if (static_cast<int>(b) != root && idomVec[b] != -1)
                emit(idomVec[b], static_cast<int>(b));
        }
    });
    idomVec[static_cast<size_t>(root)] = -1;

    dfnum.assign(nn, -1);
    dfLast.assign(nn, -1);
    int counter = 0;
    stack.clear();
    stack.emplace_back(root, 0);
    dfnum[static_cast<size_t>(root)] = counter++;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const std::span<const int> children_of = children(b);
        if (next < children_of.size()) {
            const int c = children_of[next++];
            dfnum[static_cast<size_t>(c)] = counter++;
            stack.emplace_back(c, 0);
        } else {
            dfLast[static_cast<size_t>(b)] = counter - 1;
            stack.pop_back();
        }
    }
}

int
DominatorTree::idom(int block) const
{
    return idomVec[static_cast<size_t>(block)];
}

bool
DominatorTree::dominates(int a, int b) const
{
    const int da = dfnum[static_cast<size_t>(a)];
    const int db = dfnum[static_cast<size_t>(b)];
    if (da == -1 || db == -1)
        return false;
    return da <= db && db <= dfLast[static_cast<size_t>(a)];
}

std::span<const int>
DominatorTree::children(int block) const
{
    return kids.of(block);
}

bool
DominatorTree::reachable(int block) const
{
    return dfnum[static_cast<size_t>(block)] != -1;
}

void
DominanceFrontiers::compute(const Function &func,
                            const DominatorTree &doms,
                            const PredLists &preds)
{
    const int n = func.numBlocks();
    pairs.clear();
    for (int b = 0; b < n; ++b) {
        if (!doms.reachable(b))
            continue;
        // The entry block has an implicit extra predecessor (the
        // function-entry edge), so any real edge into it makes it a
        // join; nothing strictly dominates the entry.
        int reachablePreds = b == func.entry ? 1 : 0;
        for (int p : preds.of(b)) {
            if (doms.reachable(p))
                ++reachablePreds;
        }
        if (reachablePreds < 2)
            continue;
        for (int p : preds.of(b)) {
            if (!doms.reachable(p))
                continue;
            int runner = p;
            while (runner != doms.idom(b)) {
                pairs.emplace_back(runner, b);
                runner = doms.idom(runner);
            }
        }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    build(static_cast<size_t>(n), [&](auto &&emit) {
        for (const auto &[owner, join] : pairs)
            emit(owner, join);
    });
}

} // namespace aregion::ir
