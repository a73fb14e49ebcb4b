#include "ir/ir.hh"

#include <algorithm>
#include <charconv>

#include "ir/scratch.hh"

namespace aregion::ir {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Const: return "const";
      case Op::Mov: return "mov";
      case Op::Phi: return "phi";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Div: return "div";
      case Op::Rem: return "rem";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::CmpEq: return "cmpeq";
      case Op::CmpNe: return "cmpne";
      case Op::CmpLt: return "cmplt";
      case Op::CmpLe: return "cmple";
      case Op::CmpGt: return "cmpgt";
      case Op::CmpGe: return "cmpge";
      case Op::LoadField: return "loadfield";
      case Op::StoreField: return "storefield";
      case Op::LoadElem: return "loadelem";
      case Op::StoreElem: return "storeelem";
      case Op::LoadRaw: return "loadraw";
      case Op::StoreRaw: return "storeraw";
      case Op::LoadSubtype: return "loadsubtype";
      case Op::NullCheck: return "nullcheck";
      case Op::BoundsCheck: return "boundscheck";
      case Op::DivCheck: return "divcheck";
      case Op::SizeCheck: return "sizecheck";
      case Op::TypeCheck: return "typecheck";
      case Op::NewObject: return "newobject";
      case Op::NewArray: return "newarray";
      case Op::CallStatic: return "callstatic";
      case Op::CallVirtual: return "callvirtual";
      case Op::MonitorEnter: return "monitorenter";
      case Op::MonitorExit: return "monitorexit";
      case Op::Safepoint: return "safepoint";
      case Op::Print: return "print";
      case Op::Marker: return "marker";
      case Op::Spawn: return "spawn";
      case Op::AtomicBegin: return "aregion_begin";
      case Op::AtomicEnd: return "aregion_end";
      case Op::Assert: return "assert";
      case Op::Branch: return "branch";
      case Op::Jump: return "jump";
      case Op::Ret: return "ret";
    }
    return "<bad>";
}

bool
isTerminator(Op op)
{
    return op == Op::Branch || op == Op::Jump || op == Op::Ret;
}

bool
isPureValue(Op op)
{
    switch (op) {
      case Op::Const:
      case Op::Mov:
      case Op::Phi:
      case Op::Add: case Op::Sub: case Op::Mul:
      case Op::And: case Op::Or: case Op::Xor:
      case Op::Shl: case Op::Shr:
      case Op::CmpEq: case Op::CmpNe: case Op::CmpLt:
      case Op::CmpLe: case Op::CmpGt: case Op::CmpGe:
        return true;
      // Div/Rem are pure once guarded by DivCheck, but folding them
      // freely is still fine because translation always guards them.
      case Op::Div: case Op::Rem:
        return true;
      default:
        return false;
    }
}

bool
isCheck(Op op)
{
    switch (op) {
      case Op::NullCheck:
      case Op::BoundsCheck:
      case Op::DivCheck:
      case Op::SizeCheck:
      case Op::TypeCheck:
        return true;
      default:
        return false;
    }
}

bool
isLoad(Op op)
{
    switch (op) {
      case Op::LoadField:
      case Op::LoadElem:
      case Op::LoadRaw:
        return true;
      // LoadSubtype reads immutable metadata: treated as pure-ish but
      // kept separate because it reads memory in the machine model.
      case Op::LoadSubtype:
        return true;
      default:
        return false;
    }
}

bool
hasSideEffect(Op op)
{
    switch (op) {
      case Op::StoreField:
      case Op::StoreElem:
      case Op::StoreRaw:
      case Op::NewObject:
      case Op::NewArray:
      case Op::CallStatic:
      case Op::CallVirtual:
      case Op::MonitorEnter:
      case Op::MonitorExit:
      case Op::Safepoint:
      case Op::Print:
      case Op::Marker:
      case Op::Spawn:
      case Op::AtomicBegin:
      case Op::AtomicEnd:
      case Op::Assert:      // essential: only DCE must know (paper S4)
      case Op::NullCheck:
      case Op::BoundsCheck:
      case Op::DivCheck:
      case Op::SizeCheck:
      case Op::TypeCheck:
      case Op::Branch:
      case Op::Jump:
      case Op::Ret:
        return true;
      default:
        return false;
    }
}

size_t
firstEffectiveInstr(const Block &blk)
{
    size_t i = 0;
    while (i < blk.instrs.size() &&
           (blk.instrs[i].op == Op::Phi || blk.instrs[i].op == Op::Mov ||
            blk.instrs[i].op == Op::Const)) {
        ++i;
    }
    return i;
}

bool
isRegionEntryBlock(const Block &blk)
{
    const size_t lead = firstEffectiveInstr(blk);
    return lead < blk.instrs.size() &&
           blk.instrs[lead].op == Op::AtomicBegin;
}

namespace {

void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendVreg(std::string &out, const char *lead, Vreg v)
{
    out += lead;
    out += 'v';
    appendInt(out, v);
}

} // namespace

std::string
Instr::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
Instr::appendTo(std::string &out) const
{
    if (dst != NO_VREG) {
        appendVreg(out, "", dst);
        out += " = ";
    }
    out += opName(op);
    if (op == Op::Phi) {
        for (size_t i = 0; i < srcs.size(); ++i) {
            const int from =
                i < phiBlocks.size() ? phiBlocks[i] : -1;
            appendVreg(out, i ? ", [" : " [", srcs[i]);
            out += ", b";
            appendInt(out, from);
            out += ']';
        }
        return;
    }
    for (Vreg s : srcs)
        appendVreg(out, " ", s);
    switch (op) {
      case Op::Const:
      case Op::LoadRaw:
      case Op::StoreRaw:
      case Op::Marker:
        out += " #";
        appendInt(out, imm);
        break;
      default:
        break;
    }
    const char *label = nullptr;
    switch (op) {
      case Op::LoadField: case Op::StoreField:
        label = " field=";
        break;
      case Op::NewObject: case Op::LoadSubtype:
        label = " class=";
        break;
      case Op::CallStatic: case Op::Spawn:
        label = " method=";
        break;
      case Op::CallVirtual:
        label = " slot=";
        break;
      case Op::AtomicBegin: case Op::AtomicEnd:
        label = " region=";
        break;
      case Op::Assert:
        label = " abort=";
        break;
      default:
        break;
    }
    if (label) {
        out += label;
        appendInt(out, aux);
    }
}

Block &
Function::newBlock()
{
    auto blk = std::make_unique<Block>();
    blk->id = static_cast<int>(blocksVec.size());
    blocksVec.push_back(std::move(blk));
    return *blocksVec.back();
}

Block &
Function::block(int id)
{
    AREGION_ASSERT(id >= 0 && id < numBlocks(), "bad block id ", id);
    return *blocksVec[static_cast<size_t>(id)];
}

const Block &
Function::block(int id) const
{
    AREGION_ASSERT(id >= 0 && id < numBlocks(), "bad block id ", id);
    return *blocksVec[static_cast<size_t>(id)];
}

namespace {

/** Iterative post-order DFS from the entry, then reversed. */
void
rpoInto(const Function &func, std::vector<int> &order,
        std::vector<uint8_t> &seen,
        std::vector<std::pair<int, size_t>> &stack)
{
    order.clear();
    seen.assign(static_cast<size_t>(func.numBlocks()), 0);
    stack.clear();
    stack.emplace_back(func.entry, 0);
    seen[static_cast<size_t>(func.entry)] = 1;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const Block &blk = func.block(b);
        if (next < blk.succs.size()) {
            const int s = blk.succs[next++];
            if (!seen[static_cast<size_t>(s)]) {
                seen[static_cast<size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
}

/** compact()'s reused buffers. */
struct CompactState
{
    RpoBuffer rpo;
    std::vector<int> remap;
    std::vector<std::unique_ptr<Block>> next;
    std::vector<int> regionRemap;
};

} // namespace

const std::vector<int> &
RpoBuffer::compute(const Function &func)
{
    rpoInto(func, order, seen, stack);
    return order;
}

void
PredLists::compute(const Function &func)
{
    build(static_cast<size_t>(func.numBlocks()), [&](auto &&emit) {
        for (int b = 0; b < func.numBlocks(); ++b) {
            for (int s : func.block(b).succs)
                emit(s, b);
        }
    });
}

std::vector<std::vector<int>>
Function::computePreds() const
{
    std::vector<std::vector<int>> preds(
        static_cast<size_t>(numBlocks()));
    for (int b = 0; b < numBlocks(); ++b) {
        for (int s : block(b).succs)
            preds[static_cast<size_t>(s)].push_back(b);
    }
    return preds;
}

std::vector<int>
Function::reversePostOrder() const
{
    std::vector<int> order;
    std::vector<uint8_t> seen;
    std::vector<std::pair<int, size_t>> stack;
    rpoInto(*this, order, seen, stack);
    return order;
}

int
Function::countInstrs() const
{
    PassScratch scratch;
    return countInstrs(scratch);
}

int
Function::countInstrs(PassScratch &scratch) const
{
    // A state type of its own: callers may be walking another
    // RpoBuffer of the same scratch.
    struct CountState
    {
        RpoBuffer rpo;
    };
    int total = 0;
    for (int b : scratch.get<CountState>().rpo.compute(*this))
        total += static_cast<int>(block(b).instrs.size());
    return total;
}

void
Function::shrinkToFit()
{
    blocksVec.shrink_to_fit();
    for (auto &blk : blocksVec) {
        if (blk->instrs.capacity() > blk->instrs.size())
            blk->instrs.shrink_to_fit();
    }
}

std::vector<int>
Function::compact()
{
    PassScratch scratch;
    return compact(scratch);
}

const std::vector<int> &
Function::compact(PassScratch &scratch)
{
    CompactState &st = scratch.get<CompactState>();
    const std::vector<int> &order = st.rpo.compute(*this);
    std::vector<int> &remap = st.remap;
    remap.assign(static_cast<size_t>(numBlocks()), -1);
    for (size_t i = 0; i < order.size(); ++i)
        remap[static_cast<size_t>(order[i])] = static_cast<int>(i);

    std::vector<std::unique_ptr<Block>> &next = st.next;
    next.clear();
    next.reserve(order.size());
    for (int old_id : order) {
        auto blk = std::move(blocksVec[static_cast<size_t>(old_id)]);
        blk->id = remap[static_cast<size_t>(old_id)];
        for (int &s : blk->succs) {
            AREGION_ASSERT(remap[static_cast<size_t>(s)] != -1,
                           "reachable block points at dead block");
            s = remap[static_cast<size_t>(s)];
        }
        // Phi slots whose predecessor died go away with the edge.
        for (Instr &in : blk->instrs) {
            if (in.op != Op::Phi)
                continue;
            size_t keep = 0;
            for (size_t i = 0; i < in.phiBlocks.size(); ++i) {
                const int p =
                    remap[static_cast<size_t>(in.phiBlocks[i])];
                if (p == -1)
                    continue;
                in.phiBlocks[keep] = p;
                in.srcs[keep] = in.srcs[i];
                ++keep;
            }
            in.phiBlocks.resize(keep);
            in.srcs.resize(keep);
        }
        next.push_back(std::move(blk));
    }
    // The unreachable blocks left behind in blocksVec are freed here.
    blocksVec.swap(next);
    next.clear();
    entry = remap[static_cast<size_t>(entry)];

    // Drop regions whose entry died, then renumber the survivors
    // densely (in order) and fix block tags plus the ids stored
    // inside AtomicBegin/AtomicEnd instructions.
    int max_region = -1;
    for (const RegionInfo &r : regions)
        max_region = std::max(max_region, r.id);
    std::vector<int> &region_remap = st.regionRemap;
    region_remap.assign(static_cast<size_t>(max_region + 1), -1);
    size_t kept = 0;
    for (RegionInfo &r : regions) {
        const int e = remap[static_cast<size_t>(r.entryBlock)];
        if (e == -1)
            continue;
        AREGION_ASSERT(r.id >= 0, "region without an id survived");
        r.entryBlock = e;
        AREGION_ASSERT(remap[static_cast<size_t>(r.altBlock)] != -1,
                       "region alt block died while entry survived");
        r.altBlock = remap[static_cast<size_t>(r.altBlock)];
        region_remap[static_cast<size_t>(r.id)] =
            static_cast<int>(kept);
        r.id = static_cast<int>(kept);
        if (&regions[kept] != &r)
            regions[kept] = std::move(r);
        ++kept;
    }
    regions.resize(kept);
    auto new_region = [&](int old_id) {
        return old_id >= 0 && old_id <= max_region
                   ? region_remap[static_cast<size_t>(old_id)]
                   : -1;
    };
    for (auto &blk : blocksVec) {
        if (blk->regionId >= 0)
            blk->regionId = new_region(blk->regionId);
        for (Instr &in : blk->instrs) {
            if (in.op == Op::AtomicBegin || in.op == Op::AtomicEnd) {
                const int mapped = new_region(in.aux);
                AREGION_ASSERT(mapped != -1,
                               "atomic op for dropped region survived");
                in.aux = mapped;
            }
        }
    }
    return remap;
}

} // namespace aregion::ir
