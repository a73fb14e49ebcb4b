#include "hw/codegen.hh"

#include "support/logging.hh"
#include "vm/layout.hh"
#include "vm/trap.hh"

namespace aregion::hw {

namespace layout = vm::layout;
using ir::Op;

LayoutInfo
LayoutInfo::fromHeap(const vm::Heap &heap)
{
    LayoutInfo info;
    info.vtableBase = heap.vtableAddr(0, 0);
    info.subtypeBase = heap.subtypeBase();
    info.subtypeColumns = heap.subtypeColumns();
    return info;
}

namespace {

/** Deferred out-of-line code appended after the main body. */
struct Stub
{
    enum Kind { TrapStub, AbortStub, LockSlowStub, UnlockSlowStub,
                YieldStub } kind;
    int aux = 0;            ///< trap kind or abort id
    MReg obj = NO_MREG;     ///< monitor object for lock stubs
    int resume = -1;        ///< uop offset to jump back to
    int bcMethod = -1;
    int bcPc = -1;
    /** Branch sites waiting for this stub's offset. */
    std::vector<size_t> patchSites;
};

class Lowerer
{
  public:
    Lowerer(const ir::Function &func_, const LayoutInfo &layout_)
        : f(func_), lay(layout_)
    {
        out.methodId = f.methodId;
        out.name = f.name;
        out.numArgs = f.numArgs;
        nextReg = f.numVregs();
        blockStart.assign(static_cast<size_t>(f.numBlocks()), -1);
    }

    MachineFunction run();

  private:
    MReg temp() { return nextReg++; }

    size_t
    emit(MUop uop)
    {
        uop.bcMethod = curBcMethod;
        uop.bcPc = curBcPc;
        out.code.push_back(std::move(uop));
        return out.code.size() - 1;
    }

    MUop
    mk(MKind kind, MReg dst = NO_MREG, SrcList srcs = {},
       int64_t imm = 0, int aux = 0)
    {
        MUop uop;
        uop.kind = kind;
        uop.dst = dst;
        uop.srcs = std::move(srcs);
        uop.imm = imm;
        uop.aux = aux;
        return uop;
    }

    MUop
    alu(AluOp op, MReg dst, MReg a, MReg b)
    {
        MUop uop = mk(MKind::Alu, dst, {a, b});
        uop.alu = op;
        return uop;
    }

    /** Emit a branch whose target is a block (fixed up later). */
    void
    branchToBlock(MReg cond, bool if_zero, int block)
    {
        MUop uop = mk(MKind::Br, NO_MREG, {cond});
        uop.brIfZero = if_zero;
        blockFixups.emplace_back(emit(uop), block);
    }

    void
    jumpToBlock(int block)
    {
        blockFixups.emplace_back(emit(mk(MKind::Jmp)), block);
    }

    /** Branch to an out-of-line stub. */
    void
    branchToStub(MReg cond, bool if_zero, Stub stub)
    {
        MUop uop = mk(MKind::Br, NO_MREG, {cond});
        uop.brIfZero = if_zero;
        const size_t site = emit(uop);
        stub.bcMethod = curBcMethod;
        stub.bcPc = curBcPc;
        stub.patchSites.push_back(site);
        stubs.push_back(std::move(stub));
    }

    void lowerInstr(const ir::Instr &in, const ir::Block &blk,
                    int next_block);
    void appendStubs();

    const ir::Function &f;
    const LayoutInfo &lay;
    MachineFunction out;
    std::vector<int> blockStart;
    std::vector<std::pair<size_t, int>> blockFixups;
    std::vector<Stub> stubs;
    int nextReg;
    int curBcMethod = -1;
    int curBcPc = -1;
};

MachineFunction
Lowerer::run()
{
    const auto order = f.reversePostOrder();
    for (size_t i = 0; i < order.size(); ++i) {
        const int b = order[i];
        const ir::Block &blk = f.block(b);
        blockStart[static_cast<size_t>(b)] =
            static_cast<int>(out.code.size());
        const int next_block =
            i + 1 < order.size() ? order[i + 1] : -1;
        for (const ir::Instr &in : blk.instrs) {
            curBcMethod = in.bcMethod;
            curBcPc = in.bcPc;
            lowerInstr(in, blk, next_block);
        }
    }
    appendStubs();

    for (const auto &[site, block] : blockFixups) {
        const int target = blockStart[static_cast<size_t>(block)];
        AREGION_ASSERT(target >= 0, "branch to unlowered block ",
                       block, " in ", f.name);
        out.code[site].target = target;
    }

    for (const ir::RegionInfo &region : f.regions)
        out.regionAborts[region.id] = region.abortOrigins;

    out.numRegs = nextReg;
    AREGION_ASSERT(out.code.size() < 0xffff,
                   "method ", f.name, " exceeds the 64k-uop pc space");
    return std::move(out);
}

void
Lowerer::lowerInstr(const ir::Instr &in, const ir::Block &blk,
                    int next_block)
{
    switch (in.op) {
      case Op::Const:
        emit(mk(MKind::Imm, in.dst, {}, in.imm));
        break;
      case Op::Mov:
        emit(mk(MKind::Mov, in.dst, {in.s0()}));
        break;
      case Op::Phi:
        AREGION_PANIC("phi in block ", blk.id,
                      ": codegen lowers only post-destroySSA IR");

      case Op::Add: emit(alu(AluOp::Add, in.dst, in.s0(), in.s1())); break;
      case Op::Sub: emit(alu(AluOp::Sub, in.dst, in.s0(), in.s1())); break;
      case Op::Mul: emit(alu(AluOp::Mul, in.dst, in.s0(), in.s1())); break;
      case Op::Div: emit(alu(AluOp::Div, in.dst, in.s0(), in.s1())); break;
      case Op::Rem: emit(alu(AluOp::Rem, in.dst, in.s0(), in.s1())); break;
      case Op::And: emit(alu(AluOp::And, in.dst, in.s0(), in.s1())); break;
      case Op::Or: emit(alu(AluOp::Or, in.dst, in.s0(), in.s1())); break;
      case Op::Xor: emit(alu(AluOp::Xor, in.dst, in.s0(), in.s1())); break;
      case Op::Shl: emit(alu(AluOp::Shl, in.dst, in.s0(), in.s1())); break;
      case Op::Shr: emit(alu(AluOp::Shr, in.dst, in.s0(), in.s1())); break;
      case Op::CmpEq:
        emit(alu(AluOp::CmpEq, in.dst, in.s0(), in.s1()));
        break;
      case Op::CmpNe:
        emit(alu(AluOp::CmpNe, in.dst, in.s0(), in.s1()));
        break;
      case Op::CmpLt:
        emit(alu(AluOp::CmpLt, in.dst, in.s0(), in.s1()));
        break;
      case Op::CmpLe:
        emit(alu(AluOp::CmpLe, in.dst, in.s0(), in.s1()));
        break;
      case Op::CmpGt:
        emit(alu(AluOp::CmpGt, in.dst, in.s0(), in.s1()));
        break;
      case Op::CmpGe:
        emit(alu(AluOp::CmpGe, in.dst, in.s0(), in.s1()));
        break;

      case Op::LoadField:
        emit(mk(MKind::Load, in.dst, {in.s0()},
                layout::OBJ_FIELD_BASE + in.aux));
        break;
      case Op::StoreField:
        emit(mk(MKind::Store, NO_MREG, {in.s0(), in.s1()},
                layout::OBJ_FIELD_BASE + in.aux));
        break;
      case Op::LoadElem:
        emit(mk(MKind::Load, in.dst, {in.s0(), in.s1()},
                layout::ARR_ELEM_BASE));
        break;
      case Op::StoreElem:
        emit(mk(MKind::Store, NO_MREG, {in.s0(), in.s1(), in.s2()},
                layout::ARR_ELEM_BASE));
        break;
      case Op::LoadRaw:
        emit(mk(MKind::Load, in.dst, {in.s0()}, in.imm));
        break;
      case Op::StoreRaw:
        emit(mk(MKind::Store, NO_MREG, {in.s0(), in.s1()}, in.imm));
        break;

      case Op::LoadSubtype: {
        // dst = subtype[(cls + 2) * columns + targetClass].
        const MReg two = temp();
        emit(mk(MKind::Imm, two, {}, 2));
        const MReg row = temp();
        emit(alu(AluOp::Add, row, in.s0(), two));
        const MReg cols = temp();
        emit(mk(MKind::Imm, cols, {}, lay.subtypeColumns));
        const MReg offset = temp();
        emit(alu(AluOp::Mul, offset, row, cols));
        emit(mk(MKind::Load, in.dst, {offset},
                static_cast<int64_t>(lay.subtypeBase) + in.aux));
        break;
      }

      case Op::NullCheck:
        branchToStub(in.s0(), /*if_zero=*/true,
                     {Stub::TrapStub,
                      static_cast<int>(vm::TrapKind::NullPointer),
                      NO_MREG, -1, -1, -1, {}});
        break;
      case Op::BoundsCheck: {
        const MReg ok = temp();
        emit(alu(AluOp::CmpULt, ok, in.s0(), in.s1()));
        branchToStub(ok, /*if_zero=*/true,
                     {Stub::TrapStub,
                      static_cast<int>(vm::TrapKind::ArrayBounds),
                      NO_MREG, -1, -1, -1, {}});
        break;
      }
      case Op::DivCheck:
        branchToStub(in.s0(), /*if_zero=*/true,
                     {Stub::TrapStub,
                      static_cast<int>(vm::TrapKind::DivideByZero),
                      NO_MREG, -1, -1, -1, {}});
        break;
      case Op::SizeCheck: {
        const MReg zero = temp();
        emit(mk(MKind::Imm, zero, {}, 0));
        const MReg neg = temp();
        emit(alu(AluOp::CmpLt, neg, in.s0(), zero));
        branchToStub(neg, /*if_zero=*/false,
                     {Stub::TrapStub,
                      static_cast<int>(
                          vm::TrapKind::NegativeArraySize),
                      NO_MREG, -1, -1, -1, {}});
        break;
      }
      case Op::TypeCheck:
        branchToStub(in.s0(), /*if_zero=*/true,
                     {Stub::TrapStub,
                      static_cast<int>(vm::TrapKind::ClassCast),
                      NO_MREG, -1, -1, -1, {}});
        break;

      case Op::NewObject:
        emit(mk(MKind::Alloc, in.dst, {}, 0, in.aux));
        break;
      case Op::NewArray:
        emit(mk(MKind::Alloc, in.dst, {in.s0()}, 1));
        break;

      case Op::CallStatic: {
        MUop call = mk(MKind::CallDirect, in.dst, in.srcs, 0, in.aux);
        emit(std::move(call));
        break;
      }
      case Op::CallVirtual: {
        const MReg cls = temp();
        emit(mk(MKind::Load, cls, {in.s0()}, layout::HDR_CLASS));
        const MReg slots = temp();
        emit(mk(MKind::Imm, slots, {}, lay.vtableSlots));
        const MReg row = temp();
        emit(alu(AluOp::Mul, row, cls, slots));
        const MReg callee = temp();
        emit(mk(MKind::Load, callee, {row},
                static_cast<int64_t>(lay.vtableBase) + in.aux));
        SrcList srcs{callee};
        for (MReg r : in.srcs)
            srcs.push_back(r);
        emit(mk(MKind::CallIndirect, in.dst, std::move(srcs)));
        break;
      }

      case Op::MonitorEnter: {
        // Fast path: lock free -> CAS in our lock word.
        const MReg word = temp();
        emit(mk(MKind::Load, word, {in.s0()}, layout::HDR_LOCK));
        Stub slow{Stub::LockSlowStub, 0, in.s0(), -1, -1, -1, {}};
        {
            MUop br = mk(MKind::Br, NO_MREG, {word});
            br.brIfZero = false;        // held (even by us) -> slow
            slow.patchSites.push_back(emit(br));
        }
        const MReg mine = temp();
        emit(mk(MKind::TidWord, mine));
        const MReg old = temp();
        emit(mk(MKind::Cas, old, {in.s0(), mine},
                layout::HDR_LOCK));
        {
            MUop br = mk(MKind::Br, NO_MREG, {old});
            br.brIfZero = false;        // raced -> slow
            slow.patchSites.push_back(emit(br));
        }
        slow.resume = static_cast<int>(out.code.size());
        slow.bcMethod = curBcMethod;
        slow.bcPc = curBcPc;
        stubs.push_back(std::move(slow));
        break;
      }
      case Op::MonitorExit: {
        const MReg word = temp();
        emit(mk(MKind::Load, word, {in.s0()}, layout::HDR_LOCK));
        const MReg mine = temp();
        emit(mk(MKind::TidWord, mine));
        const MReg same = temp();
        emit(alu(AluOp::CmpEq, same, word, mine));
        Stub slow{Stub::UnlockSlowStub, 0, in.s0(), -1, -1, -1, {}};
        {
            MUop br = mk(MKind::Br, NO_MREG, {same});
            br.brIfZero = true;         // nested/foreign -> slow
            slow.patchSites.push_back(emit(br));
        }
        const MReg zero = temp();
        emit(mk(MKind::Imm, zero, {}, 0));
        emit(mk(MKind::Store, NO_MREG, {in.s0(), zero},
                layout::HDR_LOCK));
        slow.resume = static_cast<int>(out.code.size());
        slow.bcMethod = curBcMethod;
        slow.bcPc = curBcPc;
        stubs.push_back(std::move(slow));
        break;
      }

      case Op::Safepoint: {
        const MReg flag = temp();
        emit(mk(MKind::YieldLoad, flag));
        Stub stub{Stub::YieldStub, 0, NO_MREG, -1, -1, -1, {}};
        MUop br = mk(MKind::Br, NO_MREG, {flag});
        br.brIfZero = false;
        stub.patchSites.push_back(emit(br));
        stub.resume = static_cast<int>(out.code.size());
        stub.bcMethod = curBcMethod;
        stub.bcPc = curBcPc;
        stubs.push_back(std::move(stub));
        break;
      }

      case Op::Print:
        emit(mk(MKind::Print, NO_MREG, {in.s0()}));
        break;
      case Op::Marker:
        emit(mk(MKind::Marker, NO_MREG, {}, in.imm));
        break;
      case Op::Spawn:
        emit(mk(MKind::Spawn, NO_MREG, in.srcs, 0, in.aux));
        break;

      case Op::AtomicBegin: {
        // Alternate pc = the region's exception edge (succs[1]).
        AREGION_ASSERT(blk.succs.size() == 2,
                       "region entry lacks exception edge");
        MUop begin = mk(MKind::ABegin, NO_MREG, {}, 0, in.aux);
        blockFixups.emplace_back(emit(begin), blk.succs[1]);
        break;
      }
      case Op::AtomicEnd:
        emit(mk(MKind::AEnd, NO_MREG, {}, 0, in.aux));
        break;
      case Op::Assert:
        branchToStub(in.s0(), /*if_zero=*/in.imm != 0,
                     {Stub::AbortStub, in.aux, NO_MREG, -1, -1, -1,
                      {}});
        break;

      case Op::Branch:
        branchToBlock(in.s0(), /*if_zero=*/false, blk.succs[0]);
        if (blk.succs[1] != next_block)
            jumpToBlock(blk.succs[1]);
        break;
      case Op::Jump:
        if (blk.succs[0] != next_block)
            jumpToBlock(blk.succs[0]);
        break;
      case Op::Ret:
        emit(mk(MKind::Ret, NO_MREG, in.srcs));
        break;
    }
}

void
Lowerer::appendStubs()
{
    for (Stub &stub : stubs) {
        const int offset = static_cast<int>(out.code.size());
        curBcMethod = stub.bcMethod;
        curBcPc = stub.bcPc;
        switch (stub.kind) {
          case Stub::TrapStub:
            emit(mk(MKind::Trap, NO_MREG, {}, 0, stub.aux));
            break;
          case Stub::AbortStub:
            emit(mk(MKind::AAbort, NO_MREG, {}, 0, stub.aux));
            break;
          case Stub::LockSlowStub: {
            emit(mk(MKind::LockSlow, NO_MREG, {stub.obj}));
            MUop jmp = mk(MKind::Jmp);
            jmp.target = stub.resume;
            emit(std::move(jmp));
            break;
          }
          case Stub::UnlockSlowStub: {
            emit(mk(MKind::UnlockSlow, NO_MREG, {stub.obj}));
            MUop jmp = mk(MKind::Jmp);
            jmp.target = stub.resume;
            emit(std::move(jmp));
            break;
          }
          case Stub::YieldStub: {
            // The yield flag is never set in this system; the stub
            // simply resumes (its cost is the poll, not the stub).
            MUop jmp = mk(MKind::Jmp);
            jmp.target = stub.resume;
            emit(std::move(jmp));
            break;
          }
        }
        for (size_t site : stub.patchSites)
            out.code[site].target = offset;
    }
}

} // namespace

MachineFunction
lower(const ir::Function &func, const LayoutInfo &layout)
{
    Lowerer lowerer(func, layout);
    return lowerer.run();
}

MachineProgram
lowerModule(const ir::Module &mod, const LayoutInfo &layout)
{
    MachineProgram mp;
    mp.prog = mod.prog;
    for (const auto &[m, f] : mod.funcs)
        mp.funcs.emplace(m, lower(f, layout));
    return mp;
}

} // namespace aregion::hw
