#include "ir/evaluator.hh"

#include "vm/arith.hh"
#include "vm/layout.hh"

namespace aregion::ir {

namespace layout = vm::layout;
using vm::Trap;
using vm::TrapKind;

Evaluator::Evaluator(const Module &mod_, uint64_t max_words)
    : mod(mod_), heap(*mod_.prog, max_words)
{
}

int64_t &
Evaluator::reg(Vreg v)
{
    Frame &frame = stack.back();
    AREGION_ASSERT(v >= 0 &&
                   static_cast<size_t>(v) < frame.regs.size(),
                   "vreg ", v, " out of range in ", frame.func->name);
    return frame.regs[static_cast<size_t>(v)];
}

uint64_t
Evaluator::checkRef(int64_t value, int bc_method, int bc_pc) const
{
    if (value == 0)
        throw Trap(TrapKind::NullPointer, bc_method, bc_pc);
    return static_cast<uint64_t>(value);
}

void
Evaluator::store(uint64_t addr, int64_t value)
{
    if (checkpoint)
        checkpoint->undoLog.emplace_back(addr, heap.load(addr));
    heap.store(addr, value);
}

void
Evaluator::rollbackToAlt()
{
    AREGION_ASSERT(checkpoint.has_value(), "rollback without region");
    Frame &frame = stack.back();
    frame.regs = checkpoint->regs;
    for (auto it = checkpoint->undoLog.rbegin();
         it != checkpoint->undoLog.rend(); ++it) {
        heap.store(it->first, it->second);
    }
    heap.allocReset(checkpoint->allocMark);

    const auto rid = static_cast<size_t>(checkpoint->regionId);
    AREGION_ASSERT(rid < frame.func->regions.size(),
                   "bad region id in rollback");
    const RegionInfo &region = frame.func->regions[rid];
    frame.block = region.altBlock;
    frame.idx = 0;
    checkpoint.reset();
    result.regionAborts++;
}

void
Evaluator::execute(const Instr &in, bool &advanced)
{
    namespace arith = vm::arith;
    Frame &frame = stack.back();
    const int mid = frame.func->methodId;
    // Traps report the *originating* bytecode method: after inlining
    // the executing function differs from the method that contains
    // the faulting bytecode, and the interpreter (the reference
    // semantics) and the machine both attribute the trap to the
    // latter. Explicit abort bookkeeping stays keyed by the
    // executing function, matching the machine's per-region stats.
    const int trap_mid = in.bcMethod >= 0 ? in.bcMethod : mid;

    auto jumpTo = [&](int block) {
        stack.back().block = block;
        stack.back().idx = 0;
        advanced = true;
    };

    switch (in.op) {
      case Op::Const:
        reg(in.dst) = in.imm;
        break;
      case Op::Mov:
        reg(in.dst) = reg(in.s0());
        break;
      case Op::Phi:
        AREGION_PANIC("phi in ", frame.func->name,
                      ": the evaluator runs only post-destroySSA IR");
      case Op::Add:
        reg(in.dst) = arith::javaAdd(reg(in.s0()), reg(in.s1()));
        break;
      case Op::Sub:
        reg(in.dst) = arith::javaSub(reg(in.s0()), reg(in.s1()));
        break;
      case Op::Mul:
        reg(in.dst) = arith::javaMul(reg(in.s0()), reg(in.s1()));
        break;
      case Op::Div: {
        const int64_t d = reg(in.s1());
        if (d == 0)
            throw Trap(TrapKind::DivideByZero, trap_mid, in.bcPc);
        reg(in.dst) = arith::javaDiv(reg(in.s0()), d);
        break;
      }
      case Op::Rem: {
        const int64_t d = reg(in.s1());
        if (d == 0)
            throw Trap(TrapKind::DivideByZero, trap_mid, in.bcPc);
        reg(in.dst) = arith::javaRem(reg(in.s0()), d);
        break;
      }
      case Op::And:
        reg(in.dst) = reg(in.s0()) & reg(in.s1());
        break;
      case Op::Or:
        reg(in.dst) = reg(in.s0()) | reg(in.s1());
        break;
      case Op::Xor:
        reg(in.dst) = reg(in.s0()) ^ reg(in.s1());
        break;
      case Op::Shl:
        reg(in.dst) = arith::javaShl(reg(in.s0()), reg(in.s1()));
        break;
      case Op::Shr:
        reg(in.dst) = arith::javaShr(reg(in.s0()), reg(in.s1()));
        break;
      case Op::CmpEq:
        reg(in.dst) = reg(in.s0()) == reg(in.s1());
        break;
      case Op::CmpNe:
        reg(in.dst) = reg(in.s0()) != reg(in.s1());
        break;
      case Op::CmpLt:
        reg(in.dst) = reg(in.s0()) < reg(in.s1());
        break;
      case Op::CmpLe:
        reg(in.dst) = reg(in.s0()) <= reg(in.s1());
        break;
      case Op::CmpGt:
        reg(in.dst) = reg(in.s0()) > reg(in.s1());
        break;
      case Op::CmpGe:
        reg(in.dst) = reg(in.s0()) >= reg(in.s1());
        break;

      case Op::LoadField: {
        const auto obj = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        reg(in.dst) = heap.load(obj + layout::OBJ_FIELD_BASE +
                                static_cast<uint64_t>(in.aux));
        break;
      }
      case Op::StoreField: {
        const auto obj = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        store(obj + layout::OBJ_FIELD_BASE +
              static_cast<uint64_t>(in.aux), reg(in.s1()));
        break;
      }
      case Op::LoadElem: {
        const auto arr = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        const auto addr = arr + static_cast<uint64_t>(
            layout::ARR_ELEM_BASE + reg(in.s1()));
        // A postdominating check may not have run yet inside an
        // atomic region; tolerate speculative wild loads as zero.
        if (!heap.inBounds(addr)) {
            AREGION_ASSERT(checkpoint.has_value(),
                           "non-speculative wild load");
            reg(in.dst) = 0;
        } else {
            reg(in.dst) = heap.load(addr);
        }
        break;
      }
      case Op::StoreElem: {
        const auto arr = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        const auto addr = arr + static_cast<uint64_t>(
            layout::ARR_ELEM_BASE + reg(in.s1()));
        AREGION_ASSERT(heap.inBounds(addr) || checkpoint.has_value(),
                       "non-speculative wild store");
        if (heap.inBounds(addr))
            store(addr, reg(in.s2()));
        break;
      }
      case Op::LoadRaw: {
        const auto base = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        reg(in.dst) = heap.load(base + static_cast<uint64_t>(in.imm));
        break;
      }
      case Op::StoreRaw: {
        const auto base = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        store(base + static_cast<uint64_t>(in.imm), reg(in.s1()));
        break;
      }
      case Op::LoadSubtype: {
        const int64_t cls = reg(in.s0());
        reg(in.dst) =
            cls >= 0 && cls < mod.prog->numClasses() &&
            mod.prog->isSubclassOf(static_cast<vm::ClassId>(cls),
                                   in.aux);
        break;
      }

      case Op::NullCheck:
        if (reg(in.s0()) == 0)
            throw Trap(TrapKind::NullPointer, trap_mid, in.bcPc);
        break;
      case Op::BoundsCheck: {
        const int64_t idx = reg(in.s0());
        if (idx < 0 || idx >= reg(in.s1()))
            throw Trap(TrapKind::ArrayBounds, trap_mid, in.bcPc);
        break;
      }
      case Op::DivCheck:
        if (reg(in.s0()) == 0)
            throw Trap(TrapKind::DivideByZero, trap_mid, in.bcPc);
        break;
      case Op::SizeCheck:
        if (reg(in.s0()) < 0)
            throw Trap(TrapKind::NegativeArraySize, trap_mid, in.bcPc);
        break;
      case Op::TypeCheck:
        if (reg(in.s0()) == 0)
            throw Trap(TrapKind::ClassCast, trap_mid, in.bcPc);
        break;

      case Op::NewObject:
        reg(in.dst) = static_cast<int64_t>(heap.allocObject(in.aux));
        break;
      case Op::NewArray: {
        const int64_t len = reg(in.s0());
        if (len < 0)
            throw Trap(TrapKind::NegativeArraySize, trap_mid, in.bcPc);
        reg(in.dst) = static_cast<int64_t>(heap.allocArray(len));
        break;
      }

      case Op::CallStatic:
      case Op::CallVirtual: {
        AREGION_ASSERT(!checkpoint.has_value(),
                       "call inside atomic region");
        vm::MethodId callee;
        if (in.op == Op::CallStatic) {
            callee = in.aux;
        } else {
            const auto recv = checkRef(reg(in.s0()), trap_mid, in.bcPc);
            const auto cls = static_cast<vm::ClassId>(
                heap.load(recv + layout::HDR_CLASS));
            callee = mod.prog->resolveVirtual(cls, in.aux);
        }
        auto it = mod.funcs.find(callee);
        AREGION_ASSERT(it != mod.funcs.end(),
                       "callee ", callee, " not in module");
        Frame next;
        next.func = &it->second;
        next.regs.assign(
            static_cast<size_t>(next.func->numVregs()), 0);
        AREGION_ASSERT(in.srcs.size() ==
                       static_cast<size_t>(next.func->numArgs),
                       "call arity mismatch into ", next.func->name);
        for (size_t i = 0; i < in.srcs.size(); ++i)
            next.regs[i] = reg(in.srcs[i]);
        next.block = next.func->entry;
        next.retDst = in.dst;
        // Advance the caller past the call before pushing.
        frame.idx++;
        stack.push_back(std::move(next));
        advanced = true;
        break;
      }

      case Op::MonitorEnter: {
        const auto obj = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        const int64_t word = heap.load(obj + layout::HDR_LOCK);
        const int owner = layout::lockOwner(word);
        AREGION_ASSERT(owner == -1 || owner == 0,
                       "single-threaded evaluator found foreign lock");
        const int64_t depth =
            owner == 0 ? layout::lockDepth(word) + 1 : 1;
        store(obj + layout::HDR_LOCK, layout::lockWord(0, depth));
        break;
      }
      case Op::MonitorExit: {
        const auto obj = checkRef(reg(in.s0()), trap_mid, in.bcPc);
        const int64_t word = heap.load(obj + layout::HDR_LOCK);
        AREGION_ASSERT(layout::lockOwner(word) == 0,
                       "monitorexit without monitorenter");
        const int64_t depth = layout::lockDepth(word) - 1;
        store(obj + layout::HDR_LOCK,
              depth == 0 ? 0 : layout::lockWord(0, depth));
        break;
      }

      case Op::Safepoint:
      case Op::Marker:
        break;
      case Op::Print:
        outputStream.push_back(reg(in.s0()));
        break;
      case Op::Spawn:
        AREGION_PANIC("Spawn is not supported by the IR evaluator");

      case Op::AtomicBegin: {
        AREGION_ASSERT(!checkpoint.has_value(), "nested atomic region");
        Checkpoint cp;
        cp.regionId = in.aux;
        cp.regs = frame.regs;
        cp.allocMark = heap.allocMark();
        checkpoint = std::move(cp);
        result.regionEntries++;
        break;
      }
      case Op::AtomicEnd:
        AREGION_ASSERT(checkpoint.has_value(),
                       "aregion_end without aregion_begin");
        ++atomicEnds;
        if (forceAbortPeriod && atomicEnds % forceAbortPeriod == 0) {
            rollbackToAlt();
            advanced = true;
        } else {
            checkpoint.reset();
            result.regionCommits++;
        }
        break;
      case Op::Assert:
        if (in.imm ? reg(in.s0()) == 0 : reg(in.s0()) != 0) {
            result.abortCounts[{mid, in.aux}]++;
            rollbackToAlt();
            advanced = true;
        }
        break;

      case Op::Branch: {
        const int target =
            reg(in.s0()) != 0 ? frame.func->block(frame.block).succs[0]
                              : frame.func->block(frame.block).succs[1];
        jumpTo(target);
        break;
      }
      case Op::Jump:
        jumpTo(frame.func->block(frame.block).succs[0]);
        break;
      case Op::Ret: {
        AREGION_ASSERT(!checkpoint.has_value(),
                       "return inside atomic region");
        std::optional<int64_t> value;
        if (!in.srcs.empty())
            value = reg(in.s0());
        const Vreg ret_dst = frame.retDst;
        stack.pop_back();
        if (!stack.empty() && ret_dst != NO_VREG) {
            AREGION_ASSERT(value.has_value(),
                           "void return into destination");
            reg(ret_dst) = *value;
        }
        advanced = true;
        break;
      }
    }
}

EvalResult
Evaluator::run(uint64_t max_steps)
{
    result = EvalResult{};
    outputStream.clear();
    checkpoint.reset();
    atomicEnds = 0;
    stack.clear();

    auto main_it = mod.funcs.find(mod.prog->mainMethod);
    AREGION_ASSERT(main_it != mod.funcs.end(), "module lacks main");
    Frame frame;
    frame.func = &main_it->second;
    frame.regs.assign(static_cast<size_t>(frame.func->numVregs()), 0);
    frame.block = frame.func->entry;
    stack.push_back(std::move(frame));

    while (!stack.empty() && result.instrs < max_steps) {
        Frame &top = stack.back();
        const Block &blk = top.func->block(top.block);
        AREGION_ASSERT(top.idx < blk.instrs.size(),
                       "fell off block b", top.block, " in ",
                       top.func->name);
        const Instr &in = blk.instrs[top.idx];
        bool advanced = false;
        ++result.instrs;
        try {
            execute(in, advanced);
        } catch (const Trap &trap) {
            if (checkpoint) {
                // Exceptions inside a region abort it; the
                // non-speculative path re-raises precisely.
                rollbackToAlt();
                continue;
            }
            result.trap = trap;
            return result;
        }
        if (!advanced)
            ++stack.back().idx;
    }

    result.completed = stack.empty();
    return result;
}

} // namespace aregion::ir
