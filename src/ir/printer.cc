#include "ir/printer.hh"

#include <charconv>
#include <cstdio>

namespace aregion::ir {

namespace {

void
appendInt(std::string &out, long long v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** A double as `std::ostream << v` prints it by default (%g, six
 *  significant digits). */
void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%g", v);
    out.append(buf, static_cast<size_t>(n));
}

} // namespace

std::string
toString(const Function &func)
{
    std::string out;
    appendTo(out, func);
    return out;
}

void
appendTo(std::string &out, const Function &func)
{
    out += "function ";
    out += func.name;
    out += " (args=";
    appendInt(out, func.numArgs);
    out += ", entry=b";
    appendInt(out, func.entry);
    out += ")\n";
    for (const RegionInfo &r : func.regions) {
        out += "  region ";
        appendInt(out, r.id);
        out += ": entry=b";
        appendInt(out, r.entryBlock);
        out += " alt=b";
        appendInt(out, r.altBlock);
        out += '\n';
    }
    for (int b = 0; b < func.numBlocks(); ++b) {
        const Block &blk = func.block(b);
        out += 'b';
        appendInt(out, b);
        if (blk.regionId >= 0) {
            out += " [region ";
            appendInt(out, blk.regionId);
            out += ']';
        }
        out += " (exec=";
        appendDouble(out, blk.execCount);
        out += "):\n";
        for (const Instr &in : blk.instrs) {
            out += "    ";
            in.appendTo(out);
            out += '\n';
        }
        if (!blk.succs.empty()) {
            out += "    -> ";
            for (size_t i = 0; i < blk.succs.size(); ++i) {
                out += i ? ", b" : "b";
                appendInt(out, blk.succs[i]);
                if (i < blk.succCount.size()) {
                    out += " (";
                    appendDouble(out, blk.succCount[i]);
                    out += ')';
                }
            }
            out += '\n';
        }
    }
}

} // namespace aregion::ir
