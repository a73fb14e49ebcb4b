/**
 * @file
 * Human-readable IR dumps for debugging and examples.
 */

#ifndef AREGION_IR_PRINTER_HH
#define AREGION_IR_PRINTER_HH

#include <string>

#include "ir/ir.hh"

namespace aregion::ir {

/** Render a function: blocks in id order with succ/profile info. */
std::string toString(const Function &func);

/** Append toString(func)'s text to `out`, so a caller printing many
 *  functions can reuse one buffer. */
void appendTo(std::string &out, const Function &func);

} // namespace aregion::ir

#endif // AREGION_IR_PRINTER_HH
