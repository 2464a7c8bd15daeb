#ifndef FITS_IR_VALIDATE_HH_
#define FITS_IR_VALIDATE_HH_

#include <string>
#include <vector>

#include "ir/function.hh"

namespace fits::ir {

/**
 * Structural validation of a function. Returns a list of human-readable
 * problems; empty means the function is well-formed. Checks:
 *   - the entry block exists and its address equals the function entry;
 *   - blocks are laid out contiguously in address order;
 *   - every used temporary is defined somewhere in the function and all
 *     temporary ids are below numTmps;
 *   - numTmps is at most the statement count (each statement defines at
 *     most one temporary), so a decoded count cannot size an allocation
 *     the code does not justify; a function failing this reports only
 *     this problem;
 *   - direct branch/jump targets land on a block boundary inside the
 *     function;
 *   - terminators appear only in terminal position of a block;
 *   - register ids are within the guest register file.
 */
std::vector<std::string> validateFunction(const Function &fn);

/** Validate every function of a program; problems are prefixed with the
 * function entry address. */
std::vector<std::string> validateProgram(const Program &program);

} // namespace fits::ir

#endif // FITS_IR_VALIDATE_HH_
