#ifndef FITS_BINARY_FBIN_HH_
#define FITS_BINARY_FBIN_HH_

#include <cstdint>
#include <vector>

#include "binary/image.hh"
#include "support/result.hh"

namespace fits::bin {

/**
 * FBIN is the container format for binaries in this substrate, playing
 * the role ELF plays for real firmware: sections with backing bytes, a
 * dynamic import table (kept after stripping), an optional symbol
 * table, dependency library names, and the code. The code is stored as
 * FIR statements, so decoding a FBIN is simultaneously "lifting" it.
 *
 * Layout (all little-endian, strings length-prefixed):
 *   "FBIN" u32 version
 *   name, u8 arch, u8 stripped
 *   u32 nSections { name, u64 addr, u8 flags, u32 size, bytes }
 *   u32 nImports  { u64 pltAddr, name, library }
 *   u32 nSymbols  { u64 addr, name }
 *   u32 nDeps     { name }
 *   u32 nFunctions{ u64 entry, name, u32 numTmps,
 *                   u32 nBlocks { u64 addr, u32 nStmts { stmt } } }
 */
constexpr std::uint32_t kFbinVersion = 1;

/** Serialize an image to FBIN bytes. */
std::vector<std::uint8_t> writeBinary(const BinaryImage &image);

/** Parse FBIN bytes and validate the decoded IR (ir::validateProgram);
 * returns a typed error on malformed input or ill-formed IR. */
support::Result<BinaryImage> loadBinary(
    const std::vector<std::uint8_t> &bytes);

} // namespace fits::bin

#endif // FITS_BINARY_FBIN_HH_
