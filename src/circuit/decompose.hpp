#pragma once
// Basis lowering.
//
// Routing inserts explicit SWAP gates; hardware executes CX only, so SWAPs
// are lowered to 3 CX before execution/error accounting. CZ lowers to
// H-CX-H when a device lacks native CZ.

#include "circuit/circuit.hpp"

namespace qucp {

/// Full lowering used before execution, in one walk: each SWAP becomes 3 CX
/// (orientation alternates to balance error), each CZ becomes H(target) CX
/// H(target), and every other op passes through unchanged.
[[nodiscard]] Circuit lower_to_cx_basis(const Circuit& circuit);

}  // namespace qucp
