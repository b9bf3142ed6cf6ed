#pragma once
// Householder reduction of a real matrix to upper Hessenberg form.

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Reduce a real square matrix to upper Hessenberg form H, similar to
/// `a`.  The orthogonal factor is not formed: the one caller, the
/// eigenvalues-only Francis iteration, never reads it.
// Starts on a 64-byte boundary, like QrFactorization's constructor:
// a hot serving function whose speed otherwise moves with the size
// of the code linked before it.
[[nodiscard]] __attribute__((aligned(64))) RealMatrix hessenberg_reduce(
    RealMatrix a);

}  // namespace phes::la
