#pragma once
// Householder reduction of a real matrix to upper Hessenberg form.

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Reduce a real square matrix to upper Hessenberg form H, similar to
/// `a`.  The orthogonal factor is not formed: the one caller, the
/// eigenvalues-only Francis iteration, never reads it.
[[nodiscard]] RealMatrix hessenberg_reduce(RealMatrix a);

}  // namespace phes::la
