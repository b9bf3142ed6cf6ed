#pragma once
// Householder reduction to upper Hessenberg form (real and complex).

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Result of a complex Hessenberg reduction A = Q H Q^H.
struct ComplexHessenbergResult {
  ComplexMatrix h;  ///< upper Hessenberg
  ComplexMatrix q;  ///< unitary accumulator (empty if not requested)
};

/// Reduce a real square matrix to upper Hessenberg form H, similar to
/// `a`.  The orthogonal factor is not formed: the one caller, the
/// eigenvalues-only Francis iteration, never reads it.
[[nodiscard]] RealMatrix hessenberg_reduce(RealMatrix a);

/// Reduce a complex square matrix to Hessenberg form.
[[nodiscard]] ComplexHessenbergResult hessenberg_reduce(ComplexMatrix a,
                                                        bool accumulate_q);

}  // namespace phes::la
