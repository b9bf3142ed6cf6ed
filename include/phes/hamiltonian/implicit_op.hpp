#pragma once
// Structure-exploiting application of the Hamiltonian matrix M itself
// (no inversion):  y = M x  in O(n p).
//
// Used to estimate |lambda_max(M)|, which bounds the search bandwidth
// (paper Sec. IV-A: "the upper bound is precomputed as the magnitude of
// the largest Hamiltonian eigenvalue, which can be obtained with a
// single-shift iteration on M without applying any shift-and-invert
// operation").

#include <memory>

#include "phes/la/lu.hpp"
#include "phes/hamiltonian/operators.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::hamiltonian {

class ImplicitHamiltonianOp final : public ComplexLinearOperator {
 public:
  /// Keeps a reference to `realization`; the caller guarantees it
  /// outlives the operator.  The apply batches the R^{-1}/S^{-1} small
  /// solves through one fused multi-RHS LU apply, runs the dense C
  /// products on split real/imag planes, and fuses the A / A^T block
  /// traversals of the two Hamiltonian halves (J-symmetry: y1 and y2
  /// walk the same blocks).
  explicit ImplicitHamiltonianOp(
      const macromodel::SimoRealization& realization);

  [[nodiscard]] std::size_t dim() const noexcept override {
    return 2 * realization_.order();
  }

  void apply(std::span<const Complex> x,
             std::span<Complex> y) const override;

 private:
  const macromodel::SimoRealization& realization_;
  la::LuFactorization<double> r_lu_;  ///< R = D^T D - I
  la::LuFactorization<double> s_lu_;  ///< S = D D^T - I
  la::RealMatrix d_;
};

}  // namespace phes::hamiltonian
