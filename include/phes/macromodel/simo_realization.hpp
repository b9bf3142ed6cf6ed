#pragma once
// The structured state-space realization of paper Eq. 2:
//
//   A = blkdiag{A_k},  B = blkdiag{u_k},  C = [C_1 ... C_p]
//
// where A_k holds the poles of column k (1x1 blocks for real poles,
// 2x2 rotation-form blocks [[alpha, beta], [-beta, alpha]] for complex
// pairs after the real transformation of [9]) and u_k excites every
// block of its column.  A has at most 2n nonzeros and B at most n, so
// A x, B u, (A +- theta I)^{-1} x and H(s) all cost O(n) / O(n p).
//
// This structure is what makes the Sherman-Morrison-Woodbury
// shift-and-invert operator (hamiltonian/shift_invert.hpp) linear in n,
// which in turn is what makes the Krylov eigensolver viable.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/statespace.hpp"

namespace phes::macromodel {

/// One diagonal block of A.
struct SimoBlock {
  std::size_t state = 0;   ///< index of the block's first state
  std::size_t column = 0;  ///< owning port column (0-based)
  bool is_pair = false;    ///< false: 1x1 real pole; true: 2x2 pair
  double alpha = 0.0;      ///< real pole value, or Re(pole) for pairs
  double beta = 0.0;       ///< Im(pole) for pairs (beta > 0)
};

/// Sparse-structured realization; immutable after construction except
/// for the residue matrix C (which passivity enforcement perturbs).
class SimoRealization {
 public:
  /// Build from a pole-residue model (complex pairs are converted to the
  /// real 2x2 form; the C entries become [2 Re r, 2 Im r]).
  explicit SimoRealization(const PoleResidueModel& model);

  [[nodiscard]] std::size_t ports() const noexcept { return d_.rows(); }
  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  [[nodiscard]] const std::vector<SimoBlock>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const RealMatrix& c() const noexcept { return c_; }
  [[nodiscard]] RealMatrix& c() noexcept { return c_; }
  [[nodiscard]] const RealMatrix& d() const noexcept { return d_; }

  /// Largest pole magnitude.
  [[nodiscard]] double max_pole_magnitude() const noexcept;

  /// Fast transfer-matrix evaluation H(s) = D + C (sI - A)^{-1} B using
  /// the block structure.  O(n p).
  [[nodiscard]] ComplexMatrix eval(Complex s) const;
  [[nodiscard]] ComplexMatrix eval(double omega) const {
    return eval(Complex(0.0, omega));
  }

  /// z = (sI - A)^{-1} B v for a single complex port vector v.  O(n).
  /// This is the linearization kernel used by passivity enforcement.
  void resolvent_b(Complex s, std::span<const Complex> v,
                   std::span<Complex> z) const;

  /// Expand to a dense {A, B, C, D} model: the input of the dense
  /// Hamiltonian that core::solve_dense eigensolves.
  [[nodiscard]] StateSpaceModel to_dense() const;

 private:
  std::size_t order_ = 0;
  std::vector<SimoBlock> blocks_;
  RealMatrix c_;  ///< p x n
  RealMatrix d_;  ///< p x p
};

}  // namespace phes::macromodel
