#pragma once
// Sherman-Morrison-Woodbury shift-and-invert operator (paper Eq. 6).
//
// Split the Hamiltonian as M = M0 + U W V with
//   M0 = blkdiag(A, -A^T),  U = [B 0; 0 C^T],  V = [C 0; 0 B^T],
//   W  = [-R^{-1} D^T  -R^{-1};  S^{-1}  D R^{-1}].
// Using the identities S D = D R and D^T S = R D^T one obtains the
// closed form W^{-1} = [-S D R^{-1}  -I;  I  D^T] and, with
// G = (M0 - theta I)^{-1},
//
//   (M - theta I)^{-1} x = G x - G U K^{-1} V G x,
//   K = W^{-1} + V G U = [ -H(theta)   -I
//                            I         H(-theta)^T ],
//
// where H(s) = D + C (sI - A)^{-1} B is the macromodel transfer matrix
// itself.  (The scanned paper's Eq. 6 has OCR-mangled signs; this
// derivation is verified against a dense complex LU solve in
// tests/test_hamiltonian.cpp.)
//
// Costs: per shift O(n p^2 + p^3) setup (two transfer evaluations and a
// 2p x 2p LU); per apply O(n p) — the term that is "linear in the
// number of macromodel states n" (paper Sec. III).

#include <memory>
#include <vector>

#include "phes/la/lu.hpp"
#include "phes/hamiltonian/operators.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::hamiltonian {

class SmwShiftInvertOp final : public ComplexLinearOperator {
 public:
  /// Prepares the per-shift factorizations for y = (M - theta I)^{-1} x.
  /// Keeps a reference to `realization` (caller guarantees lifetime).
  /// Throws std::runtime_error if theta is (numerically) an eigenvalue
  /// of M, making K singular; callers nudge the shift and retry.
  ///
  /// The applies carry no pole-block divisions: the constructor freezes
  /// resolvent multiplier tables at theta (every (A - theta I)^{-1} /
  /// -(A^T + theta I)^{-1} block collapses to a precomputed uniform
  /// 2x2 rotation), and the dense C / C^T products run on split
  /// real/imag planes.
  SmwShiftInvertOp(const macromodel::SimoRealization& realization,
                   Complex theta);

  [[nodiscard]] std::size_t dim() const noexcept override {
    return 2 * realization_.order();
  }

  [[nodiscard]] Complex shift() const noexcept { return theta_; }

  void apply(std::span<const Complex> x,
             std::span<Complex> y) const override;

 private:
  /// Frozen resolvent multipliers for one pole block at shift theta.
  /// Pairs apply as  y1 = c11 x1 + c12 x2,  y2 = -c12 x1 + c11 x2;
  /// singles as  y = c11 x.  Both resolvent directions (and the
  /// negation of the lower half) fold into this one form.
  struct TableBlock {
    std::size_t state = 0;
    bool is_pair = false;
    Complex c11{};
    Complex c12{};
  };

  const macromodel::SimoRealization& realization_;
  Complex theta_;
  std::unique_ptr<la::LuFactorization<Complex>> k_lu_;  ///< 2p x 2p kernel
  std::vector<TableBlock> p_table_;  ///< (A - theta I)^{-1}
  std::vector<TableBlock> q_table_;  ///< -(A^T + theta I)^{-1}
};

}  // namespace phes::hamiltonian
