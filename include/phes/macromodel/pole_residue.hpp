#pragma once
// Pole-residue macromodels (the natural output of Vector Fitting).
//
// The paper (Sec. II) assumes a multi-SIMO structure: the p x p transfer
// matrix H(s) is fitted column by column, column k owning its own set of
// m_k poles shared by all p entries of that column:
//
//   H(:,k)(s) = D(:,k) + sum_i  r_i / (s - a_i)              (real poles)
//             + sum_j  [ r_j / (s - l_j) + r_j* / (s - l_j*) ] (pairs)
//
// with p-vector residues r.  Complex poles are stored once with
// Im(pole) > 0, the conjugate term being implicit.

#include <complex>
#include <cstddef>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::macromodel {

using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;
using la::RealMatrix;
using la::RealVector;

/// One real pole with its p-vector residue.
struct RealPoleTerm {
  double pole = 0.0;      ///< strictly negative for a stable model
  RealVector residue;     ///< p entries
};

/// One complex-conjugate pole pair; only the Im > 0 member is stored.
struct ComplexPoleTerm {
  Complex pole{};         ///< Re < 0, Im > 0
  ComplexVector residue;  ///< p entries (conjugate term implicit)
};

/// All poles/residues belonging to one column of H(s).
struct PoleResidueColumn {
  std::vector<RealPoleTerm> real_terms;
  std::vector<ComplexPoleTerm> complex_terms;

  /// Number of states this column contributes (pairs count twice).
  [[nodiscard]] std::size_t order() const noexcept {
    return real_terms.size() + 2 * complex_terms.size();
  }
};

/// A full p-port scattering macromodel in pole-residue form.
class PoleResidueModel {
 public:
  PoleResidueModel() = default;
  PoleResidueModel(RealMatrix d, std::vector<PoleResidueColumn> columns);

  [[nodiscard]] std::size_t ports() const noexcept { return columns_.size(); }

  /// Total dynamic order n (paper notation).
  [[nodiscard]] std::size_t order() const noexcept;

  [[nodiscard]] const RealMatrix& d() const noexcept { return d_; }
  [[nodiscard]] RealMatrix& d() noexcept { return d_; }
  [[nodiscard]] const std::vector<PoleResidueColumn>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::vector<PoleResidueColumn>& columns() noexcept {
    return columns_;
  }

  /// Evaluate the p x p transfer matrix at s = j*omega.  O(n*p).
  [[nodiscard]] ComplexMatrix eval(double omega) const;

  /// Evaluate at arbitrary complex s.
  // Starts on a 64-byte boundary, like QrFactorization's constructor:
  // a hot serving function whose speed otherwise moves with the size
  // of the code linked before it.
  [[nodiscard]] __attribute__((aligned(64))) ComplexMatrix eval(
      Complex s) const;

  /// True when every pole has strictly negative real part.
  [[nodiscard]] bool is_stable() const noexcept;

  /// Largest pole magnitude (used to bound the Hamiltonian search band).
  [[nodiscard]] double max_pole_magnitude() const noexcept;

 private:
  RealMatrix d_;
  std::vector<PoleResidueColumn> columns_;
};

}  // namespace phes::macromodel
