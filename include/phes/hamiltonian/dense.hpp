#pragma once
// Dense Hamiltonian matrix construction (paper Eq. 5).
//
// For a scattering macromodel H(s) = D + C (sI-A)^{-1} B with
// sigma_max(D) < 1, the 2n x 2n Hamiltonian
//
//   M = [ A - B R^{-1} D^T C        -B R^{-1} B^T
//         C^T S^{-1} C              -A^T + C^T D R^{-1} B^T ],
//   R = D^T D - I,   S = D D^T - I
//
// has a purely imaginary eigenvalue j*w exactly where some singular
// value of H(jw) touches 1.  The dense form is O(n^2) storage and its
// full eigensolution O(n^3): it is the solver's dense route
// (core::solve_dense, taken by core::solve for models of order <=
// core::kDenseMaxOrder) and the tests' ground truth.  The
// Krylov solver above that order only ever applies M implicitly.

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/statespace.hpp"

namespace phes::hamiltonian {

using la::Complex;
using la::ComplexVector;
using la::RealMatrix;

/// Assemble the scattering Hamiltonian.  Throws std::invalid_argument
/// if sigma_max(D) >= 1 (R/S would be singular; the paper assumes
/// strict asymptotic passivity, Eq. 4).
[[nodiscard]] RealMatrix build_scattering_hamiltonian(
    const macromodel::StateSpaceModel& model);

}  // namespace phes::hamiltonian
