#include "phes/hamiltonian/dense.hpp"

#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/svd.hpp"
#include "phes/util/check.hpp"

namespace phes::hamiltonian {

RealMatrix build_scattering_hamiltonian(
    const macromodel::StateSpaceModel& model) {
  model.check_shapes();
  const std::size_t n = model.order(), p = model.ports();
  const RealMatrix& a = model.a;
  const RealMatrix& b = model.b;
  const RealMatrix& c = model.c;
  const RealMatrix& d = model.d;

  {
    const auto sigma_d = la::real_singular_values(d);
    util::check(sigma_d.empty() || sigma_d.front() < 1.0,
                "build_scattering_hamiltonian: requires sigma_max(D) < 1 "
                "(strict asymptotic passivity, paper Eq. 4)");
  }

  // R = D^T D - I, S = D D^T - I.
  RealMatrix r = la::gemm(la::transpose(d), d);
  RealMatrix s = la::gemm(d, la::transpose(d));
  for (std::size_t i = 0; i < p; ++i) {
    r(i, i) -= 1.0;
    s(i, i) -= 1.0;
  }
  const RealMatrix r_inv = la::lu_inverse(r);
  const RealMatrix s_inv = la::lu_inverse(s);

  const RealMatrix br = la::gemm(b, r_inv);           // B R^{-1}
  const RealMatrix cts = la::gemm(la::transpose(c), s_inv);  // C^T S^{-1}

  RealMatrix m(2 * n, 2 * n);
  // (1,1) = A - B R^{-1} D^T C
  m.set_block(0, 0, model.a - la::gemm(br, la::gemm(la::transpose(d), c)));
  // (1,2) = -B R^{-1} B^T
  m.set_block(0, n, la::gemm(br, la::transpose(b)) * -1.0);
  // (2,1) = C^T S^{-1} C
  m.set_block(n, 0, la::gemm(cts, c));
  // (2,2) = -A^T + C^T D R^{-1} B^T
  m.set_block(
      n, n,
      la::gemm(la::gemm(la::transpose(c), la::gemm(d, r_inv)),
               la::transpose(b)) -
          la::transpose(a));
  return m;
}

}  // namespace phes::hamiltonian
