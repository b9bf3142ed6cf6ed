#pragma once
// Dense row-major matrix over double or std::complex<double>.
//
// A deliberately small, value-semantic container (C++ Core Guidelines
// C.10/C.11: concrete regular type).  All numerical algorithms live in
// free functions (blas.hpp, lu.hpp, ...) so the container stays dumb.

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "phes/la/types.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// Construct from nested initializer list (row major), e.g.
  /// Matrix<double>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ > 0 ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      util::check(row.size() == cols_, "Matrix: ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  T& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  /// Pointer to the start of row i (rows are contiguous).
  [[nodiscard]] T* row_ptr(std::size_t i) noexcept {
    return data_.data() + i * cols_;
  }
  [[nodiscard]] const T* row_ptr(std::size_t i) const noexcept {
    return data_.data() + i * cols_;
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  /// Copy of column j as a vector.
  [[nodiscard]] std::vector<T> col(std::size_t j) const {
    std::vector<T> v(rows_);
    for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
    return v;
  }

  /// Copy of row i as a vector.
  [[nodiscard]] std::vector<T> row(std::size_t i) const {
    return std::vector<T>(row_ptr(i), row_ptr(i) + cols_);
  }

  void set_col(std::size_t j, const std::vector<T>& v) {
    util::check(v.size() == rows_, "Matrix::set_col: size mismatch");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
  }

  /// Writes `b` into this matrix with its (0,0) at (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
    util::check(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_,
                "Matrix::set_block: out of range");
    for (std::size_t i = 0; i < b.rows(); ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        (*this)(r0 + i, c0 + j) = b(i, j);
      }
    }
  }

  Matrix& operator+=(const Matrix& other) {
    util::check(rows_ == other.rows_ && cols_ == other.cols_,
                "Matrix::operator+=: shape mismatch");
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += other.data_[k];
    return *this;
  }

  Matrix& operator-=(const Matrix& other) {
    util::check(rows_ == other.rows_ && cols_ == other.cols_,
                "Matrix::operator-=: shape mismatch");
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= other.data_[k];
    return *this;
  }

  Matrix& operator*=(T scalar) noexcept {
    for (auto& x : data_) x *= scalar;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T scalar) { return a *= scalar; }
  friend Matrix operator*(T scalar, Matrix a) { return a *= scalar; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<Real>;
using ComplexMatrix = Matrix<Complex>;

/// Plain transpose.
template <typename T>
[[nodiscard]] Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

/// Conjugate (Hermitian) transpose.
[[nodiscard]] inline ComplexMatrix adjoint(const ComplexMatrix& a) {
  ComplexMatrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = std::conj(a(i, j));
  }
  return t;
}

/// Promote a real matrix to complex.
[[nodiscard]] inline ComplexMatrix to_complex(const RealMatrix& a) {
  ComplexMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = Complex(a(i, j), 0.0);
  }
  return c;
}

}  // namespace phes::la
