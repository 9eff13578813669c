#include "numeric/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace fare {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::uninitialized(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);  // default-init: no fill
    return m;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        FARE_CHECK(row.size() == cols_, "ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

float& Matrix::at(std::size_t r, std::size_t c) {
    FARE_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
    FARE_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

void Matrix::xavier_init(Rng& rng) {
    const float limit = std::sqrt(6.0f / static_cast<float>(rows_ + cols_));
    for (auto& v : data_) v = rng.uniform(-limit, limit);
}

void Matrix::fill(float v) {
    for (auto& x : data_) x = v;
}

Matrix Matrix::transposed() const {
    Matrix t = Matrix::uninitialized(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

float Matrix::norm() const {
    double acc = 0.0;
    for (float v : data_) acc += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(acc));
}

float Matrix::max_abs() const {
    float m = 0.0f;
    for (float v : data_) m = std::max(m, std::fabs(v));
    return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
    FARE_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch in +=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
    FARE_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch in -=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(float scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
}

bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
}

namespace {

// Rows per parallel chunk: a multiple of the kernels' 4-row unroll.
constexpr std::size_t kRowChunk = 32;

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
    FARE_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
    Matrix c = Matrix::uninitialized(a.rows(), b.cols());
    const std::size_t work = a.rows() * a.cols() * b.cols();
    const simd::SimdKernels& k = simd::kernels();
    parallel_row_blocks(a.rows(), work, kRowChunk, [&](std::size_t i0, std::size_t i1) {
        k.matmul_rows(a.flat().data(), b.flat().data(), c.flat().data(), i0, i1,
                      a.cols(), b.cols());
    });
    return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
    FARE_CHECK(a.rows() == b.rows(), "matmul_at_b shape mismatch");
    Matrix c = Matrix::uninitialized(a.cols(), b.cols());
    const std::size_t work = a.rows() * a.cols() * b.cols();
    const simd::SimdKernels& k = simd::kernels();
    parallel_row_blocks(a.cols(), work, kRowChunk, [&](std::size_t i0, std::size_t i1) {
        k.matmul_at_b_rows(a.flat().data(), b.flat().data(), c.flat().data(), i0,
                           i1, a.rows(), a.cols(), b.cols());
    });
    return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
    FARE_CHECK(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
    Matrix c = Matrix::uninitialized(a.rows(), b.rows());
    const std::size_t work = a.rows() * a.cols() * b.rows();
    const simd::SimdKernels& k = simd::kernels();
    parallel_row_blocks(a.rows(), work, kRowChunk, [&](std::size_t i0, std::size_t i1) {
        k.matmul_a_bt_rows(a.flat().data(), b.flat().data(), c.flat().data(), i0,
                           i1, a.cols(), b.rows());
    });
    return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
    FARE_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "max_abs_diff shape mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a.flat()[i] - b.flat()[i]));
    return m;
}

}  // namespace fare
