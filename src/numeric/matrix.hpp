// Dense row-major float matrix plus the small set of kernels the GNN stack
// needs (GEMM, transpose, row ops). Deliberately minimal: the point of this
// repo is the fault-tolerance system, not a BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace fare {

class Rng;

namespace detail {

/// Matrix storage alignment: one full cache line, which also
/// covers the widest vector the SIMD kernel tables use (32-byte AVX2). The
/// kernels only issue unaligned loads, so this is purely a performance
/// property — no caller may rely on it for correctness.
inline constexpr std::size_t kDataAlignment = 64;

/// Allocator with two hot-path properties:
///  1. allocations are kDataAlignment-aligned (single allocation path — the
///     aligned operator new, no manual over-allocate-and-offset);
///  2. plain construct() default-initialises, so vector::resize leaves
///     trivial elements uninitialised. Only used behind
///     Matrix::uninitialized(), where every element is overwritten before
///     any read — skips a redundant memset.
template <typename T>
struct AlignedAllocator {
    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U>&) noexcept {}
    template <typename U>
    struct rebind {
        using other = AlignedAllocator<U>;
    };

    T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t{kDataAlignment}));
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{kDataAlignment});
    }

    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
        if constexpr (sizeof...(Args) == 0)
            ::new (static_cast<void*>(p)) U;
        else
            ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
        return true;
    }
};

}  // namespace detail

/// Row-major dense matrix of float.
///
/// Value-semantic (copyable/movable); shape is part of the logical state and
/// is validated on every binary operation.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);
    /// Build from nested initializer list (rows of equal length).
    Matrix(std::initializer_list<std::initializer_list<float>> init);

    /// A (rows x cols) matrix with UNINITIALISED contents. Strictly for
    /// buffers the caller overwrites in full before any read.
    static Matrix uninitialized(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    float& at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
    std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

    std::span<float> flat() { return data_; }
    std::span<const float> flat() const { return data_; }

    /// Fill with Xavier/Glorot uniform initialisation for a (fan_in, fan_out)
    /// weight matrix.
    void xavier_init(Rng& rng);

    void fill(float v);
    Matrix transposed() const;

    /// Frobenius norm.
    float norm() const;
    float max_abs() const;

    Matrix& operator+=(const Matrix& other);
    Matrix& operator-=(const Matrix& other);
    Matrix& operator*=(float scalar);

    friend bool operator==(const Matrix& a, const Matrix& b);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float, detail::AlignedAllocator<float>> data_;
};

// The three GEMMs dispatch to the runtime-selected SIMD kernel table
// (common/simd.hpp) and are row-parallelised over the common/parallel worker
// pool above a fixed work threshold. Accumulation order per output element
// is ascending-k for every blocking, thread count and instruction set, so
// results are bit-identical to a serial scalar run.

/// C = A * B. Shapes validated.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materialising A^T.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T without materialising B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// Max |a - b| over all elements; shapes must match.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace fare
