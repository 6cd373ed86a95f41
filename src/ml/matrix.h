#ifndef LQOLAB_ML_MATRIX_H_
#define LQOLAB_ML_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace lqolab::ml {

/// Dense row-major float matrix; the value type of the autodiff graph.
/// Row vectors (1 x n) represent feature encodings and embeddings.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int32_t rows, int32_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
    LQOLAB_CHECK_GE(rows, 0);
    LQOLAB_CHECK_GE(cols, 0);
  }

  /// Kaiming-uniform initialization for a layer with `fan_in` inputs.
  static Matrix KaimingUniform(int32_t rows, int32_t cols, int32_t fan_in,
                               util::Rng* rng);

  /// 1 x n row vector from values.
  static Matrix RowVector(const std::vector<float>& values);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  float at(int32_t r, int32_t c) const {
    LQOLAB_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }
  float& at(int32_t r, int32_t c) {
    LQOLAB_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }

  void Fill(float value) {
    for (float& x : data_) x = value;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace lqolab::ml

#endif  // LQOLAB_ML_MATRIX_H_
