#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace fp {

namespace {
std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative extent");
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      data_(static_cast<std::size_t>(numel_), 0.0f) {}

Tensor::Tensor(std::vector<std::int64_t> shape, Uninit)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      data_(static_cast<std::size_t>(numel_)) {}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.gaussian(0.0f, stddev);
  return t;
}

Tensor Tensor::rand_uniform(std::vector<std::int64_t> shape, Rng& rng, float lo,
                            float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::from_vector(std::vector<std::int64_t> shape, std::vector<float> values) {
  if (shape_numel(shape) != static_cast<std::int64_t>(values.size()))
    throw std::invalid_argument("Tensor::from_vector: size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = static_cast<std::int64_t>(values.size());
  t.data_.assign(values.begin(), values.end());
  return t;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor Tensor::reshape(std::vector<std::int64_t> new_shape) const {
  if (shape_numel(new_shape) != numel_)
    throw std::invalid_argument("Tensor::reshape: element count mismatch " +
                                shape_str());
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

float& Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
  if (ndim() != 4) throw std::logic_error("at4 on non-4D tensor");
  return data_[static_cast<std::size_t>(
      ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
}

float Tensor::at4(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

float& Tensor::at2(std::int64_t r, std::int64_t c) {
  if (ndim() != 2) throw std::logic_error("at2 on non-2D tensor");
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at2(std::int64_t r, std::int64_t c) const {
  return const_cast<Tensor*>(this)->at2(r, c);
}

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
  if (!same_shape(other))
    throw std::invalid_argument(std::string("Tensor::") + op + ": shape mismatch " +
                                shape_str() + " vs " + other.shape_str());
}

Tensor& Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other) {
  check_same_shape(other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check_same_shape(other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check_same_shape(other, "mul_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float alpha) {
  check_same_shape(other, "add_scaled_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
  return *this;
}

Tensor& Tensor::scale_(float alpha) {
  for (auto& v : data_) v *= alpha;
  return *this;
}

Tensor& Tensor::add_scalar_(float alpha) {
  for (auto& v : data_) v += alpha;
  return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) {
  for (auto& v : data_) v = std::min(hi, std::max(lo, v));
  return *this;
}

Tensor& Tensor::relu_() {
  for (auto& v : data_) v = v > 0.0f ? v : 0.0f;
  return *this;
}

Tensor& Tensor::sign_() {
  for (auto& v : data_) v = v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
  return *this;
}

Tensor Tensor::add(const Tensor& other) const { return Tensor(*this).add_(other); }
Tensor Tensor::sub(const Tensor& other) const { return Tensor(*this).sub_(other); }
Tensor Tensor::mul(const Tensor& other) const { return Tensor(*this).mul_(other); }
Tensor Tensor::scaled(float alpha) const { return Tensor(*this).scale_(alpha); }

float Tensor::sum() const {
  double s = 0.0;
  for (const auto v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::mean() const { return empty() ? 0.0f : sum() / static_cast<float>(numel_); }

float Tensor::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (const auto v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::l2_norm() const {
  double s = 0.0;
  for (const auto v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float Tensor::dot(const Tensor& other) const {
  check_same_shape(other, "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    s += static_cast<double>(data_[i]) * other.data_[i];
  return static_cast<float>(s);
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) return -1;
  return static_cast<std::int64_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::vector<std::int64_t> Tensor::argmax_rows() const {
  if (ndim() != 2) throw std::logic_error("argmax_rows on non-2D tensor");
  const std::int64_t rows = shape_[0], cols = shape_[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = data() + r * cols;
    out[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(std::max_element(row, row + cols) - row);
  }
  return out;
}

std::vector<float> Tensor::row_l2_norms() const {
  if (ndim() == 0 || shape_[0] == 0) return {};
  const std::int64_t rows = shape_[0];
  const std::int64_t per = numel_ / rows;
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    const float* p = data() + r * per;
    for (std::int64_t i = 0; i < per; ++i) s += static_cast<double>(p[i]) * p[i];
    out[static_cast<std::size_t>(r)] = static_cast<float>(std::sqrt(s));
  }
  return out;
}

Tensor& Tensor::scale_rows_(const std::vector<float>& factors) {
  const std::int64_t rows = shape_.empty() ? 0 : shape_[0];
  if (static_cast<std::int64_t>(factors.size()) != rows)
    throw std::invalid_argument("scale_rows_: factor count mismatch");
  const std::int64_t per = rows ? numel_ / rows : 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* p = data() + r * per;
    const float f = factors[static_cast<std::size_t>(r)];
    for (std::int64_t i = 0; i < per; ++i) p[i] *= f;
  }
  return *this;
}

Tensor Tensor::slice_rows(std::int64_t start, std::int64_t count) const {
  if (ndim() == 0) throw std::logic_error("slice_rows on scalar tensor");
  const std::int64_t rows = shape_[0];
  if (start < 0 || count < 0 || start + count > rows)
    throw std::out_of_range("slice_rows: range out of bounds");
  const std::int64_t per = rows ? numel_ / rows : 0;
  std::vector<std::int64_t> out_shape = shape_;
  out_shape[0] = count;
  Tensor out(std::move(out_shape));
  std::copy_n(data() + start * per, count * per, out.data());
  return out;
}

void Tensor::set_rows(std::int64_t start, const Tensor& src) {
  if (ndim() == 0 || src.ndim() == 0) throw std::logic_error("set_rows on scalar");
  const std::int64_t rows = shape_[0];
  const std::int64_t per = rows ? numel_ / rows : 0;
  const std::int64_t src_rows = src.shape_[0];
  if (src.numel_ != src_rows * per || start + src_rows > rows)
    throw std::invalid_argument("set_rows: incompatible src");
  std::copy_n(src.data(), src.numel_, data() + start * per);
}

}  // namespace fp
