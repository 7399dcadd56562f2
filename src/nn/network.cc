#include "nn/network.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace colscope::nn {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      weights_(in_dim, out_dim),
      biases_(out_dim, 0.0),
      grad_w_(in_dim, out_dim),
      grad_b_(out_dim, 0.0),
      m_w_(in_dim, out_dim),
      v_w_(in_dim, out_dim),
      m_b_(out_dim, 0.0),
      v_b_(out_dim, 0.0) {
  // He initialization suits the ReLU hidden layers.
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      weights_(i, j) = scale * rng.NextGaussian();
    }
  }
}

linalg::Matrix DenseLayer::PreActivation(const linalg::Matrix& x) const {
  COLSCOPE_CHECK(x.cols() == in_dim_);
  linalg::Matrix pre = x.Multiply(weights_);
  for (size_t r = 0; r < pre.rows(); ++r) {
    double* row = pre.RowPtr(r);
    for (size_t c = 0; c < out_dim_; ++c) row[c] += biases_[c];
  }
  return pre;
}

linalg::Matrix DenseLayer::Forward(const linalg::Matrix& x) {
  input_ = x;
  pre_act_ = PreActivation(x);
  if (!relu_) return pre_act_;
  linalg::Matrix out = pre_act_;
  for (double& v : out.data()) v = v > 0.0 ? v : 0.0;
  return out;
}

linalg::Matrix DenseLayer::Infer(const linalg::Matrix& x) const {
  linalg::Matrix out = PreActivation(x);
  if (relu_) {
    for (double& v : out.data()) v = v > 0.0 ? v : 0.0;
  }
  return out;
}

linalg::Matrix DenseLayer::Backward(const linalg::Matrix& grad_out) {
  COLSCOPE_CHECK(grad_out.rows() == input_.rows());
  COLSCOPE_CHECK(grad_out.cols() == out_dim_);
  linalg::Matrix grad = grad_out;
  if (relu_) {
    for (size_t i = 0; i < grad.data().size(); ++i) {
      if (pre_act_.data()[i] <= 0.0) grad.data()[i] = 0.0;
    }
  }
  // dW = x^T grad; db = column sums of grad; dx = grad W^T.
  grad_w_ = input_.Transposed().Multiply(grad);
  std::fill(grad_b_.begin(), grad_b_.end(), 0.0);
  for (size_t r = 0; r < grad.rows(); ++r) {
    const double* row = grad.RowPtr(r);
    for (size_t c = 0; c < out_dim_; ++c) grad_b_[c] += row[c];
  }
  return grad.Multiply(weights_.Transposed());
}

void DenseLayer::AdamStep(double learning_rate, double beta1, double beta2,
                          double epsilon, int64_t step) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
  auto update = [&](double& param, double grad, double& m, double& v) {
    m = beta1 * m + (1.0 - beta1) * grad;
    v = beta2 * v + (1.0 - beta2) * grad * grad;
    const double m_hat = m / bc1;
    const double v_hat = v / bc2;
    param -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  };
  for (size_t i = 0; i < weights_.data().size(); ++i) {
    update(weights_.data()[i], grad_w_.data()[i], m_w_.data()[i],
           v_w_.data()[i]);
  }
  for (size_t j = 0; j < out_dim_; ++j) {
    update(biases_[j], grad_b_[j], m_b_[j], v_b_[j]);
  }
}

Mlp::Mlp(const std::vector<size_t>& layer_dims, uint64_t seed) {
  COLSCOPE_CHECK(layer_dims.size() >= 2);
  Rng rng(seed);
  for (size_t i = 0; i + 1 < layer_dims.size(); ++i) {
    const bool relu = (i + 2 < layer_dims.size());  // Linear output layer.
    layers_.emplace_back(layer_dims[i], layer_dims[i + 1], relu, rng);
  }
}

linalg::Matrix Mlp::Predict(const linalg::Matrix& x) const {
  linalg::Matrix h = x;
  for (const DenseLayer& layer : layers_) h = layer.Infer(h);
  return h;
}

double Mlp::TrainEpoch(const linalg::Matrix& x, const linalg::Matrix& target,
                       const TrainOptions& options) {
  COLSCOPE_CHECK(x.rows() == target.rows());
  const size_t n = x.rows();
  const size_t batch = options.batch_size == 0 ? n : options.batch_size;
  double loss_sum = 0.0;
  size_t loss_count = 0;

  for (size_t start = 0; start < n; start += batch) {
    const size_t end = std::min(n, start + batch);
    const size_t bs = end - start;
    std::vector<size_t> rows(bs);
    std::iota(rows.begin(), rows.end(), start);
    const linalg::Matrix tb = linalg::GatherRows(target, rows);

    // Forward.
    linalg::Matrix h = linalg::GatherRows(x, rows);
    for (DenseLayer& layer : layers_) h = layer.Forward(h);

    // MSE loss and gradient dL/dy = 2 (y - t) / (bs * dims).
    const double denom =
        static_cast<double>(bs) * static_cast<double>(h.cols());
    linalg::Matrix grad(h.rows(), h.cols());
    double loss = 0.0;
    for (size_t i = 0; i < h.data().size(); ++i) {
      const double diff = h.data()[i] - tb.data()[i];
      loss += diff * diff;
      grad.data()[i] = 2.0 * diff / denom;
    }
    loss_sum += loss / denom;
    ++loss_count;

    // Backward + Adam.
    for (size_t i = layers_.size(); i-- > 0;) {
      grad = layers_[i].Backward(grad);
    }
    ++adam_step_;
    for (DenseLayer& layer : layers_) {
      layer.AdamStep(options.learning_rate, options.beta1, options.beta2,
                     options.epsilon, adam_step_);
    }
  }
  return loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
}

double Mlp::Fit(const linalg::Matrix& x, const linalg::Matrix& target,
                const TrainOptions& options) {
  double loss = 0.0;
  for (int e = 0; e < options.epochs; ++e) {
    loss = TrainEpoch(x, target, options);
  }
  return loss;
}

}  // namespace colscope::nn
