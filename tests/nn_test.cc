#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/tensor.h"

namespace zerodb::nn {
namespace {

TEST(TensorTest, FactoriesAndShapes) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  EXPECT_EQ(z.size(), 6u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor f = Tensor::Full(2, 2, 1.5f);
  EXPECT_EQ(f.at(1, 1), 1.5f);

  Tensor d = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(d.at(0, 1), 2.0f);
  EXPECT_EQ(d.at(1, 0), 3.0f);
  EXPECT_FALSE(d.requires_grad());

  Tensor p = Tensor::Parameter(1, 2, {5, 6});
  EXPECT_TRUE(p.requires_grad());
  EXPECT_EQ(p.grad().size(), 2u);
}

TEST(TensorTest, ItemRequiresScalar) {
  Tensor s = Tensor::FromData(1, 1, {3.0f});
  EXPECT_EQ(s.item(), 3.0f);
}

TEST(TensorTest, ZerosLikeMatchesShapeAndZeroes) {
  Tensor ref = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor z = Tensor::ZerosLike(ref);
  EXPECT_EQ(z.rows(), 3u);
  EXPECT_EQ(z.cols(), 2u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
}

TEST(OpsTest, MatMulForward) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, AddBiasForward) {
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(1, 2, {10, 20});
  Tensor y = AddBias(x, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24.0f);
}

TEST(OpsTest, ReluForward) {
  Tensor x = Tensor::FromData(1, 4, {-2, -0.5f, 0, 3});
  Tensor y = Relu(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 3.0f);
}

TEST(OpsTest, RowGatherForward) {
  Tensor x = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor y = RowGather(x, {2, 0, 2});
  ASSERT_EQ(y.rows(), 3u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(2, 1), 6.0f);
}

TEST(OpsTest, RowScatterAddForward) {
  Tensor x = Tensor::FromData(3, 2, {1, 1, 2, 2, 3, 3});
  Tensor y = RowScatterAdd(x, {0, 0, 1}, 2);
  ASSERT_EQ(y.rows(), 2u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);  // rows 0 and 1 summed
  EXPECT_FLOAT_EQ(y.at(1, 0), 3.0f);
}

TEST(OpsTest, ConcatColsForward) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor c = ConcatCols({a, b});
  ASSERT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 5.0f);
}

TEST(OpsTest, MseLossForward) {
  Tensor pred = Tensor::FromData(2, 1, {1.0f, 3.0f});
  Tensor target = Tensor::FromData(2, 1, {0.0f, 1.0f});
  Tensor loss = MseLoss(pred, target);
  EXPECT_FLOAT_EQ(loss.item(), (1.0f + 4.0f) / 2.0f);
}

TEST(OpsTest, HuberLossForward) {
  Tensor pred = Tensor::FromData(2, 1, {0.5f, 3.0f});
  Tensor target = Tensor::FromData(2, 1, {0.0f, 0.0f});
  Tensor loss = HuberLoss(pred, target, 1.0f);
  // 0.5*0.25 + (3 - 0.5) = 0.125 + 2.5, averaged.
  EXPECT_FLOAT_EQ(loss.item(), (0.125f + 2.5f) / 2.0f);
}

// Numerical gradient checking: perturb each parameter entry and compare the
// finite-difference slope with the autograd gradient.
void CheckGradients(Tensor param, const std::function<Tensor()>& loss_fn,
                    float tolerance = 2e-2f) {
  Tensor loss = loss_fn();
  param.ZeroGrad();
  loss.Backward();
  std::vector<float> analytic = param.grad();
  const float eps = 1e-2f;
  for (size_t i = 0; i < param.size(); ++i) {
    float original = param.mutable_data()[i];
    param.mutable_data()[i] = original + eps;
    float up = loss_fn().item();
    param.mutable_data()[i] = original - eps;
    float down = loss_fn().item();
    param.mutable_data()[i] = original;
    float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tolerance)
        << "gradient mismatch at index " << i;
  }
}

TEST(AutogradTest, MatMulGradient) {
  Tensor w = Tensor::Parameter(3, 2, {0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f});
  Tensor x = Tensor::FromData(2, 3, {1, 2, 3, -1, 0.5f, 2});
  Tensor target = Tensor::FromData(2, 1, {1.0f, -1.0f});
  Tensor ones = Tensor::FromData(2, 1, {1.0f, 1.0f});
  auto loss_fn = [&]() {
    Tensor h = MatMul(x, w);                       // (2,2)
    Tensor col = MatMul(h, Tensor::FromData(2, 1, {1.0f, 1.0f}));
    (void)ones;
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, BiasGradient) {
  Tensor b = Tensor::Parameter(1, 2, {0.2f, -0.3f});
  Tensor x = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor target = Tensor::FromData(3, 1, {1, 2, 3});
  auto loss_fn = [&]() {
    Tensor h = AddBias(x, b);
    Tensor col = MatMul(h, Tensor::FromData(2, 1, {1.0f, -1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(b, loss_fn);
}

TEST(AutogradTest, ReluGradient) {
  Tensor w = Tensor::Parameter(2, 2, {0.5f, -0.4f, 0.3f, 0.8f});
  Tensor x = Tensor::FromData(2, 2, {1, -2, 3, 0.5f});
  Tensor target = Tensor::FromData(2, 1, {0.3f, 0.7f});
  auto loss_fn = [&]() {
    Tensor h = Relu(MatMul(x, w));
    Tensor col = MatMul(h, Tensor::FromData(2, 1, {1.0f, 1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, GatherScatterGradient) {
  Tensor w = Tensor::Parameter(3, 2, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f});
  Tensor target = Tensor::FromData(2, 1, {1.0f, 0.0f});
  auto loss_fn = [&]() {
    Tensor gathered = RowGather(w, {0, 2, 1, 0});          // (4,2)
    Tensor pooled = RowScatterAdd(gathered, {0, 0, 1, 1}, 2);  // (2,2)
    Tensor col = MatMul(pooled, Tensor::FromData(2, 1, {1.0f, -1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, ConcatGradient) {
  Tensor w = Tensor::Parameter(2, 2, {0.1f, 0.2f, 0.3f, 0.4f});
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor target = Tensor::FromData(2, 1, {1.0f, -1.0f});
  auto loss_fn = [&]() {
    Tensor h = MatMul(x, w);
    Tensor cat = ConcatCols({h, x});  // (2,4)
    Tensor col = MatMul(cat, Tensor::FromData(4, 1, {1.0f, -1.0f, 0.5f, 0.5f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, SharedSubgraphAccumulates) {
  // Using a parameter twice must add both gradient contributions.
  Tensor w = Tensor::Parameter(1, 1, {0.7f});
  Tensor target = Tensor::FromData(1, 1, {2.0f});
  auto loss_fn = [&]() {
    Tensor doubled = Add(w, w);  // 2w
    return MseLoss(doubled, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, HuberGradient) {
  Tensor w = Tensor::Parameter(2, 1, {2.0f, -0.2f});
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor target = Tensor::FromData(2, 1, {0.0f, 0.0f});
  auto loss_fn = [&]() { return HuberLoss(MatMul(x, w), target, 1.0f); };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, ScaleRowsAndScaleGradient) {
  Tensor w = Tensor::Parameter(2, 2, {0.3f, 0.1f, -0.2f, 0.5f});
  Tensor target = Tensor::FromData(2, 1, {1.0f, 2.0f});
  auto loss_fn = [&]() {
    Tensor scaled = ScaleRows(w, {0.5f, 2.0f});
    Tensor s2 = Scale(scaled, 3.0f);
    Tensor col = MatMul(s2, Tensor::FromData(2, 1, {1.0f, 1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(LayersTest, LinearShapesAndDeterminism) {
  Rng rng1(5);
  Rng rng2(5);
  Linear a(4, 3, &rng1);
  Linear b(4, 3, &rng2);
  EXPECT_EQ(a.weight().data(), b.weight().data());
  Tensor x = Tensor::FromData(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = a.Forward(x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(LayersTest, MlpForwardShape) {
  Rng rng(5);
  MlpConfig config;
  config.in_features = 6;
  config.hidden_sizes = {8, 8};
  config.out_features = 1;
  Mlp mlp(config, &rng);
  Tensor x = Tensor::Zeros(3, 6);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (W, b)
}

// ForwardRows/BackwardRows run the graph ops' kernels over raw buffers, so
// they reproduce Forward and Backward bit for bit: the loss, the input
// gradient and every parameter gradient. Hidden width 64 takes the matmul
// kernel's register path, 7 its generic one.
TEST(LayersTest, RowPassMatchesGraphBitForBit) {
  Rng rng(9);
  MlpConfig config;
  config.in_features = 5;
  config.hidden_sizes = {64, 7};
  config.out_features = 1;
  Mlp mlp(config, &rng);
  const size_t rows = 6;
  std::vector<float> x(rows * config.in_features);
  std::vector<float> targets(rows);
  for (float& v : x) {
    v = rng.Bernoulli(0.2) ? 0.0f : static_cast<float>(rng.Normal());
  }
  for (float& t : targets) t = static_cast<float>(rng.Normal());
  const float scale = 0.375f;
  std::vector<Tensor> params = mlp.Parameters();

  Tensor input = Tensor::Parameter(rows, config.in_features, x);
  const float graph_loss = BackwardScaled(
      HuberLoss(mlp.Forward(input), Tensor::FromData(rows, 1, targets)),
      scale);
  std::vector<std::vector<float>> graph_grads;
  for (Tensor& p : params) {
    graph_grads.push_back(p.grad());
    p.ZeroGrad();
  }

  const uint64_t nodes = NodesCreated();
  MlpTape tape;
  mlp.ForwardRows(x.data(), rows, &tape);
  std::vector<float> d_out(rows, 0.0f);
  const float row_loss = ScaledHuberLossBackward(
      std::span<const float>(tape.output(), rows), targets, 1.0f, scale,
      d_out);
  std::vector<float> dx(x.size(), 0.0f);
  std::vector<float> scratch;
  mlp.BackwardRows(x.data(), tape, d_out.data(), dx.data(), &scratch);
  EXPECT_EQ(NodesCreated(), nodes);

  EXPECT_EQ(std::bit_cast<uint32_t>(row_loss),
            std::bit_cast<uint32_t>(graph_loss));
  auto same_bits = [](const std::vector<float>& a,
                      const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](float u, float v) {
             return std::bit_cast<uint32_t>(u) == std::bit_cast<uint32_t>(v);
           });
  };
  EXPECT_TRUE(same_bits(dx, input.grad()));
  for (size_t p = 0; p < params.size(); ++p) {
    EXPECT_TRUE(same_bits(params[p].grad(), graph_grads[p])) << "param " << p;
  }
}

TEST(TrainingTest, MlpLearnsLinearFunction) {
  // y = 2*x0 - x1 + 0.5 learned from samples; sanity check the full loop.
  Rng rng(123);
  MlpConfig config;
  config.in_features = 2;
  config.hidden_sizes = {16};
  config.out_features = 1;
  Mlp mlp(config, &rng);

  std::vector<float> inputs;
  std::vector<float> targets;
  Rng data_rng(7);
  const size_t n = 256;
  for (size_t i = 0; i < n; ++i) {
    float x0 = static_cast<float>(data_rng.UniformDouble(-1, 1));
    float x1 = static_cast<float>(data_rng.UniformDouble(-1, 1));
    inputs.push_back(x0);
    inputs.push_back(x1);
    targets.push_back(2 * x0 - x1 + 0.5f);
  }
  Tensor x = Tensor::FromData(n, 2, inputs);
  Tensor y = Tensor::FromData(n, 1, targets);

  Adam optimizer(mlp.Parameters(), 0.01f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 600; ++epoch) {
    Tensor loss = MseLoss(mlp.Forward(x), y);
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 2e-3f);
}

TEST(OptimizerTest, ClipGradNorm) {
  Tensor p = Tensor::Parameter(1, 2, {0.0f, 0.0f});
  p.mutable_grad() = {3.0f, 4.0f};  // norm 5
  Adam optimizer({p}, 0.001f);
  double norm = optimizer.ClipGradNorm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  // The next Step applies the clip inside its update pass and stores the
  // clipped gradient back.
  optimizer.Step();
  EXPECT_NEAR(p.grad()[0], 0.6f, 1e-5);
  EXPECT_NEAR(p.grad()[1], 0.8f, 1e-5);
}

TEST(OptimizerTest, SumShardGradientsFlagsNonFiniteSums) {
  const float big = std::numeric_limits<float>::max();
  std::vector<float> a = {1.0f, big, 2.0f};
  std::vector<float> b = {1.0f, big, 3.0f};  // big + big overflows to inf
  std::vector<float> out(3);
  std::vector<const float*> one = {a.data()};
  EXPECT_TRUE(SumShardGradients(one, out));
  std::vector<const float*> two = {a.data(), b.data()};
  EXPECT_FALSE(SumShardGradients(two, out));
  EXPECT_EQ(out[2], 5.0f);  // every sum is written either way
  b[1] = std::numeric_limits<float>::quiet_NaN();
  a[1] = 0.0f;
  EXPECT_FALSE(SumShardGradients(two, out));
}

// The scalar batch tail the trainer ran before SumShardGradients and the
// fused clip: zeroed gradients plus one `+=` pass per shard, ClipGradNorm
// scaling the gradients in place, then Adam::Step's per-element update.
// This file builds with the default flags, so these loops stay as written.
struct ReferenceTail {
  std::vector<std::vector<float>> data, grad, m, v;
  int64_t steps = 0;
};

void ReferenceReduce(
    const std::vector<std::vector<std::vector<float>>>& partials,
    ReferenceTail* tail) {
  for (std::vector<float>& grad : tail->grad) {
    std::fill(grad.begin(), grad.end(), 0.0f);
  }
  for (const auto& shard : partials) {
    for (size_t p = 0; p < tail->grad.size(); ++p) {
      for (size_t j = 0; j < tail->grad[p].size(); ++j) {
        tail->grad[p][j] += shard[p][j];
      }
    }
  }
}

double ReferenceClipGradNorm(ReferenceTail* tail, double max_norm) {
  double total_sq = 0.0;
  for (const std::vector<float>& grad : tail->grad) {
    for (float g : grad) total_sq += static_cast<double>(g) * g;
  }
  double norm = std::sqrt(total_sq);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (std::vector<float>& grad : tail->grad) {
      for (float& g : grad) g *= scale;
    }
  }
  return norm;
}

void ReferenceAdamStep(ReferenceTail* tail, float learning_rate, float beta1,
                       float beta2, float epsilon, float weight_decay) {
  ++tail->steps;
  const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(tail->steps));
  const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(tail->steps));
  const float corrected_lr =
      static_cast<float>(learning_rate * std::sqrt(bias2) / bias1);
  for (size_t p = 0; p < tail->data.size(); ++p) {
    std::vector<float>& data = tail->data[p];
    const std::vector<float>& grad = tail->grad[p];
    std::vector<float>& m = tail->m[p];
    std::vector<float>& v = tail->v[p];
    for (size_t i = 0; i < data.size(); ++i) {
      float g = grad[i] + weight_decay * data[i];
      m[i] = beta1 * m[i] + (1.0f - beta1) * g;
      v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
      data[i] -= corrected_lr * m[i] / (std::sqrt(v[i]) + epsilon);
    }
  }
}

// Gradient-like values with the awkward cases mixed in: signed zeros,
// subnormals and values near the smallest normal.
std::vector<float> TailTestValues(Rng* rng, size_t n) {
  std::vector<float> values(n);
  for (float& value : values) {
    const float sign = rng->Bernoulli(0.5) ? -1.0f : 1.0f;
    switch (rng->UniformInt(0, 5)) {
      case 0:
        value = sign * 0.0f;
        break;
      case 1:
        value = sign * std::numeric_limits<float>::denorm_min() *
                static_cast<float>(rng->UniformInt(1, 1 << 20));
        break;
      case 2:
        value = sign * std::numeric_limits<float>::min() *
                static_cast<float>(rng->UniformDouble(0.5, 2.0));
        break;
      default:
        value = static_cast<float>(rng->Normal(0.0, 0.5));
        break;
    }
  }
  return values;
}

// Bitwise, not ==: -0.0f == +0.0f, and the reduction must keep the sign
// the zeroed-buffer arithmetic produces.
void ExpectBitwiseEqual(const std::vector<float>& actual,
                        const std::vector<float>& expected,
                        const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(actual[i]),
              std::bit_cast<uint32_t>(expected[i]))
        << what << "[" << i << "]: " << actual[i] << " vs " << expected[i];
  }
}

// Magnitudes for the subnormal sweep: subnormals, signed zeros, values
// just above FLT_MIN (whose 0.1x in Adam's m is subnormal) and values in
// [2^-75, 2^-55] (whose 0.001 * g * g in Adam's v is subnormal or zero).
std::vector<float> TinyTailValues(Rng* rng, size_t n) {
  std::vector<float> values(n);
  for (float& value : values) {
    const float sign = rng->Bernoulli(0.5) ? -1.0f : 1.0f;
    switch (rng->UniformInt(0, 3)) {
      case 0:
        value = sign * 0.0f;
        break;
      case 1:
        value = sign * std::numeric_limits<float>::denorm_min() *
                static_cast<float>(rng->UniformInt(1, 1 << 22));
        break;
      case 2:
        value = sign * std::numeric_limits<float>::min() *
                static_cast<float>(rng->UniformDouble(1.0, 8.0));
        break;
      default:
        value = sign * std::ldexp(static_cast<float>(rng->UniformDouble(1.0, 2.0)),
                                  static_cast<int>(rng->UniformInt(-75, -55)));
        break;
    }
  }
  return values;
}

// Subnormal counts seen in the fused tail's state after each Step.
struct TailCoverage {
  size_t grad = 0;
  size_t m = 0;
  size_t v = 0;
};

size_t CountSubnormal(const std::vector<float>& values) {
  size_t count = 0;
  for (float value : values) count += std::fpclassify(value) == FP_SUBNORMAL;
  return count;
}

// Four steps of reduce + clip + Adam on parameters of awkward sizes, fused
// path against the scalar reference, compared bit for bit after each stage.
void ExpectTailMatchesReference(uint64_t seed, size_t shards, double max_norm,
                                bool clip, float weight_decay,
                                std::vector<float> (*draw)(Rng*, size_t),
                                TailCoverage* coverage) {
  const std::vector<size_t> sizes = {1, 3, 4, 5, 7, 8, 9, 31, 33, 4099};
  const float learning_rate = 1e-3f;
  Rng rng(seed);
  std::vector<Tensor> params;
  ReferenceTail reference;
  for (size_t n : sizes) {
    std::vector<float> init = draw(&rng, n);
    params.push_back(Tensor::Parameter(1, n, init));
    reference.data.push_back(init);
    reference.grad.emplace_back(n, 0.0f);
    reference.m.emplace_back(n, 0.0f);
    reference.v.emplace_back(n, 0.0f);
  }
  Adam adam(params, learning_rate, 0.9f, 0.999f, 1e-8f, weight_decay);
  for (int step = 0; step < 4; ++step) {
    // partials[shard][parameter]
    std::vector<std::vector<std::vector<float>>> partials(shards);
    for (auto& shard : partials) {
      for (size_t n : sizes) shard.push_back(draw(&rng, n));
    }
    std::vector<const float*> pointers(shards);
    for (size_t p = 0; p < params.size(); ++p) {
      for (size_t s = 0; s < shards; ++s) {
        pointers[s] = partials[s][p].data();
      }
      ASSERT_TRUE(SumShardGradients(pointers, params[p].mutable_grad()));
    }
    ReferenceReduce(partials, &reference);
    for (size_t p = 0; p < params.size(); ++p) {
      ExpectBitwiseEqual(params[p].grad(), reference.grad[p], "reduced");
    }
    const double norm = adam.ClipGradNorm(max_norm);
    const double reference_norm = ReferenceClipGradNorm(&reference, max_norm);
    EXPECT_EQ(std::bit_cast<uint64_t>(norm),
              std::bit_cast<uint64_t>(reference_norm));
    EXPECT_EQ(norm > max_norm, clip);
    adam.Step();
    ReferenceAdamStep(&reference, learning_rate, 0.9f, 0.999f, 1e-8f,
                      weight_decay);
    for (size_t p = 0; p < params.size(); ++p) {
      SCOPED_TRACE(testing::Message() << "step " << step << " parameter "
                                      << p);
      ExpectBitwiseEqual(params[p].grad(), reference.grad[p], "grad");
      ExpectBitwiseEqual(params[p].data(), reference.data[p], "weight");
      ExpectBitwiseEqual(adam.first_moment(p), reference.m[p], "m");
      ExpectBitwiseEqual(adam.second_moment(p), reference.v[p], "v");
      if (coverage != nullptr) {
        coverage->grad += CountSubnormal(params[p].grad());
        coverage->m += CountSubnormal(adam.first_moment(p));
        coverage->v += CountSubnormal(adam.second_moment(p));
      }
    }
  }
}

TEST(OptimizerTest, FusedTailMatchesScalarReferenceBitForBit) {
  for (size_t shards = 1; shards <= 5; ++shards) {
    for (bool clip : {false, true}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, clip " << clip);
      // The summed gradients' norm is in the tens: 1e-3 always clips, 1e6
      // never does.
      ExpectTailMatchesReference(100 * shards + (clip ? 1 : 0), shards,
                                 clip ? 1e-3 : 1e6, clip, 1e-5f,
                                 TailTestValues, nullptr);
    }
  }
  // The bit-identical route stays bit-identical where flush-to-zero or
  // denormals-are-zero would diverge: a seeded sweep that drives the
  // gradients, m and v subnormal. The tiny gradients' norm is far above
  // 1e-30, so clipping to it scales them down by ~1e-18, deep into the
  // subnormal range.
  TailCoverage coverage;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t shards : {1, 3}) {
      for (bool clip : {false, true}) {
        for (float weight_decay : {0.0f, 1e-5f}) {
          SCOPED_TRACE(testing::Message()
                       << "subnormal sweep seed " << seed << ", " << shards
                       << " shards, clip " << clip << ", weight decay "
                       << weight_decay);
          ExpectTailMatchesReference(1000 + seed, shards, clip ? 1e-30 : 1e6,
                                     clip, weight_decay, TinyTailValues,
                                     &coverage);
        }
      }
    }
  }
  EXPECT_GT(coverage.grad, 0u);
  EXPECT_GT(coverage.m, 0u);
  EXPECT_GT(coverage.v, 0u);
}

TEST(OptimizerTest, ZeroGradClears) {
  Tensor p = Tensor::Parameter(1, 2, {0.0f, 0.0f});
  p.mutable_grad() = {1.0f, 2.0f};
  Adam optimizer({p}, 0.1f);
  optimizer.ZeroGrad();
  EXPECT_EQ(p.grad()[0], 0.0f);
  EXPECT_EQ(p.grad()[1], 0.0f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(77);
  MlpConfig config;
  config.in_features = 3;
  config.hidden_sizes = {5};
  config.out_features = 2;
  Mlp source(config, &rng);
  Mlp dest(config, &rng);  // different weights (rng advanced)

  std::string path = testing::TempDir() + "/zdb_params.bin";
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());
  ASSERT_TRUE(LoadParameters(dest.Parameters(), path).ok());

  Tensor x = Tensor::FromData(1, 3, {0.1f, 0.2f, 0.3f});
  Tensor ys = source.Forward(x);
  Tensor yd = dest.Forward(x);
  for (size_t i = 0; i < ys.size(); ++i) {
    EXPECT_FLOAT_EQ(ys.data()[i], yd.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(78);
  MlpConfig small;
  small.in_features = 2;
  small.out_features = 1;
  MlpConfig big;
  big.in_features = 3;
  big.out_features = 1;
  Mlp source(small, &rng);
  Mlp dest(big, &rng);
  std::string path = testing::TempDir() + "/zdb_params2.bin";
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());
  Status s = LoadParameters(dest.Parameters(), path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIOError) {
  Rng rng(79);
  MlpConfig config;
  config.in_features = 2;
  config.out_features = 1;
  Mlp mlp(config, &rng);
  Status s = LoadParameters(mlp.Parameters(), "/nonexistent/params.bin");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// The blocked MatMul kernel (4-wide k blocking) reorders float summation
// versus the scalar i-k-j reference, so it must match within tolerance,
// not bitwise. k values straddle the block boundary on purpose: 1 and 3
// run only the scalar tail, 4 and 8 only blocks, 7 both.
TEST(OpsTest, MatMulBlockedMatchesReference) {
  Rng rng(99);
  for (size_t k : {1u, 3u, 4u, 7u, 8u}) {
    const size_t m = 5;
    const size_t n = 6;
    std::vector<float> a_data(m * k);
    std::vector<float> b_data(k * n);
    for (float& v : a_data) {
      v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
    }
    // Sprinkle zeros so the kernel's zero-block skip path runs too.
    a_data[0] = 0.0f;
    if (k >= 4) {
      for (size_t j = 0; j < k; ++j) a_data[1 * k + j] = 0.0f;
    }
    for (float& v : b_data) {
      v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
    }
    Tensor a = Tensor::FromData(m, k, a_data);
    Tensor b = Tensor::FromData(k, n, b_data);
    Tensor c = MatMul(a, b);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double reference = 0.0;
        for (size_t kk = 0; kk < k; ++kk) {
          reference += static_cast<double>(a_data[i * k + kk]) *
                       static_cast<double>(b_data[kk * n + j]);
        }
        EXPECT_NEAR(c.at(i, j), static_cast<float>(reference), 1e-4f)
            << "k=" << k << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(OpsTest, MatMulHiddenWidthPathMatchesGenericBitForBit) {
  // The row kernel keeps a 64-wide output row in registers (the tree
  // models' hidden width) and runs every other width through the generic
  // loop. Both must compute each element with the same expression in the
  // same order: columns 0..63 of a 65-wide product (generic) equal the
  // 64-wide product (register path) bit for bit.
  Rng rng(64);
  for (size_t k : {1u, 3u, 4u, 7u, 64u, 66u, 128u, 131u}) {
    const size_t m = 6;
    std::vector<float> a_data(m * k);
    for (float& v : a_data) v = static_cast<float>(rng.Normal());
    // Zero 4-blocks (the skip path), a zero row and a lone signed zero.
    for (size_t j = 0; j < std::min<size_t>(k, 8); ++j) a_data[j] = 0.0f;
    for (size_t j = 0; j < k; ++j) a_data[2 * k + j] = 0.0f;
    a_data[3 * k] = -0.0f;
    std::vector<float> wide_data(k * 65);
    std::vector<float> hidden_data(k * 64);
    for (size_t row = 0; row < k; ++row) {
      for (size_t j = 0; j < 65; ++j) {
        wide_data[row * 65 + j] = static_cast<float>(rng.Normal());
        if (j < 64) hidden_data[row * 64 + j] = wide_data[row * 65 + j];
      }
    }
    Tensor a = Tensor::FromData(m, k, a_data);
    Tensor hidden = MatMul(a, Tensor::FromData(k, 64, hidden_data));
    Tensor wide = MatMul(a, Tensor::FromData(k, 65, wide_data));
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < 64; ++j) {
        ASSERT_EQ(std::bit_cast<uint32_t>(hidden.at(i, j)),
                  std::bit_cast<uint32_t>(wide.at(i, j)))
            << "k=" << k << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(OpsTest, LinearFusedMatchesComposition) {
  // LinearFused promises bitwise-identical results to the three-op
  // composition (bias after the full k-accumulation, then ReLU), so exact
  // equality — not tolerance — is the contract.
  Tensor x = Tensor::FromData(3, 5, {0.3f, -1.2f, 0.7f, 2.1f, -0.4f,
                                     1.1f, 0.0f, -0.9f, 0.5f, 1.7f,
                                     -2.2f, 0.8f, 1.3f, -0.1f, 0.6f});
  Rng rng(7);
  std::vector<float> w_data(5 * 4);
  for (float& v : w_data) {
    v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  Tensor w = Tensor::FromData(5, 4, w_data);
  Tensor bias = Tensor::FromData(1, 4, {0.1f, -0.2f, 0.3f, -0.4f});
  Tensor composed = Relu(AddBias(MatMul(x, w), bias));
  Tensor fused = LinearFused(x, w, bias, /*relu=*/true);
  ASSERT_EQ(fused.rows(), composed.rows());
  ASSERT_EQ(fused.cols(), composed.cols());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], composed.data()[i]) << "element " << i;
  }
  Tensor fused_linear = LinearFused(x, w, bias, /*relu=*/false);
  Tensor composed_linear = AddBias(MatMul(x, w), bias);
  for (size_t i = 0; i < fused_linear.size(); ++i) {
    EXPECT_EQ(fused_linear.data()[i], composed_linear.data()[i])
        << "element " << i;
  }
}

TEST(AutogradTest, LinearFusedWeightGradient) {
  Tensor w = Tensor::Parameter(3, 2, {0.4f, -0.3f, 0.2f, 0.6f, -0.5f, 0.1f});
  Tensor x = Tensor::FromData(2, 3, {1, -2, 0.5f, 2, 1, -1});
  Tensor bias = Tensor::FromData(1, 2, {0.3f, -0.2f});
  Tensor target = Tensor::FromData(2, 1, {1.0f, -1.0f});
  auto loss_fn = [&]() {
    Tensor h = LinearFused(x, w, bias, /*relu=*/true);
    Tensor col = MatMul(h, Tensor::FromData(2, 1, {1.0f, -1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, LinearFusedBiasGradient) {
  // 0.3 keeps every pre-activation a safe margin away from the ReLU kink:
  // the numeric gradient straddles z = 0 and diverges from the analytic
  // one when a perturbation flips the unit's activation.
  Tensor bias = Tensor::Parameter(1, 2, {0.3f, -0.15f});
  Tensor x = Tensor::FromData(2, 3, {1, -2, 0.5f, 2, 1, -1});
  Tensor w = Tensor::FromData(3, 2, {0.4f, -0.3f, 0.2f, 0.6f, -0.5f, 0.1f});
  Tensor target = Tensor::FromData(2, 1, {1.0f, -1.0f});
  auto loss_fn = [&]() {
    Tensor h = LinearFused(x, w, bias, /*relu=*/true);
    Tensor col = MatMul(h, Tensor::FromData(2, 1, {1.0f, 1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(bias, loss_fn);
}

TEST(OpsTest, RowScatterAddToMatchesComposition) {
  Tensor base = Tensor::FromData(3, 2, {1, 1, 2, 2, 3, 3});
  Tensor x = Tensor::FromData(2, 2, {10, 10, 20, 20});
  Tensor composed = Add(base, RowScatterAdd(x, {0, 2}, 3));
  Tensor fused = RowScatterAddTo(base, x, {0, 2});
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], composed.data()[i]) << "element " << i;
  }
}

TEST(AutogradTest, RowScatterAddToGradient) {
  Tensor w = Tensor::Parameter(2, 2, {0.3f, -0.4f, 0.5f, 0.2f});
  Tensor base = Tensor::FromData(3, 2, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f});
  Tensor target = Tensor::FromData(3, 1, {1.0f, 0.0f, -1.0f});
  auto loss_fn = [&]() {
    Tensor acc = RowScatterAddTo(base, w, {2, 0});
    Tensor col = MatMul(acc, Tensor::FromData(2, 1, {1.0f, -1.0f}));
    return MseLoss(col, target);
  };
  CheckGradients(w, loss_fn);
}

}  // namespace
}  // namespace zerodb::nn
