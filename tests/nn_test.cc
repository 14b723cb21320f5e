#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace zerodb::nn {
namespace {

TEST(OpsTest, HuberLossForward) {
  const std::vector<float> pred = {0.5f, 3.0f};
  const std::vector<float> target = {0.0f, 0.0f};
  // 0.5*0.25 + (3 - 0.5) = 0.125 + 2.5, averaged.
  EXPECT_FLOAT_EQ(HuberLossValue(pred, target, 1.0f), (0.125f + 2.5f) / 2.0f);
  std::vector<float> grad(2, 0.0f);
  EXPECT_FLOAT_EQ(ScaledHuberLossBackward(pred, target, 1.0f, 0.5f, grad),
                  (0.125f + 2.5f) / 4.0f);
  EXPECT_FLOAT_EQ(grad[0], 0.5f * 0.5f / 2.0f);  // scale * diff / count
  EXPECT_FLOAT_EQ(grad[1], 0.5f * 1.0f / 2.0f);  // clipped at delta
}

// Set pooling's kernels on a block two columns into a 7-wide row, as MSCN
// runs them: AddRow scatters each query's rows onto its zeroed row, the
// scale divides by the set size, and ScaleRowsAccumulate and an AddRow
// gather send a gradient back the same way.
TEST(OpsTest, PoolingKernelsForward) {
  const std::vector<float> x = {1, 2, 3, 10, 20, 30, 100, 200, 300};
  const std::vector<uint32_t> owners = {0, 2, 0};
  std::vector<float> pooled(3 * 7, -1.0f);
  for (size_t q = 0; q < 3; ++q) {
    std::fill(pooled.begin() + q * 7 + 2, pooled.begin() + q * 7 + 5, 0.0f);
  }
  for (size_t i = 0; i < owners.size(); ++i) {
    AddRow(x.data() + i * 3, 3, pooled.data() + owners[i] * 7 + 2);
  }
  const std::vector<float> factors = {0.5f, 0.0f, 1.0f};
  ScaleRowsInPlace(pooled.data() + 2, 7, 3, factors);
  EXPECT_EQ(pooled[2], 50.5f);   // (1 + 100) / 2
  EXPECT_EQ(pooled[4], 151.5f);  // (3 + 300) / 2
  EXPECT_EQ(pooled[7 + 2], 0.0f);
  EXPECT_EQ(pooled[14 + 3], 20.0f);
  EXPECT_EQ(pooled[1], -1.0f);  // outside the block: untouched
  EXPECT_EQ(pooled[5], -1.0f);

  std::vector<float> d_sums(3 * 3, 0.0f);
  ScaleRowsAccumulate(pooled.data() + 2, 7, 3, factors, d_sums.data());
  EXPECT_EQ(d_sums[0], 25.25f);
  EXPECT_EQ(d_sums[3], 0.0f);
  EXPECT_EQ(d_sums[7], 20.0f);
  std::vector<float> d_x(3 * 3, 0.0f);
  for (size_t i = 0; i < owners.size(); ++i) {
    AddRow(d_sums.data() + owners[i] * 3, 3, d_x.data() + i * 3);
  }
  EXPECT_EQ(d_x[0], 25.25f);
  EXPECT_EQ(d_x[4], 20.0f);
  EXPECT_EQ(d_x[6], 25.25f);
}

// The pooling kernels' backward against central differences of
// L = sum(w * pooled) + 0.5 * sum(pooled^2) in the element rows.
TEST(GradientTest, PoolingKernelsMatchCentralDifferences) {
  Rng rng(11);
  const size_t n = 3;
  const size_t stride = 7;
  const size_t offset = 2;
  const std::vector<uint32_t> owners = {1, 0, 1, 3, 1, 0};
  const std::vector<float> factors = {0.5f, 1.0f / 3.0f, 0.0f, 1.0f};
  const size_t queries = factors.size();
  std::vector<float> x(owners.size() * n);
  for (float& v : x) v = static_cast<float>(rng.Normal());
  std::vector<float> w(queries * n);
  for (float& v : w) v = static_cast<float>(rng.Normal());
  std::vector<float> pooled(queries * stride);
  auto forward = [&]() {
    std::fill(pooled.begin(), pooled.end(), 0.0f);
    for (size_t i = 0; i < owners.size(); ++i) {
      AddRow(x.data() + i * n, n, pooled.data() + owners[i] * stride + offset);
    }
    ScaleRowsInPlace(pooled.data() + offset, stride, n, factors);
  };
  auto loss = [&]() {
    forward();
    double total = 0.0;
    for (size_t q = 0; q < queries; ++q) {
      for (size_t j = 0; j < n; ++j) {
        const double p = pooled[q * stride + offset + j];
        total += w[q * n + j] * p + 0.5 * p * p;
      }
    }
    return static_cast<float>(total);
  };
  forward();
  std::vector<float> d_pooled(queries * stride, 0.0f);
  for (size_t q = 0; q < queries; ++q) {
    for (size_t j = 0; j < n; ++j) {
      d_pooled[q * stride + offset + j] =
          w[q * n + j] + pooled[q * stride + offset + j];
    }
  }
  std::vector<float> d_sums(queries * n, 0.0f);
  ScaleRowsAccumulate(d_pooled.data() + offset, stride, n, factors,
                      d_sums.data());
  std::vector<float> dx(x.size(), 0.0f);
  for (size_t i = 0; i < owners.size(); ++i) {
    AddRow(d_sums.data() + owners[i] * n, n, dx.data() + i * n);
  }
  gradcheck::ExpectCentralDifferences(x, dx, loss, "element rows");
}

// Mlp::BackwardRows + ScaledHuberLossBackward against central differences,
// input and parameter gradients. Hidden width 64 takes the matmul kernel's
// register path, 7 its generic one; the targets put some rows past the
// Huber threshold.
TEST(GradientTest, MlpRowPassMatchesCentralDifferences) {
  Rng rng(9);
  MlpConfig config;
  config.in_features = 5;
  config.hidden_sizes = {64, 7};
  config.out_features = 1;
  ParameterBlock params;
  Mlp mlp(config, &rng, &params);
  const size_t rows = 6;
  std::vector<float> x(rows * config.in_features);
  std::vector<float> targets(rows);
  for (float& v : x) {
    v = rng.Bernoulli(0.2) ? 0.0f : static_cast<float>(rng.Normal());
  }
  for (float& t : targets) t = static_cast<float>(2.0 * rng.Normal());
  gradcheck::ExpectMlpGradientsMatch(mlp, &params, x, targets, 0.375f);
}

TEST(LayersTest, LinearShapesAndDeterminism) {
  Rng rng1(5);
  Rng rng2(5);
  ParameterBlock block_a;
  ParameterBlock block_b;
  block_b.values = {1.0f, 2.0f};  // a layer appends after what is there
  block_b.grads = {0.0f, 0.0f};
  Linear a(4, 3, &rng1, &block_a);
  Linear b(4, 3, &rng2, &block_b);
  EXPECT_EQ(a.weight_offset(), 0u);
  EXPECT_EQ(a.bias_offset(), 12u);  // weight (4, 3), then bias (3)
  EXPECT_EQ(b.weight_offset(), 2u);
  EXPECT_EQ(b.bias_offset(), 14u);
  ASSERT_EQ(block_a.size(), 15u);
  ASSERT_EQ(block_a.grads.size(), 15u);
  ASSERT_EQ(block_b.size(), 17u);
  ASSERT_EQ(block_b.grads.size(), 17u);
  EXPECT_EQ(block_a.values,
            std::vector<float>(block_b.values.begin() + 2,
                               block_b.values.end()));
}

TEST(LayersTest, MlpForwardShape) {
  Rng rng(5);
  MlpConfig config;
  config.in_features = 6;
  config.hidden_sizes = {8, 8};
  config.out_features = 1;
  ParameterBlock params;
  Mlp mlp(config, &rng, &params);
  MlpTape tape;
  mlp.ForwardRows(params, std::vector<float>(3 * 6, 0.0f), 3, &tape);
  EXPECT_EQ(tape.rows, 3u);
  ASSERT_EQ(tape.layers.size(), 3u);
  EXPECT_EQ(tape.layers.back().size(), 3u);
  // Three layers of weight + bias: (6 + 1) * 8 + (8 + 1) * 8 + (8 + 1) * 1.
  EXPECT_EQ(params.size(), 56u + 72u + 9u);
}

TEST(TrainingTest, MlpLearnsLinearFunction) {
  // y = 2*x0 - x1 + 0.5 learned from samples; sanity check the full loop.
  Rng rng(123);
  MlpConfig config;
  config.in_features = 2;
  config.hidden_sizes = {16};
  config.out_features = 1;
  ParameterBlock params;
  Mlp mlp(config, &rng, &params);

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

  Adam optimizer(&params, 0.01f);
  MlpTape tape;
  std::vector<float> d_out(n);
  std::vector<float> scratch;
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 600; ++epoch) {
    optimizer.ZeroGrad();
    mlp.ForwardRows(params, inputs, n, &tape);
    std::fill(d_out.begin(), d_out.end(), 0.0f);
    final_loss = ScaledHuberLossBackward({tape.output(), n}, targets, 1.0f,
                                         1.0f, d_out);
    mlp.BackwardRows(&params, inputs.data(), tape, d_out.data(),
                     /*dx=*/nullptr, &scratch);
    optimizer.Step();
  }
  // Huber at delta 1 is half the squared error for small residuals.
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(OptimizerTest, ClipGradNorm) {
  ParameterBlock p{{0.0f, 0.0f}, {3.0f, 4.0f}};  // gradient norm 5
  Adam optimizer(&p, 0.001f);
  double norm = optimizer.ClipGradNorm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  // The next Step applies the clip inside its update pass and stores the
  // clipped gradient back.
  optimizer.Step();
  EXPECT_NEAR(p.grads[0], 0.6f, 1e-5);
  EXPECT_NEAR(p.grads[1], 0.8f, 1e-5);
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

std::vector<float> Concat(const std::vector<std::vector<float>>& parts) {
  std::vector<float> all;
  for (const std::vector<float>& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

// Four steps of reduce + clip + Adam over parameters of the given sizes laid
// end to end in one block, the fused path against the scalar reference (one
// vector per parameter), compared bit for bit after each stage. `clip`, when
// set, is whether every step must clip.
void ExpectTailMatchesReference(const std::vector<size_t>& sizes,
                                uint64_t seed, size_t shards, double max_norm,
                                std::optional<bool> clip, float weight_decay,
                                std::vector<float> (*draw)(Rng*, size_t),
                                TailCoverage* coverage) {
  const float learning_rate = 1e-3f;
  Rng rng(seed);
  ReferenceTail reference;
  for (size_t n : sizes) {
    reference.data.push_back(draw(&rng, n));
    reference.grad.emplace_back(n, 0.0f);
    reference.m.emplace_back(n, 0.0f);
    reference.v.emplace_back(n, 0.0f);
  }
  ParameterBlock block;
  block.values = Concat(reference.data);
  block.grads.assign(block.size(), 0.0f);
  Adam adam(&block, learning_rate, 0.9f, 0.999f, 1e-8f, weight_decay);
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    // partials[shard][parameter], and each shard's partials end to end.
    std::vector<std::vector<std::vector<float>>> partials(shards);
    std::vector<std::vector<float>> shard_blocks;
    std::vector<const float*> pointers;
    for (auto& shard : partials) {
      for (size_t n : sizes) shard.push_back(draw(&rng, n));
      shard_blocks.push_back(Concat(shard));
    }
    for (const std::vector<float>& shard : shard_blocks) {
      pointers.push_back(shard.data());
    }
    ASSERT_TRUE(SumShardGradients(pointers, block.grads));
    ReferenceReduce(partials, &reference);
    ExpectBitwiseEqual(block.grads, Concat(reference.grad), "reduced");
    const double norm = adam.ClipGradNorm(max_norm);
    const double reference_norm = ReferenceClipGradNorm(&reference, max_norm);
    EXPECT_EQ(std::bit_cast<uint64_t>(norm),
              std::bit_cast<uint64_t>(reference_norm));
    if (clip.has_value()) {
      EXPECT_EQ(norm > max_norm, *clip);
    }
    adam.Step();
    ReferenceAdamStep(&reference, learning_rate, 0.9f, 0.999f, 1e-8f,
                      weight_decay);
    ExpectBitwiseEqual(block.grads, Concat(reference.grad), "grad");
    ExpectBitwiseEqual(block.values, Concat(reference.data), "weight");
    ExpectBitwiseEqual(adam.first_moment(), Concat(reference.m), "m");
    ExpectBitwiseEqual(adam.second_moment(), Concat(reference.v), "v");
    if (coverage != nullptr) {
      coverage->grad += CountSubnormal(block.grads);
      coverage->m += CountSubnormal(adam.first_moment());
      coverage->v += CountSubnormal(adam.second_moment());
    }
  }
}

// The tail over the awkward sizes laid end to end in one block, then over
// each size alone, so every size's vector tail also runs from an aligned
// block start. Only the joint block's norm is sure to clip (or not).
void ExpectTailMatchesReferenceInEveryLayout(
    uint64_t seed, size_t shards, double max_norm, bool clip,
    float weight_decay, std::vector<float> (*draw)(Rng*, size_t),
    TailCoverage* coverage) {
  const std::vector<size_t> sizes = {1, 3, 4, 5, 7, 8, 9, 31, 33, 4099};
  ExpectTailMatchesReference(sizes, seed, shards, max_norm, clip,
                             weight_decay, draw, coverage);
  for (size_t n : sizes) {
    SCOPED_TRACE(testing::Message() << "size " << n << " alone");
    ExpectTailMatchesReference({n}, seed, shards, max_norm, std::nullopt,
                               weight_decay, draw, coverage);
  }
}

TEST(OptimizerTest, FusedTailMatchesScalarReferenceBitForBit) {
  for (size_t shards = 1; shards <= 5; ++shards) {
    for (bool clip : {false, true}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, clip " << clip);
      // The summed gradients' norm is in the tens: 1e-3 always clips, 1e6
      // never does.
      ExpectTailMatchesReferenceInEveryLayout(
          100 * shards + (clip ? 1 : 0), shards, clip ? 1e-3 : 1e6, clip,
          1e-5f, TailTestValues, nullptr);
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
          ExpectTailMatchesReferenceInEveryLayout(
              1000 + seed, shards, clip ? 1e-30 : 1e6, clip, weight_decay,
              TinyTailValues, &coverage);
        }
      }
    }
  }
  EXPECT_GT(coverage.grad, 0u);
  EXPECT_GT(coverage.m, 0u);
  EXPECT_GT(coverage.v, 0u);
}

TEST(OptimizerTest, ZeroGradClears) {
  ParameterBlock p{{0.0f, 0.0f}, {1.0f, 2.0f}};
  Adam optimizer(&p, 0.1f);
  optimizer.ZeroGrad();
  EXPECT_EQ(p.grads[0], 0.0f);
  EXPECT_EQ(p.grads[1], 0.0f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(77);
  MlpConfig config;
  config.in_features = 3;
  config.hidden_sizes = {5};
  config.out_features = 2;
  ParameterBlock source_params;
  ParameterBlock dest_params;
  Mlp source(config, &rng, &source_params);
  Mlp dest(config, &rng, &dest_params);  // different weights (rng advanced)
  const std::vector<float> norm = {0.5f, 2.0f};

  std::string path = testing::TempDir() + "/zdb_params.bin";
  const std::span<const float> saved[] = {source_params.values, norm};
  ASSERT_TRUE(SaveParameters(saved, path).ok());
  std::vector<float> loaded_norm(2);
  const std::span<float> loaded[] = {dest_params.values, loaded_norm};
  ASSERT_TRUE(LoadParameters(loaded, path).ok());
  EXPECT_EQ(loaded_norm, norm);

  const std::vector<float> x = {0.1f, 0.2f, 0.3f};
  MlpTape ys;
  MlpTape yd;
  source.ForwardRows(source_params, x, 1, &ys);
  dest.ForwardRows(dest_params, x, 1, &yd);
  EXPECT_EQ(ys.layers.back(), yd.layers.back());
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
  ParameterBlock source_params;
  ParameterBlock dest_params;
  Mlp source(small, &rng, &source_params);
  Mlp dest(big, &rng, &dest_params);
  const std::vector<float> before = dest_params.values;
  std::string path = testing::TempDir() + "/zdb_params2.bin";
  const std::span<const float> saved[] = {source_params.values};
  ASSERT_TRUE(SaveParameters(saved, path).ok());
  const std::span<float> loaded[] = {dest_params.values};
  Status s = LoadParameters(loaded, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dest_params.values, before);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIOError) {
  std::vector<float> values(3);
  const std::span<float> loaded[] = {values};
  Status s = LoadParameters(loaded, "/nonexistent/params.bin");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// A file in the per-tensor version 1 layout (magic "ZDBNN001", the tensor
// count, then rows, cols and values per tensor) is refused by version, even
// where its float count happens to match.
TEST(SerializeTest, OlderFormatVersionRejected) {
  std::string bytes;
  auto append_u64 = [&bytes](uint64_t value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_u64(0x5a44424e4e303031ULL);
  append_u64(1);
  append_u64(1);
  append_u64(3);
  const float values_v1[3] = {1.0f, 2.0f, 3.0f};
  bytes.append(reinterpret_cast<const char*>(values_v1), sizeof(values_v1));
  const std::string path = testing::TempDir() + "/zdb_params_v1.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<float> values(3, 0.0f);
  const std::span<float> loaded[] = {values};
  const Status s = LoadParameters(loaded, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("version 1"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(values, std::vector<float>(3, 0.0f));
  std::remove(path.c_str());
}

// A dense layer with a zero bias is a matmul. Its 4-wide k blocking
// reorders float summation versus the scalar i-k-j reference, so it must
// match within tolerance, not bitwise. k values straddle the block boundary
// on purpose: 1 and 3 run only the scalar tail, 4 and 8 only blocks, 7 both.
TEST(OpsTest, LinearForwardBlockedMatchesReference) {
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
    std::vector<float> c(m * n);
    const std::vector<float> bias(n, 0.0f);
    LinearForward(a_data.data(), m, k, n, b_data.data(), bias.data(),
                  /*relu=*/false, c.data());
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double reference = 0.0;
        for (size_t kk = 0; kk < k; ++kk) {
          reference += static_cast<double>(a_data[i * k + kk]) *
                       static_cast<double>(b_data[kk * n + j]);
        }
        EXPECT_NEAR(c[i * n + j], static_cast<float>(reference), 1e-4f)
            << "k=" << k << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(OpsTest, LinearForwardHiddenWidthPathMatchesGenericBitForBit) {
  // The row kernel keeps a 64-wide output row in registers (the tree
  // models' hidden width) and runs every other width through the generic
  // loop. Both must compute each element with the same expression in the
  // same order: columns 0..63 of a 65-wide layer (generic) equal the
  // 64-wide layer (register path) bit for bit, with and without the ReLU.
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
    std::vector<float> wide_bias(65);
    for (float& v : wide_bias) v = static_cast<float>(rng.Normal());
    const std::vector<float> hidden_bias(wide_bias.begin(),
                                         wide_bias.begin() + 64);
    for (bool relu : {false, true}) {
      std::vector<float> hidden(m * 64);
      std::vector<float> wide(m * 65);
      LinearForward(a_data.data(), m, k, 64, hidden_data.data(),
                    hidden_bias.data(), relu, hidden.data());
      LinearForward(a_data.data(), m, k, 65, wide_data.data(),
                    wide_bias.data(), relu, wide.data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < 64; ++j) {
          ASSERT_EQ(std::bit_cast<uint32_t>(hidden[i * 64 + j]),
                    std::bit_cast<uint32_t>(wide[i * 65 + j]))
              << "k=" << k << " relu=" << relu << " at (" << i << "," << j
              << ")";
        }
      }
    }
  }
}

TEST(OpsTest, LinearForwardReluMatchesClampedLinear) {
  // The fused ReLU rectifies the row after the bias, in the same pass: the
  // rectified layer equals max(0, .) of the unrectified one, bit for bit.
  const std::vector<float> x = {0.3f,  -1.2f, 0.7f, 2.1f,  -0.4f,
                                1.1f,  0.0f,  -0.9f, 0.5f, 1.7f,
                                -2.2f, 0.8f,  1.3f, -0.1f, 0.6f};
  Rng rng(7);
  std::vector<float> w_data(5 * 4);
  for (float& v : w_data) {
    v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  const std::vector<float> bias = {0.1f, -0.2f, 0.3f, -0.4f};
  std::vector<float> linear(3 * 4);
  std::vector<float> rectified(3 * 4);
  LinearForward(x.data(), 3, 5, 4, w_data.data(), bias.data(),
                /*relu=*/false, linear.data());
  LinearForward(x.data(), 3, 5, 4, w_data.data(), bias.data(),
                /*relu=*/true, rectified.data());
  size_t clamped = 0;
  for (size_t i = 0; i < linear.size(); ++i) {
    const float expected = linear[i] > 0.0f ? linear[i] : 0.0f;
    EXPECT_EQ(std::bit_cast<uint32_t>(rectified[i]),
              std::bit_cast<uint32_t>(expected))
        << "element " << i;
    clamped += linear[i] <= 0.0f;
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_LT(clamped, linear.size());
}

}  // namespace
}  // namespace zerodb::nn
