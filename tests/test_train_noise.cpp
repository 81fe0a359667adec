// Approximation-aware training (the k: 18 -> 5 mechanism).
#include <gtest/gtest.h>

#include "tensor/train.hpp"

namespace flash {
namespace {

TEST(Train, SyntheticDataIsSeparable) {
  std::mt19937_64 rng(7);
  const auto data = tensor::LabeledDataset::synthetic(300, 32, 4, 4, 200.0, rng);
  EXPECT_EQ(data.features.size(), 300u);
  // Every class is represented.
  std::vector<int> counts(4, 0);
  for (std::size_t label : data.labels) ++counts[label];
  for (int c : counts) EXPECT_GT(c, 10);
  // Clean training reaches (near-)perfect accuracy.
  std::mt19937_64 trng(8);
  const auto model = tensor::train(data, {}, trng);
  std::mt19937_64 erng(9);
  EXPECT_GE(tensor::evaluate(model, data, 0.0, erng), 0.97);
}

TEST(Train, NoiseInjectionTrainingRecoversAccuracyUnderNoise) {
  // The paper's approximation-aware-training claim in miniature: at an
  // error level where the cleanly-trained model degrades, the noise-trained
  // model recovers most of the loss while staying perfect on clean inputs.
  std::mt19937_64 rng(7);
  const auto data = tensor::LabeledDataset::synthetic(400, 32, 4, 4, 200.0, rng);

  std::mt19937_64 t1(8), t2(8);
  const auto clean_model = tensor::train(data, {}, t1);
  tensor::TrainOptions noisy_opts;
  noisy_opts.train_noise_std = 5.0;
  noisy_opts.noise_draws = 2;
  const auto noisy_model = tensor::train(data, noisy_opts, t2);

  std::mt19937_64 e1(9), e2(9), e3(9), e4(9);
  const double clean_on_clean = tensor::evaluate(clean_model, data, 0.0, e1);
  const double noisy_on_clean = tensor::evaluate(noisy_model, data, 0.0, e2);
  const double clean_on_noisy = tensor::evaluate(clean_model, data, 4.0, e3);
  const double noisy_on_noisy = tensor::evaluate(noisy_model, data, 4.0, e4);

  EXPECT_GE(noisy_on_clean, clean_on_clean - 0.02);  // no clean-accuracy cost
  EXPECT_LT(clean_on_noisy, 0.97);                   // the noise hurts the baseline
  EXPECT_GE(noisy_on_noisy, clean_on_noisy + 0.02);  // training recovers margin
}

TEST(Train, MoreTrainingNoiseMoreRobustness) {
  std::mt19937_64 rng(17);
  const auto data = tensor::LabeledDataset::synthetic(400, 32, 4, 4, 200.0, rng);
  double prev = 0.0;
  for (double sigma : {0.0, 4.0, 8.0}) {
    tensor::TrainOptions opts;
    opts.train_noise_std = sigma;
    opts.noise_draws = 2;
    std::mt19937_64 trng(8), erng(9);
    const auto model = tensor::train(data, opts, trng);
    const double acc = tensor::evaluate(model, data, 8.0, erng);
    EXPECT_GE(acc, prev - 0.03) << sigma;  // robustness is (weakly) increasing
    prev = std::max(prev, acc);
  }
  EXPECT_GT(prev, 0.70);
}

}  // namespace
}  // namespace flash
