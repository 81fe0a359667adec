// Hardware cost models: Table II anchors, scaling laws, FLASH breakdown
// roll-up, workload latency/energy, and baseline throughput validation.
#include <gtest/gtest.h>

#include "accel/baselines.hpp"
#include "accel/memory.hpp"
#include "accel/workload.hpp"
#include "tensor/resnet.hpp"

namespace flash::accel {
namespace {

TEST(UnitCosts, TableIIAnchors) {
  EXPECT_DOUBLE_EQ(modular_mult_f1().area_um2, 1817.0);
  EXPECT_DOUBLE_EQ(modular_mult_f1().power_mw, 4.10);
  EXPECT_DOUBLE_EQ(modular_mult_cham().area_um2, 3517.0);
  EXPECT_DOUBLE_EQ(complex_fp_mult(39).area_um2, 11744.0);
  EXPECT_DOUBLE_EQ(complex_fp_mult(39).power_mw, 8.26);
  EXPECT_DOUBLE_EQ(approx_fxp_mult(39, 5).area_um2, 3211.0);
  EXPECT_DOUBLE_EQ(approx_fxp_mult(39, 5).power_mw, 1.11);
}

TEST(UnitCosts, PaperPowerRatioClaims) {
  // "The power of complex FP multiplications is approximately twice that of
  // modular multiplication."
  const double ratio = complex_fp_mult(39).power_mw / modular_mult_f1().power_mw;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
  // "The approximate FXP multiplication performs more efficiently than the
  // optimized modular one used in CHAM."
  EXPECT_LT(approx_fxp_mult(39, 5).power_mw, modular_mult_cham().power_mw);
}

TEST(UnitCosts, ScalingMonotone) {
  EXPECT_LT(approx_fxp_mult(27, 5).power_mw, approx_fxp_mult(39, 5).power_mw);
  EXPECT_LT(approx_fxp_mult(39, 3).power_mw, approx_fxp_mult(39, 5).power_mw);
  EXPECT_LT(complex_fp_mult(20).power_mw, complex_fp_mult(39).power_mw);
  EXPECT_LT(plain_fxp_mult(27).power_mw, plain_fxp_mult(39).power_mw);
  // k = 18 CSD is still cheaper than a full array multiplier at equal width.
  EXPECT_LT(approx_fxp_mult(39, 18).area_um2, 1.3 * plain_fxp_mult(39).area_um2);
}

TEST(UnitCosts, EnergyPerOp) {
  // 1.11 mW at 1 GHz = 1.11 pJ per butterfly-cycle.
  EXPECT_NEAR(approx_fxp_mult(39, 5).energy_pj(1e9), 1.11, 1e-9);
  EXPECT_NEAR(approx_fxp_mult(39, 5).energy_pj(500e6), 2.22, 1e-9);
}

TEST(FlashBreakdown, WeightOnlySectionNearPaper) {
  // Table III FLASH weight-transform row: 0.74 mm^2 / 0.27 W.
  const auto b = flash_breakdown(FlashConfig::weight_transform_only());
  EXPECT_NEAR(b.total_area(), 0.74, 0.25);
  EXPECT_NEAR(b.total_power(), 0.27, 0.10);
  EXPECT_DOUBLE_EQ(b.fp_bu_area, 0.0);
  EXPECT_DOUBLE_EQ(b.fp_mult_area, 0.0);
}

TEST(FlashBreakdown, FullConfigNearPaper) {
  // Table III FLASH all-transforms row: 4.22 mm^2 / 2.56 W.
  const auto b = flash_breakdown(FlashConfig::paper_default());
  EXPECT_NEAR(b.total_area(), 4.22, 1.2);
  EXPECT_NEAR(b.total_power(), 2.56, 0.8);
  // Fig. 12: point-wise FP multipliers dominate the full design.
  EXPECT_GT(b.fp_mult_area, b.approx_bu_area);
  EXPECT_GT(b.fp_mult_power, b.approx_bu_power);
}

TEST(Workload, ButterflyFormulas) {
  EXPECT_EQ(dense_fft_butterflies(4096), 2048u / 2 * 11);  // 2048-point FFT
  EXPECT_EQ(dense_ntt_butterflies(4096), 4096u / 2 * 12);
}

// Tallies recorded by instrumenting a radix-4 FFT executor (and a radix-2
// stage walk) over dense M-point transforms; the closed-form counts must
// reproduce them exactly. Columns: complex mults, trivial mults, adds.
TEST(Radix4Cost, MatchesExecutorTallies) {
  struct Tally {
    std::uint64_t mults, trivial, adds;
  };
  struct Row {
    std::size_t m;
    Tally r4, r2;
  };
  const Row rows[] = {
      {2, {0, 1, 2}, {0, 1, 2}},
      {8, {2, 8, 32}, {2, 10, 24}},
      {16, {8, 16, 96}, {10, 22, 64}},
      {512, {1196, 596, 6656}, {1538, 766, 4608}},
      {2048, {6316, 2388, 32768}, {8194, 3070, 22528}},
      {8192, {31404, 9556, 155648}, {40962, 12286, 106496}},
  };
  for (const Row& row : rows) {
    const sparsefft::PlanCost r4 = radix4_dense_cost(row.m);
    const sparsefft::PlanCost r2 = sparsefft::SparseFftPlan::dense_cost(row.m);
    EXPECT_EQ(r4.complex_mults, row.r4.mults) << row.m;
    EXPECT_EQ(r4.trivial_mults, row.r4.trivial) << row.m;
    EXPECT_EQ(r4.complex_adds, row.r4.adds) << row.m;
    EXPECT_EQ(r2.complex_mults, row.r2.mults) << row.m;
    EXPECT_EQ(r2.trivial_mults, row.r2.trivial) << row.m;
    EXPECT_EQ(r2.complex_adds, row.r2.adds) << row.m;
  }
  EXPECT_THROW(radix4_dense_cost(12), std::invalid_argument);
}

TEST(Radix4Cost, FewerMultsThanRadix2) {
  for (std::size_t m : {std::size_t{64}, std::size_t{256}, std::size_t{2048}}) {
    const auto r4 = radix4_dense_cost(m);
    const auto r2 = sparsefft::SparseFftPlan::dense_cost(m);
    EXPECT_LT(r4.complex_mults, r2.complex_mults) << m;
    // Classic result: radix-4 saves ~25% of the complex multiplications.
    const double ratio = static_cast<double>(r4.complex_mults) / static_cast<double>(r2.complex_mults);
    EXPECT_GT(ratio, 0.6) << m;
    EXPECT_LT(ratio, 0.95) << m;
  }
}

TEST(Workload, FromNetworkAggregates) {
  const auto layers = tensor::resnet18_conv_layers();
  const TransformWorkload w = TransformWorkload::from_network(layers, 4096, 0.15);
  EXPECT_GT(w.weight_transforms, w.cipher_transforms);
  EXPECT_GT(w.pointwise_polys, 0u);
}

TEST(Workload, FlashRunScalesWithWork) {
  TransformWorkload w;
  w.n = 4096;
  w.weight_transforms = 1000;
  w.cipher_transforms = 20;
  w.inverse_transforms = 20;
  w.pointwise_polys = 1000;
  w.weight_mult_fraction = 0.12;
  const FlashConfig cfg = FlashConfig::paper_default();
  const LatencyEnergy a = flash_run(cfg, w, WeightPath::kApproxSparse);
  TransformWorkload w2 = w;
  w2.weight_transforms *= 2;
  w2.cipher_transforms *= 2;
  w2.inverse_transforms *= 2;
  w2.pointwise_polys *= 2;
  const LatencyEnergy b = flash_run(cfg, w2, WeightPath::kApproxSparse);
  EXPECT_NEAR(b.seconds / a.seconds, 2.0, 1e-9);
  EXPECT_NEAR(b.joules / a.joules, 2.0, 1e-9);
}

TEST(Workload, AblationOrdering) {
  // Fig. 11(d)(e): FP dense > FXP dense > {sparse-only, approx-only} > FLASH.
  TransformWorkload w;
  w.n = 4096;
  w.weight_transforms = 10000;
  w.weight_mult_fraction = 0.12;
  const FlashConfig cfg = FlashConfig::paper_default();
  const double fp = weight_transform_energy_j(cfg, w, WeightPath::kFpDense);
  const double fxp = weight_transform_energy_j(cfg, w, WeightPath::kFxpDense);
  const double sparse = weight_transform_energy_j(cfg, w, WeightPath::kFpSparse);
  const double approx = weight_transform_energy_j(cfg, w, WeightPath::kApproxDense);
  const double both = weight_transform_energy_j(cfg, w, WeightPath::kApproxSparse);
  EXPECT_GT(fp, fxp);
  EXPECT_GT(fxp, sparse);
  EXPECT_GT(fxp, approx);
  EXPECT_LT(both, 0.5 * std::min(sparse, approx));
  // Headline: each single optimization ~10%, both ~1% of the FP baseline.
  EXPECT_NEAR(sparse / fp, 0.12, 0.05);
  EXPECT_NEAR(approx / fp, 0.13, 0.06);
  EXPECT_LT(both / fp, 0.03);
}

TEST(Workload, ZeroUnitsThrowOnlyWhenUsed) {
  TransformWorkload w;
  w.n = 4096;
  w.weight_transforms = 10;
  const FlashConfig weight_only = FlashConfig::weight_transform_only();
  EXPECT_NO_THROW(flash_run(weight_only, w, WeightPath::kApproxSparse));
  w.cipher_transforms = 2;
  EXPECT_THROW(flash_run(weight_only, w, WeightPath::kApproxSparse), std::invalid_argument);
}

TEST(Baselines, TableIIIRows) {
  const auto rows = table3_baselines();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].name, "HEAX");
  EXPECT_EQ(rows[2].name, "F1");
  // Published efficiencies: F1 16.06 MOPS/mm^2 and 7.60 MOPS/W.
  EXPECT_NEAR(rows[2].area_efficiency(), 16.06, 0.1);
  EXPECT_NEAR(rows[2].power_efficiency(), 7.60, 0.05);
  EXPECT_NEAR(rows[4].power_efficiency(), 8.42, 0.05);
}

TEST(Baselines, BuModelReproducesFpgaThroughputs) {
  // HEAX ~1.95M and CHAM ~2.93M normalized NTT/s from BU counts x f.
  EXPECT_NEAR(fpga_ntt_norm_throughput(160, 300e6), 1.95e6, 0.02e6);
  EXPECT_NEAR(fpga_ntt_norm_throughput(240, 300e6), 2.93e6, 0.02e6);
}

TEST(Baselines, FlashThroughputNearPaper) {
  // Table III: weight transforms 186.34 M/s, all transforms 187.90 M/s at
  // the measured ResNet-50 sparsity (~88% multiplication reduction).
  const FlashConfig cfg = FlashConfig::paper_default();
  const double weight = flash_norm_throughput(cfg, 0.117, true);
  EXPECT_NEAR(weight, 186.34e6, 15e6);
  const double all = flash_norm_throughput(cfg, 0.117, false);
  EXPECT_GT(all, weight);
  EXPECT_NEAR(all, 187.9e6, 15e6);
}

TEST(Baselines, FlashPowerEfficiencyGains) {
  // The headline: 81.8x ~ 90.7x power efficiency over the ASIC baselines for
  // weight transforms; 8.7x ~ 9.7x for all transforms.
  const FlashConfig weight_cfg = FlashConfig::weight_transform_only();
  const auto weight_bd = flash_breakdown(weight_cfg);
  const double weight_eff = flash_norm_throughput(weight_cfg, 0.117, true) / 1e6 / weight_bd.total_power();
  const auto rows = table3_baselines();
  for (std::size_t i = 2; i < rows.size(); ++i) {
    const double gain = weight_eff / rows[i].power_efficiency();
    EXPECT_GT(gain, 50.0) << rows[i].name;
    EXPECT_LT(gain, 120.0) << rows[i].name;
  }
  const auto full_bd = flash_breakdown(FlashConfig::paper_default());
  const double all_eff =
      flash_norm_throughput(FlashConfig::paper_default(), 0.117, false) / 1e6 / full_bd.total_power();
  for (std::size_t i = 2; i < rows.size(); ++i) {
    const double gain = all_eff / rows[i].power_efficiency();
    EXPECT_GT(gain, 5.0) << rows[i].name;
    EXPECT_LT(gain, 15.0) << rows[i].name;
  }
}

TEST(Memory, NttDomainStorageBlowup) {
  // The paper's intro claim: caching a 4-bit ResNet-50's weights in the NTT
  // domain costs ~23 GB, >1000x the raw weights.
  const auto storage = weight_storage(tensor::resnet50_conv_layers(), 4096, 49, 4);
  EXPECT_GT(storage.raw_bytes, 10'000'000ULL);          // ~12.7 MB of 4-bit weights
  EXPECT_LT(storage.raw_bytes, 20'000'000ULL);
  EXPECT_GT(storage.transformed_bytes, 10'000'000'000ULL);  // tens of GB
  EXPECT_GT(storage.blowup(), 1000.0);
}

TEST(Memory, SmallerRingShrinksCache) {
  const auto big = weight_storage(tensor::resnet18_conv_layers(), 4096, 49, 4);
  const auto small = weight_storage(tensor::resnet18_conv_layers(), 2048, 49, 4);
  EXPECT_GT(big.transformed_bytes, 0u);
  EXPECT_NE(big.transformed_bytes, small.transformed_bytes);
  EXPECT_EQ(big.raw_bytes, small.raw_bytes);  // raw weights don't depend on N
}

TEST(Communication, NetworkTotalsAreConsistent) {
  const std::uint64_t ct_bytes = 57344;  // 4096 coeffs x 7 B x 2 elements
  const auto r18 = encoding::plan_communication(tensor::resnet18_conv_layers(), 4096, ct_bytes);
  const auto r50 = encoding::plan_communication(tensor::resnet50_conv_layers(), 4096, ct_bytes);
  EXPECT_GT(r18.bytes_up, 0u);
  EXPECT_GT(r18.bytes_down, r18.bytes_up);  // responses outnumber uploads
  EXPECT_GT(r50.total(), r18.total());
  // Single-digit GB per inference, the Cheetah regime.
  EXPECT_LT(r50.total(), 10'000'000'000ULL);
}

TEST(Memory, TwiddleRomFavorsFft) {
  // One CSD table serves every modulus; NTT tables scale with the RNS basis.
  const auto one = twiddle_storage(4096, 1, 49, 5, 6);
  const auto three = twiddle_storage(4096, 3, 49, 5, 6);
  EXPECT_GT(one.ratio(), 5.0);
  EXPECT_NEAR(three.ntt_bytes, 3.0 * one.ntt_bytes, 1.0);
  EXPECT_EQ(three.fft_bytes, one.fft_bytes);
}

TEST(Workload, ChamSlowerThanFlash) {
  const auto layers = tensor::resnet18_conv_layers();
  const TransformWorkload w = TransformWorkload::from_network(layers, 4096, 0.12);
  const LatencyEnergy flash = flash_run(FlashConfig::paper_default(), w, WeightPath::kApproxSparse);
  const LatencyEnergy cham = cham_run(w);
  EXPECT_GT(cham.seconds / flash.seconds, 10.0);
}

}  // namespace
}  // namespace flash::accel
