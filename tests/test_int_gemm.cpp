#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>

#include "kernels/isa.h"
#include "quant/export.h"
#include "quant/int_gemm.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace vsq {
namespace {

Tensor random_matrix(std::int64_t r, std::int64_t c, Rng& rng, double scale = 1.0) {
  Tensor t(Shape{r, c});
  for (auto& v : t.span()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

QuantSpec pvaw_weight_spec(int bits, int scale_bits) {
  QuantSpec s;
  s.enabled = true;
  s.fmt = QuantFormat{bits, true};
  s.granularity = Granularity::kPerVector;
  s.scale_dtype = ScaleDtype::kTwoLevelInt;
  s.scale_fmt = QuantFormat{scale_bits, false};
  return s;
}

QuantSpec pvaw_act_spec(int bits, int scale_bits) {
  QuantSpec s = pvaw_weight_spec(bits, scale_bits);
  s.dynamic = true;
  return s;
}

QuantSpec coarse_weight_spec(int bits) {
  QuantSpec s;
  s.enabled = true;
  s.fmt = QuantFormat{bits, true};
  s.granularity = Granularity::kPerRow;
  return s;
}

QuantSpec coarse_act_spec(int bits) {
  QuantSpec s;
  s.enabled = true;
  s.fmt = QuantFormat{bits, true};
  s.granularity = Granularity::kPerTensor;
  return s;
}

// Double-precision reference computed from the integer operands' effective
// scales — what the integer datapath must reproduce exactly at full
// scale-product precision.
Tensor fake_quant_reference(const QuantizedMatrix& act, const QuantizedMatrix& wgt) {
  const std::int64_t rows = act.rows, k = wgt.rows;
  const std::int64_t vpr = act.layout.vectors_per_row();
  Tensor out(Shape{rows, k});
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < k; ++j) {
      double acc = 0;
      for (std::int64_t v = 0; v < vpr; ++v) {
        const auto [c0, c1] = act.layout.col_range(v);
        double dp = 0;
        for (std::int64_t c = c0; c < c1; ++c) {
          dp += static_cast<double>(act.at(r, c)) * wgt.at(j, c);
        }
        acc += dp * act.int_scale(r, v) * wgt.int_scale(j, v);
      }
      out.at2(r, j) =
          static_cast<float>(acc * wgt.outer_scale(j) * act.outer_scale(r));
    }
  }
  return out;
}

TEST(RoundScaleProduct, KeepsMsbsRoundHalfUp) {
  // full 8 bits -> keep 4: shift = 4, half = 8.
  EXPECT_EQ(round_scale_product(0, 8, 4), 0u);
  EXPECT_EQ(round_scale_product(7, 8, 4), 0u);    // < half -> 0 (gateable)
  EXPECT_EQ(round_scale_product(8, 8, 4), 16u);   // half rounds up
  EXPECT_EQ(round_scale_product(100, 8, 4), 96u);
  EXPECT_EQ(round_scale_product(255, 8, 4), 256u);  // may carry upward
}

TEST(RoundScaleProduct, FullWidthPassthrough) {
  EXPECT_EQ(round_scale_product(123, 8, -1), 123u);
  EXPECT_EQ(round_scale_product(123, 8, 8), 123u);
  EXPECT_EQ(round_scale_product(123, 8, 12), 123u);
}

class RoundingError : public ::testing::TestWithParam<int> {};

TEST_P(RoundingError, BoundedByHalfUlpOfKeptBits) {
  const int keep = GetParam();
  const int full = 12;
  for (std::uint32_t p = 0; p < (1u << full); p += 7) {
    const std::uint32_t r = round_scale_product(p, full, keep);
    EXPECT_LE(std::abs(static_cast<std::int64_t>(r) - static_cast<std::int64_t>(p)),
              std::int64_t{1} << (full - keep - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(KeepBits, RoundingError, ::testing::Values(2, 4, 6, 8, 10));

// ---- Bit-exactness of int_gemm vs the scale-domain reference ----

using GemmCase = std::tuple<int, int, int, int>;  // wt_bits, act_bits, ws, as

class IntGemmExact : public ::testing::TestWithParam<GemmCase> {};

TEST_P(IntGemmExact, MatchesReferenceAtFullProduct) {
  const auto [wb, ab, ws, as] = GetParam();
  Rng rng(wb * 1000 + ab * 100 + ws * 10 + as);
  const Tensor w = random_matrix(12, 64, rng);
  const Tensor a = random_matrix(9, 64, rng);

  const QuantizedMatrix wq = quantize_weights_int(w, pvaw_weight_spec(wb, ws));
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, QuantFormat{ab, true}) /
                      static_cast<float>(QuantFormat{as, false}.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, pvaw_act_spec(ab, as), amax, gamma);

  IntGemmStats stats;
  const Tensor y = int_gemm(aq, wq, /*scale_product_bits=*/-1, &stats);
  const Tensor ref = fake_quant_reference(aq, wq);
  EXPECT_LT(max_abs_diff(y, ref), 1e-4f * (1.0f + amax_per_tensor(ref)));
  EXPECT_GT(stats.vector_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, IntGemmExact,
                         ::testing::Values(GemmCase{4, 4, 4, 4}, GemmCase{4, 8, 6, 10},
                                           GemmCase{6, 6, 4, 6}, GemmCase{8, 8, 6, 6},
                                           GemmCase{3, 8, 4, 8}));

TEST(IntGemm, CoarseOperandsMatchPlainIntMath) {
  // Per-channel weights + per-tensor activations: the baseline datapath.
  Rng rng(7);
  const Tensor w = random_matrix(8, 32, rng);
  const Tensor a = random_matrix(5, 32, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, coarse_weight_spec(8));
  const QuantizedMatrix aq =
      quantize_activations_int(a, coarse_act_spec(8), amax_per_tensor(a), 0.0f);
  const Tensor y = int_gemm(aq, wq, -1, nullptr);
  const Tensor ref = fake_quant_reference(aq, wq);
  EXPECT_LT(max_abs_diff(y, ref), 1e-5f);
}

TEST(IntGemm, MixedPerVectorWeightsCoarseActs) {
  // PVWO: integer scales on weights only (the paper's x/x/ws/- configs).
  Rng rng(8);
  const Tensor w = random_matrix(8, 48, rng);
  const Tensor a = random_matrix(4, 48, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, pvaw_weight_spec(4, 6));
  const QuantizedMatrix aq =
      quantize_activations_int(a, coarse_act_spec(8), amax_per_tensor(a), 0.0f);
  const Tensor y = int_gemm(aq, wq, -1, nullptr);
  const Tensor ref = fake_quant_reference(aq, wq);
  EXPECT_LT(max_abs_diff(y, ref), 1e-4f);
}

TEST(IntGemm, ScaleProductRoundingBoundedDeviation) {
  Rng rng(9);
  const Tensor w = random_matrix(8, 64, rng);
  const Tensor a = random_matrix(8, 64, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, pvaw_weight_spec(4, 6));
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, QuantFormat{4, true}) /
                      static_cast<float>(QuantFormat{6, false}.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, pvaw_act_spec(4, 6), amax, gamma);

  const Tensor full = int_gemm(aq, wq, -1, nullptr);
  double prev_err = 0.0;
  for (const int p : {10, 8, 6, 4}) {
    const Tensor rounded = int_gemm(aq, wq, p, nullptr);
    const double err = mse(full, rounded);
    EXPECT_GE(err + 1e-12, prev_err * 0.25) << "p=" << p;  // error grows as p shrinks
    prev_err = err;
  }
  // Even at 4 bits the result stays correlated with the full product.
  EXPECT_GT(sqnr_db(full, int_gemm(aq, wq, 4, nullptr)), 8.0);
}

TEST(IntGemm, GatingStatsIncreaseWithRounding) {
  Rng rng(10);
  // Long-tailed activations -> many small vector scale products.
  Tensor a(Shape{16, 64});
  for (auto& v : a.span()) v = static_cast<float>(rng.laplace(0.3));
  const Tensor w = random_matrix(8, 64, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, pvaw_weight_spec(4, 6));
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, QuantFormat{4, true}) /
                      static_cast<float>(QuantFormat{6, false}.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, pvaw_act_spec(4, 6), amax, gamma);

  IntGemmStats full_stats, rounded_stats;
  int_gemm(aq, wq, -1, &full_stats);
  int_gemm(aq, wq, 3, &rounded_stats);
  EXPECT_GE(rounded_stats.zero_scale_products, full_stats.zero_scale_products);
  EXPECT_GE(rounded_stats.gateable_fraction(), full_stats.gateable_fraction());
}

TEST(IntGemm, AccumulatorWidthRespectsPaperFormula) {
  // 2N + log2(V) + 2M bits must bound the largest partial sum per vector.
  Rng rng(11);
  const int N = 8, M = 6, V = 16;
  const Tensor w = random_matrix(4, 64, rng, 3.0);
  const Tensor a = random_matrix(4, 64, rng, 3.0);
  QuantSpec wspec = pvaw_weight_spec(N, M);
  wspec.vector_size = V;
  QuantSpec aspec = pvaw_act_spec(N, M);
  aspec.vector_size = V;
  const QuantizedMatrix wq = quantize_weights_int(w, wspec);
  const float amax = amax_per_tensor(a);
  const float gamma =
      scale_from_amax(amax, QuantFormat{N, true}) / static_cast<float>(QuantFormat{M, false}.qmax());
  const QuantizedMatrix aq = quantize_activations_int(a, aspec, amax, gamma);
  IntGemmStats stats;
  int_gemm(aq, wq, -1, &stats);
  // Total accumulation over ceil(64/16)=4 vectors adds 2 more bits.
  const int bound_bits = 2 * N + 4 + 2 * M + 2;
  EXPECT_LT(stats.max_abs_psum, std::int64_t{1} << bound_bits);
}

TEST(IntGemm, RejectsMismatchedLayouts) {
  Rng rng(12);
  const Tensor w = random_matrix(4, 32, rng);
  const Tensor a = random_matrix(4, 64, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, coarse_weight_spec(8));
  const QuantizedMatrix aq =
      quantize_activations_int(a, coarse_act_spec(8), amax_per_tensor(a), 0.0f);
  EXPECT_THROW(int_gemm(aq, wq, -1, nullptr), std::invalid_argument);
}

TEST(QuantizedMatrix, IntScaleDefaultsToOneForCoarse) {
  Rng rng(13);
  const Tensor w = random_matrix(4, 16, rng);
  const QuantizedMatrix wq = quantize_weights_int(w, coarse_weight_spec(8));
  EXPECT_EQ(wq.int_scale(0, 0), 1u);
  EXPECT_FALSE(wq.is_per_vector());
}

TEST(QuantizedMatrix, RejectsSingleLevelFpScalesOnHardwarePath) {
  Rng rng(14);
  const Tensor w = random_matrix(4, 16, rng);
  QuantSpec s = pvaw_weight_spec(4, 6);
  s.scale_dtype = ScaleDtype::kFp32;
  EXPECT_THROW(quantize_weights_int(w, s), std::invalid_argument);
}

// ---- Streamed packaged GEMM layers vs the materialized oracle ----
//
// IntLayerPrimitive::execute quantizes each fp activation row inside the
// panel row loop, just before its MACs. The oracle quantizes the whole
// operand up front with quantize_activations_int, runs int_gemm and adds
// the bias, so no streamed quantization is involved; the two must agree
// bit for bit, datapath stats included, on every available ISA tier.

// Scoped VSQ_ISA override; restores the previous value (or unset) on exit.
class EnvIsa {
 public:
  explicit EnvIsa(const char* v) {
    if (const char* prev = std::getenv("VSQ_ISA")) prev_ = prev;
    if (v) {
      setenv("VSQ_ISA", v, 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  ~EnvIsa() {
    if (prev_) {
      setenv("VSQ_ISA", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_ISA");
    }
  }
  EnvIsa(const EnvIsa&) = delete;
  EnvIsa& operator=(const EnvIsa&) = delete;

 private:
  std::optional<std::string> prev_;
};

bool tier_available(const char* env) {
  const std::string t = env ? env : "native";
  if (t == "avx2") return isa::features().avx2;
  if (t == "avx512_vnni") return isa::features().avx512_vnni;
  return true;
}

Tensor materialized_oracle(const QuantizedLayerPackage& l, const Tensor& x2d, int sp_bits,
                           IntGemmStats* stats) {
  const QuantizedMatrix aq = quantize_activations_int(x2d, l.act_spec, l.act_amax, l.act_gamma);
  Tensor y = int_gemm(aq, l.weights, sp_bits, stats);
  for (std::int64_t r = 0; r < y.shape()[0]; ++r) {
    for (std::int64_t k = 0; k < y.shape()[1]; ++k) {
      y.at2(r, k) += l.bias[static_cast<std::size_t>(k)];
    }
  }
  return y;
}

void expect_same_stats(const IntGemmStats& a, const IntGemmStats& b, const std::string& what) {
  EXPECT_EQ(a.vector_ops, b.vector_ops) << what;
  EXPECT_EQ(a.zero_scale_products, b.zero_scale_products) << what;
  EXPECT_EQ(a.zero_dot_products, b.zero_dot_products) << what;
  EXPECT_EQ(a.max_abs_psum, b.max_abs_psum) << what;
}

TEST(StreamedLayer, ExecuteMatchesMaterializedOracleOnEveryTier) {
  struct Case {
    const char* name;
    QuantSpec wspec, aspec;
    std::int64_t rows, cols, k_out;
    std::int64_t conv_c;  // > 0: 3x3 conv package fed its 2-D patch matrix
  };
  QuantSpec coarse_static = coarse_act_spec(8);
  QuantSpec coarse_dynamic = coarse_act_spec(8);
  coarse_dynamic.dynamic = true;
  QuantSpec unsigned_pv = pvaw_act_spec(4, 6);
  unsigned_pv.fmt.is_signed = false;
  // Conv geometry: 5 input channels per kernel position with V = 4, so
  // every channel block ends in a 1-wide tail vector.
  QuantSpec conv_w = pvaw_weight_spec(4, 6), conv_a = pvaw_act_spec(4, 6);
  conv_w.vector_size = conv_a.vector_size = 4;
  conv_w.channel_block = conv_a.channel_block = 5;
  const Case cases[] = {
      {"per_vector_4b", pvaw_weight_spec(4, 6), pvaw_act_spec(4, 6), 7, 37, 11, 0},
      {"per_vector_8b", pvaw_weight_spec(8, 6), pvaw_act_spec(8, 10), 5, 53, 9, 0},
      {"per_vector_unsigned", pvaw_weight_spec(3, 4), unsigned_pv, 3, 29, 17, 0},
      {"coarse_static", coarse_weight_spec(8), coarse_static, 7, 37, 11, 0},
      {"coarse_static_pv_weights", pvaw_weight_spec(4, 6), coarse_static, 5, 41, 9, 0},
      {"coarse_dynamic", coarse_weight_spec(8), coarse_dynamic, 7, 37, 11, 0},
      {"conv_patch_matrix", conv_w, conv_a, 0, 0, 7, 5},
  };
  int checked = 0;
  for (const Case& c : cases) {
    Rng rng(static_cast<std::uint64_t>(c.cols * 100 + c.k_out));
    QuantizedLayerPackage l;
    l.name = c.name;
    Tensor x;
    if (c.conv_c > 0) {
      l.kind = PackagedLayerKind::kConv;
      l.kernel = 3;
      l.stride = 1;
      l.pad = 1;
      Tensor img(Shape{2, 3, 5, c.conv_c});
      for (auto& v : img.span()) v = static_cast<float>(rng.normal());
      x = im2col(img, ConvGeom{3, 5, c.conv_c, 3, 1, 1});
    } else {
      x = random_matrix(c.rows, c.cols, rng);
    }
    l.weights = quantize_weights_int(random_matrix(c.k_out, x.shape()[1], rng), c.wspec);
    l.act_spec = c.aspec;
    // Calibrated below the true max so the clip path is exercised too.
    l.act_amax = 0.8f * amax_per_tensor(x);
    l.act_gamma = scale_from_amax(l.act_amax, c.aspec.fmt) /
                  static_cast<float>(c.aspec.scale_fmt.qmax());
    for (std::int64_t k = 0; k < c.k_out; ++k) {
      l.bias.push_back(static_cast<float>(rng.normal(0.0, 0.1)));
    }
    for (const char* tier :
         {"portable", "avx2", "avx512_vnni", static_cast<const char*>(nullptr)}) {
      if (!tier_available(tier)) continue;
      EnvIsa e(tier);
      const IntLayerPrimitive prim(l);
      for (const int sp_bits : {-1, 4}) {
        const std::string what = std::string(c.name) + " tier=" + (tier ? tier : "native") +
                                 " sp_bits=" + std::to_string(sp_bits);
        IntGemmStats s_oracle, s_stream;
        const Tensor ref = materialized_oracle(l, x, sp_bits, &s_oracle);
        const Tensor y = prim.execute(x, IntExecContext{sp_bits, &s_stream});
        const Tensor y_fast = prim.execute(x, IntExecContext{sp_bits, nullptr});
        ASSERT_EQ(ref.shape(), y.shape()) << what;
        ASSERT_EQ(ref.shape(), y_fast.shape()) << what;
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
          ASSERT_EQ(ref[i], y[i]) << what << " element " << i;
          ASSERT_EQ(ref[i], y_fast[i]) << what << " (stats off) element " << i;
        }
        expect_same_stats(s_oracle, s_stream, what);
        EXPECT_GT(s_stream.vector_ops, 0u) << what;
        EXPECT_EQ(s_stream.panels_packed, 0u) << what;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace vsq
