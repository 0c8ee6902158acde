// Kernel dispatch registry tests (src/kernels/): ISA probe coherence, the
// VSQ_ISA cap (including rejection of unknown values), bit-identity of
// every registered tier across the gemm/conv/runner surface — odd shapes,
// tail vectors, batched vs sequential — the VNNI int8 kernel pinned
// directly (exercised-or-skip), and the resolution-time binding contract:
// primitives resolve at load, never on the serving path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "exp/ptq.h"
#include "hw/mac_config.h"
#include "kernels/isa.h"
#include "kernels/registry.h"
#include "models/zoo.h"
#include "quant/amax.h"
#include "quant/export.h"
#include "quant/int_conv.h"
#include "quant/int_gemm.h"
#include "quant/int_kernel.h"
#include "quant/quantized_tensor.h"
#include "tensor/gemm_kernel.h"
#include "util/rng.h"

namespace vsq {
namespace {

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

QuantSpec weight_spec(int bits, int scale_bits, int v) {
  QuantSpec s;
  s.enabled = true;
  s.fmt = QuantFormat{bits, true};
  s.granularity = Granularity::kPerVector;
  s.vector_size = v;
  s.scale_dtype = ScaleDtype::kTwoLevelInt;
  s.scale_fmt = QuantFormat{scale_bits, false};
  return s;
}

QuantSpec act_spec(int bits, int scale_bits, int v) {
  QuantSpec s = weight_spec(bits, scale_bits, v);
  s.dynamic = true;
  return s;
}

struct GemmOperands {
  QuantizedMatrix act;
  QuantizedMatrix wgt;
};

GemmOperands make_operands(std::int64_t rows, std::int64_t cols, std::int64_t k_out, int bits,
                           int scale_bits, int v, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{k_out, cols}), a(Shape{rows, cols});
  for (auto& val : w.span()) val = static_cast<float>(rng.normal());
  for (auto& val : a.span()) val = static_cast<float>(rng.laplace(0.5));
  GemmOperands ops;
  ops.wgt = quantize_weights_int(w, weight_spec(bits, scale_bits, v));
  const float amax = amax_per_tensor(a);
  const float gamma = scale_from_amax(amax, QuantFormat{bits, true}) /
                      static_cast<float>(QuantFormat{scale_bits, false}.qmax());
  ops.act = quantize_activations_int(a, act_spec(bits, scale_bits, v), amax, gamma);
  return ops;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

// ---- ISA probe and the VSQ_ISA cap ----

TEST(Isa, FeatureBitsAreCoherent) {
  const isa::Features& f = isa::features();
  // Tier implications: VNNI requires the AVX-512 core set, which requires
  // AVX2 on every real CPU (and on every CPU the kernels target).
  if (f.avx512_vnni) {
    EXPECT_TRUE(f.avx512_core);
  }
  if (f.avx512_core) {
    EXPECT_TRUE(f.avx2);
  }
  const isa::Tier top = isa::max_cpu_tier();
  EXPECT_EQ(top == isa::Tier::kAvx512Vnni, f.avx512_vnni);
  if (top == isa::Tier::kPortable) {
    EXPECT_FALSE(f.avx2);
  }
  EXPECT_FALSE(isa::summary().empty());
}

TEST(Isa, TierNames) {
  EXPECT_STREQ(isa::tier_name(isa::Tier::kPortable), "portable");
  EXPECT_STREQ(isa::tier_name(isa::Tier::kAvx2), "avx2");
  EXPECT_STREQ(isa::tier_name(isa::Tier::kAvx512Vnni), "avx512_vnni");
}

TEST(Isa, EnvCapParsesEveryDocumentedSpelling) {
  {
    EnvIsa e(nullptr);
    EXPECT_FALSE(isa::env_cap().has_value());
  }
  for (const char* v : {"native", "auto", ""}) {
    EnvIsa e(v);
    EXPECT_FALSE(isa::env_cap().has_value()) << v;
  }
  for (const char* v : {"portable", "scalar"}) {
    EnvIsa e(v);
    EXPECT_EQ(isa::env_cap(), isa::Tier::kPortable) << v;
  }
  {
    EnvIsa e("avx2");
    EXPECT_EQ(isa::env_cap(), isa::Tier::kAvx2);
  }
  for (const char* v : {"avx512_vnni", "vnni", "avx512"}) {
    EnvIsa e(v);
    EXPECT_EQ(isa::env_cap(), isa::Tier::kAvx512Vnni) << v;
  }
  {
    EnvIsa e("portable");
    EXPECT_EQ(isa::effective_cap(), isa::Tier::kPortable);
  }
}

TEST(Isa, UnknownIsaRejectedEverywhere) {
  // Fixtures first: PTQ calibration itself resolves kernels and would
  // (correctly) throw under a bad cap before reaching the assertions.
  const GemmOperands ops = make_operands(2, 32, 8, 8, 6, 8, 11);
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  EnvIsa e("pentium3");
  // Directly...
  EXPECT_THROW((void)isa::env_cap(), std::invalid_argument);
  try {
    (void)isa::env_cap();
    FAIL() << "env_cap did not throw";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("VSQ_ISA"), std::string::npos);
  }
  // ...through kernel resolution inside a per-call int_gemm pack...
  EXPECT_THROW((void)int_gemm(ops.act, ops.wgt, -1), std::invalid_argument);
  // ...and at package load: a typo must fail loudly, not serve portable.
  EXPECT_THROW((void)QuantizedModelRunner(pkg), std::invalid_argument);
}

// ---- Forced-tier bit-identity: every tier computes the same bits ----

struct TierCase {
  const char* env;  // nullptr = native (no cap)
  bool available() const {
    if (env == nullptr) return true;
    const std::string v(env);
    if (v == "portable") return true;
    if (v == "avx2") return isa::features().avx2;
    return isa::features().avx512_vnni;
  }
};

const TierCase kTiers[] = {{"portable"}, {"avx2"}, {"avx512_vnni"}, {nullptr}};

TEST(ForcedTier, GemmBitIdenticalAcrossTiers) {
  // Shapes chosen for the corners dispatch must not change: prime cols
  // (every row ends in a short tail vector), odd V (the madd interleave is
  // ineligible), and an even power-of-two shape (all SIMD tiers eligible,
  // the tie-break exercised). Bits 4 and 8 cross the VNNI eligibility
  // boundary in scale width; scale-product rounding on and off.
  struct Shape {
    std::int64_t rows, cols, k_out;
    int v;
  };
  const Shape shapes[] = {{5, 29, 9, 7}, {4, 64, 32, 16}, {3, 33, 11, 4}};
  int checked = 0;
  for (const Shape& s : shapes) {
    for (const int bits : {4, 8}) {
      for (const int sp_bits : {-1, 6}) {
        const GemmOperands ops = make_operands(
            s.rows, s.cols, s.k_out, bits, 6, s.v,
            static_cast<std::uint64_t>(s.cols * 1000 + bits * 10 + (sp_bits > 0)));
        std::optional<Tensor> baseline;
        for (const TierCase& tier : kTiers) {
          if (!tier.available()) continue;
          EnvIsa e(tier.env);
          const Tensor y = int_gemm(ops.act, ops.wgt, sp_bits);
          if (!baseline) {
            baseline.emplace(y);  // the portable tier, always first
          } else {
            expect_bitwise_equal(*baseline, y,
                                 std::string("tier ") + (tier.env ? tier.env : "native") +
                                     " cols=" + std::to_string(s.cols) +
                                     " bits=" + std::to_string(bits));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ForcedTier, ConvLayersBitIdenticalAcrossTiers) {
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  const QuantizedModelPackage pkg = tiny_conv_package(mac);
  Rng rng(77);
  int convs = 0;
  for (const auto& [name, l] : pkg.layers) {
    if (l.kind != PackagedLayerKind::kConv) continue;
    ++convs;
    Tensor x(Shape{2, 8, 8, l.conv_in_channels()});
    for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-1.5, 1.5));
    std::optional<Tensor> baseline;
    for (const TierCase& tier : kTiers) {
      if (!tier.available()) continue;
      EnvIsa e(tier.env);
      const Tensor y = run_packaged_conv_layer(l, x);
      if (!baseline) {
        baseline.emplace(y);
      } else {
        expect_bitwise_equal(*baseline, y,
                             name + " tier " + (tier.env ? tier.env : "native"));
      }
    }
  }
  EXPECT_GT(convs, 0);
}

TEST(ForcedTier, RunnerBatchedVsSequentialBitIdenticalPerTier) {
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  Rng rng(91);
  Tensor batch(Shape{6, TinyMlp::kIn});
  for (auto& v : batch.span()) v = static_cast<float>(rng.normal());
  std::optional<Tensor> baseline;
  for (const TierCase& tier : kTiers) {
    if (!tier.available()) continue;
    EnvIsa e(tier.env);
    const QuantizedModelRunner runner(pkg);  // resolves under this cap
    const Tensor all = runner.forward(batch);
    // Row r of the batched forward must equal a single-row forward.
    for (std::int64_t r = 0; r < batch.shape()[0]; ++r) {
      Tensor one(Shape{1, TinyMlp::kIn});
      for (std::int64_t c = 0; c < TinyMlp::kIn; ++c) one.at2(0, c) = batch.at2(r, c);
      const Tensor yr = runner.forward(one);
      for (std::int64_t c = 0; c < runner.out_features(); ++c) {
        ASSERT_EQ(all.at2(r, c), yr.at2(0, c))
            << "row " << r << " tier " << (tier.env ? tier.env : "native");
      }
    }
    if (!baseline) {
      baseline.emplace(all);
    } else {
      expect_bitwise_equal(*baseline, all,
                           std::string("runner tier ") + (tier.env ? tier.env : "native"));
    }
  }
}

TEST(ForcedTier, ResolutionBindsAtLoadNotAtForward) {
  // A runner built under a cap keeps its resolved kernels after the cap is
  // lifted: dispatch is a load-time decision. Forwards under a different
  // (even invalid) VSQ_ISA neither re-resolve nor fail.
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  Rng rng(93);
  Tensor x(Shape{2, TinyMlp::kIn});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  std::optional<QuantizedModelRunner> runner;
  {
    EnvIsa e("portable");
    runner.emplace(pkg);
    for (const auto& [name, prim] : runner->primitives()) {
      EXPECT_STREQ(prim.isa_name(), "portable") << name;
    }
  }
  const Tensor y_capped = runner->forward(x);
  const Tensor y_uncapped = [&] {
    EnvIsa e("pentium3");  // would throw if forward resolved anything
    return runner->forward(x);
  }();
  expect_bitwise_equal(y_capped, y_uncapped, "load-time binding");
}

// ---- The fp32 GEMM microkernel rides the same registry ----

TEST(ForcedTier, FpMicroHonorsCap) {
  {
    EnvIsa e("portable");
    EXPECT_FALSE(gemm_kernel_uses_avx2());
  }
  {
    EnvIsa e(nullptr);
    const isa::Features& f = isa::features();
    EXPECT_EQ(gemm_kernel_uses_avx2(), f.avx2 && f.fma);
  }
}

// ---- Resolution caching and the steady-state contract ----

TEST(Registry, SameDescriptorResolvesToSameImpl) {
  const GemmOperands ops = make_operands(3, 64, 16, 8, 6, 16, 21);
  const VectorLayout layout = ops.act.layout;
  const detail::IntActAttrs attrs = detail::IntActAttrs::of(ops.act);
  const detail::IntWeightPanels p1(ops.wgt, layout, attrs);
  const detail::IntWeightPanels p2(ops.wgt, layout, attrs);
  // The tie-break is cached per shape class: two packs of the same
  // descriptor must agree (same registered implementation object).
  EXPECT_EQ(&p1.panel_impl(), &p2.panel_impl());
  EXPECT_EQ(&p1.acc_impl(), &p2.acc_impl());
}

TEST(Registry, SteadyStateForwardsResolveNothing) {
  const QuantizedModelPackage pkg = tiny_mlp_package(MacConfig::parse("4/8/6/10"));
  const QuantizedModelRunner runner(pkg);
  Rng rng(31);
  Tensor x(Shape{4, TinyMlp::kIn});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  (void)runner.forward(x);  // settle any lazily-resolved state
  const std::uint64_t resolved = kernels::dispatch_resolutions_total();
  const std::uint64_t packed = detail::panels_packed_total();
  for (int i = 0; i < 8; ++i) (void)runner.forward(x);
  EXPECT_EQ(kernels::dispatch_resolutions_total(), resolved);
  EXPECT_EQ(detail::panels_packed_total(), packed);
}

TEST(Registry, PanelAccFallsBackToPortableOnWideScaleProducts) {
  kernels::KernelDesc desc;
  desc.op = kernels::OpKind::kPanelAcc;
  desc.quant.full_bits = 20;
  const kernels::PanelAccImpl& narrow = kernels::resolve_panel_acc(desc);
  if (isa::features().avx2 && !isa::env_cap().has_value()) {
    EXPECT_STREQ(narrow.name, "avx2");
  }
  // 32-bit scale products overflow the avx2 impl's epi32 lanes; the
  // registry must hand back the 64-bit-safe portable loop.
  desc.quant.full_bits = 32;
  EXPECT_STREQ(kernels::resolve_panel_acc(desc).name, "portable");
}

// ---- The VNNI int8 kernel, pinned directly ----
//
// Tier resolution picks VNNI only when the micro-benchmark tie-break
// favors it, so these tests pin the registered implementation by name:
// eligibility must draw the documented boundaries, and the kernel must
// reproduce the scalar dot products exactly on a hand-packed panel.

kernels::KernelDesc vnni_desc(int act_bits, bool act_signed, std::int64_t max_len) {
  kernels::KernelDesc d;
  d.op = kernels::OpKind::kIntPanel;
  d.shape = {max_len * 2, 8, max_len, max_len % 2 == 0};
  d.quant.act = {act_bits, act_signed};
  d.quant.wgt = {8, true};
  d.quant.full_bits = 12;
  return d;
}

TEST(Vnni, EligibilityBoundaries) {
  const kernels::IntPanelImpl* impl = kernels::find_int_panel_impl("avx512_vnni");
  if (impl == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX512-VNNI; kernel not registered";
  }
  ASSERT_NE(impl->eligible, nullptr);
  EXPECT_EQ(impl->layout, kernels::PanelLayout::kQuadInt8);
  EXPECT_EQ(impl->row_image, kernels::RowImage::kBiasedU8);
  // Signed 8-bit acts bias to u8 exactly; unsigned 8-bit fit directly.
  EXPECT_TRUE(impl->eligible(vnni_desc(8, true, 16)));
  EXPECT_TRUE(impl->eligible(vnni_desc(8, false, 16)));
  // 9+ signed bits cannot bias into u8.
  EXPECT_FALSE(impl->eligible(vnni_desc(9, true, 16)));
  EXPECT_FALSE(impl->eligible(vnni_desc(10, true, 16)));
  // 9-bit unsigned acts exceed u8 as well.
  EXPECT_FALSE(impl->eligible(vnni_desc(9, false, 16)));
  // The non-saturating vpdpbusd accumulator: enormous vectors overflow
  // the biased-u8 worst case and must be rejected.
  EXPECT_FALSE(impl->eligible(vnni_desc(8, true, std::int64_t{1} << 24)));
}

TEST(Vnni, QuadKernelMatchesScalarDotProducts) {
  const kernels::IntPanelImpl* impl = kernels::find_int_panel_impl("avx512_vnni");
  if (impl == nullptr) {
    GTEST_SKIP() << "CPU lacks AVX512-VNNI; kernel not registered";
  }
  constexpr int PNR = kernels::kPanelCols;
  // Two vectors with non-multiple-of-4 lengths: quads are zero-padded and
  // the 4-byte activation reads overrun into the zeroed tail.
  const kernels::VecRange vr[2] = {{0, 5}, {5, 3}};
  const std::int64_t cols = 8;
  const std::int64_t quads[2] = {2, 1};  // padded4(5)/4, padded4(3)/4

  Rng rng(55);
  std::int16_t arow[8];
  std::int8_t w[PNR][8];  // [j][c] logical weights
  for (auto& a : arow) a = static_cast<std::int16_t>(rng.uniform_u64(255)) - 127;
  for (auto& wj : w) {
    for (auto& wc : wj) {
      wc = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
    }
  }

  // Hand-pack the kQuadInt8 panel ([quad][j][4], zero-padded) and its
  // u8-bias compensation block, exactly as IntWeightPanels::pack does.
  constexpr std::int16_t bias = 128;  // signed 8-bit acts
  alignas(64) std::int8_t panel[3 * PNR * 4] = {};
  alignas(64) std::int32_t ncomp[2 * PNR];
  alignas(64) std::int32_t dp[2 * PNR];
  std::uint8_t u8row[8 + 4] = {};
  for (std::int64_t c = 0; c < cols; ++c) {
    u8row[c] = static_cast<std::uint8_t>(arow[c] + bias);
  }
  std::int8_t* vd = panel;
  for (int v = 0; v < 2; ++v) {
    for (std::int64_t q = 0; q < quads[v]; ++q) {
      for (int j = 0; j < PNR; ++j) {
        for (int h = 0; h < 4; ++h) {
          const std::int64_t c = 4 * q + h;
          vd[q * 4 * PNR + j * 4 + h] = c < vr[v].len ? w[j][vr[v].c0 + c] : std::int8_t{0};
        }
      }
    }
    for (int j = 0; j < PNR; ++j) {
      std::int32_t wsum = 0;
      for (std::int64_t c = 0; c < vr[v].len; ++c) wsum += w[j][vr[v].c0 + c];
      ncomp[v * PNR + j] = -static_cast<std::int32_t>(bias) * wsum;
    }
    vd += quads[v] * 4 * PNR;
  }

  kernels::PanelArgs args;
  args.arow = arow;
  args.arow8 = u8row;
  args.wp = panel;
  args.ncomp = ncomp;
  args.vr = vr;
  args.nvec = 2;
  args.dp = dp;
  impl->fn(args);

  for (int v = 0; v < 2; ++v) {
    for (int j = 0; j < PNR; ++j) {
      std::int32_t want = 0;
      for (std::int64_t c = 0; c < vr[v].len; ++c) {
        want += static_cast<std::int32_t>(arow[vr[v].c0 + c]) * w[j][vr[v].c0 + c];
      }
      EXPECT_EQ(dp[v * PNR + j], want) << "v=" << v << " j=" << j;
    }
  }
}

// ---- Sub-byte packed layouts: property sweep ----

// Scoped VSQ_PACKED override (same contract as EnvIsa): "0" forces every
// resolution onto byte-width panels, unset restores the packed preference.
class EnvPacked {
 public:
  explicit EnvPacked(const char* v) {
    if (const char* prev = std::getenv("VSQ_PACKED")) prev_ = prev;
    if (v) {
      setenv("VSQ_PACKED", v, 1);
    } else {
      unsetenv("VSQ_PACKED");
    }
  }
  ~EnvPacked() {
    if (prev_) {
      setenv("VSQ_PACKED", prev_->c_str(), 1);
    } else {
      unsetenv("VSQ_PACKED");
    }
  }
  EnvPacked(const EnvPacked&) = delete;
  EnvPacked& operator=(const EnvPacked&) = delete;

 private:
  std::optional<std::string> prev_;
};

TEST(PackedSweep, SubByteGemmBitIdenticalToByteWidthPanels) {
  // Property sweep: every packed code width x odd/even vector sizes x
  // shapes ending in tail vectors and tail panel columns. For each case
  // the byte-width panel path (VSQ_PACKED=0) is the reference; the packed
  // preference under every available tier must reproduce it bit for bit —
  // which proves the pack -> unpack-in-register round trip is the
  // identity on every code (random operands exercise the full code range,
  // sign extension included, and zero-padded tails must stay neutral).
  struct Case {
    std::int64_t cols;
    int v;
  };
  // 29/3, 45/5, 33/7: odd V with short tail vectors (bitpacked tier only);
  // 64/16: even, vector-aligned (madd/VNNI nibble layouts eligible at 4
  // bits); 37/16: even V with a ragged tail vector. k_out=11 leaves a
  // 3-column tail panel.
  const Case cases[] = {{29, 3}, {45, 5}, {33, 7}, {64, 16}, {37, 16}};
  int sub_byte_packs = 0;
  for (const int bits : {3, 4, 5, 6, 8}) {
    for (const Case& c : cases) {
      const GemmOperands ops =
          make_operands(3, c.cols, 11, bits, 6, c.v,
                        static_cast<std::uint64_t>(7000 + bits * 100 + c.cols));
      Tensor base;
      {
        EnvPacked off("0");
        base = int_gemm(ops.act, ops.wgt, -1);
      }
      // Forced onto byte-width panels, sub-byte formats must report the
      // materialized fallback (the counter the serving assertion watches).
      {
        EnvPacked off("0");
        const detail::IntWeightPanels p(ops.wgt, ops.act.layout,
                                        detail::IntActAttrs::of(ops.act));
        EXPECT_EQ(p.materialized_sub_byte(), bits < 8) << "bits=" << bits;
      }
      for (const TierCase& tier : kTiers) {
        if (!tier.available()) continue;
        EnvIsa e(tier.env);
        const Tensor y = int_gemm(ops.act, ops.wgt, -1);
        expect_bitwise_equal(base, y, std::string("packed tier ") +
                                          (tier.env ? tier.env : "native") +
                                          " bits=" + std::to_string(bits) +
                                          " cols=" + std::to_string(c.cols) +
                                          " v=" + std::to_string(c.v));
        // The packed preference must actually engage for every sub-byte
        // width (the portable bitpacked tier is always eligible), and the
        // packed form must be smaller than the int16 panels it replaces.
        const detail::IntWeightPanels p(ops.wgt, ops.act.layout,
                                        detail::IntActAttrs::of(ops.act));
        if (bits < 8) {
          EXPECT_TRUE(kernels::panel_layout_sub_byte(p.layout()))
              << "bits=" << bits << " tier=" << (tier.env ? tier.env : "native");
          EXPECT_FALSE(p.materialized_sub_byte());
          EXPECT_LT(p.resident_bytes(), p.baseline_bytes());
          ++sub_byte_packs;
        }
      }
    }
  }
  EXPECT_GT(sub_byte_packs, 0);
}

TEST(PackedSweep, PrepackedSubBytePanelsMatchPerCallPack) {
  // The load-time prepack path (what IntLayerPrimitive holds) through the
  // same sub-byte layouts: bit-identical to the per-call pack.
  for (const int bits : {3, 4, 5, 6}) {
    const GemmOperands ops =
        make_operands(4, 37, 9, bits, 6, 16, static_cast<std::uint64_t>(7600 + bits));
    const Tensor per_call = int_gemm(ops.act, ops.wgt, -1);
    const detail::IntWeightPanels panels(ops.wgt, ops.act.layout,
                                         detail::IntActAttrs::of(ops.act));
    EXPECT_TRUE(kernels::panel_layout_sub_byte(panels.layout())) << "bits=" << bits;
    const Tensor prepacked = detail::int_gemm_packed(ops.act, ops.wgt, -1, nullptr, &panels);
    expect_bitwise_equal(per_call, prepacked, "prepacked bits=" + std::to_string(bits));
  }
}

TEST(PackedSweep, ConvPackedBitIdenticalToByteWidthPanels) {
  // The conv datapath streams patch rows through the same panels; the
  // packed preference must not change a single conv output bit vs the
  // byte-width panel path, on any tier.
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  const QuantizedModelPackage pkg = tiny_conv_package(mac);
  Rng rng(7800);
  int convs = 0;
  for (const auto& [name, l] : pkg.layers) {
    if (l.kind != PackagedLayerKind::kConv) continue;
    ++convs;
    Tensor x(Shape{2, 8, 8, l.conv_in_channels()});
    for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-1.5, 1.5));
    Tensor base;
    {
      EnvPacked off("0");
      base = run_packaged_conv_layer(l, x);
    }
    for (const TierCase& tier : kTiers) {
      if (!tier.available()) continue;
      EnvIsa e(tier.env);
      expect_bitwise_equal(base, run_packaged_conv_layer(l, x),
                           name + " packed tier " + (tier.env ? tier.env : "native"));
    }
  }
  EXPECT_GT(convs, 0);
}

TEST(PackedSweep, ConvStatsCountByteWidthMaterializationLikeGemm) {
  // Forced onto byte-width panels, a 4-bit int_conv's per-call pack must
  // report the sub-byte materialization in its stats sink, exactly as a
  // 4-bit int_gemm's does.
  EnvPacked off("0");
  MacConfig mac = MacConfig::parse("4/8/6/10");
  mac.act_unsigned = true;
  const QuantizedModelPackage pkg = tiny_conv_package(mac);
  const auto it = std::find_if(pkg.layers.begin(), pkg.layers.end(), [](const auto& kv) {
    return kv.second.kind == PackagedLayerKind::kConv;
  });
  ASSERT_NE(it, pkg.layers.end());
  const QuantizedLayerPackage& l = it->second;
  ASSERT_EQ(l.weights.fmt.bits, 4);
  const std::int64_t c = l.conv_in_channels();
  Tensor x(Shape{1, 6, 6, c});
  Rng rng(7900);
  for (auto& v : x.span()) v = static_cast<float>(rng.uniform(-1.5, 1.5));
  IntGemmStats conv_stats;
  (void)int_conv(x, ConvGeom{6, 6, c, l.kernel, l.stride, l.pad}, l.weights, l.act_spec,
                 l.act_amax, l.act_gamma, l.bias, -1, &conv_stats);
  EXPECT_EQ(conv_stats.panels_packed, 1u);
  EXPECT_EQ(conv_stats.panels_unpacked_materialized, 1u);

  const GemmOperands ops = make_operands(3, 64, 11, 4, 6, 16, 7901);
  IntGemmStats gemm_stats;
  (void)int_gemm(ops.act, ops.wgt, -1, &gemm_stats);
  EXPECT_EQ(gemm_stats.panels_packed, 1u);
  EXPECT_EQ(gemm_stats.panels_unpacked_materialized, 1u);
}

TEST(Vnni, IneligibleOperandsFallBackUnderVnniCap) {
  // 10-bit activations are VNNI-ineligible; under VSQ_ISA=avx512_vnni the
  // registry must quietly resolve a lower tier, bit-identical to portable.
  const GemmOperands ops = make_operands(3, 40, 8, 10, 6, 8, 67);
  Tensor y_portable, y_vnni_cap;
  {
    EnvIsa e("portable");
    y_portable = int_gemm(ops.act, ops.wgt, -1);
  }
  {
    EnvIsa e("avx512_vnni");
    y_vnni_cap = int_gemm(ops.act, ops.wgt, -1);
  }
  expect_bitwise_equal(y_portable, y_vnni_cap, "vnni-ineligible fallback");
}

}  // namespace
}  // namespace vsq
