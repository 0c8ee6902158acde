// Internal building blocks of the bit-accurate integer datapath: the
// packed weight panels with their registry-resolved microkernels
// (kernels/registry.h), and the one panel row loop (run_panel_rows) that
// int_gemm, int_conv and every packaged layer stream through. Its callers
// differ only in where the activation rows come from (IntRowSource):
// prequantized QuantizedMatrix rows, fp rows read in place, or im2col
// patch rows — the fp sources quantized row by row just before the row's
// MACs. Everything here computes EXACTLY the arithmetic of int_gemm's
// int64 reference loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "kernels/registry.h"
#include "quant/int_gemm.h"
#include "quant/quantized_tensor.h"
#include "tensor/im2col.h"
#include "util/scratch.h"

namespace vsq::detail {

// Weight rows per packed panel (kernels/registry.h's kPanelCols): the
// panel microkernel produces kIntPanelCols dot products per vector at once
// from a j-contiguous panel, so one pass over the activation row feeds
// kIntPanelCols output columns.
inline constexpr int kIntPanelCols = kernels::kPanelCols;

using VecRange = kernels::VecRange;

// The activation-side quantization attributes a pack binds, descriptor
// style: the element format decides kernel eligibility (the VNNI tier
// needs operands that fit 8 bits) and the scale width feeds the combined
// full_bits of the scale product. Built from either the concrete operand
// (prequantized rows) or the layer's spec (fp rows / package load) — the
// two agree by construction, quantize_activations_int materializes exactly
// the spec.
struct IntActAttrs {
  QuantFormat fmt{8, true};
  int scale_bits = 0;  // per-vector integer scale width; 0 = coarse bypass

  static IntActAttrs of(const QuantizedMatrix& act) {
    return {act.fmt, act.two_level ? act.two_level->scale_fmt.bits : 0};
  }
  static IntActAttrs of(const QuantSpec& spec) {
    return {spec.fmt,
            spec.granularity == Granularity::kPerVector ? spec.scale_fmt.bits : 0};
  }
};

// True when every per-vector dot product of act_fmt x wgt_fmt operands
// over `layout`'s vectors is exact in int32 (2N + log2 V bits fit). Cheap
// — callers check it BEFORE packing panels so the int64 fallback path
// never pays for a discarded pack.
inline bool int32_dot_exact(const QuantFormat& act_fmt, const QuantFormat& wgt_fmt,
                            const VectorLayout& layout) {
  std::int64_t max_len = 0;
  const std::int64_t vpr = layout.vectors_per_row();
  for (std::int64_t v = 0; v < vpr; ++v) {
    const auto [c0, c1] = layout.col_range(v);
    max_len = std::max(max_len, c1 - c0);
  }
  const std::int64_t amax_q = std::max(std::abs(act_fmt.qmin()), act_fmt.qmax());
  const std::int64_t wmax_q = std::max(std::abs(wgt_fmt.qmin()), wgt_fmt.qmax());
  return amax_q * wmax_q * std::max<std::int64_t>(max_len, 1) <= INT32_MAX;
}

// Datapath gating counters accumulated per chunk and merged into
// IntGemmStats by the caller (keeps the hot loop free of atomics).
struct IntRowStats {
  std::uint64_t vec_ops = 0, zero_sp = 0, zero_dp = 0;
  std::int64_t max_psum = 0;

  void merge_into(IntGemmStats& s) const {
    s.vector_ops += vec_ops;
    s.zero_scale_products += zero_sp;
    s.zero_dot_products += zero_dp;
    s.max_abs_psum = std::max(s.max_abs_psum, max_psum);
  }
};

// The integer weight operand packed for the row loop — the library's
// resolved primitive in the oneDNN sense. Construction is the descriptor
// step: it binds the weight operand, the vector geometry and the
// activation attributes, asks the registry which panel and accumulate
// implementations run (kernels/registry.h; one dispatch resolution each),
// and packs the weights in the layout THAT implementation consumes:
//
//   kPlain            [c][j] int16
//   kPairInterleaved  [pair][j][2] int16 (avx2_madd; even vector lengths)
//   kQuadInt8         [quad][j][4] int8, zero-padded quads, plus the
//                     [v][j] u8-bias compensation block (avx512_vnni)
//   kBitPacked        [c] b-bit code groups (portable_sub / avx2_sub)
//   kNibblePair       [pair][j] nibble pairs (avx2_sub4_madd)
//   kNibbleQuad       [quad][j][2] biased nibble quads (avx512_vnni_sub4)
//
// plus [v][j] per-vector scale panels, everything zero-padded past k_out.
// The sub-byte layouts store 3-6 bit codes at code width — a 4-bit pack is
// ~0.25x the kPlain bytes — and their kernels unpack in registers, so no
// byte-width copy of the weights ever materializes (asserted by the
// serving tests via panels_unpacked_materialized_total()).
// Buffers come from the caller's ScratchArena and stay valid until its
// region rewinds; pack once, stream many rows.
class IntWeightPanels {
 public:
  IntWeightPanels(const QuantizedMatrix& wgt, const VectorLayout& layout,
                  const IntActAttrs& act, ScratchArena& arena);

  // Owning variant: panels live in a private arena instead of the caller's,
  // so the pack survives the call that built it. This is what
  // IntLayerPrimitive (quant/export.h) holds per layer — pack once at model
  // load, stream rows for the lifetime of the deployment.
  IntWeightPanels(const QuantizedMatrix& wgt, const VectorLayout& layout,
                  const IntActAttrs& act);

  std::int64_t vpr() const { return vpr_; }
  std::int64_t k_out() const { return k_out_; }
  std::int64_t cols() const { return cols_; }
  // Identity of the pack, for callers accepting prepacked panels: the
  // exact weight operand (panels keep per-column scale pointers into it)
  // and the vector geometry it was packed under. (cols, vector_size,
  // block_len) fully determine a VectorLayout's boundaries, so comparing
  // them — not just the vector COUNT — rejects same-vpr layouts whose
  // boundaries differ.
  const QuantizedMatrix* source() const { return wgt_; }
  int vector_size() const { return vector_size_; }
  std::int64_t block_len() const { return block_len_; }

  // The registry's resolution for this pack, for introspection
  // (vsq_inspect --kernels) and the forced-tier tests.
  const kernels::IntPanelImpl& panel_impl() const { return *panel_impl_; }
  const kernels::PanelAccImpl& acc_impl() const { return *acc_impl_; }
  kernels::PanelLayout layout() const { return panel_impl_->layout; }

  // Memory accounting for the footprint introspection (vsq_inspect
  // --kernels, ServeStats): the bytes this pack keeps resident (weight
  // panels + scale panels + compensation), and what the same pack would
  // occupy in the byte-width kPlain int16 layout. resident/baseline <= 0.3
  // for a 4-bit model is the point of the packed tiers.
  std::int64_t resident_bytes() const { return resident_bytes_; }
  std::int64_t baseline_bytes() const { return baseline_bytes_; }

  // True when sub-byte-format weights (bits < 8) had to materialize at
  // byte width because no packed tier was eligible (odd bit widths, or
  // VSQ_PACKED=0).
  bool materialized_sub_byte() const {
    return wgt_->fmt.bits < 8 && !kernels::panel_layout_sub_byte(layout());
  }

  // True when run_row needs a per-row image buffer beside the int16 row
  // (the VNNI layouts); callers then pass a scratch buffer of
  // u8_row_len() bytes. kBiasedU8 holds the rebiased row; kSignedI8 holds
  // the raw-s8 row plus, at vcomp_off_, the [v] int32 row-sum compensation
  // block (the buffer start is arena/64-byte aligned, vcomp_off_ is
  // 4-aligned, so the int32 view is in bounds and aligned).
  bool needs_u8_row() const { return panel_impl_->row_image != kernels::RowImage::kNone; }
  std::int64_t u8_row_len() const {
    return panel_impl_->row_image == kernels::RowImage::kSignedI8
               ? vcomp_off_ + vpr_ * static_cast<std::int64_t>(sizeof(std::int32_t))
               : cols_ + 4;
  }

  // True when this pack may stand in for a per-call pack of `wgt` under
  // `layout` with `act_fmt` activations — the single validation of
  // run_panel_rows, which every prepacked-accepting entry point goes
  // through. The act format participates because the resolved implementation
  // (and for VNNI, the exactness guarantee itself) depends on it.
  bool matches(const QuantizedMatrix& wgt, const VectorLayout& layout,
               const QuantFormat& act_fmt) const {
    return wgt_ == &wgt && cols_ == layout.cols && vector_size_ == layout.vector_size &&
           block_len_ == layout.block_len() && act_fmt_ == act_fmt;
  }

  // One activation row -> one output row of k_out floats. asq: the row's
  // per-vector integer scales (nullptr = coarse bypass, scale 1). aout:
  // the row's outer fp factor. dp: caller scratch of vpr*kIntPanelCols
  // int32, reused across rows. u8row: caller scratch of u8_row_len()
  // bytes when needs_u8_row(), else may be nullptr.
  template <bool kStats>
  void run_row(const std::int16_t* arow, const std::uint16_t* asq, float aout, float* drow,
               int full_bits, int scale_product_bits, std::int32_t* dp, std::uint8_t* u8row,
               IntRowStats& st) const {
    constexpr int PNR = kIntPanelCols;
    // The VNNI layouts consume a per-row byte image (see
    // kernels/int_panel_impls.cpp); built once per row, shared by panels.
    // kBiasedU8: the row rebiased to u8. kSignedI8 (packed 4-bit VNNI):
    // the raw s8 row plus the per-vector row-sum compensation
    // vcomp[v] = -8 * sum_c a[c], carved from the same scratch buffer.
    const std::int32_t* vcomp = nullptr;
    if (panel_impl_->row_image == kernels::RowImage::kBiasedU8) {
      for (std::int64_t c = 0; c < cols_; ++c) {
        u8row[c] = static_cast<std::uint8_t>(arow[c] + u8_bias_);
      }
      std::memset(u8row + cols_, 0, 4);  // quad overread past the row end
    } else if (panel_impl_->row_image == kernels::RowImage::kSignedI8) {
      for (std::int64_t c = 0; c < cols_; ++c) {
        u8row[c] = static_cast<std::uint8_t>(static_cast<std::int8_t>(arow[c]));
      }
      std::memset(u8row + cols_, 0, 4);
      auto* vc = reinterpret_cast<std::int32_t*>(u8row + vcomp_off_);
      const std::int32_t bias = 1 << (wbits_ - 1);
      for (std::int64_t v = 0; v < vpr_; ++v) {
        std::int32_t s = 0;
        const std::int16_t* av = arow + vr_[v].c0;
        for (std::int32_t c = 0; c < vr_[v].len; ++c) s += av[c];
        vc[v] = -bias * s;
      }
      vcomp = vc;
    }
    // Stats off (the serving hot path): the resolved SIMD scale-accumulate
    // when the scale product width permits. Stats on: the portable loop,
    // which counts per-product gating. Accumulators are bit-identical
    // either way (exact int64 arithmetic in both, and integer addition
    // reassociates).
    const kernels::PanelAccFn acc_fn =
        (!kStats && full_bits <= acc_impl_->max_full_bits) ? acc_impl_->fn : acc_fallback_;
    kernels::PanelArgs pa;
    pa.arow = arow;
    pa.arow8 = u8row;
    pa.vcomp = vcomp;
    pa.vr = vr_;
    pa.nvec = vpr_;
    pa.wbits = wbits_;
    pa.dp = dp;
    const kernels::IntPanelFn panel_fn = panel_impl_->fn;
    for (std::int64_t kp = 0; kp < n_panels_; ++kp) {
      const std::int64_t k0 = kp * PNR;
      const int nr = static_cast<int>(std::min<std::int64_t>(PNR, k_out_ - k0));
      pa.wp = pw_ + kp * panel_stride_;
      pa.ncomp = ncomp_ == nullptr ? nullptr : ncomp_ + kp * vpr_ * PNR;
      panel_fn(pa);
      const std::uint32_t* wsq = psq_ + kp * vpr_ * PNR;
      std::int64_t acc[PNR] = {};
      if constexpr (kStats) {
        for (std::int64_t v = 0; v < vpr_; ++v) {
          const std::uint32_t as_v = asq ? asq[v] : 1;
          const std::int32_t* dv = dp + v * PNR;
          for (int j = 0; j < nr; ++j) {
            const std::uint32_t sp =
                round_scale_product(as_v * wsq[v * PNR + j], full_bits, scale_product_bits);
            acc[j] += static_cast<std::int64_t>(dv[j]) * sp;
            ++st.vec_ops;
            if (sp == 0) {
              ++st.zero_sp;
            } else if (dv[j] == 0) {
              ++st.zero_dp;
            }
          }
        }
      } else {
        acc_fn(dp, wsq, asq, vpr_, full_bits, scale_product_bits, acc);
      }
      for (int j = 0; j < nr; ++j) {
        if constexpr (kStats) st.max_psum = std::max(st.max_psum, std::abs(acc[j]));
        drow[k0 + j] =
            static_cast<float>(static_cast<double>(acc[j]) *
                               static_cast<double>(wgt_->outer_scale(k0 + j)) * aout);
      }
    }
  }

 private:
  void pack(const QuantizedMatrix& wgt, const VectorLayout& layout, const IntActAttrs& act,
            ScratchArena& arena);

  const QuantizedMatrix* wgt_;
  const VecRange* vr_ = nullptr;
  const unsigned char* pw_ = nullptr;    // panel bytes, layout per panel_impl_
  const std::uint32_t* psq_ = nullptr;
  const std::int32_t* ncomp_ = nullptr;  // kQuadInt8 only
  std::int64_t n_panels_ = 0, cols_ = 0, k_out_ = 0, vpr_ = 0;
  std::int64_t panel_stride_ = 0;        // bytes between consecutive panels
  std::int64_t resident_bytes_ = 0, baseline_bytes_ = 0;
  std::int64_t vcomp_off_ = 0;           // kSignedI8: vcomp offset in u8row
  int vector_size_ = 0;
  int wbits_ = 0;                        // code width of packed layouts, else 0
  std::int64_t block_len_ = 0;
  QuantFormat act_fmt_{8, true};
  std::int16_t u8_bias_ = 0;
  const kernels::IntPanelImpl* panel_impl_ = nullptr;
  const kernels::PanelAccImpl* acc_impl_ = nullptr;
  kernels::PanelAccFn acc_fallback_ = nullptr;  // portable, for stats/wide rows
  // Set only by the owning constructor. Arena blocks never move, so the
  // pointers above stay valid when the IntWeightPanels itself is moved.
  std::unique_ptr<ScratchArena> own_;
};

// Where the panel row loop's activation rows come from. Prequantized rows
// (int_gemm's QuantizedMatrix) stream as stored. Fp rows — a
// [rows, layout.cols] matrix read in place, or with `conv` set the im2col
// patch rows of an NHWC input — are quantized into thread scratch as the
// loop reaches them, the PPU's pass over each produced row: the two-level
// per-vector quantizer (quantize_row_two_level, Eq. 7g-7h) or the static
// coarse scale. Either way a row is exactly the row
// quantize_activations_int would materialize, so every source computes
// bit-identical outputs. Dynamic per-tensor activations are not row-local
// (their amax spans the whole matrix) and must arrive prequantized.
struct IntRowSource {
  explicit IntRowSource(const QuantizedMatrix& a) : act(&a), rows(a.rows), layout(a.layout) {}
  IntRowSource(const float* x_, const ConvGeom* conv_, std::int64_t rows_,
               const VectorLayout& layout_, const QuantSpec& spec_, float amax, float gamma)
      : x(x_), conv(conv_), rows(rows_), layout(layout_), spec(&spec_), act_amax(amax),
        act_gamma(gamma) {}

  const QuantizedMatrix* act = nullptr;  // prequantized rows, else fp rows
  const float* x = nullptr;
  const ConvGeom* conv = nullptr;
  std::int64_t rows = 0;
  VectorLayout layout;
  const QuantSpec* spec = nullptr;
  float act_amax = 0.0f, act_gamma = 0.0f;
};

// The panel row loop: every row of `src` through the packed weight panels
// into dst[src.rows, wgt.rows], plus bias[k] per output when bias is
// non-null. prepacked: load-time panels, which must match (wgt, layout,
// act format) or std::invalid_argument names `who`; nullptr packs per call
// in the caller's arena (counted in stats->panels_packed and, for
// byte-width sub-byte weights, panels_unpacked_materialized). Rows split
// across the thread pool; callers have already checked int32_dot_exact.
void run_panel_rows(const IntRowSource& src, const QuantizedMatrix& wgt, const float* bias,
                    int scale_product_bits, IntGemmStats* stats,
                    const IntWeightPanels* prepacked, const char* who, float* dst);

// Process-wide count of IntWeightPanels constructions (relaxed atomic).
// The serving tests assert that steady-state traffic leaves this flat:
// with the runner's load-time primitives every pack happens at model-load
// time, never on the per-request path.
std::uint64_t panels_packed_total();

// Process-wide count of packs where sub-byte-format weights (bits < 8)
// materialized at byte width (see IntWeightPanels::materialized_sub_byte).
// The serving tests assert steady-state 4-bit traffic leaves this flat AND
// zero-incremented at load: the packed layouts unpack in registers only.
std::uint64_t panels_unpacked_materialized_total();

}  // namespace vsq::detail
