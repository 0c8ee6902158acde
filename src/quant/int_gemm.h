// Bit-accurate integer GEMM — the arithmetic the VS-Quant vector MAC unit
// performs (paper Eq. 5 and Fig. 2b):
//
//   y(r,k) = [ sum_v  dp_v(r,k) * round_P( swq(k,v) * saq(r,v) ) ]
//            * gamma_w(k) * gamma_a
//   dp_v   = sum_{i<V} wq(k, vV+i) * aq(r, vV+i)          (integer)
//
// The scale product swq*saq is an unsigned (ws+as)-bit integer; it can
// optionally be rounded to P < ws+as bits (keeping the P most significant
// bits, round-half-up) before multiplying the dot product — the energy
// optimization of Fig. 3. Rounding small products to zero enables data
// gating of the accumulation, which the stats below count.
//
// Coarse (per-channel) operands bypass the integer scale multiplier
// (scale contribution folded into the outer floating-point factor), which
// is exactly the baseline accelerator datapath.
#pragma once

#include <cstdint>

#include "quant/quantized_tensor.h"
#include "tensor/tensor.h"

namespace vsq {

namespace detail {
class IntWeightPanels;
}  // namespace detail

struct IntGemmStats {
  std::uint64_t vector_ops = 0;          // V-wide dot products issued
  std::uint64_t zero_scale_products = 0; // rounded sw*sa == 0 (gateable)
  std::uint64_t zero_dot_products = 0;   // dp == 0 (gateable)
  std::uint64_t panels_packed = 0;       // per-call weight-panel packs (0 when
                                         // the caller supplied a prepacked set)
  std::uint64_t panels_unpacked_materialized = 0;  // packs where sub-byte-format
                                         // weights materialized at byte width
                                         // (no packed tier eligible)
  std::int64_t max_abs_psum = 0;         // widest partial sum observed

  double gateable_fraction() const {
    return vector_ops == 0
               ? 0.0
               : static_cast<double>(zero_scale_products + zero_dot_products) /
                     static_cast<double>(vector_ops);
  }
};

// Round an unsigned scale product to keep `bits` MSBs of a `full_bits`-wide
// value (round-half-up). bits <= 0 or bits >= full_bits returns p unchanged.
// (Forwards to kernels::round_scale_product, the canonical definition.)
std::uint32_t round_scale_product(std::uint32_t p, int full_bits, int bits);

// act: [rows, L] quantized activations; wgt: [K, L] quantized weights.
// Returns float [rows, K]. scale_product_bits < 0 keeps the full product.
// Stats are accumulated into *stats when non-null. Packs the weight
// panels per call (counted in stats->panels_packed); deployments that
// stream many calls over fixed weights resolve an IntLayerPrimitive once
// instead (quant/export.h) — outputs are bit-identical either way.
Tensor int_gemm(const QuantizedMatrix& act, const QuantizedMatrix& wgt, int scale_product_bits,
                IntGemmStats* stats = nullptr);

namespace detail {

// Prepacked entry point behind int_gemm, for the materialized path of
// resolved primitives (IntLayerPrimitive: dynamic per-tensor activations)
// and the kernel-registry tests. `prepacked` must have
// been built from this exact `wgt` object under act's vector layout and
// element format (IntWeightPanels::matches; a mismatch throws
// std::invalid_argument) — when supplied, the per-call pack is skipped
// entirely. At batch 1 the pack rivals the GEMM itself, so this is most
// of what made serving ~4x faster at small batches. The operand widths
// must still admit int32-exact accumulation; when they don't, the int64
// reference loop runs and `prepacked` is ignored.
Tensor int_gemm_packed(const QuantizedMatrix& act, const QuantizedMatrix& wgt,
                       int scale_product_bits, IntGemmStats* stats,
                       const IntWeightPanels* prepacked);

}  // namespace detail

}  // namespace vsq
