#include "quant/int_gemm.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "quant/int_kernel.h"
#include "util/thread_pool.h"

namespace vsq {

std::uint32_t round_scale_product(std::uint32_t p, int full_bits, int bits) {
  return kernels::round_scale_product(p, full_bits, bits);
}

namespace {

// Reference loop kept for operand widths whose per-vector dot product
// could exceed int32 (never hit by paper configs, but bit-exactness must
// not depend on operand range). Identical arithmetic, int64 throughout.
void int_gemm_wide(const QuantizedMatrix& act, const QuantizedMatrix& wgt,
                   int scale_product_bits, float* dst, IntGemmStats* stats) {
  const std::int64_t rows = act.rows, k_out = wgt.rows, cols = act.cols();
  // Width of the full scale product in bits, for MSB-keeping rounding.
  int full_bits = 0;
  if (act.two_level) full_bits += act.two_level->scale_fmt.bits;
  if (wgt.two_level) full_bits += wgt.two_level->scale_fmt.bits;
  const VectorLayout& layout = act.layout;
  const std::int64_t vpr = layout.vectors_per_row();
  std::mutex stats_mu;

  parallel_for(0, static_cast<std::size_t>(rows), [&](std::size_t rb, std::size_t re) {
    detail::IntRowStats t;
    for (std::size_t r = rb; r < re; ++r) {
      const auto ri = static_cast<std::int64_t>(r);
      const std::int16_t* arow = act.q.data() + ri * cols;
      for (std::int64_t k = 0; k < k_out; ++k) {
        const std::int16_t* wrow = wgt.q.data() + k * cols;
        std::int64_t acc = 0;  // accumulation collector (2N+log2V+2M wide)
        for (std::int64_t v = 0; v < vpr; ++v) {
          const auto [c0, c1] = layout.col_range(v);
          std::int64_t dp = 0;  // 2N+log2V-wide dot product
          for (std::int64_t c = c0; c < c1; ++c) {
            dp += static_cast<std::int64_t>(arow[c]) * wrow[c];
          }
          std::uint32_t sp = act.int_scale(ri, v) * wgt.int_scale(k, v);
          sp = round_scale_product(sp, full_bits, scale_product_bits);
          acc += dp * static_cast<std::int64_t>(sp);
          ++t.vec_ops;
          if (sp == 0) {
            ++t.zero_sp;
          } else if (dp == 0) {
            ++t.zero_dp;
          }
        }
        t.max_psum = std::max(t.max_psum, std::abs(acc));
        dst[ri * k_out + k] =
            static_cast<float>(static_cast<double>(acc) *
                               static_cast<double>(wgt.outer_scale(k)) * act.outer_scale(ri));
      }
    }
    if (stats) {
      std::lock_guard lock(stats_mu);
      t.merge_into(*stats);
    }
  });
}

}  // namespace

Tensor int_gemm(const QuantizedMatrix& act, const QuantizedMatrix& wgt, int scale_product_bits,
                IntGemmStats* stats) {
  return detail::int_gemm_packed(act, wgt, scale_product_bits, stats, nullptr);
}

namespace detail {

Tensor int_gemm_packed(const QuantizedMatrix& act, const QuantizedMatrix& wgt,
                       int scale_product_bits, IntGemmStats* stats,
                       const IntWeightPanels* prepacked) {
  if (act.cols() != wgt.cols()) throw std::invalid_argument("int_gemm: reduction dims differ");
  if (act.layout.vector_size != wgt.layout.vector_size ||
      act.layout.block_len() != wgt.layout.block_len()) {
    throw std::invalid_argument("int_gemm: operand vector layouts differ");
  }
  const std::int64_t rows = act.rows, k_out = wgt.rows;

  Tensor out(Shape{rows, k_out});
  if (rows == 0 || k_out == 0) return out;

  // int32 per-vector accumulation is exact iff the widest possible dot
  // product fits (2N + log2 V bits); otherwise take the int64 path
  // (checked before packing so the fallback never pays for a pack).
  if (!int32_dot_exact(act.fmt, wgt.fmt, act.layout)) {
    int_gemm_wide(act, wgt, scale_product_bits, out.data(), stats);
    return out;
  }
  run_panel_rows(IntRowSource(act), wgt, nullptr, scale_product_bits, stats, prepacked,
                 "int_gemm", out.data());
  return out;
}

}  // namespace detail

}  // namespace vsq
