#include "quant/int_conv.h"

#include <stdexcept>
#include <string>

#include "quant/int_kernel.h"
#include "tensor/ops.h"

namespace vsq {
namespace {

// Operand checks for both row forms, conv patch rows (g set) or plain
// [rows, cols] rows, which must reduce over the weight columns. Returns
// the activation vector layout.
VectorLayout check_operands(const Tensor& x, const ConvGeom* g, const QuantizedMatrix& wgt,
                            const QuantSpec& act_spec, const std::vector<float>& bias,
                            const char* who) {
  const std::string w(who);
  if (!act_spec.enabled) throw std::invalid_argument(w + ": activation spec disabled");
  if (act_spec.fmt.bits > 10) throw std::invalid_argument(w + ": bits > 10 does not fit int16");
  if (act_spec.granularity == Granularity::kPerVector &&
      act_spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
    throw std::invalid_argument(w + ": hardware path requires two-level integer scales");
  }
  const VectorLayout act_layout = act_spec.layout(g ? g->patch_len() : wgt.cols());
  if (g) {
    if (x.shape().rank() != 4 || x.shape()[1] != g->in_h || x.shape()[2] != g->in_w ||
        x.shape()[3] != g->in_c) {
      throw std::invalid_argument(w + ": input shape does not match geometry");
    }
    if (wgt.cols() != g->patch_len()) {
      throw std::invalid_argument(w + ": weight reduction dim != patch length");
    }
    // Vectors must not straddle kernel positions (Conv2d::set_quant's
    // channel_block = in_c rule): each C-length channel block of the
    // unrolled patch row carries its own vectors.
    if (act_layout.block_len() != g->in_c) {
      throw std::invalid_argument(w + ": layout channel block must equal in_c");
    }
  } else if (x.shape().rank() != 2 || x.shape()[1] != wgt.cols()) {
    throw std::invalid_argument(w + ": input must be [rows, " + std::to_string(wgt.cols()) + "]");
  }
  if (act_layout.vector_size != wgt.layout.vector_size ||
      act_layout.block_len() != wgt.layout.block_len()) {
    throw std::invalid_argument(w + ": operand vector layouts differ");
  }
  if (!bias.empty() && static_cast<std::int64_t>(bias.size()) != wgt.rows) {
    throw std::invalid_argument(w + ": bias size mismatch");
  }
  return act_layout;
}

// Materialized path: quantize the whole fp row matrix, int_gemm (which
// threads a prepacked set through), add bias. The oracle behind
// int_conv_reference and the fallback for non-row-local or int64-wide
// operands.
Tensor materialized(const Tensor& x2d, const QuantizedMatrix& wgt, const QuantSpec& act_spec,
                    float act_amax, float act_gamma, const std::vector<float>& bias,
                    int scale_product_bits, IntGemmStats* stats,
                    const detail::IntWeightPanels* prepacked) {
  const QuantizedMatrix acts = quantize_activations_int(x2d, act_spec, act_amax, act_gamma);
  Tensor y = detail::int_gemm_packed(acts, wgt, scale_product_bits, stats, prepacked);
  if (!bias.empty()) add_row_bias(y.data(), y.shape()[0], wgt.rows, bias.data());
  return y;
}

}  // namespace

Tensor int_conv_reference(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                          const QuantSpec& act_spec, float act_amax, float act_gamma,
                          const std::vector<float>& bias, int scale_product_bits,
                          IntGemmStats* stats) {
  check_operands(x, &g, wgt, act_spec, bias, "int_conv");
  return materialized(im2col(x, g), wgt, act_spec, act_amax, act_gamma, bias,
                      scale_product_bits, stats, nullptr)
      .reshape(Shape{x.shape()[0], g.out_h(), g.out_w(), wgt.rows});
}

Tensor int_conv(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                const QuantSpec& act_spec, float act_amax, float act_gamma,
                const std::vector<float>& bias, int scale_product_bits, IntGemmStats* stats) {
  return detail::int_stream_packed(x, &g, wgt, act_spec, act_amax, act_gamma, bias,
                                   scale_product_bits, stats, nullptr);
}

namespace detail {

Tensor int_stream_packed(const Tensor& x, const ConvGeom* g, const QuantizedMatrix& wgt,
                         const QuantSpec& act_spec, float act_amax, float act_gamma,
                         const std::vector<float>& bias, int scale_product_bits,
                         IntGemmStats* stats, const IntWeightPanels* prepacked) {
  const char* who = g ? "int_conv" : "int_gemm";
  const VectorLayout act_layout = check_operands(x, g, wgt, act_spec, bias, who);
  const std::int64_t k_out = wgt.rows;
  const Shape out_shape = g ? Shape{x.shape()[0], g->out_h(), g->out_w(), k_out}
                            : Shape{x.shape()[0], k_out};
  // Dynamic per-tensor activation amax is a whole-matrix statistic — not
  // computable from a streamed row. Exported packages never use it (coarse
  // activations calibrate statically); route the corner case, and operand
  // widths beyond int32-exact accumulation (checked before packing, so the
  // int64 loop never pays for a discarded pack), through the materialized
  // path.
  if ((act_spec.granularity != Granularity::kPerVector && act_spec.dynamic) ||
      !int32_dot_exact(act_spec.fmt, wgt.fmt, act_layout)) {
    return materialized(g ? im2col(x, *g) : x, wgt, act_spec, act_amax, act_gamma, bias,
                        scale_product_bits, stats, prepacked)
        .reshape(out_shape);
  }

  Tensor out(out_shape);
  const std::int64_t rows = g ? x.shape()[0] * g->out_h() * g->out_w() : x.shape()[0];
  if (rows == 0 || k_out == 0) return out;
  run_panel_rows(IntRowSource(x.data(), g, rows, act_layout, act_spec, act_amax, act_gamma),
                 wgt, bias.empty() ? nullptr : bias.data(), scale_product_bits, stats,
                 prepacked, who, out.data());
  return out;
}

}  // namespace detail

}  // namespace vsq
