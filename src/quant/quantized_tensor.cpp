#include "quant/quantized_tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vsq {

QuantizedMatrix quantize_weights_int(const Tensor& w2d, const QuantSpec& spec) {
  if (!spec.enabled) throw std::invalid_argument("quantize_weights_int: spec disabled");
  QuantizedMatrix out;
  out.rows = w2d.shape()[0];
  out.fmt = spec.fmt;
  out.layout = spec.layout(w2d.shape()[1]);

  if (spec.granularity == Granularity::kPerVector) {
    if (spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
      throw std::invalid_argument(
          "quantize_weights_int: hardware path requires two-level integer scales");
    }
    const ScaleSet fp = compute_scales(w2d, Granularity::kPerVector, out.layout, spec.fmt);
    out.two_level = two_level_from_scales(fp, spec.scale_fmt, CoarseAxis::kPerRow);
    out.q = quantize_to_int(w2d, out.two_level->to_scale_set(), spec.fmt);
  } else {
    const ScaleSet s = compute_scales(w2d, spec.granularity, out.layout, spec.fmt);
    out.coarse_scales = s.scales;
    out.q = quantize_to_int(w2d, s, spec.fmt);
  }
  return out;
}

void quantize_row_two_level(const float* xrow, const VectorLayout& layout,
                            const QuantFormat& fmt, const QuantFormat& scale_fmt, float gamma,
                            std::int16_t* qrow, std::uint16_t* sqrow) {
  const std::int64_t vpr = layout.vectors_per_row();
  const auto scale_qmax = static_cast<float>(scale_fmt.qmax());
  for (std::int64_t v = 0; v < vpr; ++v) {
    const auto [c0, c1] = layout.col_range(v);
    float amax = 0.0f;
    for (std::int64_t c = c0; c < c1; ++c) amax = std::max(amax, std::abs(xrow[c]));
    std::uint16_t sq = 0;
    if (gamma > 0.0f) {
      const float s = scale_from_amax(amax, fmt);
      sq = static_cast<std::uint16_t>(std::clamp(std::nearbyintf(s / gamma), 0.0f, scale_qmax));
    }
    sqrow[v] = sq;
    const float eff = static_cast<float>(sq) * gamma;  // Eq. 7h
    for (std::int64_t c = c0; c < c1; ++c) {
      qrow[c] = static_cast<std::int16_t>(quantize_value(xrow[c], eff, fmt));
    }
  }
}

QuantizedMatrix quantize_activations_int(const Tensor& x2d, const QuantSpec& spec,
                                         float static_amax, float gamma) {
  if (!spec.enabled) throw std::invalid_argument("quantize_activations_int: spec disabled");
  QuantizedMatrix out;
  out.rows = x2d.shape()[0];
  out.fmt = spec.fmt;
  out.layout = spec.layout(x2d.shape()[1]);

  if (spec.fmt.bits > 10) {
    throw std::invalid_argument("quantize_activations_int: bits > 10 does not fit int16");
  }
  if (spec.granularity == Granularity::kPerVector) {
    if (spec.scale_dtype != ScaleDtype::kTwoLevelInt) {
      throw std::invalid_argument(
          "quantize_activations_int: hardware path requires two-level integer scales");
    }
    // Dynamic per-vector: runtime vector max -> sq = round(s/gamma) (Eq. 7g),
    // exactly the PPU's calibrate-and-quantize pipeline. Fused single pass
    // per vector (amax -> sq -> integer elements): arithmetic is
    // element-for-element identical to amax_per_vector + to_scale_set +
    // quantize_to_int, without the per-element scale lookups and the
    // intermediate scale-set allocations. Serving never materializes this
    // matrix: its layers quantize row by row inside the panel row loop
    // (quant/int_kernel.h) through the same quantize_row_two_level; this
    // whole-matrix form is the oracle and the dynamic per-tensor path.
    TwoLevelScales tl;
    tl.scale_fmt = spec.scale_fmt;
    tl.coarse_axis = CoarseAxis::kPerTensor;
    tl.layout = out.layout;
    tl.rows = out.rows;
    tl.gamma = {gamma};
    const std::int64_t rows = out.rows, cols = out.layout.cols;
    const std::int64_t vpr = out.layout.vectors_per_row();
    tl.sq.assign(static_cast<std::size_t>(rows * vpr), 0);
    out.q.assign(static_cast<std::size_t>(rows * cols), 0);
    const float* src = x2d.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      quantize_row_two_level(src + r * cols, out.layout, spec.fmt, spec.scale_fmt, gamma,
                             out.q.data() + r * cols,
                             tl.sq.data() + static_cast<std::size_t>(r * vpr));
    }
    out.two_level = std::move(tl);
  } else {
    const float amax = spec.dynamic ? amax_per_tensor(x2d) : static_amax;
    ScaleSet s;
    s.granularity = Granularity::kPerTensor;
    s.layout = out.layout;
    s.rows = out.rows;
    s.scales = {scale_from_amax(amax, spec.fmt)};
    out.coarse_scales = s.scales;
    out.q = quantize_to_int(x2d, s, spec.fmt);
  }
  return out;
}

}  // namespace vsq
