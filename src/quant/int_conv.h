// Integer convolution through the per-vector datapath: the conv runs as
// the same vector-MAC arithmetic as int_gemm, but the quantized activation
// operand is synthesized patch-row by patch-row from the NHWC input — the
// panel row loop (quant/int_kernel.h) quantizes each im2col patch row
// (quantize_row_two_level) just before its MACs, so neither the fp cols
// matrix nor its quantized image ever exists at full size. Outputs are
// bit-identical to materializing im2col(x), quantizing it with
// quantize_activations_int and running int_gemm (the reference below),
// and each output row depends only on its own image, so batched
// execution is bit-identical to single-sample execution.
//
// Layout rule (Conv2d::set_quant): per-vector scales must not straddle
// kernel positions, i.e. the operand layouts' channel block must equal the
// conv's input channel count.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/int_gemm.h"
#include "quant/quantized_tensor.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace vsq {

// x: [N, H, W, C] NHWC matching g. wgt: quantized [K, KH*KW*C] weights
// (quantize_weights_int with channel_block = C). act_spec / act_amax /
// act_gamma: the layer's activation quantization exactly as packaged by
// quant/export. bias: K fp values added after de-scaling, or empty.
// Returns [N, OH, OW, K]. Falls back to the materialized reference when
// the operand widths exceed int32-exact accumulation or the activation
// quantization is not row-local (dynamic per-tensor amax). Packs the
// weight panels per call; deployments resolve an IntLayerPrimitive once
// instead (quant/export.h) — outputs are bit-identical either way.
Tensor int_conv(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                const QuantSpec& act_spec, float act_amax, float act_gamma,
                const std::vector<float>& bias, int scale_product_bits = -1,
                IntGemmStats* stats = nullptr);

// Reference oracle: materialized im2col -> quantize_activations_int ->
// int_gemm -> bias. Also the memory baseline the conv benches compare
// against.
Tensor int_conv_reference(const Tensor& x, const ConvGeom& g, const QuantizedMatrix& wgt,
                          const QuantSpec& act_spec, float act_amax, float act_gamma,
                          const std::vector<float>& bias, int scale_product_bits = -1,
                          IntGemmStats* stats = nullptr);

namespace detail {

// Streaming entry point behind int_conv and every packaged layer
// (IntLayerPrimitive::execute, run_packaged_*): fp activation rows go
// through the panel row loop (quant/int_kernel.h), each quantized by the
// layer's act spec just before its MACs, and bias is added per row.
// g != nullptr: x is NHWC matching *g, the rows are its im2col patch rows
// and the result is [N, OH, OW, K]. g == nullptr: x is [rows, cols], rows
// are read in place and the result is [rows, K]. `prepacked`, when
// non-null, must have been built from `wgt` under the act layout (else
// std::invalid_argument) and replaces the per-call pack. Operand widths
// beyond int32-exact accumulation and dynamic per-tensor activations take
// the materialized path (quantize_activations_int -> int_gemm -> bias);
// outputs are bit-identical either way.
Tensor int_stream_packed(const Tensor& x, const ConvGeom* g, const QuantizedMatrix& wgt,
                         const QuantSpec& act_spec, float act_amax, float act_gamma,
                         const std::vector<float>& bias, int scale_product_bits,
                         IntGemmStats* stats, const IntWeightPanels* prepacked);

}  // namespace detail

}  // namespace vsq
