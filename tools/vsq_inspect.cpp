// vsq_inspect — print the contents of an exported quantized-model package:
// per-layer shapes, formats, conv geometry (kernel/stride/pad and patch
// vectors for conv layers), scale statistics (sq utilization, gamma), the
// storage overhead of the per-vector scales (the paper's M/(V*N) metric,
// Sec. 4.4), and the forward program (with conv/residual/pool ops) when
// the package carries one.
//
// With --kernels, additionally resolve the package against the kernel
// dispatch registry (as a deployment would at load time) and print the
// implementation each layer's primitive bound to — op, ISA tier, panel and
// accumulator kernel names — under the current CPU and VSQ_ISA cap.
//
//   vsq_inspect --package=artifacts/resnet_int.vsqa [--threads=N] [--kernels]
#include <exception>
#include <iostream>
#include <map>

#include "kernels/isa.h"
#include "quant/export.h"
#include "util/args.h"
#include "util/table.h"

// Any exception escaping the tool (a missing or corrupt package, a
// malformed flag) ends it with a one-line diagnostic and exit code 2.
int main(int argc, char** argv) try {
  using namespace vsq;
  const Args args(argc, argv);
  if (!apply_threads_flag(args)) return 1;
  const std::string path = args.get_str("package", "artifacts/resnet_int.vsqa");
  const bool show_kernels = args.get_flag("kernels");

  const QuantizedModelPackage pkg = QuantizedModelPackage::load(path);
  std::cout << "package " << path << ": " << pkg.layers.size() << " layers";
  if (pkg.in_h > 0) {
    std::cout << ", input " << pkg.in_h << "x" << pkg.in_w << "x" << pkg.in_c << " NHWC";
  }
  if (pkg.max_seq > 0) {
    std::cout << ", sequence max_seq=" << pkg.max_seq << " dim=" << pkg.seq_dim
              << " heads=" << pkg.heads;
  }
  std::cout << "\n";
  if (!pkg.embeddings.empty() || !pkg.norms.empty()) {
    std::cout << "fp params:";
    for (const auto& [name, e] : pkg.embeddings) {
      std::cout << " emb(" << name << " vocab=" << e.vocab << " max_len=" << e.max_len
                << " dim=" << e.dim << ")";
    }
    for (const auto& [name, ln] : pkg.norms) {
      std::cout << " ln(" << name << " dim=" << ln.gamma.size() << ")";
    }
    std::cout << "\n";
  }
  if (!pkg.program.empty()) {
    std::cout << "forward program:";
    for (const ForwardStep& s : pkg.program) {
      using Op = ForwardStep::Op;
      // Every op code is named explicitly — an op this tool does not know
      // never reaches here, because the package loader rejects unknown
      // codes with "unknown program op" instead of printing garbage.
      switch (s.op) {
        case Op::kGemm: std::cout << " " << s.layer; break;
        case Op::kConv: std::cout << " conv(" << s.layer << ")"; break;
        case Op::kConvSaved: std::cout << " shortcut(" << s.layer << ")"; break;
        case Op::kSave: std::cout << " save"; break;
        case Op::kAddSaved: std::cout << " +residual"; break;
        case Op::kGlobalPool: std::cout << " gap"; break;
        case Op::kEmbed: std::cout << " embed(" << s.layer << ")"; break;
        case Op::kLayerNorm: std::cout << " ln(" << s.layer << ")"; break;
        case Op::kAttention:
          std::cout << " attn(" << s.layer << " heads=" << pkg.heads << " dim=" << pkg.seq_dim
                    << ")";
          break;
        case Op::kSoftmax: std::cout << " softmax"; break;
        case Op::kGelu: std::cout << " gelu"; break;
      }
      if (s.relu) std::cout << "+relu";
    }
    std::cout << "\n";
  }
  std::cout << "\n";

  Table t({"Layer", "Kind", "Weights", "Fmt", "V", "Scale repr", "sq range", "Overhead %",
           "amax", "gamma"});
  double total_weight_bits = 0, total_scale_bits = 0;
  for (const auto& [name, l] : pkg.layers) {
    const QuantizedMatrix& w = l.weights;
    std::string scale_repr, sq_range = "-";
    double overhead = 0;
    // Conv layers: kernel/stride/pad plus the patch-vector geometry (how
    // many V-element vectors tile one unrolled patch row).
    std::string kind = "gemm";
    if (l.kind == PackagedLayerKind::kConv) {
      kind = std::to_string(l.kernel) + "x" + std::to_string(l.kernel) + " s" +
             std::to_string(l.stride) + " p" + std::to_string(l.pad) + " c" +
             std::to_string(l.conv_in_channels()) + " (" +
             std::to_string(w.layout.vectors_per_row()) + " vec/patch)";
    }
    if (w.two_level) {
      const auto& tl = *w.two_level;
      scale_repr = "int" + std::to_string(tl.scale_fmt.bits) + " + fp32/" +
                   (tl.coarse_axis == CoarseAxis::kPerRow ? "chan" : "tensor");
      std::uint16_t lo = 65535, hi = 0;
      for (const auto s : tl.sq) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
      sq_range = std::to_string(lo) + ".." + std::to_string(hi);
      // Paper Sec. 4.4: M/(V*N) storage overhead of per-vector scales.
      overhead = 100.0 * tl.scale_fmt.bits /
                 (static_cast<double>(w.layout.vector_size) * w.fmt.bits);
      total_scale_bits += static_cast<double>(tl.sq.size()) * tl.scale_fmt.bits;
    } else {
      scale_repr = "fp32/" + std::string(w.coarse_scales.size() == 1 ? "tensor" : "chan");
    }
    total_weight_bits += static_cast<double>(w.rows) * w.cols() * w.fmt.bits;
    t.add_row({name, kind, std::to_string(w.rows) + "x" + std::to_string(w.cols()),
               w.fmt.str(), std::to_string(w.layout.vector_size), scale_repr, sq_range,
               Table::num(overhead, 2), Table::num(l.act_amax, 4), Table::num(l.act_gamma, 6)});
  }
  t.print(std::cout);
  if (total_scale_bits > 0) {
    std::cout << "\ntotal weight payload: " << Table::num(total_weight_bits / 8 / 1024, 1)
              << " KiB; per-vector scales add "
              << Table::num(100.0 * total_scale_bits / total_weight_bits, 2) << "%\n";
  }

  if (show_kernels) {
    std::cout << "\ncpu: " << isa::summary() << "\n";
    const QuantizedModelRunner runner(pkg);
    Table kt({"Layer", "Op", "ISA", "Panel kernel", "Accumulator", "Layout", "Resident KiB",
              "B/wt", "vs int16"});
    std::int64_t total_resident = 0, total_baseline = 0;
    for (const auto& [name, prim] : runner.primitives()) {
      const std::int64_t res = prim.resident_bytes(), base = prim.baseline_bytes();
      total_resident += res;
      total_baseline += base;
      const auto& w = prim.layer().weights;
      const double n_w = static_cast<double>(w.rows) * static_cast<double>(w.cols());
      kt.add_row({name, prim.op_name(), prim.isa_name(), prim.impl_name(), prim.acc_name(),
                  prim.layout_name(), Table::num(static_cast<double>(res) / 1024.0, 1),
                  res > 0 ? Table::num(static_cast<double>(res) / n_w, 2) : "-",
                  base > 0 ? Table::num(static_cast<double>(res) / static_cast<double>(base), 2) +
                                 "x"
                           : "-"});
    }
    kt.print(std::cout);
    if (total_baseline > 0) {
      std::cout << "\npacked panels resident: "
                << Table::num(static_cast<double>(total_resident) / 1024.0, 1) << " KiB ("
                << Table::num(
                       static_cast<double>(total_resident) / static_cast<double>(total_baseline),
                       2)
                << "x of the int16 panel layout)\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
