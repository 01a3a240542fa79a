#include "trace/gantt.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/table.hpp"

namespace xkb::trace {

std::string gantt_ascii(const Trace& t, int num_devices, int width) {
  const double span = t.span();
  std::ostringstream out;
  if (span <= 0.0 || width <= 0) return "(empty trace)\n";

  // Priority per glyph when ops overlap within a bucket.
  auto glyph_rank = [](char c) {
    switch (c) {
      case 'K': return 4;
      case 'P': return 3;
      case 'H': return 2;
      case 'D': return 1;
      default: return 0;
    }
  };
  auto kind_glyph = [](OpKind k) {
    switch (k) {
      case OpKind::kHtoD: return 'H';
      case OpKind::kDtoH: return 'D';
      case OpKind::kPtoP: return 'P';
      case OpKind::kKernel: return 'K';
    }
    return '?';
  };

  std::vector<std::string> rows(num_devices, std::string(width, '.'));
  for (const Record& r : t.records()) {
    if (r.device < 0 || r.device >= num_devices) continue;
    int b0 = static_cast<int>(r.start / span * width);
    int b1 = static_cast<int>(r.end / span * width);
    b0 = std::clamp(b0, 0, width - 1);
    b1 = std::clamp(b1, b0, width - 1);
    const char g = kind_glyph(r.kind);
    for (int b = b0; b <= b1; ++b)
      if (glyph_rank(g) > glyph_rank(rows[r.device][b])) rows[r.device][b] = g;
  }

  out << "time ->  0 .. " << span * 1e3 << " ms   "
      << "(K kernel, H HtoD, D DtoH, P PtoP, . idle)\n";
  for (int d = 0; d < num_devices; ++d)
    out << "GPU " << d << " |" << rows[d] << "|\n";
  return out.str();
}

std::string per_gpu_table(const Trace& t, int num_devices) {
  xkb::Table tab({"GPU", "HtoD(s)", "DtoH(s)", "PtoP(s)", "Kernel(s)",
                  "Transfers(s)", "Busy(s)"});
  const std::vector<Breakdown> per_device = t.per_device_breakdown(num_devices);
  for (int d = 0; d < num_devices; ++d) {
    const Breakdown& b = per_device[static_cast<std::size_t>(d)];
    tab.add_row({std::to_string(d), xkb::Table::num(b.htod, 3),
                 xkb::Table::num(b.dtoh, 3), xkb::Table::num(b.ptop, 3),
                 xkb::Table::num(b.kernel, 3),
                 xkb::Table::num(b.transfers(), 3),
                 xkb::Table::num(b.total(), 3)});
  }
  return tab.to_text();
}

}  // namespace xkb::trace
