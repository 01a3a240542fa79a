#include "trace/trace.hpp"

#include <algorithm>

namespace xkb::trace {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kHtoD: return "memcpy HtoD";
    case OpKind::kDtoH: return "memcpy DtoH";
    case OpKind::kPtoP: return "memcpy PtoP";
    case OpKind::kKernel: return "GPU Kernel";
  }
  return "?";
}

bool parse_kind(const std::string& s, OpKind& out) {
  for (OpKind k : {OpKind::kHtoD, OpKind::kDtoH, OpKind::kPtoP,
                   OpKind::kKernel}) {
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

void Trace::add(Record r) {
  max_device_ = std::max(max_device_, r.device);
  records_.push_back(std::move(r));
}

void Trace::clear() {
  records_.clear();
  max_device_ = -1;
}

namespace {

void add_duration(Breakdown& b, const Record& r) {
  const double d = r.end - r.start;
  switch (r.kind) {
    case OpKind::kHtoD: b.htod += d; break;
    case OpKind::kDtoH: b.dtoh += d; break;
    case OpKind::kPtoP: b.ptop += d; break;
    case OpKind::kKernel: b.kernel += d; break;
  }
}

}  // namespace

Breakdown Trace::breakdown(int device) const {
  Breakdown b;
  for (const Record& r : records_)
    if (device < 0 || r.device == device) add_duration(b, r);
  return b;
}

std::vector<Breakdown> Trace::per_device_breakdown(int num_devices) const {
  std::vector<Breakdown> out(
      static_cast<std::size_t>(std::max(num_devices, 0)));
  for (const Record& r : records_)
    if (r.device >= 0 && r.device < num_devices)
      add_duration(out[static_cast<std::size_t>(r.device)], r);
  return out;
}

sim::Time Trace::span() const {
  sim::Time t = 0.0;
  for (const Record& r : records_) t = std::max(t, r.end);
  return t;
}

sim::Time Trace::t0() const {
  if (records_.empty()) return 0.0;
  sim::Time t = records_.front().start;
  for (const Record& r : records_) t = std::min(t, r.start);
  return t;
}

std::size_t Trace::bytes(OpKind kind) const {
  std::size_t total = 0;
  for (const Record& r : records_)
    if (r.kind == kind) total += r.bytes;
  return total;
}

}  // namespace xkb::trace
