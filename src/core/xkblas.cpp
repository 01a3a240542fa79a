#include "core/xkblas.hpp"

namespace xkblas {

namespace {
std::unique_ptr<xkb::rt::Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kOwnerComputes:
      return std::make_unique<xkb::rt::OwnerComputesScheduler>();
    case SchedulerKind::kDmdas:
      return std::make_unique<xkb::rt::DmdasScheduler>();
    case SchedulerKind::kRoundRobin:
      return std::make_unique<xkb::rt::RoundRobinScheduler>();
  }
  return nullptr;
}
}  // namespace

Context::Context(Options opt) : opt_(std::move(opt)) {
  plat_ = std::make_unique<xkb::rt::Platform>(opt_.topology, opt_.perf,
                                              opt_.platform);
  rt_ = std::make_unique<xkb::rt::Runtime>(
      *plat_, make_scheduler(opt_.scheduler), opt_.runtime);

  emit_.tile = opt_.tile;
  // Owner-computes default mapping: the paper's (P, Q) block-cyclic grid.
  emit_.home =
      xkb::blas::block_cyclic(xkb::blas::default_grid(plat_->num_gpus()));
}

Context::~Context() = default;

double Context::sync() { return rt_->run(); }

double Context::now() const { return plat_->engine().now(); }

}  // namespace xkblas
