// Source annotations consumed by the xkb-tidy static-analysis suite
// (tools/lint/xkb_lint): machine-checkable markers for the two discipline
// regimes the simulator's determinism story depends on.
//
//  * XKB_HOT marks a function on the engine's event hot path (schedule /
//    dispatch / queue maintenance / cache touch-evict).  Inside an XKB_HOT
//    body the `xkb-hot-path-alloc` check forbids heap allocation (non-
//    placement `new`, the malloc family, `std::make_unique`/`make_shared`)
//    and `std::function` construction -- the hot loop's zero-allocation
//    contract, previously enforced only by the perf trajectory.
//
//  * XKB_SILENT marks a function that runs on the engine's *silent* event
//    lane (fault-plan triggers, watchdog ticks).  Inside an XKB_SILENT body
//    the `xkb-silent-lane` check forbids direct calls to observable-state
//    mutators (observable-lane scheduling, trace records, metrics, the
//    engine observer): a silent callback that touched any of them would
//    break the bit-invisible no-op-fault guarantee (DESIGN.md section 8).
//
// Both markers expand to nothing: the lint driver (tools/lint/xkb_lint.cpp)
// keys on the literal macro token and scans the function body that follows
// it, so annotate *definitions*, not declarations.
//
// Suppression convention: a finding that is intentional carries
// `// NOLINT(<check>): <one-line justification>` on its line (or
// NOLINTNEXTLINE above it).  A bare NOLINT with no justification text is
// itself a lint error.
#pragma once

#define XKB_HOT
#define XKB_SILENT

/// Compile-time guard that a hot-path callback's captures stay inside
/// sim::SmallFn's inline buffer (no heap fallback when it is scheduled).
/// Use at the site where the lambda is built, before handing it to the
/// engine; requires sim/small_fn.hpp to be included by the user.
#define XKB_ASSERT_INLINE_CAPTURE(cb)                              \
  static_assert(::xkb::sim::SmallFn::fits_inline<decltype(cb)>(),  \
                #cb                                                \
                " must fit SmallFn's inline buffer: growing it would put " \
                "a malloc/free pair on the engine hot path")
