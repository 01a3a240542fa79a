#include "XkbTidyChecks.h"

#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::xkb {

namespace {

AST_MATCHER_P(FunctionDecl, hasXkbAnnotation, std::string, Value) {
  for (const FunctionDecl* Redecl : Node.redecls())
    for (const auto* A : Redecl->specific_attrs<AnnotateAttr>())
      if (A->getAnnotation() == Value) return true;
  return false;
}

const char kSilent[] = "xkb::silent";

}  // namespace

void SilentLaneCheck::registerMatchers(MatchFinder* Finder) {
  const auto InSilentFunction =
      forFunction(functionDecl(hasXkbAnnotation(kSilent)));
  // Observable-lane scheduling: events pushed by a silent callback onto
  // the observable lane would perturb the event-stream hash even when the
  // fault is a no-op.
  Finder->addMatcher(
      cxxMemberCallExpr(InSilentFunction,
                        callee(cxxMethodDecl(
                            hasAnyName("schedule_at", "schedule_after"),
                            ofClass(hasName("::xkb::sim::Engine")))))
          .bind("observable-schedule"),
      this);
  // Observer mutation on the engine.
  Finder->addMatcher(
      cxxMemberCallExpr(InSilentFunction,
                        callee(cxxMethodDecl(
                            hasName("set_observer"),
                            ofClass(hasName("::xkb::sim::Engine")))))
          .bind("observer"),
      this);
  // Metrics emitters and trace records: anything the observer/report
  // pipeline folds into run output.
  Finder->addMatcher(
      cxxMemberCallExpr(
          InSilentFunction,
          callee(cxxMethodDecl(
              hasAnyName("inc", "set_gauge", "count_fault", "series"),
              ofClass(hasName("::xkb::obs::Metrics")))))
          .bind("metrics"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(InSilentFunction,
                        callee(cxxMethodDecl(
                            hasName("add"),
                            ofClass(hasName("::xkb::trace::Trace")))))
          .bind("trace"),
      this);
  // rt::Platform's instrumentation stream: each call reports a fact to the
  // op trace, obs and the checker.
  Finder->addMatcher(
      cxxMemberCallExpr(
          InSilentFunction,
          callee(cxxMethodDecl(
              hasAnyName("transfer", "launch_kernel", "report_source",
                         "report_cache_ref", "report_evict", "report_abort",
                         "report_fault", "report_retry",
                         "report_waiter_replan", "report_oom_deferral",
                         "report_arrival", "report_written",
                         "report_host_write", "report_flush_done",
                         "report_replica_lost", "report_promote",
                         "report_replay", "report_remap"),
              ofClass(hasName("::xkb::rt::Platform")))))
          .bind("report"),
      this);
}

void SilentLaneCheck::check(const MatchFinder::MatchResult& Result) {
  struct Row {
    const char* Tag;
    const char* What;
  };
  static const Row kRows[] = {
      {"observable-schedule", "observable-lane scheduling"},
      {"observer", "engine-observer mutation"},
      {"metrics", "metrics mutation"},
      {"trace", "trace record emission"},
      {"report", "instrumentation report"},
  };
  for (const Row& R : kRows) {
    if (const auto* Call = Result.Nodes.getNodeAs<CXXMemberCallExpr>(R.Tag)) {
      diag(Call->getExprLoc(),
           "%0 in an XKB_SILENT function: silent-lane callbacks must be "
           "bit-invisible when the fault is a no-op; use schedule_silent_* "
           "and mutate observable state only through hooks bound at the "
           "platform/runtime layer")
          << R.What;
      return;
    }
  }
}

}  // namespace clang::tidy::xkb
