// Negative lint fixture: the (void)-cast loophole bouquet-discarded-status
// closes. A plain discard of a Status/Result is already a build error in
// src/ ([[nodiscard]] plus -Werror=unused-result on the bouquet library);
// the cast is the silent escape, so an unjustified cast is a finding and a
// NOLINT-justified one is not.
// See fail_determinism.cc for the fixture conventions.

#include "common/status.h"

namespace bouquet_lint_fixture {

bouquet::Status MightFail();

void IgnoreSilently() {
  (void)MightFail();  // expect-lint: bouquet-discarded-status
}

void IgnoreWithReason() {
  // NOLINTNEXTLINE(bouquet-discarded-status): fixture demonstrates the escape
  (void)MightFail();
}

bouquet::Status Propagate() { return MightFail(); }

}  // namespace bouquet_lint_fixture
