// Compile-fail probe (see tests/CMakeLists.txt): discarding a Status, or a
// StatusOr when ZERODB_DISCARD_STATUSOR is defined, must not compile. The
// class-level [[nodiscard]] in common/status.h is what rejects it.
#include "common/status.h"

namespace zerodb {

#ifdef ZERODB_DISCARD_STATUSOR
StatusOr<int> Produce() { return 1; }
#else
Status Produce() { return Status::OK(); }
#endif

void Discard() { Produce(); }

}  // namespace zerodb
