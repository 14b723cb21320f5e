// Known-bad fixture for the raw-thread rule: every way of spawning a thread
// outside src/common/thread_pool.* must be flagged. Work fans out through
// zerodb::ThreadPool so pool metrics, shutdown draining and the determinism
// contracts stay centralized. This file is never compiled; it exists so
// `scripts/zerodb_analyzer.py --self-test` proves the rule fires.

#include <future>
#include <thread>

namespace zerodb {

void SpawnJoined() {
  std::thread worker([] {});  // expect-lint: raw-thread
  worker.join();
}

void SpawnDetached() {
  std::thread worker([] {});  // expect-lint: raw-thread
  worker.detach();            // expect-lint: raw-thread
}

void SpawnJThread() {
  std::jthread worker([] {});  // expect-lint: raw-thread
}

void SpawnAsync() {
  auto result = std::async([] { return 1; });  // expect-lint: raw-thread
  result.get();
}

}  // namespace zerodb
