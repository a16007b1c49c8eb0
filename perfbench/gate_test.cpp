// The benchmark's correctness gate must fail a backend that returns stale
// views and pass the same workload through an unchanged backend.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Forwards every call unchanged: the control for StaleView in the gate test.
template <typename Inner>
class PassThrough {
 public:
  explicit PassThrough(std::unique_ptr<Inner> inner)
      : inner_(std::move(inner)) {}
  std::size_t size() const { return inner_->size(); }
  template <typename T>
  void update(ProcessId i, T v) {
    inner_->update(i, std::move(v));
  }
  auto scan(ProcessId i) { return inner_->scan(i); }
  const Inner& inner() const { return *inner_; }

 private:
  std::unique_ptr<Inner> inner_;
};

/// A deliberately broken backend: every scan returns the view the previous
/// scan produced (any process's), so scans miss completed updates. The
/// benchmark's correctness gate must report runs over it as failed.
template <typename Inner>
class StaleView {
 public:
  explicit StaleView(std::unique_ptr<Inner> inner) : inner_(std::move(inner)) {}
  std::size_t size() const { return inner_->size(); }
  template <typename T>
  void update(ProcessId i, T v) {
    inner_->update(i, std::move(v));
  }
  auto scan(ProcessId i) {
    auto fresh = inner_->scan(i);
    std::lock_guard lk(mu_);
    if (!last_) {
      last_ = fresh;
      return fresh;
    }
    auto out = std::move(*last_);
    last_ = std::move(fresh);
    return out;
  }
  const Inner& inner() const { return *inner_; }

 private:
  std::unique_ptr<Inner> inner_;
  std::mutex mu_;
  std::optional<decltype(std::declval<Inner&>().scan(ProcessId{}))> last_;
};

template <template <class> class Wrap>
PassResult checked_run(const char* workload, std::uint64_t seed) {
  const Workload& w = *find_workload(workload);
  return dispatch<false, Wrap>(
      w, seed, [&]<typename Stack>(StackTag<Stack>, auto make) {
        return checked_pass<Stack>(w, seed, /*max_seconds=*/1.0, make);
      });
}

class GateTest : public ::testing::TestWithParam<const char*> {};

// Which check trips depends on the interleaving: the exact checker needs an
// update to complete between the stale view's scan and the scan serving it,
// while a client that sees its views go backwards trips the view check.
TEST_P(GateTest, StaleViewIsReportedFailed) {
  const PassResult r = checked_run<StaleView>(GetParam(), 1);
  EXPECT_GT(r.checked_ops, 0u);
  EXPECT_TRUE(r.lin_violation.has_value() || r.total.view_errors > 0);
  EXPECT_FALSE(r.correct());
}

TEST_P(GateTest, PassThroughPasses) {
  const PassResult r = checked_run<PassThrough>(GetParam(), 1);
  EXPECT_GT(r.checked_ops, 0u);
  EXPECT_FALSE(r.lin_violation.has_value()) << *r.lin_violation;
  EXPECT_EQ(r.total.view_errors, 0u);
  EXPECT_TRUE(r.double_collect_bound_ok());
  EXPECT_TRUE(r.correct());
}

INSTANTIATE_TEST_SUITE_P(Workloads, GateTest,
                         ::testing::Values("svc-readmostly",
                                           "shard-writeheavy", "abd-sim"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
