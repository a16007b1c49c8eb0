// One-round fast-read suite (experiment E16): the Oh-RAM!-style read path
// that skips the write-back round when the query quorum's stability
// evidence proves the adopted value is already stored at a majority.
//
// Three layers of teeth:
//   * positive: a confirmed (or unanimously stored) value reads in ONE
//     protocol round, and the round/message accounting says so;
//   * boundary: a deterministic partition schedule around a timed-out
//     write forces the disagreement fallback, and the fallback's
//     write-back is what makes the NEXT read safe;
//   * mutant: unsafe_always_fast_read (the unconditional skip) replays the
//     same schedule and the exact single-writer checker MUST reject the
//     resulting history — if this test fails, the checker lost its teeth.
//
// Batched collects get the same three layers: quiescent round-count pins
// (a Figure 2 scan is two rounds, an update three), a partial-stability
// boundary where only the unstable register of a batch is written back,
// and its mutant — the whole batch skipping write-back — which the checker
// must reject.
//
// Recovery resync must never manufacture stability evidence — a resynced
// replica knows the value, not that a majority does — and it costs one
// round however many registers the node holds.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "abd/abd_register.hpp"
#include "abd/abd_snapshot.hpp"
#include "lin/history.hpp"
#include "lin/snapshot_checker.hpp"

namespace asnap::abd {
namespace {

using namespace std::chrono_literals;
using lin::Tag;

AbdConfig fast_config() {
  AbdConfig config;
  config.initial_rto = 500us;
  config.max_rto = 4ms;
  // Short enough that the deliberately-partitioned writes below time out
  // quickly; healthy in-process rounds settle in microseconds.
  config.op_deadline = 100ms;
  return config;
}

// --- positive path -----------------------------------------------------------

TEST(FastRead, ConfirmedWriteReadsInOneRound) {
  AbdCluster<int> cluster(5, 1, 0, /*seed=*/1, fast_config());
  cluster.write(0, 0, 7);
  const std::uint64_t rounds_before = cluster.protocol_rounds();
  EXPECT_EQ(cluster.read(0, 1), 7);
  EXPECT_EQ(cluster.fast_reads(), 1u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u);
  EXPECT_EQ(cluster.protocol_rounds() - rounds_before, 1u)
      << "a fast read is exactly one (query) round";
}

TEST(FastRead, UnwrittenRegisterIsUnanimousAndFast) {
  // ts = 0 everywhere: the quorum itself proves the initial value is
  // majority-stored, even though ts = 0 is never confirmed.
  AbdCluster<int> cluster(3, 1, -1, /*seed=*/2, fast_config());
  EXPECT_EQ(cluster.read(0, 1), -1);
  EXPECT_EQ(cluster.fast_reads(), 1u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u);
}

TEST(FastRead, DisabledConfigAlwaysTakesTwoRounds) {
  AbdConfig config = fast_config();
  config.fast_reads = false;
  AbdCluster<int> cluster(5, 1, 0, /*seed=*/3, config);
  cluster.write(0, 0, 7);
  const std::uint64_t rounds_before = cluster.protocol_rounds();
  EXPECT_EQ(cluster.read(0, 1), 7);
  EXPECT_EQ(cluster.fast_reads(), 0u);
  EXPECT_EQ(cluster.fast_fallbacks(), 0u)
      << "with the feature off, reads are not even counted as fallbacks";
  EXPECT_EQ(cluster.protocol_rounds() - rounds_before, 2u)
      << "query + write-back";
}

TEST(FastRead, ConfirmBroadcastReachesEveryReplica) {
  AbdCluster<int> cluster(3, 1, 0, /*seed=*/4, fast_config());
  cluster.write(0, 0, 5);
  // The confirm is fire-and-forget; servers fold it in asynchronously.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (net::NodeId node = 0; node < 3; ++node) {
    while (cluster.replica_confirmed_ts(node, 0) < 1 &&
           std::chrono::steady_clock::now() < deadline) {
    }
    EXPECT_EQ(cluster.replica_confirmed_ts(node, 0), 1u)
        << "replica " << node << " never saw the confirm";
  }
}

// --- the fallback boundary, deterministically --------------------------------

/// The four-step schedule shared by the boundary test and the mutant test
/// (see tools/chaos_run.cpp run_broken_fastread for the prose version):
/// write A completes everywhere, write B times out reaching only replica 0,
/// reader at node 1 sees quorum {0,1} disagree on B, reader at node 2 sees
/// quorum {1,2}. With the real stability rule reader 1 falls back and its
/// write-back makes reader 2 return B; with the mutant both reads skip the
/// write-back and reader 2 returns the OLD A after reader 1 returned B.
struct ScheduleResult {
  std::optional<lin::CheckResult> violation;  // nullopt = setup failed
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  Tag read1{};
  Tag read2{};
};

ScheduleResult run_inversion_schedule(const AbdConfig& config) {
  AbdCluster<Tag> cluster(3, 1, Tag{}, /*seed=*/5, config);
  lin::Recorder recorder(1);
  ScheduleResult out;

  {  // write A = Tag{0,1}: completes, confirm broadcast follows.
    const lin::Time inv = recorder.tick();
    if (cluster.try_write(0, 0, Tag{0, 1}) != OpStatus::kOk) return out;
    const lin::Time res = recorder.tick();
    recorder.add_update(0, 0, Tag{0, 1}, inv, res);
  }

  // Write B = Tag{0,2}: the writer is cut off from 1 and 2, so B reaches
  // only replica 0 and the round times out — indeterminate, unconfirmed.
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  const lin::Time b_inv = recorder.tick();
  if (cluster.try_write(0, 0, Tag{0, 2}) == OpStatus::kOk) return out;

  // Reader at node 1, quorum {0,1}: sees {ts=2, ts=1} — disagreement.
  cluster.restore_link(0, 1);
  cluster.restore_link(0, 2);
  cluster.cut_link(1, 2);
  {
    const lin::Time inv = recorder.tick();
    const auto got = cluster.try_read(0, 1);
    const lin::Time res = recorder.tick();
    if (!got.has_value()) return out;
    out.read1 = *got;
    recorder.add_scan(1, {*got}, inv, res);
  }

  // Reader at node 2, quorum {1,2} (links to 0 cut).
  cluster.restore_link(1, 2);
  cluster.cut_link(0, 1);
  cluster.cut_link(0, 2);
  {
    const lin::Time inv = recorder.tick();
    const auto got = cluster.try_read(0, 2);
    const lin::Time res = recorder.tick();
    if (!got.has_value()) return out;
    out.read2 = *got;
    recorder.add_scan(2, {*got}, inv, res);
  }

  // B is indeterminate: possibly applied any time up to now.
  recorder.add_update(0, 0, Tag{0, 2}, b_inv, recorder.tick());

  out.fast_reads = cluster.fast_reads();
  out.fast_fallbacks = cluster.fast_fallbacks();
  out.violation = lin::check_single_writer(recorder.take());
  return out;
}

TEST(FastRead, ConcurrentStalledWriteForcesFallbackAndStaysLinearizable) {
  const ScheduleResult r = run_inversion_schedule(fast_config());
  ASSERT_TRUE(r.violation.has_value()) << "schedule setup failed";
  EXPECT_FALSE(r.violation->has_value()) << **r.violation;
  EXPECT_GE(r.fast_fallbacks, 1u)
      << "the disagreeing quorum must have taken the slow path";
  // Reader 1's fallback wrote B back to {0,1}; reader 2 therefore sees B
  // too — monotone, never a new/old inversion.
  EXPECT_EQ(r.read1, (Tag{0, 2}));
  EXPECT_EQ(r.read2, (Tag{0, 2}));
}

// THE MUTANT: skip the write-back unconditionally. The exact checker must
// reject the resulting history — this is the must-fail witness that the
// stability evidence is load-bearing, not decorative.
TEST(FastRead, UnconditionalSkipMutantIsRejectedByChecker) {
  AbdConfig config = fast_config();
  config.unsafe_always_fast_read = true;
  const ScheduleResult r = run_inversion_schedule(config);
  ASSERT_TRUE(r.violation.has_value()) << "schedule setup failed";
  // The mutant fast-returns both reads: B first, then the resurrected A.
  EXPECT_EQ(r.read1, (Tag{0, 2}));
  EXPECT_EQ(r.read2, (Tag{0, 1}));
  EXPECT_TRUE(r.violation->has_value())
      << "checker FAILED to reject the unconditional write-back skip — "
         "the fast-read safety net is gone";
  EXPECT_EQ(r.fast_reads, 2u);
  EXPECT_EQ(r.fast_fallbacks, 0u);
}

// --- batched collects ----------------------------------------------------------

// With no concurrent writers every register of a collect is unanimous or
// confirmed, so a Figure 2 scan (two collects) is two quorum rounds and an
// update (embedded scan + write) three — for any n, not 2n and 2n+1.
TEST(FastRead, QuiescentScanIsTwoRoundsAndUpdateThree) {
  constexpr std::size_t kN = 3;
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, /*seed=*/8, fast_config());
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto pid = static_cast<ProcessId>(k % kN);
    std::uint64_t rounds = snap.protocol_rounds();
    const std::uint64_t fallbacks = snap.fast_fallbacks();
    snap.scan(pid);
    EXPECT_EQ(snap.protocol_rounds() - rounds, 2u) << "scan " << k;
    EXPECT_EQ(snap.fast_fallbacks(), fallbacks) << "scan " << k;
    rounds = snap.protocol_rounds();
    snap.update(pid, Tag{pid, k});
    EXPECT_EQ(snap.protocol_rounds() - rounds, 3u) << "update " << k;
    EXPECT_EQ(snap.fast_fallbacks(), fallbacks) << "update " << k;
  }
}

/// Two registers, three nodes, one batched collect that sees register 0
/// stable and register 1 carrying a partial write:
///   1. reg 0 := A0 everywhere, then A1 on {0, 1} only (the writer is cut
///      from replica 2; the confirm reaches 0 and 1);
///   2. reg 1 := B reaches replica 1 only and times out (indeterminate);
///   3. node 2 collects through quorum {1, 2}: reg 0 is confirmed at A1,
///      reg 1 disagrees (B vs initial) with no confirmation;
///   4. node 0 collects through quorum {0, 2}.
/// With the real rule step 3 writes back reg 1 alone, so step 4 sees B.
/// With the mutant step 3 writes back nothing and step 4 returns the
/// initial value of reg 1 after step 3 returned B.
struct BatchScheduleResult {
  std::optional<lin::CheckResult> violation;  // nullopt = setup failed
  std::uint64_t collect_rounds = 0;           // rounds of step 3
  std::uint64_t fast_reads = 0;               // of step 3
  std::uint64_t fast_fallbacks = 0;           // of step 3
  std::uint64_t replica2_ts[2] = {0, 0};      // after step 3
  std::vector<Tag> view1;
  std::vector<Tag> view2;
};

BatchScheduleResult run_partial_stability_schedule(const AbdConfig& config) {
  const Tag a0{0, 1};
  const Tag a1{0, 2};
  const Tag b{1, 1};
  AbdCluster<Tag> cluster(3, 2, Tag{}, /*seed=*/10, config);
  lin::Recorder recorder(2);
  BatchScheduleResult out;

  auto write = [&](std::size_t reg, net::NodeId writer, Tag tag) {
    const lin::Time inv = recorder.tick();
    if (cluster.try_write(reg, writer, tag) != OpStatus::kOk) return false;
    recorder.add_update(writer, reg, tag, inv, recorder.tick());
    return true;
  };
  auto collect = [&](net::NodeId reader, std::vector<Tag>& view) {
    const lin::Time inv = recorder.tick();
    if (!cluster.try_collect(reader, view)) return false;
    recorder.add_scan(reader, view, inv, recorder.tick());
    return true;
  };

  if (!write(0, 0, a0)) return out;
  cluster.cut_link(0, 2);
  if (!write(0, 0, a1)) return out;
  cluster.restore_link(0, 2);

  cluster.cut_link(1, 0);
  cluster.cut_link(1, 2);
  const lin::Time b_inv = recorder.tick();
  if (cluster.try_write(1, 1, b) == OpStatus::kOk) return out;

  cluster.restore_link(1, 0);
  cluster.restore_link(1, 2);
  cluster.cut_link(0, 2);
  const std::uint64_t rounds = cluster.protocol_rounds();
  const std::uint64_t fast = cluster.fast_reads();
  const std::uint64_t fallbacks = cluster.fast_fallbacks();
  if (!collect(2, out.view1)) return out;
  out.collect_rounds = cluster.protocol_rounds() - rounds;
  out.fast_reads = cluster.fast_reads() - fast;
  out.fast_fallbacks = cluster.fast_fallbacks() - fallbacks;
  out.replica2_ts[0] = cluster.replica_ts(2, 0);
  out.replica2_ts[1] = cluster.replica_ts(2, 1);

  cluster.restore_link(0, 2);
  cluster.cut_link(1, 0);
  cluster.cut_link(1, 2);
  if (!collect(0, out.view2)) return out;

  // B is indeterminate: possibly applied any time up to now.
  recorder.add_update(1, 1, b, b_inv, recorder.tick());
  out.violation = lin::check_single_writer(recorder.take());
  return out;
}

TEST(FastRead, BatchWritesBackOnlyTheUnstableRegister) {
  const BatchScheduleResult r = run_partial_stability_schedule(fast_config());
  ASSERT_TRUE(r.violation.has_value()) << "schedule setup failed";
  EXPECT_FALSE(r.violation->has_value()) << **r.violation;
  EXPECT_EQ(r.fast_reads, 1u) << "register 0 is confirmed: no write-back";
  EXPECT_EQ(r.fast_fallbacks, 1u) << "register 1 disagrees: write-back";
  EXPECT_EQ(r.collect_rounds, 2u) << "one query round + one write-back round";
  EXPECT_EQ(r.replica2_ts[0], 1u)
      << "the stable register was written back to replica 2";
  EXPECT_EQ(r.replica2_ts[1], 1u)
      << "the unstable register was not written back to replica 2";
  EXPECT_EQ(r.view1, (std::vector<Tag>{Tag{0, 2}, Tag{1, 1}}));
  EXPECT_EQ(r.view2, (std::vector<Tag>{Tag{0, 2}, Tag{1, 1}}));
}

// THE BATCH MUTANT: unsafe_always_fast_read on a batched collect skips the
// write-back for the whole batch although only one triple is stable. The
// exact checker must reject the new/old inversion that follows.
TEST(FastRead, WholeBatchSkipMutantIsRejectedByChecker) {
  AbdConfig config = fast_config();
  config.unsafe_always_fast_read = true;
  const BatchScheduleResult r = run_partial_stability_schedule(config);
  ASSERT_TRUE(r.violation.has_value()) << "schedule setup failed";
  EXPECT_EQ(r.fast_reads, 2u);
  EXPECT_EQ(r.collect_rounds, 1u) << "the mutant writes nothing back";
  EXPECT_EQ(r.replica2_ts[1], 0u);
  EXPECT_EQ(r.view1, (std::vector<Tag>{Tag{0, 2}, Tag{1, 1}}));
  EXPECT_EQ(r.view2, (std::vector<Tag>{Tag{0, 2}, Tag{}}));
  EXPECT_TRUE(r.violation->has_value())
      << "checker FAILED to reject the whole-batch write-back skip";
}

TEST(FastRead, RecoveryResyncIsOneRoundForAllRegisters) {
  constexpr std::size_t kRegs = 4;
  AbdCluster<int> cluster(3, kRegs, 0, /*seed=*/9, fast_config());
  cluster.crash(2);
  for (std::size_t reg = 0; reg < kRegs; ++reg) {
    cluster.write(reg, 0, static_cast<int>(10 + reg));
  }
  const std::uint64_t rounds = cluster.protocol_rounds();
  ASSERT_TRUE(cluster.recover(2));
  EXPECT_EQ(cluster.protocol_rounds() - rounds, 1u)
      << "resync of " << kRegs << " registers is one batched query round";
  for (std::size_t reg = 0; reg < kRegs; ++reg) {
    EXPECT_EQ(cluster.replica_ts(2, reg), 1u) << "register " << reg;
  }
}

// --- recovery resync must not manufacture evidence (satellite 3) -------------

TEST(FastRead, ResyncedReplicaIsNotConfirmed) {
  AbdCluster<int> cluster(3, 1, 0, /*seed=*/6, fast_config());
  cluster.write(0, 0, 1);  // ts=1, confirmed (eventually) everywhere
  cluster.crash(2);
  cluster.write(0, 0, 2);  // ts=2 completes on {0,1}; node 2 misses it

  ASSERT_TRUE(cluster.recover(2));
  // Resync installed the value it missed...
  EXPECT_EQ(cluster.replica_ts(2, 0), 2u);
  // ...but resync reads pass no stability evidence and apply_write never
  // touches confirmed_ts: knowing the value is NOT knowing a majority
  // stores it, so the recovered replica must not claim ts=2 confirmed.
  EXPECT_LT(cluster.replica_confirmed_ts(2, 0), 2u)
      << "resync manufactured stability evidence";

  // A read that write-backs (or a fresh confirmed write) is what upgrades
  // it: after a slow-path-capable read from node 2's quorum, values flow
  // normally and stay correct.
  EXPECT_EQ(cluster.try_read(0, 2), std::optional<int>(2));
}

// --- fast path composes with the snapshot (E16 sanity) -----------------------

TEST(FastRead, SnapshotHistoriesStayLinearizableWithFastReadsOn) {
  constexpr std::size_t kN = 3;
  AbdConfig config = fast_config();
  config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(30));
  MessagePassingSnapshot<Tag> snap(kN, Tag{}, /*seed=*/7, config);
  lin::Recorder recorder(kN);
  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < kN; ++p) {
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        std::uint64_t seq = 0;
        for (int op = 0; op < 12; ++op) {
          if (op % 3 == 0) {
            const lin::Time inv = recorder.tick();
            snap.update(pid, Tag{pid, ++seq});
            const lin::Time res = recorder.tick();
            recorder.add_update(pid, pid, Tag{pid, seq}, inv, res);
          } else {
            const lin::Time inv = recorder.tick();
            std::vector<Tag> view = snap.scan(pid);
            const lin::Time res = recorder.tick();
            recorder.add_scan(pid, std::move(view), inv, res);
          }
        }
      });
    }
  }
  const auto violation = lin::check_single_writer(recorder.take());
  ASSERT_FALSE(violation.has_value()) << *violation;
  EXPECT_GT(snap.fast_reads(), 0u)
      << "a read-heavy snapshot workload must hit the fast path";
}

}  // namespace
}  // namespace asnap::abd
