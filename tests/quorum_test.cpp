// Round rules of abd::QuorumClient over a scripted fake transport.
//
// The fake's replicas answer synchronously from send(), and each can be
// told to lose the first k copies of every request, so a test controls
// exactly which replicas see a retransmission.
#include <gtest/gtest.h>

#include <any>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "abd/quorum.hpp"
#include "net/network.hpp"

namespace asnap::abd {
namespace {

using namespace std::chrono_literals;

class FakeTransport {
 public:
  using Value = int;

  std::size_t size() const { return lost_copies_.size(); }

  void send(net::NodeId to, const Request<int>& request,
            std::chrono::steady_clock::time_point /*deadline*/) {
    if (request.type == kConfirm) return;  // fire-and-forget
    if (sends_[{request.rid, to}]++ < lost_copies_[to]) return;
    net::Message reply;
    reply.from = to;
    reply.type = request.type == kReadReq ? kReadReply : kWriteAck;
    reply.rid = request.rid;
    Reply<int> answer;
    if (request.type == kReadReq) answer.entries = request.entries;
    reply.payload = std::move(answer);
    if (duplicate_) inbox_.push(reply);
    inbox_.push(std::move(reply));
  }

  net::Mailbox& inbox() { return inbox_; }

  std::optional<Reply<int>> decode(net::Message& msg) const {
    const auto* reply = std::any_cast<Reply<int>>(&msg.payload);
    if (reply == nullptr) return std::nullopt;
    return *reply;
  }

  /// Replica `to` loses the first `copies` transmissions of each request.
  void lose(net::NodeId to, int copies) { lost_copies_[to] = copies; }
  /// Deliver every reply twice.
  void duplicate() { duplicate_ = true; }

 private:
  std::vector<int> lost_copies_ = std::vector<int>(3, 0);
  std::map<std::pair<std::uint64_t, net::NodeId>, int> sends_;
  bool duplicate_ = false;
  net::Mailbox inbox_{1};
};

AbdConfig fast_retransmit() {
  AbdConfig config;
  config.initial_rto = 1ms;
  config.max_rto = 4ms;
  config.op_deadline = 5s;
  return config;
}

// Karn's rule: a reply from a replica that was sent the request more than
// once may answer either copy, so it must not feed the RTT estimate. Replica
// 1 never answers and replica 0 answers only the retransmission, so the
// round's quorum is {2, 0} and replica 0's reply is ambiguous.
TEST(QuorumClient, ReplyAfterRetransmitIsNotAnRttSample) {
  QuorumClient<FakeTransport> client(/*self=*/0, fast_retransmit());
  client.transport().lose(0, 1);
  client.transport().lose(1, 1000);
  ASSERT_EQ(client.try_write(0, 1, 7), OpStatus::kOk);
  EXPECT_GE(client.stats().retransmits, 1u);
  EXPECT_GT(client.rtt_estimate(2).count(), 0);
  EXPECT_EQ(client.rtt_estimate(0).count(), 0)
      << "a reply to a retransmitted request was used as an RTT sample";
}

TEST(QuorumClient, RetransmittedReplicaKeepsItsEstimate) {
  QuorumClient<FakeTransport> client(/*self=*/0, fast_retransmit());
  client.transport().lose(1, 1000);  // the quorum is always {0, 2}
  ASSERT_EQ(client.try_write(0, 1, 7), OpStatus::kOk);  // clean samples
  const auto before = client.rtt_estimate(0);
  ASSERT_GT(before.count(), 0);
  client.transport().lose(0, 1);
  ASSERT_EQ(client.try_write(0, 2, 8), OpStatus::kOk);
  EXPECT_GE(client.stats().retransmits, 1u);
  EXPECT_EQ(client.rtt_estimate(0), before);
}

// Karn's algorithm, second half: when every reply of a round may answer a
// retransmission, the round measured nothing, and the next round must start
// from the backed-off timeout instead of the one that already proved too
// short (else a timeout below the RTT retransmits every round forever).
TEST(QuorumClient, UnmeasuredRoundPassesItsBackedOffTimeoutOn) {
  AbdConfig config;
  config.initial_rto = 5ms;
  config.max_rto = 40ms;
  config.op_deadline = 5s;
  QuorumClient<FakeTransport> client(/*self=*/0, config);
  for (net::NodeId r = 0; r < 3; ++r) client.transport().lose(r, 1);
  ASSERT_EQ(client.try_write(0, 1, 7), OpStatus::kOk);  // resent at 5 ms
  EXPECT_EQ(client.rtt_estimate(0).count(), 0);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(client.try_write(0, 2, 8), OpStatus::kOk);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 10ms)
      << "the second round restarted from the timeout that was too short";
}

// Dedup: a duplicated reply is counted once, so with two of three replicas
// silent the round times out instead of completing on one replica's echo.
TEST(QuorumClient, RepeatRepliesFromOneReplicaNeverFormAQuorum) {
  AbdConfig config = fast_retransmit();
  config.op_deadline = 50ms;
  QuorumClient<FakeTransport> client(/*self=*/0, config);
  client.transport().lose(1, 1000);
  client.transport().lose(2, 1000);
  client.transport().duplicate();
  EXPECT_EQ(client.try_write(0, 1, 7), OpStatus::kTimeout);
  EXPECT_GE(client.stats().dup_replies, 1u);
  EXPECT_EQ(client.stats().round_timeouts, 1u);
}

}  // namespace
}  // namespace asnap::abd
