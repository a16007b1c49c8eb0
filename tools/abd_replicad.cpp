// abd_replicad — one ABD register replica as a real OS process.
//
// The daemon is the socket-cluster counterpart of a single AbdCluster
// replica thread: it keeps a timestamped copy of every register, answers
// READ with its (ts, value, epoch) and applies WRITE iff the timestamp is
// newer — always acking, so client retransmissions and duplicate delivery
// are harmless (idempotence). A v3 batch frame (wire.hpp) does the same for
// each of its entries: a batched READ answers every register under one
// store lock, a batched WRITE is logged with one WAL append and one fsync
// before its single ack. Each request is answered in its own wire version
// and shape, so v1/v2 clients keep working against a v3 daemon. Two things
// the in-process replica never needed, because its "crashes" were
// simulated:
//
//   * DURABILITY: every accepted write and every incarnation bump is
//     appended + fsync()ed to a write-ahead log BEFORE the ack leaves the
//     process (abd/wal.hpp). A kill -9 can therefore lose only unacked
//     work; the torn tail of the log is truncated on replay.
//   * INCARNATIONS: on every start the daemon replays its WAL, durably
//     bumps its epoch, and stamps all replies with it, so clients discard
//     replies produced by a pre-crash incarnation.
//
// Recovery order matters and is deliberate: the daemon serves immediately
// after replaying its WAL — a replica restored from its log is merely
// stale, which ABD tolerates by construction (read quorums intersect the
// majority that acked any write) — and then a background resync thread
// quorum-queries registers 0..regs-1 (one batched round) through the
// normal client machinery and adopts anything newer, restoring full
// f-tolerance. Serving first avoids the bootstrap deadlock where all
// replicas of a cold cluster wait on each other's majority.
//
// Usage:
//   abd_replicad --id I --peers host:port,... --state-dir DIR [--regs N]
// `--peers` lists ALL replica endpoints in id order; the daemon listens on
// entry I. State lives in DIR/replica-I/ (derived from --id, so replicas of
// one cluster may share a --state-dir without sharing a WAL). Prints
// "READY port=<p> epoch=<e>" on stdout once accepting. Every write is
// fsync()ed and every start resyncs; an unknown argument exits 2.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abd/remote_client.hpp"
#include "abd/wal.hpp"
#include "bench_util.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

struct Args {
  std::size_t id = 0;
  std::vector<net::Endpoint> peers;
  std::string state_dir;
  std::uint64_t regs = 16;
};

/// Replica state shared by connection handlers and the resync thread.
/// One mutex covers memory + WAL so compaction can't race appends.
struct Store {
  std::mutex mu;
  abd::WalState state;
  std::unique_ptr<abd::ReplicaWal> wal;
  std::uint64_t epoch = 0;
  /// Highest majority-acked ts per register (wire kConfirm). In-memory
  /// ONLY, deliberately not in the WAL: resetting to "nothing confirmed" on
  /// restart is conservative — it costs fast-read hits, never safety — and
  /// crucially a restarted daemon must not resurrect confirmation for state
  /// it restored from its log or background resync (a resynced value was
  /// adopted from a quorum READ, which proves nothing about majority
  /// stability of THIS replica's ts).
  std::unordered_map<std::uint64_t, std::uint64_t> confirmed;
  static constexpr std::uint64_t kCompactBytes = 8ull << 20;

  /// Apply WRITE(reg, ts, value) for every entry: the entries that advance
  /// their register are logged with one WAL append (one fsync), then
  /// installed. Returns false only on an I/O failure (the caller must NOT
  /// ack then — an acked write has to be on disk).
  bool apply_writes(std::vector<net::wire::Entry> writes) {
    std::lock_guard<std::mutex> lock(mu);
    std::erase_if(writes, [&](const net::wire::Entry& e) {
      auto it = state.regs.find(e.reg);
      return it != state.regs.end() && e.ts <= it->second.first;
    });
    if (writes.empty()) return true;
    if (!wal->append_writes(writes)) return false;
    for (net::wire::Entry& e : writes) {
      auto [it, fresh] = state.regs.try_emplace(e.reg, e.ts, e.value);
      if (!fresh && e.ts > it->second.first) {
        it->second = {e.ts, std::move(e.value)};
      }
    }
    if (wal->bytes() > kCompactBytes) wal->compact(state);
    return true;
  }

  /// READ of every entry's register: fills (ts, value, kFlagTsConfirmed);
  /// (0, empty) when never written.
  void read(std::vector<net::wire::Entry>& entries) {
    std::lock_guard<std::mutex> lock(mu);
    for (net::wire::Entry& e : entries) {
      auto it = state.regs.find(e.reg);
      const bool known = it != state.regs.end();
      e.ts = known ? it->second.first : 0;
      e.value = known ? it->second.second : net::wire::Bytes{};
      auto c = confirmed.find(e.reg);
      e.flags = e.ts > 0 && c != confirmed.end() && c->second >= e.ts
                    ? net::wire::kFlagTsConfirmed
                    : 0;
    }
  }

  /// CONFIRM(reg, ts) for every entry: ts is majority-acked; fold the
  /// maximum.
  void apply_confirms(const std::vector<net::wire::Entry>& entries) {
    std::lock_guard<std::mutex> lock(mu);
    for (const net::wire::Entry& e : entries) {
      auto& slot = confirmed[e.reg];
      if (e.ts > slot) slot = e.ts;
    }
  }
};

/// A request's registers: a batch frame's entries, or the one (reg, ts,
/// value) of a v1/v2 frame.
std::vector<net::wire::Entry> request_entries(net::wire::Frame& req) {
  if (net::wire::is_batch(req)) return std::move(req.entries);
  std::vector<net::wire::Entry> one(1);
  one[0] = net::wire::Entry{req.reg, req.ts, 0, std::move(req.value)};
  return one;
}

void serve_connection(std::size_t id, Store& store, net::Socket conn) {
  net::wire::Frame req;
  while (!g_stop.load(std::memory_order_acquire)) {
    const auto status = net::recv_frame(
        conn, std::chrono::steady_clock::now() + 250ms, &req);
    if (status == net::RecvStatus::kTimeout) continue;  // idle, re-check stop
    if (status != net::RecvStatus::kOk) return;  // EOF / error / bad frame
    net::wire::Frame reply;
    reply.version = req.version;  // answer in the request's version...
    reply.from = id;
    reply.rid = req.rid;
    reply.epoch = store.epoch;
    reply.reg = req.reg;
    const bool batch = net::wire::is_batch(req);
    if (batch) reply.flags = net::wire::kFlagBatch;  // ...and shape
    switch (req.type) {
      case net::wire::kReadReq: {
        std::vector<net::wire::Entry> entries = request_entries(req);
        store.read(entries);
        reply.type = net::wire::kReadReply;
        if (batch) {
          reply.entries = std::move(entries);
        } else {
          reply.ts = entries[0].ts;
          reply.flags = entries[0].flags;
          reply.value = std::move(entries[0].value);
        }
        break;
      }
      case net::wire::kWriteReq: {
        const std::uint64_t ts = req.ts;
        if (!store.apply_writes(request_entries(req))) {
          // Classified so an operator can tell a full volume (free space,
          // daemon recovers) from a dying device; NEITHER is acked.
          std::fprintf(stderr, "replica %zu: WAL append failed (%s), dropping\n",
                       id, abd::wal_error_name(store.wal->last_error()));
          return;  // cannot ack what we couldn't persist
        }
        reply.type = net::wire::kWriteAck;
        reply.ts = ts;
        break;
      }
      case net::wire::kPing:
        reply.type = net::wire::kPong;
        break;
      case net::wire::kConfirm:
        store.apply_confirms(request_entries(req));
        continue;  // fire-and-forget: no reply frame
      default:
        continue;  // unknown type: ignore (forward compatibility)
    }
    if (!net::send_frame(conn, reply)) return;
  }
}

/// Background resync: one query-only batched round over every register
/// through the engine (including this daemon's own listener — the self
/// reply counts toward the majority, as in AbdCluster::recover), adopting
/// anything newer. Restores full f-tolerance after a restart; correctness
/// never depended on it (see file header). The query does NO write-back,
/// and the result is installed through apply_writes, which deliberately
/// does not touch Store::confirmed: a resync read skipping write-back has
/// not stabilized anything, so the restarted replica must keep answering
/// reads without kFlagTsConfirmed until a live writer/reader confirms
/// again. More than kMaxBatchEntries registers take one round per chunk.
void resync(std::size_t id, const Args& args, Store& store) {
  abd::AbdConfig config;
  config.initial_rto = std::chrono::microseconds(500);
  config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::seconds(2));
  abd::RemoteRegisterClient client(args.peers, /*client_id=*/1000 + id,
                                   config);
  std::size_t synced = 0;
  for (std::uint64_t first = 0; first < args.regs;
       first += net::wire::kMaxBatchEntries) {
    std::vector<std::uint64_t> regs;
    const std::uint64_t end =
        std::min<std::uint64_t>(args.regs, first + net::wire::kMaxBatchEntries);
    for (std::uint64_t reg = first; reg < end; ++reg) regs.push_back(reg);
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (g_stop.load(std::memory_order_acquire)) return;
      const auto got = client.try_query(regs, client.majority());
      if (!got.has_value()) {
        std::this_thread::sleep_for(100ms);
        continue;
      }
      std::vector<net::wire::Entry> newer;
      for (std::size_t i = 0; i < regs.size(); ++i) {
        const auto& [ts, value] = (*got)[i];
        if (ts > 0) newer.push_back(net::wire::Entry{regs[i], ts, 0, value});
      }
      store.apply_writes(std::move(newer));
      synced += regs.size();
      break;
    }
  }
  std::printf("RESYNC done regs=%zu/%llu\n", synced,
              static_cast<unsigned long long>(args.regs));
  std::fflush(stdout);
}

int run(const Args& args) {
  Store store;
  std::string error;
  // Per-id subdirectory: replicas sharing one --state-dir must never share
  // a WAL (merged state would fake quorum durability).
  const std::string dir =
      args.state_dir + "/replica-" + std::to_string(args.id);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "abd_replicad: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  store.wal =
      abd::ReplicaWal::open(dir + "/wal.log", &store.state, /*fsync=*/true,
                            &error);
  if (store.wal == nullptr) {
    std::fprintf(stderr, "abd_replicad: %s\n", error.c_str());
    return 1;
  }
  // New incarnation, made durable BEFORE any reply can carry it.
  store.epoch = store.state.epoch + 1;
  store.state.epoch = store.epoch;
  if (!store.wal->append_epoch(store.epoch)) {
    std::fprintf(stderr, "abd_replicad: cannot persist epoch\n");
    return 1;
  }
  // Bound log growth across crash/restart cycles.
  store.wal->compact(store.state);

  net::Listener listener = net::Listener::open(args.peers[args.id], &error);
  if (!listener.valid()) {
    std::fprintf(stderr, "abd_replicad: %s\n", error.c_str());
    return 1;
  }
  std::printf("READY port=%u epoch=%llu\n",
              static_cast<unsigned>(listener.bound_port()),
              static_cast<unsigned long long>(store.epoch));
  std::fflush(stdout);

  std::vector<std::thread> handlers;
  std::thread resyncer([&] { resync(args.id, args, store); });
  while (!g_stop.load(std::memory_order_acquire)) {
    auto conn = listener.accept(250ms);
    if (!conn.has_value()) continue;
    handlers.emplace_back([&store, id = args.id,
                           sock = std::move(*conn)]() mutable {
      serve_connection(id, store, std::move(sock));
    });
  }
  listener.close();
  for (auto& t : handlers) t.join();
  resyncer.join();
  return 0;
}

}  // namespace
}  // namespace asnap

int main(int argc, char** argv) {
  using asnap::bench::consume_flag;
  asnap::Args args;
  const std::string id = consume_flag(argc, argv, "--id");
  const std::string peers = consume_flag(argc, argv, "--peers");
  args.state_dir = consume_flag(argc, argv, "--state-dir");
  args.regs = std::strtoull(
      consume_flag(argc, argv, "--regs", "16").c_str(), nullptr, 10);
  if (argc > 1 || id.empty() || peers.empty() || args.state_dir.empty()) {
    if (argc > 1) {
      std::fprintf(stderr, "abd_replicad: unknown argument '%s'\n", argv[1]);
    }
    std::fprintf(stderr,
                 "usage: abd_replicad --id I --peers host:port,... "
                 "--state-dir DIR [--regs N]\n");
    return 2;
  }
  args.id = std::strtoull(id.c_str(), nullptr, 10);
  const auto parsed = asnap::net::parse_endpoints(peers);
  if (!parsed.has_value() || args.id >= parsed->size()) {
    std::fprintf(stderr, "abd_replicad: bad --peers/--id\n");
    return 2;
  }
  args.peers = *parsed;

  signal(SIGTERM, asnap::on_signal);
  signal(SIGINT, asnap::on_signal);
  signal(SIGPIPE, SIG_IGN);
  return asnap::run(args);
}
