// Root side of the distributed runtime (DESIGN.md §10): accepts worker
// registrations and implements fed::RemoteDispatcher over their connections.
//
// The root owns ALL server state (model, accumulators, schedulers, device
// sampling); workers only ever hold per-round replicas. Each dispatch runs
// begin_dispatch under a comm::CaptureScope and writes the method's state
// once (RoundMethod::net_state); each group then flows as: kMsgGroup with
// that state to every owning worker (all sends complete before any receive,
// so workers compute concurrently) -> kMsgGroupResult per worker, read
// through RoundMethod::net_upload against the root's own broadcast
// references in global slot order. A worker that disconnects or exceeds
// net.timeout_s mid-round fails the round with a NetError naming the worker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "fed/runtime/remote.hpp"
#include "net/socket.hpp"

namespace fp::net {

/// Transport knobs of one distributed run (the spec's net.* keys).
struct NetConfig {
  std::string host = "127.0.0.1";
  int port = 7171;          ///< 0 = ephemeral (tests read port() back)
  std::size_t workers = 2;  ///< connections accept_workers waits for
  double timeout_s = 120.0; ///< root-side receive bound per frame (<=0 = none)
  double retry_s = 10.0;    ///< worker-side connect retry window
};

class RootServer final : public fed::RemoteDispatcher {
 public:
  /// Binds and listens immediately; workers may connect before
  /// accept_workers runs (the backlog holds them).
  explicit RootServer(const NetConfig& cfg);

  int port() const { return listener_.port(); }

  /// Handshakes cfg.workers connections: hello (version check) in, welcome
  /// {rank, worker count, resolved spec JSON} out. Throws NetError on a
  /// version mismatch or accept timeout.
  void accept_workers(const std::string& resolved_spec_json);

  /// Best-effort kMsgShutdown to every worker, then closes.
  void shutdown();

  std::size_t num_workers() const { return conns_.size(); }
  /// Real socket byte counters (sum over worker connections) — what the
  /// [net] summary reports next to the modeled bytes.
  std::int64_t tx_bytes() const;
  std::int64_t rx_bytes() const;

  // fed::RemoteDispatcher
  void begin_dispatch(fed::RoundMethod& m,
                      const std::vector<fed::TaskSpec>& tasks) override;
  double run_group(fed::RoundMethod& m,
                   const std::vector<fed::TaskSpec>& tasks, std::size_t begin,
                   std::size_t end, std::vector<fed::Upload>& uploads) override;
  std::vector<std::vector<std::uint8_t>> run_custom(
      std::uint32_t op, const std::vector<std::uint8_t>& ctx,
      const std::vector<std::size_t>& clients) override;

 private:
  /// recv_frame bounded by cfg.timeout_s; kMsgError becomes a NetError and
  /// any transport failure is rethrown naming the worker.
  Frame recv_checked(std::size_t rank, std::uint32_t expect_type);

  NetConfig cfg_;
  TcpListener listener_;
  std::vector<TcpConn> conns_;  ///< index = worker rank
  /// The latest dispatch's captured downlinks and its serialized state.
  std::vector<comm::WireMessage> dispatch_msgs_;
  std::vector<std::uint8_t> state_;
};

}  // namespace fp::net
