#include "net/root.hpp"

#include <algorithm>

#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace fp::net {

RootServer::RootServer(const NetConfig& cfg)
    : cfg_(cfg), listener_(cfg.host, cfg.port) {}

void RootServer::accept_workers(const std::string& resolved_spec_json) {
  conns_.clear();
  conns_.reserve(cfg_.workers);
  for (std::size_t rank = 0; rank < cfg_.workers; ++rank) {
    TcpConn conn = listener_.accept(cfg_.timeout_s);
    const Frame hello = conn.recv_frame(cfg_.timeout_s);
    if (hello.type != kMsgHello)
      throw NetError("worker " + std::to_string(rank) + " (" + conn.peer() +
                     "): expected hello, got frame type " +
                     std::to_string(hello.type));
    comm::FrameReader in(hello.body);
    const std::uint32_t version = in.u32();
    if (version != kProtocolVersion)
      throw NetError("worker " + std::to_string(rank) + " (" + conn.peer() +
                     "): protocol version " + std::to_string(version) +
                     " != " + std::to_string(kProtocolVersion));
    comm::FrameWriter welcome;
    welcome.u32(kProtocolVersion);
    welcome.u32(static_cast<std::uint32_t>(rank));
    welcome.u32(static_cast<std::uint32_t>(cfg_.workers));
    welcome.str(resolved_spec_json);
    conn.send_frame(kMsgWelcome, welcome.take());
    conns_.push_back(std::move(conn));
  }
}

void RootServer::shutdown() {
  for (auto& conn : conns_) {
    if (!conn.valid()) continue;
    try {
      conn.send_frame(kMsgShutdown, {});
    } catch (const NetError&) {
      // Best-effort: a worker that already died gets no goodbye.
    }
    conn.close();
  }
}

Frame RootServer::recv_checked(std::size_t rank, std::uint32_t expect_type) {
  const std::string who = "worker " + std::to_string(rank) + " (" +
                          conns_[rank].peer() + ")";
  Frame f;
  try {
    f = conns_[rank].recv_frame(cfg_.timeout_s);
  } catch (const NetError& e) {
    throw NetError(who + ": " + e.what() +
                   " — the round cannot complete; restart the worker and the "
                   "run");
  }
  if (f.type == kMsgError) {
    comm::FrameReader in(f.body);
    throw NetError(who + " reported: " + in.str());
  }
  if (f.type != expect_type)
    throw NetError(who + ": expected frame type " +
                   std::to_string(expect_type) + ", got " +
                   std::to_string(f.type));
  return f;
}

void RootServer::begin_dispatch(fed::RoundMethod& m,
                                const std::vector<fed::TaskSpec>& tasks) {
  {
    comm::CaptureScope capture;
    m.begin_dispatch(tasks);
    std::vector<comm::WireMessage> msgs = capture.take();
    // No downlink = the method reused its previous snapshot, whose messages
    // are still the ones its state refers to.
    if (!msgs.empty()) dispatch_msgs_ = std::move(msgs);
  }
  comm::FrameWriter out;
  comm::StateIO io(out, dispatch_msgs_);
  m.net_state(io);
  io.finish();
  state_ = out.take();
}

double RootServer::run_group(fed::RoundMethod& m,
                             const std::vector<fed::TaskSpec>& tasks,
                             std::size_t begin, std::size_t end,
                             std::vector<fed::Upload>& uploads) {
  const std::size_t W = conns_.size();
  const double t0 = obs::now_s();

  // Sticky ownership: client k -> worker (k % W), global indices ascending
  // per worker so each worker's per-client bookkeeping runs in slot order.
  std::vector<std::vector<std::size_t>> owned(W);
  for (std::size_t i = begin; i < end; ++i)
    owned[tasks[i].client % W].push_back(i);

  for (std::size_t w = 0; w < W; ++w) {
    if (owned[w].empty()) continue;
    comm::FrameWriter out;
    out.bytes(state_);
    out.u32(static_cast<std::uint32_t>(owned[w].size()));
    for (const std::size_t i : owned[w]) write_task(tasks[i], out);
    try {
      conns_[w].send_frame(kMsgGroup, out.take());
    } catch (const NetError& e) {
      throw NetError("worker " + std::to_string(w) + " (" + conns_[w].peer() +
                     "): " + e.what());
    }
  }

  double max_compute_s = 0.0;
  for (std::size_t w = 0; w < W; ++w) {
    if (owned[w].empty()) continue;
    const Frame f = recv_checked(w, kMsgGroupResult);
    comm::FrameReader in(f.body);
    const std::uint32_t n = in.u32();
    if (n != owned[w].size())
      throw NetError("worker " + std::to_string(w) + ": returned " +
                     std::to_string(n) + " uploads for " +
                     std::to_string(owned[w].size()) + " tasks");
    max_compute_s = std::max(max_compute_s, in.f64());
    for (const std::size_t i : owned[w]) {
      const std::vector<std::uint8_t> frame = in.bytes();
      comm::FrameReader ur(frame);
      fed::Upload& up = uploads[i - begin];
      up = read_upload_base(ur);
      comm::StateIO io(ur);
      m.net_upload(up, io);
    }
  }

  const double measured =
      std::max(0.0, (obs::now_s() - t0) - max_compute_s);

  // Trace piggyback (DESIGN.md §11): each dispatched worker ships its fresh
  // span events right after its group result; merge them under a per-worker
  // process lane. Received AFTER the transfer-time measurement above so the
  // trace plane never pollutes measured_comm_s.
  if (obs::tracing_enabled()) {
    for (std::size_t w = 0; w < W; ++w) {
      if (owned[w].empty()) continue;
      const Frame tf = recv_checked(w, kMsgTrace);
      comm::FrameReader in(tf.body);
      obs::ingest_remote_events(in, static_cast<std::uint32_t>(w + 1),
                                "worker " + std::to_string(w));
    }
  }
  return measured;
}

std::vector<std::vector<std::uint8_t>> RootServer::run_custom(
    std::uint32_t op, const std::vector<std::uint8_t>& ctx,
    const std::vector<std::size_t>& clients) {
  const std::size_t W = conns_.size();
  std::vector<std::vector<std::size_t>> positions(W);  // into the result
  for (std::size_t p = 0; p < clients.size(); ++p)
    positions[clients[p] % W].push_back(p);

  for (std::size_t w = 0; w < W; ++w) {
    if (positions[w].empty()) continue;
    comm::FrameWriter out;
    out.u32(op);
    out.bytes(ctx);
    out.u32(static_cast<std::uint32_t>(positions[w].size()));
    for (const std::size_t p : positions[w])
      out.u64(static_cast<std::uint64_t>(clients[p]));
    try {
      conns_[w].send_frame(kMsgCustom, out.take());
    } catch (const NetError& e) {
      throw NetError("worker " + std::to_string(w) + " (" + conns_[w].peer() +
                     "): " + e.what());
    }
  }

  std::vector<std::vector<std::uint8_t>> results(clients.size());
  for (std::size_t w = 0; w < W; ++w) {
    if (positions[w].empty()) continue;
    const Frame f = recv_checked(w, kMsgCustomResult);
    comm::FrameReader in(f.body);
    const std::uint32_t n = in.u32();
    if (n != positions[w].size())
      throw NetError("worker " + std::to_string(w) + ": returned " +
                     std::to_string(n) + " custom results for " +
                     std::to_string(positions[w].size()) + " clients");
    for (const std::size_t p : positions[w]) results[p] = in.bytes();
  }
  return results;
}

std::int64_t RootServer::tx_bytes() const {
  std::int64_t total = 0;
  for (const auto& conn : conns_) total += conn.tx_bytes();
  return total;
}

std::int64_t RootServer::rx_bytes() const {
  std::int64_t total = 0;
  for (const auto& conn : conns_) total += conn.rx_bytes();
  return total;
}

}  // namespace fp::net
