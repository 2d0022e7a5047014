#include "net/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/parallel.hpp"
#include "net/protocol.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace fp::net {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

NetConfig net_config_of(const exp::ExperimentSpec& spec) {
  NetConfig cfg;
  cfg.host = spec.net_host;
  cfg.port = static_cast<int>(spec.net_port);
  cfg.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(1, spec.net_workers));
  cfg.timeout_s = spec.net_timeout_s;
  cfg.retry_s = spec.net_retry_s;
  return cfg;
}

exp::RunResult serve_root(exp::ExperimentSpec spec,
                          const std::function<void(int)>& on_listening,
                          const std::string& label) {
  spec.net_role = "root";
  if (spec.fl.scheduler != fed::SchedulerKind::kSync)
    throw exp::SpecError(
        "net.role=root requires fl.scheduler=sync: the distributed runtime "
        "dispatches barrier waves, not event-driven single-client refills");

  // Build the setup and construct the method BEFORE accepting workers, so an
  // unsupported spec fails fast instead of stranding connected workers.
  exp::Setup setup = exp::build_setup(std::move(spec));
  const exp::MethodFactory& factory =
      exp::method_registry().resolve(setup.spec.method);
  exp::MethodRun run = factory(setup);
  if (!dynamic_cast<fed::NetMethod*>(run.algo.get()))
    throw exp::SpecError(
        "method " + setup.spec.method +
        " does not implement the distributed-runtime hooks; net-capable "
        "methods: jFAT (FedAvg via adversarial=false) and FedProphet");

  RootServer server(net_config_of(setup.spec));
  if (on_listening) on_listening(server.port());

  // Workers rebuild the run from the root's FULLY-RESOLVED spec (every auto
  // field concrete, so both ends derive identical models, seeds, and scales)
  // with the role neutralized — a worker setup is a single-process setup.
  exp::ExperimentSpec shipped = setup.spec;
  shipped.net_role = "off";
  server.accept_workers(exp::spec_to_json(shipped));

  setup.env.remote = &server;
  exp::RunResult r;
  try {
    r = exp::run_built(setup, run, label);
  } catch (...) {
    setup.env.remote = nullptr;
    server.shutdown();
    throw;
  }
  setup.env.remote = nullptr;
  r.net_tx_bytes = server.tx_bytes();
  r.net_rx_bytes = server.rx_bytes();
  r.net_workers = server.num_workers();
  server.shutdown();
  return r;
}

void run_worker(const exp::ExperimentSpec& cli_spec) {
  const NetConfig cfg = net_config_of(cli_spec);
  TcpConn conn = TcpConn::connect_retry(cfg.host, cfg.port, cfg.retry_s);
  comm::FrameWriter hello;
  hello.u32(kProtocolVersion);
  conn.send_frame(kMsgHello, hello.take());

  // The worker waits for the root without a timeout everywhere: a dead root
  // surfaces as EOF (recv_frame throws), not as a hang.
  const Frame wf = conn.recv_frame(0.0);
  if (wf.type == kMsgError) {
    comm::FrameReader in(wf.body);
    throw NetError("root rejected worker: " + in.str());
  }
  if (wf.type != kMsgWelcome)
    throw NetError("expected welcome, got frame type " +
                   std::to_string(wf.type));
  comm::FrameReader win(wf.body);
  const std::uint32_t version = win.u32();
  if (version != kProtocolVersion)
    throw NetError("root speaks protocol version " + std::to_string(version) +
                   ", this build speaks " + std::to_string(kProtocolVersion));
  const std::uint32_t rank = win.u32();
  const std::uint32_t num_workers = win.u32();
  exp::ExperimentSpec spec = exp::spec_from_json(win.str());
  spec.net_role = "off";

  exp::Setup setup = exp::build_setup(std::move(spec));
  const exp::MethodFactory& factory =
      exp::method_registry().resolve(setup.spec.method);
  exp::MethodRun run = factory(setup);
  fed::FederatedAlgorithm& algo = *run.algo;
  auto* net = dynamic_cast<fed::NetMethod*>(&algo);
  if (!net) {
    comm::FrameWriter err;
    err.str("method " + setup.spec.method + " has no distributed hooks");
    conn.send_frame(kMsgError, err.take());
    throw NetError("root shipped a method without distributed hooks: " +
                   setup.spec.method);
  }

  // Observability follows the root's resolved spec, so both ends agree on
  // whether kMsgTrace frames exist. A worker never writes its own trace
  // file: its spans ship to the root and land in the merged trace. A worker
  // sharing its root's process (tests, benchmarks) finds tracing already on
  // and must not restart the epoch, which would drop the root's spans.
  obs::ObsSettings obs_settings;
  obs_settings.trace = setup.spec.obs_trace;
  obs_settings.sample_kernels = setup.spec.obs_sample_kernels;
  if (!(obs_settings.trace && obs::tracing_enabled()))
    obs::configure(obs_settings);
  obs::set_thread_name("fp-net-worker");
  obs::logf(obs::LogLevel::kInfo, "[net] worker %u/%u serving %s for %s:%d",
            rank, num_workers, setup.spec.method.c_str(), cfg.host.c_str(),
            cfg.port);

  for (;;) {
    const Frame f = conn.recv_frame(0.0);
    if (f.type == kMsgShutdown) return;
    try {
      if (f.type == kMsgGroup) {
        {
          // Inner scope: the serve_group span closes BEFORE the trace drain
          // below, so each group's frame carries its own serving span.
          FP_TRACE_SCOPE("serve_group", "net");
          comm::FrameReader gin(f.body);
          const std::vector<std::uint8_t> state = gin.bytes();
          {
            comm::FrameReader sr(state);
            comm::StateIO io(sr);
            net->net_state(io);
          }
          const std::uint32_t n = gin.u32();
          std::vector<fed::TaskSpec> tasks;
          tasks.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) tasks.push_back(read_task(gin));
          // Pool bookkeeping over the OWNED tasks only: this worker's
          // per-client dispatch counts advance as the single-process run's.
          algo.clients().begin_round(tasks);
          // Each client's uplinks are captured on its own thread and its
          // upload is staged as bytes right away, so decoded payloads never
          // pile up across the group.
          std::vector<std::vector<std::uint8_t>> staged(n);
          const double t0 = now_s();
          core::parallel_tasks(static_cast<std::int64_t>(n),
                               [&](std::int64_t ti) {
                                 const auto i = static_cast<std::size_t>(ti);
                                 comm::CaptureScope capture;
                                 fed::Upload up =
                                     algo.engine().run_client(algo, tasks[i]);
                                 const auto sent = capture.take();
                                 comm::FrameWriter uw;
                                 write_upload_base(up, uw);
                                 comm::StateIO io(uw, sent);
                                 net->net_upload(up, io);
                                 io.finish();
                                 staged[i] = uw.take();
                               });
          const double compute_s = now_s() - t0;
          algo.clients().end_round();
          comm::FrameWriter out;
          out.u32(n);
          out.f64(compute_s);
          for (const auto& upload : staged) out.bytes(upload);
          conn.send_frame(kMsgGroupResult, out.take());
        }
        if (obs::tracing_enabled()) {
          comm::FrameWriter tw;
          obs::serialize_new_events(tw);
          conn.send_frame(kMsgTrace, tw.take());
        }
      } else if (f.type == kMsgCustom) {
        comm::FrameReader cin(f.body);
        const std::uint32_t op = cin.u32();
        const std::vector<std::uint8_t> ctx = cin.bytes();
        const std::uint32_t n = cin.u32();
        comm::FrameWriter out;
        out.u32(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto client = static_cast<std::size_t>(cin.u64());
          comm::FrameReader cr(ctx);
          comm::FrameWriter res;
          net->net_custom_op(op, cr, client, res);
          out.bytes(res.data());
        }
        conn.send_frame(kMsgCustomResult, out.take());
      } else {
        throw NetError("unexpected frame type " + std::to_string(f.type) +
                       " from root");
      }
    } catch (const std::exception& e) {
      // Report the failure to the root (it fails the round with this text),
      // then die: a worker with undefined state must not serve more groups.
      try {
        comm::FrameWriter err;
        err.str(e.what());
        conn.send_frame(kMsgError, err.take());
      } catch (const NetError&) {
      }
      throw;
    }
  }
}

}  // namespace fp::net
