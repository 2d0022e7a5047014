// The distributed runtime (src/net/, DESIGN.md §10).
//
// * Transport: framed messages round-trip over loopback including partial
//   reads (multi-MB frame through finite socket buffers) and a frame dribbled
//   one byte at a time; timeout, EOF, and corrupt headers throw NetError; a
//   header declaring ~1 GiB followed by EOF allocates only what arrived.
// * Wire frames: every FrameWriter field type round-trips, empty containers
//   included; truncation throws WireError at the field that broke.
// * Spec surface: net.* keys round-trip through JSON and typos get nearest-
//   name suggestions; serve_root rejects unsupported specs before listening.
// * Equivalence (the acceptance bar): a root + 2 loopback workers produces a
//   history and final metrics IDENTICAL to the single-process run — for jFAT
//   and FedProphet, under identity, int8 and top-k wire codecs, and with two
//   aggregation waves sharing one dispatch — because each end ships the
//   encoded messages its channel captured. A partial-training worker checks
//   the slice plans it redraws against the root's fingerprints.
// * Tracing: a traced distributed run with in-process workers keeps every
//   root round span.
// * Failure: a worker that drops mid-round fails the round with a diagnostic
//   naming the worker, within net.timeout_s.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.hpp"
#include "comm/wire.hpp"
#include "exp/runner.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace fp {
namespace {

// ---- wire frames ------------------------------------------------------------

TEST(WireFrame, EveryFieldTypeRoundTrips) {
  comm::WireMessage msg;
  msg.kind = comm::CodecKind::kInt8;
  msg.delta = true;
  msg.num_elems = 5;
  msg.payload = {1, 2, 3, 250};

  comm::FrameWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(1ull << 40);
  w.i64(-77);
  w.f32(1.5f);
  w.f64(-2.25);
  w.str("net");
  w.bytes({9, 8, 7});
  w.blob(nn::ParamBlob{0.5f, -0.5f, 3.0f});
  w.wire_msg(msg);
  w.str("");
  w.bytes({});
  w.blob(nn::ParamBlob{});
  w.wire_msg(comm::WireMessage{});

  comm::FrameReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i64(), -77);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "net");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(r.blob(), (nn::ParamBlob{0.5f, -0.5f, 3.0f}));
  const comm::WireMessage back = r.wire_msg();
  EXPECT_EQ(back.kind, msg.kind);
  EXPECT_EQ(back.delta, msg.delta);
  EXPECT_EQ(back.num_elems, msg.num_elems);
  EXPECT_EQ(back.payload, msg.payload);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.blob().empty());
  const comm::WireMessage empty = r.wire_msg();
  EXPECT_EQ(empty.num_elems, 0u);
  EXPECT_TRUE(empty.payload.empty());
  EXPECT_TRUE(r.done());
}

TEST(WireFrame, TruncationThrowsAtTheBrokenField) {
  comm::FrameWriter w;
  w.u64(123);
  w.str("hello");
  const auto& buf = w.data();
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    comm::FrameReader r(buf.data(), cut);
    EXPECT_THROW(
        {
          r.u64();
          r.str();
        },
        comm::WireError)
        << "prefix of " << cut << " bytes parsed as a whole frame";
  }
  // A declared container length beyond the actual bytes must throw, not
  // allocate: 2^60 "bytes" in a 16-byte frame.
  comm::FrameWriter evil;
  evil.u64(1ull << 60);
  evil.u64(0);
  comm::FrameReader r(evil.data());
  EXPECT_THROW(r.bytes(), comm::WireError);
}

// ---- socket transport -------------------------------------------------------

TEST(Socket, MultiMegabyteFrameSurvivesPartialReadsAndShortWrites) {
  net::TcpListener listener("127.0.0.1", 0);
  ASSERT_GT(listener.port(), 0);

  std::vector<std::uint8_t> big(8 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>((i * 131) & 0xff);

  // Loopback buffers are far smaller than 8 MB, so the sender blocks on short
  // writes while the receiver drains partial reads — the exact paths the
  // framing layer must survive.
  std::thread client([&] {
    net::TcpConn conn =
        net::TcpConn::connect_retry("127.0.0.1", listener.port(), 10.0);
    conn.send_frame(42, big);
    const net::Frame echo = conn.recv_frame(10.0);
    EXPECT_EQ(echo.type, 43u);
    EXPECT_EQ(echo.body, std::vector<std::uint8_t>({1, 2, 3}));
  });

  net::TcpConn server = listener.accept(10.0);
  const net::Frame f = server.recv_frame(30.0);
  EXPECT_EQ(f.type, 42u);
  EXPECT_EQ(f.body, big);
  server.send_frame(43, {1, 2, 3});
  client.join();
  EXPECT_EQ(server.rx_bytes(),
            static_cast<std::int64_t>(big.size()) + 16);  // header is 16 bytes
  EXPECT_EQ(server.tx_bytes(), 3 + 16);
}

TEST(Socket, FrameDribbledOneByteAtATimeAssembles) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::TcpConn reader(sv[1], "dribble-pair");

  const std::vector<std::uint8_t> body = {5, 4, 3, 2, 1, 0, 255, 128};
  // Raw frame header: magic 'FPN1' u32, type u32, body_len u64 (socket.hpp).
  std::vector<std::uint8_t> raw(16 + body.size());
  const std::uint32_t magic = 0x314e5046u, type = 7u;
  const std::uint64_t len = body.size();
  std::memcpy(raw.data(), &magic, 4);
  std::memcpy(raw.data() + 4, &type, 4);
  std::memcpy(raw.data() + 8, &len, 8);
  std::memcpy(raw.data() + 16, body.data(), body.size());

  std::thread writer([&] {
    for (const std::uint8_t byte : raw) {
      ASSERT_EQ(::send(sv[0], &byte, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(sv[0]);
  });
  const net::Frame f = reader.recv_frame(10.0);
  writer.join();
  EXPECT_EQ(f.type, 7u);
  EXPECT_EQ(f.body, body);
}

TEST(Socket, TimeoutEofAndCorruptHeaderThrow) {
  {  // nothing arrives within the window
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    net::TcpConn reader(sv[1], "silent-peer");
    try {
      reader.recv_frame(0.2);
      FAIL() << "expected NetError";
    } catch (const net::NetError& e) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
          << e.what();
    }
    ::close(sv[0]);
  }
  {  // peer closes mid-frame: header promised 100 bytes, 4 arrived
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    net::TcpConn reader(sv[1], "dying-peer");
    const std::uint32_t magic = 0x314e5046u, type = 1u;
    const std::uint64_t len = 100;
    std::uint8_t hdr[16];
    std::memcpy(hdr, &magic, 4);
    std::memcpy(hdr + 4, &type, 4);
    std::memcpy(hdr + 8, &len, 8);
    ASSERT_EQ(::send(sv[0], hdr, 16, 0), 16);
    const std::uint8_t partial[4] = {1, 2, 3, 4};
    ASSERT_EQ(::send(sv[0], partial, 4, 0), 4);
    ::close(sv[0]);
    try {
      reader.recv_frame(5.0);
      FAIL() << "expected NetError";
    } catch (const net::NetError& e) {
      EXPECT_NE(std::string(e.what()).find("closed mid-frame"),
                std::string::npos)
          << e.what();
    }
  }
  {  // garbage where the magic should be
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    net::TcpConn reader(sv[1], "corrupt-peer");
    std::vector<std::uint8_t> junk(16, 0xab);
    ASSERT_EQ(::send(sv[0], junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    try {
      reader.recv_frame(5.0);
      FAIL() << "expected NetError";
    } catch (const net::NetError& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
          << e.what();
    }
    ::close(sv[0]);
  }
}

TEST(Socket, DeclaredBodyLengthDoesNotPreallocate) {
  // A peer declares a ~1 GiB body, then closes without sending it. The read
  // must fail without first committing the declared size.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::TcpConn reader(sv[1], "lying-peer");
  const std::uint32_t magic = 0x314e5046u, type = 1u;
  const std::uint64_t len = (1ull << 30) - 1;
  std::uint8_t hdr[16];
  std::memcpy(hdr, &magic, 4);
  std::memcpy(hdr + 4, &type, 4);
  std::memcpy(hdr + 8, &len, 8);
  ASSERT_EQ(::send(sv[0], hdr, 16, 0), 16);
  ::close(sv[0]);

  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  EXPECT_THROW(reader.recv_frame(5.0), net::NetError);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)  // KiB
      << "peak RSS grew by " << (after.ru_maxrss - before.ru_maxrss) << " KiB";
}

// ---- spec surface -----------------------------------------------------------

/// The test_exp tiny scenario plus a cheap final evaluation (distributed runs
/// go through run_built, which evaluates).
exp::ExperimentSpec tiny_net_spec(const std::string& method) {
  exp::ExperimentSpec spec;
  spec.method = method;
  for (const char* kv : {
           "workload=cifar", "model.width=4", "model.classes=4",
           "data.train_size=240", "data.test_size=80", "fl.num_clients=6",
           "fl.clients_per_round=3", "fl.local_iters=2", "fl.batch_size=16",
           "fl.pgd_steps=2", "fl.rounds=2", "fl.lr0=0.05", "fl.sgd.lr=0.05",
           "fl.seed=123", "fp.rounds_per_module=2", "fp.eval_every=2",
           "fp.val_samples=32", "eval.pgd_steps=2", "eval.aa_steps=2",
           "eval.aa_restarts=1", "eval.max_samples=32",
       })
    exp::apply_override(spec, kv);
  return spec;
}

TEST(NetSpec, KeysRoundTripThroughJson) {
  exp::ExperimentSpec spec = tiny_net_spec("jFAT");
  exp::apply_override(spec, "net.role=root");
  exp::apply_override(spec, "net.host=10.0.0.7");
  exp::apply_override(spec, "net.port=9999");
  exp::apply_override(spec, "net.workers=4");
  exp::apply_override(spec, "net.timeout_s=7.5");
  exp::apply_override(spec, "net.retry_s=3.25");
  const std::string json = exp::spec_to_json(spec);
  const exp::ExperimentSpec reparsed = exp::spec_from_json(json);
  EXPECT_TRUE(exp::specs_equal(spec, reparsed));
  EXPECT_EQ(json, exp::spec_to_json(reparsed));
  EXPECT_EQ(reparsed.net_port, 9999);
}

TEST(NetSpec, TyposSuggestNearestName) {
  exp::ExperimentSpec spec;
  try {
    exp::set_key(spec, "net.worker", "4");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("net.workers"), std::string::npos)
        << e.what();
  }
  try {
    exp::set_key(spec, "net.role", "rot");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("root"), std::string::npos)
        << e.what();
  }
}

TEST(NetSpec, ServeRootRejectsUnsupportedSpecsBeforeListening) {
  exp::ExperimentSpec async = tiny_net_spec("jFAT");
  exp::apply_override(async, "fl.scheduler=async");
  try {
    net::serve_root(async);
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sync"), std::string::npos)
        << e.what();
  }
}

// ---- root + workers over loopback ------------------------------------------

/// Runs spec as a distributed root with `workers` in-process loopback workers
/// (each rebuilding its setup from the shipped resolved spec, exactly like a
/// separate fp_run --worker process would).
exp::RunResult run_distributed(exp::ExperimentSpec spec, std::size_t workers) {
  exp::apply_override(spec, "net.workers=" + std::to_string(workers));
  exp::apply_override(spec, "net.port=0");  // ephemeral; on_listening tells us
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<std::string> errors;
  exp::RunResult r = net::serve_root(spec, [&](int port) {
    for (std::size_t w = 0; w < workers; ++w)
      threads.emplace_back([&, port] {
        try {
          exp::ExperimentSpec ws;
          ws.net_host = "127.0.0.1";
          ws.net_port = port;
          ws.net_retry_s = 30.0;
          net::run_worker(ws);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          errors.emplace_back(e.what());
        }
      });
  });
  for (auto& t : threads) t.join();
  EXPECT_TRUE(errors.empty()) << errors.front();
  return r;
}

/// The acceptance bar: every history field except the measured wall clock,
/// plus the final metrics, must be IDENTICAL between the single-process run
/// and the distributed one.
void expect_equivalent(const exp::RunResult& local,
                       const exp::RunResult& dist) {
  EXPECT_EQ(local.metrics.clean_acc, dist.metrics.clean_acc);
  EXPECT_EQ(local.metrics.pgd_acc, dist.metrics.pgd_acc);
  EXPECT_EQ(local.metrics.aa_acc, dist.metrics.aa_acc);
  EXPECT_EQ(local.bytes_up, dist.bytes_up);
  EXPECT_EQ(local.bytes_down, dist.bytes_down);
  ASSERT_EQ(local.history.size(), dist.history.size());
  for (std::size_t i = 0; i < local.history.size(); ++i) {
    const fed::RoundRecord& a = local.history[i];
    const fed::RoundRecord& b = dist.history[i];
    EXPECT_EQ(a.round, b.round) << "record " << i;
    EXPECT_EQ(a.clean_acc, b.clean_acc) << "record " << i;
    EXPECT_EQ(a.adv_acc, b.adv_acc) << "record " << i;
    EXPECT_EQ(a.sim_time_s, b.sim_time_s) << "record " << i;
    EXPECT_EQ(a.extra, b.extra) << "record " << i;
    EXPECT_EQ(a.bytes_up, b.bytes_up) << "record " << i;
    EXPECT_EQ(a.bytes_down, b.bytes_down) << "record " << i;
    EXPECT_EQ(a.peak_mem_bytes, b.peak_mem_bytes) << "record " << i;
    EXPECT_EQ(a.unique_participants, b.unique_participants) << "record " << i;
    EXPECT_EQ(a.agg_bytes_saved, b.agg_bytes_saved) << "record " << i;
    // measured_comm_s and round_wall_s are the intentionally-different
    // columns: real clocks, never compared across runs.
    EXPECT_GE(b.measured_comm_s, 0.0);
    EXPECT_GE(a.round_wall_s, 0.0);
    EXPECT_GE(b.round_wall_s, 0.0);
  }
  EXPECT_EQ(dist.net_workers, 2u);
  EXPECT_GT(dist.net_tx_bytes, 0);
  EXPECT_GT(dist.net_rx_bytes, 0);
}

/// One distributed-equivalence case: a net-capable method under one wire
/// setting (no override = identity codec, one aggregator).
struct NetCase {
  const char* name;
  const char* method;
  const char* override_kv;
};

class NetEquivalence : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetEquivalence, DistributedRunMatchesSingleProcess) {
  exp::ExperimentSpec spec = tiny_net_spec(GetParam().method);
  if (GetParam().override_kv[0] != '\0')
    exp::apply_override(spec, GetParam().override_kv);
  const exp::RunResult local = exp::run_experiment(spec);
  const exp::RunResult dist = run_distributed(spec, 2);
  expect_equivalent(local, dist);
  EXPECT_EQ(local.history.back().measured_comm_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    NetCapableMethods, NetEquivalence,
    ::testing::Values(
        NetCase{"JfatIdentity", "jFAT", ""},
        NetCase{"FedRbnIdentity", "FedRBN", ""},
        NetCase{"FedDfIdentity", "FedDF-AT", ""},
        NetCase{"FedEtIdentity", "FedET-AT", ""},
        NetCase{"FedProphetIdentity", "FedProphet", ""},
        NetCase{"JfatInt8", "jFAT", "comm.codec=int8"},
        // Two edge-aggregator waves per round: both groups ship the state
        // of the round's single dispatch.
        NetCase{"JfatTwoAggregatorWaves", "jFAT", "env.aggregators=2"},
        NetCase{"FedProphetInt8", "FedProphet", "comm.codec=int8"},
        // Top-k uploads decode against the receiver's reference (the
        // per-atom and aux-head broadcast slices), unlike int8.
        NetCase{"FedProphetTopK", "FedProphet", "comm.codec=topk"},
        // Three architectures: three broadcasts to encode and decode.
        NetCase{"FedDfInt8", "FedDF-AT", "comm.codec=int8"},
        // Partial training: one broadcast slice per slot, and the worker
        // redraws the round's slice plans from the shipped ratios.
        NetCase{"HeteroFlIdentity", "HeteroFL-AT", ""},
        NetCase{"FedDropIdentity", "FedDrop-AT", ""},
        NetCase{"FedRolexIdentity", "FedRolex-AT", ""},
        NetCase{"FedDropInt8", "FedDrop-AT", "comm.codec=int8"},
        // Top-k deltas decode against the slot's broadcast slice.
        NetCase{"HeteroFlTopK", "HeteroFL-AT", "comm.codec=topk"},
        // Two waves: each ships the round's state again, and the second
        // wave's slots index the whole dispatch.
        NetCase{"FedDropTwoAggregatorWaves", "FedDrop-AT",
                "env.aggregators=2"}),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      return std::string(info.param.name);
    });

// A worker redraws a partial-training dispatch's slice plans instead of
// receiving them; the root ships a fingerprint of each so a worker whose
// redraw differs fails naming the slot. Reading one dispatch state twice
// (a second group of the same round) must redraw the same plans, which
// needs the slice stream restarted on every read.
TEST(NetState, PartialTrainingWorkerChecksItsRedrawnPlans) {
  const auto state_of = [](fed::FederatedAlgorithm& root) {
    std::vector<fed::TaskSpec> tasks(3);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].round = 1;
      tasks[i].slot = i;
      tasks[i].client = i;
      tasks[i].lr = 0.05f;
      tasks[i].weight = 1.0f / 3.0f;
      tasks[i].has_device = true;
      tasks[i].device.avail_mem_bytes = 1;  // the smallest slice
    }
    comm::CaptureScope capture;
    root.begin_dispatch(tasks);
    const std::vector<comm::WireMessage> msgs = capture.take();
    comm::FrameWriter out;
    comm::StateIO io(out, msgs);
    root.net_state(io);
    io.finish();
    return out.take();
  };
  const auto read_state = [](fed::FederatedAlgorithm& worker,
                             const std::vector<std::uint8_t>& state) {
    comm::FrameReader in(state);
    comm::StateIO io(in);
    worker.net_state(io);
  };
  exp::ExperimentSpec spec = tiny_net_spec("FedDrop-AT");
  auto root_setup = exp::build_setup(spec);
  exp::MethodRun root = exp::method_registry().resolve(spec.method)(root_setup);
  const std::vector<std::uint8_t> state = state_of(*root.algo);

  auto worker_setup = exp::build_setup(spec);
  exp::MethodRun worker =
      exp::method_registry().resolve(spec.method)(worker_setup);
  EXPECT_NO_THROW(read_state(*worker.algo, state));
  EXPECT_NO_THROW(read_state(*worker.algo, state)) << "second group, same round";

  // Another seed draws other random slices.
  exp::apply_override(spec, "fl.seed=124");
  auto other_setup = exp::build_setup(spec);
  exp::MethodRun other =
      exp::method_registry().resolve(spec.method)(other_setup);
  try {
    read_state(*other.algo, state);
    ADD_FAILURE() << "a different redraw was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("slot 0"), std::string::npos)
        << e.what();
  }
}

// ---- tracing ----------------------------------------------------------------

TEST(NetTrace, InProcessWorkersKeepEveryRootRoundSpan) {
  // In-process workers share the root's trace buffers: setting up tracing
  // on a worker must not restart the epoch the root's spans are kept from.
  exp::ExperimentSpec spec = tiny_net_spec("jFAT");
  exp::apply_override(spec, "obs.trace=1");
  spec.obs_trace_path = ::testing::TempDir() + "net_trace_rounds.json";
  run_distributed(spec, 2);
  std::int64_t root_rounds = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot())
    if (e.pid == 0 && e.name == "round") ++root_rounds;
  obs::configure(obs::ObsSettings{});
  EXPECT_EQ(root_rounds, spec.fl.rounds);
}

// ---- failure semantics ------------------------------------------------------

TEST(NetFailure, WorkerDroppingMidRoundFailsWithDiagnostic) {
  exp::ExperimentSpec spec = tiny_net_spec("jFAT");
  exp::apply_override(spec, "net.workers=1");
  exp::apply_override(spec, "net.port=0");
  exp::apply_override(spec, "net.timeout_s=3");

  std::thread fake;
  try {
    net::serve_root(spec, [&](int port) {
      fake = std::thread([port] {
        // A protocol-correct worker that vanishes right after the handshake:
        // hello, read the welcome, close.
        net::TcpConn conn =
            net::TcpConn::connect_retry("127.0.0.1", port, 10.0);
        comm::FrameWriter hello;
        hello.u32(net::kProtocolVersion);
        conn.send_frame(net::kMsgHello, hello.take());
        const net::Frame welcome = conn.recv_frame(10.0);
        EXPECT_EQ(welcome.type, net::kMsgWelcome);
        conn.close();
      });
    });
    FAIL() << "expected NetError for the dropped worker";
  } catch (const net::NetError& e) {
    // The diagnostic must name the worker, whether the drop surfaced on the
    // root's send (broken pipe) or its bounded recv (EOF/timeout).
    EXPECT_NE(std::string(e.what()).find("worker 0"), std::string::npos)
        << e.what();
  }
  fake.join();
}

}  // namespace
}  // namespace fp
