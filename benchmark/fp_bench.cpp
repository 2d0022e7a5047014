// fp_bench: one run of one workload of the repository benchmark, in a fresh
// process (benchmark/README.md). benchmark/run.py builds this binary, starts
// it, and turns its output into metrics.
//
//   fp_bench --workload <name> --seed <s> --seconds <t> [--trace <dir>]
//
// A run repeats the workload's unit of work (set-up, timed work, checks)
// until `seconds` have passed, and at least kMinUnits times. Unit i trains
// with fl.seed = 1000 * seed + i + 1, so one run's medians span several
// seeds and two runs with the same --seed see the same inputs.
//
// With --trace, even-numbered units run traced with every kernel call
// recorded and write the Chrome trace <dir>/unit<i>.json; odd-numbered units
// stay untraced, so traced over untraced work time is the tracing overhead.
//
// The harness drives the program only through its public entry points:
// exp::build_setup, the method registry, exp::run_built, net::serve_root /
// run_worker, serve::make_served_model, InferenceServer and the HttpConn
// client. The last line of stdout is one JSON object with every unit's
// measurements, the process's resource figures and the failed checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "net/http.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/wire_json.hpp"

namespace {

using namespace fp;

constexpr int kMinUnits = 3;
// A training unit sets up this many times and keeps the last setup. run.py
// reports setup_s as the median over every set-up of the run, because one
// ~30 ms single-threaded set-up runs at two speeds about 1.5x apart on a
// shared host.
constexpr int kSetupRepeats = 5;

// Serving load: closed loop over kConnections keep-alive connections, one
// single-sample request in flight per connection. Connection kReconnectConn
// reconnects after every kReconnectEvery requests, so the accept path and
// connection teardown stay on the measured path.
constexpr int kConnections = 4;
constexpr int kReconnectConn = 3;
constexpr int kReconnectEvery = 8;
constexpr int kSamplePool = 64;
constexpr int kWarmupRequests = 128;
constexpr int kMeasuredRequests = 1024;

// ---- JSON output -----------------------------------------------------------

std::string json_str(const std::string& s) {
  return "\"" + exp::json_escape(s) + "\"";
}

/// Every digit of a measurement: the shortest spelling that reads back to
/// the same double.
std::string json_num(double v) {
  return std::isfinite(v) ? serve::format_double(v) : "null";
}

/// A JSON object built field by field; values are rendered on insertion.
class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, json_num(v)); }
  Obj& num(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  Obj& raw(const std::string& k, std::string rendered) {
    fields_.emplace_back(k, std::move(rendered));
    return *this;
  }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_list(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i)
    out += (i > 0 ? ", " : "") + rendered[i];
  return out + "]";
}

std::string json_nums(const std::vector<double>& values) {
  std::vector<std::string> rendered;
  rendered.reserve(values.size());
  for (const double v : values) rendered.push_back(json_num(v));
  return json_list(rendered);
}

/// Every registered counter, so run.py can read the always-on counters the
/// program keeps (kernel calls, rounds, clients, arena peak, serve counts).
std::string counters_json() {
  Obj o;
  for (const auto& [name, value] : obs::metrics_snapshot()) o.num(name, value);
  return o.render();
}

// ---- Workloads ---------------------------------------------------------------

enum class Kind { kTrain, kDistributed, kServe };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<std::string> keys;  ///< spec overrides on top of kBackbone
};

// Shared by every workload. model.image stays 16: build_setup synthesizes
// 16-px data whatever model.image says, so a larger model would train on
// mismatched data and reject every served sample. fl.local_iters is pinned
// so FP_BENCH_FAST in the caller's environment cannot change the work.
const std::vector<std::string> kBackbone = {
    "model.image=16",       "model.width=8",     "fl.num_clients=20",
    "fl.clients_per_round=8", "fl.local_iters=4", "mem.measure=1"};

const std::vector<std::string> kFedProphet = {
    "method=FedProphet", "fp.rounds_per_module=2", "fp.val_samples=48",
    "eval.max_samples=64"};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"fedprophet_cascade", Kind::kTrain, kFedProphet},
      {"jfat_robust_eval", Kind::kTrain,
       {"method=jFAT", "fl.rounds=6", "eval.max_samples=96"}},
      // Set-up trains the served backbone for one clean round; the serving
      // keys apply to the served copy of the spec only.
      {"serve_int8_closed_loop", Kind::kServe,
       {"method=jFAT", "adversarial=0", "fl.rounds=1"}},
      {"fedprophet_distributed", Kind::kDistributed, kFedProphet},
  };
  return w;
}

const std::vector<std::string> kServeKeys = {
    "compute.precision=int8", "compute.winograd=1", "serve.max_batch=32",
    "serve.max_delay_ms=2", "serve.port=0"};

exp::ExperimentSpec make_spec(const std::vector<std::string>& keys,
                              std::uint64_t fl_seed) {
  exp::ExperimentSpec spec;
  for (const auto& kv : kBackbone) exp::apply_override(spec, kv);
  for (const auto& kv : keys) exp::apply_override(spec, kv);
  spec.fl.seed = fl_seed;
  return spec;
}

void trace_into(exp::ExperimentSpec& spec, const std::string& trace_path) {
  if (trace_path.empty()) return;
  spec.obs_trace = true;
  spec.obs_trace_path = trace_path;
  spec.obs_sample_kernels = 1;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Process CPU seconds so far: user plus system time of every thread.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---- Training units ------------------------------------------------------------

/// FNV-1a over everything a training run produces except its real clocks:
/// equal hashes mean equal histories, final metrics and byte counts.
std::string result_hash(const exp::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto put = [&h](auto v) {
    unsigned char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    for (const unsigned char b : bytes) h = (h ^ b) * 1099511628211ull;
  };
  put(r.metrics.clean_acc);
  put(r.metrics.pgd_acc);
  put(r.metrics.aa_acc);
  put(r.sim_time.total());
  put(r.bytes_up);
  put(r.bytes_down);
  put(r.peak_mem_bytes);
  for (const fed::RoundRecord& rec : r.history) {
    put(rec.round);
    put(rec.clean_acc);
    put(rec.adv_acc);
    put(rec.sim_time_s);
    put(rec.extra);
    put(rec.bytes_up);
    put(rec.bytes_down);
    put(rec.peak_mem_bytes);
    put(rec.unique_participants);
    put(rec.agg_bytes_saved);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::string> sanity_errors(const exp::RunResult& r) {
  std::vector<std::string> errors;
  const auto& m = r.metrics;
  for (const double acc : {m.clean_acc, m.pgd_acc, m.aa_acc})
    if (!(acc >= 0.0 && acc <= 1.0)) errors.push_back("accuracy outside [0, 1]");
  // AutoAttack-lite only attacks clean-correct samples.
  if (m.aa_acc > m.clean_acc) errors.push_back("aa_acc above clean_acc");
  if (!(r.sim_time.total() > 0.0 && std::isfinite(r.sim_time.total())))
    errors.push_back("simulated time not positive");
  if (r.history.empty()) errors.push_back("empty history");
  if (r.peak_mem_bytes <= 0) errors.push_back("no measured client peak");
  if (r.bytes_up <= 0 || r.bytes_down <= 0) errors.push_back("no wire bytes");
  return errors;
}

/// The fields every training unit reports, from its RunResult.
void add_run_fields(Obj& o, const fed::FlConfig& fl, const exp::RunResult& r) {
  const obs::PhaseBreakdown& p = r.phases;
  const std::int64_t clients =
      obs::counter("engine.clients_trained").value();
  o.num("work_s", r.wall_s)
      .num("train_s", r.wall_s - p.eval_s)
      .num("eval_s", p.eval_s)
      .num("phase_sample_s", p.sample_s)
      .num("phase_train_s", p.train_s)
      .num("phase_aggregate_s", p.aggregate_s)
      .num("trained_samples", clients * fl.local_iters * fl.batch_size)
      .num("clean_acc", r.metrics.clean_acc)
      .num("pgd_acc", r.metrics.pgd_acc)
      .num("aa_acc", r.metrics.aa_acc)
      .num("sim_time_s", r.sim_time.total())
      .num("client_peak_mem_bytes", r.peak_mem_bytes)
      .num("bytes_up", r.bytes_up)
      .num("bytes_down", r.bytes_down)
      .num("net_tx_bytes", r.net_tx_bytes)
      .num("measured_comm_s", r.measured_comm_s)
      .str("hash", result_hash(r));
  std::vector<std::string> errors;
  for (const auto& e : sanity_errors(r)) errors.push_back(json_str(e));
  o.raw("errors", json_list(errors))
      .str("trace", r.trace_path)
      .raw("counters", counters_json())
      .num("attempted", std::int64_t{1})
      .num("failed", std::int64_t{errors.empty() ? 0 : 1});
}

Obj train_unit(const Workload& w, std::uint64_t fl_seed,
               const std::string& trace_path) {
  exp::ExperimentSpec spec = make_spec(w.keys, fl_seed);
  trace_into(spec, trace_path);
  std::vector<double> setup_s, build_s, construct_s;
  exp::Setup setup;
  exp::MethodRun run;
  for (int k = 0; k < kSetupRepeats; ++k) {
    run = exp::MethodRun{};
    const double t0 = obs::now_s();
    setup = exp::build_setup(spec);
    const double t1 = obs::now_s();
    run = exp::method_registry().resolve(setup.spec.method)(setup);
    const double t2 = obs::now_s();
    setup_s.push_back(t2 - t0);
    build_s.push_back(t1 - t0);
    construct_s.push_back(t2 - t1);
  }
  obs::metrics_reset();
  const double c0 = cpu_s();
  const exp::RunResult r = exp::run_built(setup, run);
  const double work_cpu = cpu_s() - c0;

  Obj o;
  o.num("fl_seed", static_cast<std::int64_t>(fl_seed))
      .raw("setup_s", json_nums(setup_s))
      .num("build_setup_s", median(build_s))
      .num("method_construct_s", median(construct_s))
      .num("work_cpu_s", work_cpu);
  add_run_fields(o, setup.spec.fl, r);
  return o;
}

/// Joins every thread of a vector when the scope ends, exceptions included.
struct JoinAll {
  std::vector<std::thread>& threads;
  ~JoinAll() {
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }
};

Obj distributed_unit(const Workload& w, std::uint64_t fl_seed,
                     const std::string& trace_path) {
  exp::ExperimentSpec spec = make_spec(w.keys, fl_seed);
  trace_into(spec, trace_path);
  exp::apply_override(spec, "net.workers=2");
  exp::apply_override(spec, "net.port=0");
  obs::metrics_reset();

  std::vector<std::thread> workers;
  std::mutex mu;
  std::vector<std::string> worker_errors;
  double listening = 0.0, cpu_listening = 0.0;
  const double t0 = obs::now_s();
  exp::RunResult r;
  {
    JoinAll join{workers};
    r = net::serve_root(spec, [&](int port) {
      listening = obs::now_s();
      cpu_listening = cpu_s();
      for (int k = 0; k < 2; ++k)
        workers.emplace_back([&, port] {
          try {
            exp::ExperimentSpec ws;
            ws.net_host = "127.0.0.1";
            ws.net_port = port;
            ws.net_retry_s = 30.0;
            net::run_worker(ws);
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(mu);
            worker_errors.emplace_back(e.what());
          }
        });
    });
  }
  const double work_cpu = cpu_s() - cpu_listening;
  if (!worker_errors.empty())
    throw std::runtime_error("worker failed: " + worker_errors.front());

  // Set-up ends when the root listens: serve_root has resolved the spec,
  // built the setup and constructed the method by then.
  Obj o;
  o.num("fl_seed", static_cast<std::int64_t>(fl_seed))
      .raw("setup_s", json_nums({listening - t0}))
      .num("work_cpu_s", work_cpu);
  add_run_fields(o, spec.fl, r);
  return o;
}

// ---- Serving unit ----------------------------------------------------------------

struct LoadStats {
  std::vector<double> latency_ms;  ///< one per answered request
  std::int64_t sent = 0, non200 = 0, transport = 0, mismatched = 0;
  double wall_s = 0.0;
};

std::int64_t parse_label(const std::string& body) {
  const auto at = body.find("\"label\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + 8, nullptr, 10);
}

/// Sends request i with body bodies[order[i]]; connection k owns requests
/// k, k + kConnections, ... and waits for each answer before the next.
LoadStats drive_load(int port, const std::vector<std::string>& bodies,
                     const std::vector<std::int64_t>& offline,
                     const std::vector<int>& order) {
  const std::size_t n = order.size();
  std::vector<double> latency(n, -1.0);
  std::vector<LoadStats> per_conn(kConnections);
  std::vector<std::thread> threads;
  const double t0 = obs::now_s();
  {
    JoinAll join{threads};
    for (int k = 0; k < kConnections; ++k)
      threads.emplace_back([&, k] {
        LoadStats& st = per_conn[static_cast<std::size_t>(k)];
        std::unique_ptr<net::HttpConn> http;
        int on_conn = 0;
        for (std::size_t i = static_cast<std::size_t>(k); i < n;
             i += kConnections) {
          ++st.sent;
          try {
            if (k == kReconnectConn && on_conn == kReconnectEvery) http.reset();
            if (!http) {
              http = std::make_unique<net::HttpConn>(
                  net::TcpConn::connect_retry("127.0.0.1", port, 10.0));
              on_conn = 0;
            }
            const int sample = order[i];
            const double s0 = obs::now_s();
            http->send_request("POST", "/v1/predict",
                               bodies[static_cast<std::size_t>(sample)]);
            net::HttpResponse resp;
            if (http->read_response(&resp, 30.0) !=
                net::HttpConn::Read::kRequest) {
              ++st.transport;
              http.reset();
              continue;
            }
            latency[i] = (obs::now_s() - s0) * 1e3;
            ++on_conn;
            if (resp.status != 200)
              ++st.non200;
            else if (parse_label(resp.body) !=
                     offline[static_cast<std::size_t>(sample)])
              ++st.mismatched;
          } catch (const std::exception&) {
            ++st.transport;
            http.reset();
          }
        }
      });
  }
  LoadStats total;
  total.wall_s = obs::now_s() - t0;
  for (const LoadStats& st : per_conn) {
    total.sent += st.sent;
    total.non200 += st.non200;
    total.transport += st.transport;
    total.mismatched += st.mismatched;
  }
  for (const double l : latency)
    if (l >= 0.0) total.latency_ms.push_back(l);
  return total;
}

Obj serve_unit(const Workload& w, std::uint64_t fl_seed,
               const std::string& trace_path) {
  if (!trace_path.empty()) {
    obs::ObsSettings traced;
    traced.trace = true;
    traced.sample_kernels = 1;
    obs::configure(traced);
  }
  obs::metrics_reset();
  const double t0 = obs::now_s();
  exp::Setup setup = exp::build_setup(make_spec(w.keys, fl_seed));
  exp::MethodRun run = exp::method_registry().resolve(setup.spec.method)(setup);
  {
    FP_TRACE_SCOPE("bench.setup_train", "bench");
    run.train();
  }
  const nn::ParamBlob blob = run.algo->global_model().save_all();
  const fed::RoundStats train_stats = run.algo->total_stats();
  const double t1 = obs::now_s();

  exp::ExperimentSpec served_spec = setup.spec;
  for (const auto& kv : kServeKeys) exp::apply_override(served_spec, kv);
  serve::ServedModel served;
  {
    FP_TRACE_SCOPE("bench.model_load", "bench");
    served = serve::make_served_model(served_spec, blob);
  }
  const double t2 = obs::now_s();

  // kSamplePool seed-chosen test samples, their request bodies, and the
  // offline reference label every served answer must equal.
  std::mt19937_64 gen(fl_seed);
  const data::Dataset& test = setup.data.test;
  std::vector<std::int64_t> idx(static_cast<std::size_t>(test.size()));
  for (std::size_t i = 0; i < idx.size(); ++i)
    idx[i] = static_cast<std::int64_t>(i);
  const std::size_t pool =
      std::min<std::size_t>(kSamplePool, idx.size());
  std::vector<std::string> bodies(pool);
  std::vector<std::int64_t> offline(pool);
  for (std::size_t j = 0; j < pool; ++j) {
    std::swap(idx[j], idx[j + gen() % (idx.size() - j)]);
    const Tensor x = test.images.slice_rows(idx[j], 1);
    bodies[j] = serve::render_predict_request(x);
    offline[j] =
        serve::reference_forward(*served.model, x, served.compute)
            .argmax_rows()[0];
  }
  auto request_order = [&](int count) {
    std::vector<int> order(static_cast<std::size_t>(count));
    for (int& s : order) s = static_cast<int>(gen() % pool);
    return order;
  };
  const std::vector<int> warmup_order = request_order(kWarmupRequests);
  const std::vector<int> order = request_order(kMeasuredRequests);
  const double t3 = obs::now_s();

  serve::InferenceServer server(std::move(served),
                                serve::serve_config_of(served_spec));
  {
    FP_TRACE_SCOPE("bench.server_start", "bench");
    server.start();
  }
  const double t4 = obs::now_s();

  LoadStats warm, load;
  {
    FP_TRACE_SCOPE("bench.warmup", "bench");
    warm = drive_load(server.port(), bodies, offline, warmup_order);
  }
  const double c0 = cpu_s();
  {
    FP_TRACE_SCOPE("bench.load", "bench");
    load = drive_load(server.port(), bodies, offline, order);
  }
  const double work_cpu = cpu_s() - c0;
  const double server_p50 = server.latency().quantile(0.50) * 1e3;
  const double server_p99 = server.latency().quantile(0.99) * 1e3;
  const double mean_batch = server.batch_stats().mean();
  server.stop();
  if (!trace_path.empty()) {
    if (!obs::write_trace_json(trace_path))
      throw std::runtime_error("cannot write trace " + trace_path);
    obs::configure(obs::ObsSettings{});
  }

  const std::int64_t failed = warm.non200 + warm.transport + warm.mismatched +
                              load.non200 + load.transport + load.mismatched;
  Obj o;
  o.num("fl_seed", static_cast<std::int64_t>(fl_seed))
      .raw("setup_s", json_nums({(t2 - t0) + (t4 - t3)}))
      .num("setup_train_s", t1 - t0)
      .num("model_load_s", t2 - t1)
      .num("server_start_s", t4 - t3)
      .num("work_s", load.wall_s)
      .num("work_cpu_s", work_cpu)
      .num("requests", load.sent)
      .num("non200", warm.non200 + load.non200)
      .num("transport_errors", warm.transport + load.transport)
      .num("label_mismatches", warm.mismatched + load.mismatched)
      .num("server_p50_ms", server_p50)
      .num("server_p99_ms", server_p99)
      .num("mean_batch", mean_batch)
      .num("client_peak_mem_bytes", train_stats.peak_mem_bytes)
      .num("bytes_up", train_stats.bytes_up)
      .num("bytes_down", train_stats.bytes_down)
      .raw("latency_ms", json_nums(load.latency_ms))
      .raw("errors", "[]")
      .str("trace", trace_path)
      .raw("counters", counters_json())
      .num("attempted", warm.sent + load.sent)
      .num("failed", failed);
  return o;
}

// ---- Process figures -------------------------------------------------------------

std::int64_t status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':')
      return std::strtoll(line.c_str() + len + 1, nullptr, 10);
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "fp_bench: %s\nusage: fp_bench --workload <name> --seed <s> "
               "--seconds <t> [--trace <dir>]\nworkloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_dir;
  long long seed = -1;
  double seconds = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload")
      name = value;
    else if (flag == "--seed")
      seed = std::strtoll(value, nullptr, 10);
    else if (flag == "--seconds")
      seconds = std::strtod(value, nullptr);
    else if (flag == "--trace")
      trace_dir = value;
    else
      return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (seed < 0 || seed > 1000000000000LL)
    return usage("--seed must be in [0, 1e12]");
  if (!(seconds >= 0.0)) return usage("--seconds must be >= 0");
  const Workload* w = nullptr;
  for (const auto& cand : workloads())
    if (name == cand.name) w = &cand;
  if (w == nullptr) return usage(("unknown workload '" + name + "'").c_str());
  // The caller's environment must not change the work (fast-mode scaling)
  // or make the program write artifacts of its own.
  unsetenv("FP_BENCH_FAST");
  unsetenv("FP_BENCH_OUT");

  try {
    std::vector<std::string> units;
    std::string reference = "null";
    const double start = obs::now_s();
    for (int i = 0; i < kMinUnits || obs::now_s() - start < seconds; ++i) {
      const auto fl_seed = static_cast<std::uint64_t>(1000 * seed + i + 1);
      const std::string trace =
          !trace_dir.empty() && i % 2 == 0
              ? trace_dir + "/unit" + std::to_string(i) + ".json"
              : "";
      const double unit_start = obs::now_s();
      Obj unit = w->kind == Kind::kTrain ? train_unit(*w, fl_seed, trace)
                 : w->kind == Kind::kDistributed
                     ? distributed_unit(*w, fl_seed, trace)
                     : serve_unit(*w, fl_seed, trace);
      unit.num("unit_s", obs::now_s() - unit_start)
          .num("traced", std::int64_t{trace.empty() ? 0 : 1});
      units.push_back(unit.render());
    }
    if (w->kind == Kind::kDistributed) {
      // The distributed run must reproduce the single-process run at the
      // same seed bit for bit: run.py compares unit 0's hash with this one.
      const Workload& single = workloads().front();
      reference = train_unit(single, static_cast<std::uint64_t>(1000 * seed + 1),
                             "")
                      .render();
    }
    Obj out;
    out.str("workload", w->name)
        .num("seed", static_cast<std::int64_t>(seed))
        .num("threads", static_cast<std::int64_t>(core::num_threads()))
        .num("vm_size_kb", status_field("VmSize"))
        .num("process_threads", status_field("Threads"))
        .num("dropped_events", obs::dropped_events())
        .raw("units", json_list(units))
        .raw("reference", reference);
    std::printf("%s\n", out.render().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp_bench: %s: %s\n", w->name, e.what());
    return 1;
  }
}
