#include "fed/runtime/engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "fed/runtime/scheduler.hpp"
#include "mem/arena.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fp::fed {

void RoundMethod::net_custom_op(std::uint32_t op, comm::FrameReader&,
                                std::size_t, comm::FrameWriter&) {
  throw std::logic_error("this method has no net custom op " +
                         std::to_string(op));
}

std::vector<std::size_t> start_order(const RoundMethod& m,
                                     const TaskSpec* tasks, std::size_t n) {
  std::vector<double> cost(n);
  for (std::size_t i = 0; i < n; ++i) cost[i] = m.task_cost(tasks[i]);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cost[a] > cost[b];
  });
  return order;
}

RoundEngine::RoundEngine(FedEnv& env, const FlConfig& cfg)
    : env_(&env),
      cfg_(cfg),
      sampler_(env.num_clients(), cfg.seed + 11),
      channel_(cfg.comm),
      // Dedicated stream (seed + 29): enabling churn perturbs no other draws.
      churn_(cfg.churn, cfg.seed + 29) {
  switch (cfg_.scheduler) {
    case SchedulerKind::kSync:
      scheduler_ = std::make_unique<SyncScheduler>();
      break;
    case SchedulerKind::kAsync:
      scheduler_ = std::make_unique<AsyncScheduler>(cfg_.async, cfg_.seed + 17);
      break;
  }
}

RoundEngine::~RoundEngine() = default;

RoundStats RoundEngine::run_round(RoundMethod& m, std::int64_t t) {
  FP_TRACE_SCOPE_ARG("round", "engine", "round", t);
  const double wall0 = obs::now_s();
  RoundStats st = scheduler_->run_round(*this, m, t);
  st.round_wall_s = obs::now_s() - wall0;
  static obs::Counter& rounds = obs::counter("engine.rounds");
  rounds.add();
  return st;
}

std::int64_t RoundEngine::client_budget_bytes(const TaskSpec& task) const {
  if (!cfg_.mem.enforce_budget) return 0;
  if (cfg_.mem.budget_override_bytes > 0) return cfg_.mem.budget_override_bytes;
  if (!task.has_device) return 0;
  return static_cast<std::int64_t>(
      static_cast<double>(task.device.avail_mem_bytes) *
      cfg_.mem.device_mem_scale);
}

Upload RoundEngine::run_client(RoundMethod& m, const TaskSpec& task) {
  FP_TRACE_SCOPE_ARG("client", "engine", "client", task.client);
  static obs::Counter& trained = obs::counter("engine.clients_trained");
  trained.add();
  if (!cfg_.mem.active()) return m.train_client(task);
  mem::Budget budget{client_budget_bytes(task)};
  mem::ClientMemScope scope(budget, cfg_.mem.checkpointing);
  Upload up = m.train_client(task);
  up.peak_mem_bytes = scope.peak_bytes();
  up.over_budget = budget.avail_mem_bytes > 0 &&
                   up.peak_mem_bytes > budget.avail_mem_bytes;
  return up;
}

std::vector<TaskSpec> RoundEngine::sample_tasks(std::int64_t t,
                                                std::int64_t count) {
  const auto ids =
      sampler_.sample(count, churn_.enabled() ? &churn_ : nullptr, t);
  std::vector<TaskSpec> tasks(ids.size());
  const float lr = lr_at(t);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tasks[i].round = t;
    tasks[i].slot = i;
    tasks[i].client = ids[i];
    tasks[i].lr = lr;
    tasks[i].weight = env_->weight_of(ids[i]);
  }
  if (env_->devices) {
    if (!env_->device_of_client.empty()) {
      // Persistent fleet: client k keeps its device; only the real-time
      // availability degradation is redrawn per dispatch.
      for (auto& task : tasks) {
        task.device =
            env_->devices->sample_bound(env_->device_of_client[task.client]);
        task.has_device = true;
      }
    } else if (env_->stateless_binding) {
      // Persistent fleet at scale: the binding is a pure function of
      // (bind_seed, client) — no O(pool) table.
      for (auto& task : tasks) {
        task.device =
            env_->devices->sample_bound(env_->bound_device_index(task.client));
        task.has_device = true;
      }
    } else {
      const auto devices = env_->devices->sample_n(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        tasks[i].device = devices[i];
        tasks[i].has_device = true;
      }
    }
  }
  return tasks;
}

}  // namespace fp::fed
