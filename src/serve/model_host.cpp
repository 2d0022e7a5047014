#include "serve/model_host.hpp"

#include <stdexcept>

#include "exp/json.hpp"
#include "exp/registries.hpp"
#include "exp/runner.hpp"
#include "nn/model_io.hpp"

namespace fp::serve {

std::string sidecar_path(const std::string& model_path) {
  return model_path + ".spec.json";
}

void export_model(const std::string& path, const exp::ExperimentSpec& resolved,
                  const nn::ParamBlob& blob) {
  nn::save_checkpoint(path, blob);
  const std::string spec_path = sidecar_path(path);
  if (!exp::write_text_file(spec_path, exp::spec_to_json(resolved)))
    throw std::runtime_error("export_model: cannot write sidecar " + spec_path);
}

ServedModel make_served_model(exp::ExperimentSpec resolved,
                              const nn::ParamBlob& blob) {
  ServedModel m;
  // resolve_full is idempotent on an exported sidecar and fills the autos
  // when a hand-written spec is served directly.
  m.spec = exp::resolve_full(std::move(resolved));
  const exp::ModelParams mp{m.spec.model_image, m.spec.model_classes,
                            m.spec.model_width};
  m.model_spec = exp::model_registry().resolve(m.spec.model)(mp);
  m.compute = m.spec.fl.compute;
  // Weights and BN statistics are fully overwritten by the blob; the Rng
  // only feeds the throwaway initialization.
  Rng rng(m.spec.fl.seed);
  m.model = std::make_unique<models::BuiltModel>(m.model_spec, rng);
  const auto want = static_cast<std::int64_t>(m.model->blob_size());
  if (static_cast<std::int64_t>(blob.size()) != want)
    throw std::runtime_error(
        "checkpoint does not fit model '" + m.spec.model + "': holds " +
        std::to_string(blob.size()) + " floats, model expects " +
        std::to_string(want) +
        " (was the sidecar spec edited after --save-model?)");
  m.model->load_all(blob);
  return m;
}

ServedModel load_served_model(const std::string& ckpt_path,
                              const std::string& spec_path) {
  const std::string sp = spec_path.empty() ? sidecar_path(ckpt_path) : spec_path;
  std::string text;
  if (!exp::read_text_file(sp, &text))
    throw std::runtime_error("cannot read model spec sidecar " + sp +
                             " (exported next to the checkpoint by "
                             "fp_run --save-model)");
  exp::ExperimentSpec spec;
  exp::apply_json(spec, text);
  return make_served_model(std::move(spec), nn::load_checkpoint(ckpt_path));
}

Tensor reference_forward(models::BuiltModel& model, const Tensor& x,
                         const compute::ComputeConfig& cc) {
  const compute::InferenceScope scope(cc);
  return model.forward(x, /*train=*/false);
}

}  // namespace fp::serve
