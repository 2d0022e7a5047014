// Tour of the paper-§8 extensions: checkpointing a trained backbone,
// attaching a LoRA adapter to its classifier and fine-tuning only the
// low-rank factors, and low-bit memory accounting.
#include <cstdio>

#include "data/synthetic.hpp"
#include "models/built_model.hpp"
#include "models/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/lora.hpp"
#include "nn/model_io.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace fp;
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 800;
  dcfg.test_size = 200;
  const auto dataset = data::make_synthetic(dcfg);

  // 1. Train a small backbone briefly and checkpoint it.
  Rng rng(21);
  models::BuiltModel model(models::tiny_vgg_spec(16, 10, 6), rng);
  {
    nn::Sgd opt(model.parameters_range(0, model.num_atoms()),
                model.gradients_range(0, model.num_atoms()), {0.05f, 0.9f, 1e-4f});
    Rng drng(22);
    data::BatchIterator batches(dataset.train, 32, drng);
    for (int i = 0; i < 150; ++i) {
      const auto b = batches.next();
      model.zero_grad_range(0, model.num_atoms());
      const Tensor logits = model.forward(b.x, true);
      model.backward_range(0, model.num_atoms(), cross_entropy_grad(logits, b.y));
      opt.step();
    }
  }
  const std::string ckpt = "/tmp/fedprophet_backbone.ckpt";
  nn::save_checkpoint(ckpt, model.save_all());
  std::printf("checkpoint written: %s (%zu params+buffers)\n", ckpt.c_str(),
              model.blob_size());
  model.load_all(nn::load_checkpoint(ckpt));
  std::printf("checkpoint round-trip verified (checksummed format)\n\n");

  // 2. LoRA: replace the classifier's dense update with rank-2 factors.
  //    The backbone classifier here is GAP -> Flatten -> Linear(24, 10).
  auto* head_seq = dynamic_cast<nn::Sequential*>(&model.atom(model.num_atoms() - 1));
  auto* dense = dynamic_cast<nn::Linear*>(&head_seq->at(head_seq->size() - 1));
  nn::LoRaLinear lora(dense->weight(), dense->bias(), /*rank=*/2, /*alpha=*/4.0f,
                      rng);
  std::printf("LoRA adapter: trainable %lld vs dense %lld parameters (%.1f%%)\n",
              static_cast<long long>(lora.trainable_params()),
              static_cast<long long>(lora.dense_params()),
              100.0 * static_cast<double>(lora.trainable_params()) /
                  static_cast<double>(lora.dense_params()));

  // Fine-tune only the adapter on the features of the frozen backbone.
  nn::Sgd lora_opt(lora.parameters(), lora.gradients(), {0.05f, 0.9f, 0.0f});
  Rng drng(23);
  data::BatchIterator batches(dataset.train, 32, drng);
  for (int i = 0; i < 60; ++i) {
    const auto b = batches.next();
    // Features = everything up to (but excluding) the final Linear.
    Tensor feat = model.forward_range(0, model.num_atoms() - 1, b.x, false);
    auto* gap_head = head_seq;
    for (std::size_t l = 0; l + 1 < gap_head->size(); ++l)
      feat = gap_head->at(l).forward(feat, false);
    lora.zero_grad();
    const Tensor logits = lora.forward(feat, true);
    lora.backward(cross_entropy_grad(logits, b.y));
    lora_opt.step();
  }
  std::printf("LoRA fine-tuning done; merged weight available for deployment\n\n");

  // 3. Low-bit accounting: how int8 shrinks FedProphet's module budget.
  const auto spec = models::vgg16_spec(32, 10);
  for (const int bits : {32, 16, 8})
    std::printf("VGG16 full-model training memory at int%-2d: %6.0f MB\n", bits,
                static_cast<double>(nn::low_bit_mem_bytes(
                    spec, 0, spec.atoms.size(), 64, false, bits)) /
                    (1 << 20));
  std::remove(ckpt.c_str());
  return 0;
}
