#ifndef NLIDB_CORE_CONFIG_H_
#define NLIDB_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

namespace nlidb {
namespace core {

/// Hyperparameters for the full NLIDB stack.
///
/// `Paper()` reproduces the configuration of Sec. VII-A2 (GRU hidden
/// 400/800, 300-d embeddings, char-CNN widths 3..7, clip 5.0, beam 5).
/// `Small()` is the scaled-down default that trains the whole system in
/// minutes on one CPU core with the from-scratch engine; every benchmark
/// binary uses it unless overridden. Orderings between models/ablations —
/// the reproduction target — are preserved at this scale (EXPERIMENTS.md).
struct ModelConfig {
  // Embeddings. word_dim must equal the EmbeddingProvider dimension.
  int word_dim = 48;
  int char_dim = 12;
  int char_per_width = 8;
  std::vector<int> char_widths = {3, 4, 5};

  // Column mention classifier (Sec. IV-B).
  int classifier_hidden = 48;
  int classifier_layers = 1;
  int classifier_mlp_hidden = 48;
  int max_column_words = 4;  // d_t zero-padding length
  int classifier_epochs = 4;
  float classifier_lr = 3e-3f;

  // Adversarial locator (Sec. IV-C).
  float influence_alpha = 1.0f;  // word-level weight
  float influence_beta = 1.0f;   // char-level weight
  float influence_norm_p = 2.0f; // lp-norm
  int max_mention_length = 5;

  // Mention resolution (Sec. IV-E). false = score-only pairing ablation.
  bool use_dependency_resolution = true;

  // Value detector (Sec. IV-D).
  int value_mlp_hidden = 48;
  int max_value_span = 3;
  int value_epochs = 3;
  float value_lr = 2e-3f;

  // Seq2seq translator (Sec. V).
  int seq2seq_hidden = 64;   // encoder per-direction; decoder uses 2x
  int seq2seq_layers = 1;
  int beam_width = 5;
  int max_decode_length = 40;
  int seq2seq_epochs = 8;
  float seq2seq_lr = 2e-3f;
  /// Probability of training a step against a randomly degraded gold
  /// annotation (exposure robustness to annotator errors).
  float annotation_noise_probability = 0.3f;
  float grad_clip = 5.0f;
  bool use_copy_mechanism = true;
  bool column_name_appending = true;   // vs. symbol substitution (Fig. 6a)
  bool table_header_encoding = true;   // g_i symbols (Fig. 6b)

  uint64_t seed = 7;

  /// Worker threads for the inference substrate (GEMM row partitioning
  /// above kGemmParallelFlops). 0 = resolve at
  /// pipeline construction via ResolveNumThreads(): the NLIDB_NUM_THREADS
  /// environment variable if set, else hardware concurrency. 1 forces the
  /// fully serial path. Any value produces bitwise-identical results
  /// (DESIGN.md "Performance architecture").
  int num_threads = 0;

  /// `num_threads` with defaults applied: the explicit value if >= 1,
  /// else NLIDB_NUM_THREADS, else hardware concurrency; always >= 1.
  int ResolveNumThreads() const;

  /// Scaled-down configuration (default).
  static ModelConfig Small() { return ModelConfig(); }

  /// Tiny configuration for unit tests: smallest dims that still learn.
  static ModelConfig Tiny();

  /// The paper's configuration (Sec. VII-A2); needs serious compute.
  static ModelConfig Paper();
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_CONFIG_H_
