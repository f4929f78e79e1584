#ifndef NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_
#define NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/embedding_provider.h"
#include "text/vocab.h"

namespace nlidb {
namespace core {

/// The machine-comprehension binary classifier of Sec. IV-B: given a
/// question q and a column c, predicts whether c is mentioned in q.
///
/// Architecture (Fig. 3):
///  (i)  word embedder emb(w) = [E_word(w), E_char(w)] with a char-CNN
///       over widths {3..7} (Fig. 4);
///  (ii) a stacked LSTM over the question and a separate stacked LSTM
///       over the column words;
///  (iii) a bidirectional LSTM over the column states with additive
///       attention into the question states; the per-step outputs d_t are
///       zero-padded to `max_column_words`, concatenated and fed to an
///       MLP that emits one logit.
///
/// `Forward` exposes the embedding-lookup graph nodes so the adversarial
/// locator can read dL/dE_word(w) and dL/dE_char(w) after Backward.
class ColumnMentionClassifier : public nn::Module {
 public:
  ColumnMentionClassifier(const ModelConfig& config,
                          const text::EmbeddingProvider& provider);

  /// Registers question/column words into the trainable word vocabulary,
  /// initializing new rows from the embedding provider. Call for the
  /// training corpus before training; unseen inference words map to <unk>
  /// (their char-level representation still carries signal).
  void AddVocabulary(const std::vector<std::string>& words);

  struct ForwardResult {
    Var logit;                       // [1,1]
    Var question_word_embeddings;    // [n, word_dim] lookup node
    std::vector<Var> question_char_embeddings;  // per token: [1, char_out]
  };

  /// Runs the classifier on (question tokens, column words).
  /// InvalidArgument when either sequence is empty — malformed input is
  /// a request error, not a process-fatal invariant (DESIGN.md
  /// "Fault-tolerance architecture").
  StatusOr<ForwardResult> Forward(const std::vector<std::string>& question,
                                  const std::vector<std::string>& column) const;

  /// P(column mentioned in question) = sigmoid(logit).
  StatusOr<float> Predict(const std::vector<std::string>& question,
                          const std::vector<std::string>& column) const;

  /// Scores every column against the question, returning probabilities
  /// in column order, bitwise identical to calling Predict per column.
  /// Runs graph-free on the calling thread's Workspace arena
  /// (column_mention_fast.cc, DESIGN.md §12): the question encoding is
  /// computed once and shared, columns of equal capped length walk the
  /// attention bi-LSTM in lockstep as rows of one state matrix, and every
  /// row-independent product is one GEMM. No tape node is created.
  StatusOr<std::vector<float>> PredictBatch(
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns) const;

  /// dz/dE_word and dz/dE_char for one column's logit z: `word` is
  /// [n, word_dim] (the question's word-embedding rows), `chars` is
  /// [n, char_output_dim()] (its char-CNN outputs), one row per question
  /// token. Both point into the calling thread's Workspace and are valid
  /// only during the sink call.
  struct QuestionGradients {
    int column = 0;  // index into the `columns` argument
    const float* word = nullptr;
    const float* chars = nullptr;
  };
  using GradientSink = std::function<void(const QuestionGradients&)>;

  /// PredictBatch plus, for every column whose probability is at least
  /// `threshold`, a hand-derived backward from its logit to the question
  /// embeddings, handed to `sink` in column order. The gradients are
  /// bitwise equal to what Backward(Forward(question, column).logit)
  /// accumulates at the embedding lookup nodes: the backward replays the
  /// tape's per-node accumulation order (DESIGN.md §12). Accepted columns
  /// share GEMMs as rows; there is no second forward and no tape.
  StatusOr<std::vector<float>> PredictBatchWithGradients(
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns, float threshold,
      const GradientSink& sink) const;

  void CollectParameters(std::vector<Var>* out) const override;

  const ModelConfig& config() const { return config_; }
  const text::Vocab& vocab() const { return vocab_; }
  int char_output_dim() const { return char_embedder_->output_dim(); }

 private:
  friend class ColumnMentionFastPass;  // column_mention_fast.cc


  StatusOr<Var> Embed(const std::vector<std::string>& words,
                      Var* word_lookup,
                      std::vector<Var>* char_outputs) const;

  ModelConfig config_;
  const text::EmbeddingProvider* provider_;
  text::Vocab vocab_;
  text::CharVocab char_vocab_;

  std::unique_ptr<nn::Embedding> word_embedding_;
  std::unique_ptr<nn::CharCnnEmbedder> char_embedder_;
  std::unique_ptr<nn::StackedLstm> question_lstm_;
  std::unique_ptr<nn::StackedLstm> column_lstm_;
  // Attention bi-LSTM over column states.
  std::unique_ptr<nn::AdditiveAttention> attention_;
  std::unique_ptr<nn::Linear> query_state_proj_;   // W2 s_t^c
  std::unique_ptr<nn::Linear> query_hidden_proj_;  // W3 d_{t-1} (+ b)
  std::unique_ptr<nn::LstmCell> fwd_cell_;
  std::unique_ptr<nn::LstmCell> bwd_cell_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_
