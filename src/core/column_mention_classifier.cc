#include "core/column_mention_classifier.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

ColumnMentionClassifier::ColumnMentionClassifier(
    const ModelConfig& config, const text::EmbeddingProvider& provider)
    : config_(config), provider_(&provider) {
  NLIDB_CHECK(config_.word_dim == provider.dim())
      << "word_dim must match EmbeddingProvider dim";
  Rng rng(config_.seed);
  // Generous vocab budget; rows are initialized lazily by AddVocabulary.
  word_embedding_ = std::make_unique<nn::Embedding>(
      /*vocab_size=*/4096, config_.word_dim, rng);
  char_embedder_ = std::make_unique<nn::CharCnnEmbedder>(
      char_vocab_.size(), config_.char_dim, config_.char_per_width,
      config_.char_widths, rng);
  const int emb_dim = config_.word_dim + char_embedder_->output_dim();
  question_lstm_ = std::make_unique<nn::StackedLstm>(
      emb_dim, config_.classifier_hidden, config_.classifier_layers, rng);
  column_lstm_ = std::make_unique<nn::StackedLstm>(
      emb_dim, config_.classifier_hidden, config_.classifier_layers, rng);
  const int h = config_.classifier_hidden;
  attention_ = std::make_unique<nn::AdditiveAttention>(h, h, rng);
  query_state_proj_ = std::make_unique<nn::Linear>(h, h, rng, /*use_bias=*/false);
  query_hidden_proj_ = std::make_unique<nn::Linear>(h, h, rng, /*use_bias=*/true);
  // z_t = [s_t^c ; context] has width 2h; bi-LSTM output per step is 2h.
  fwd_cell_ = std::make_unique<nn::LstmCell>(2 * h, h, rng);
  bwd_cell_ = std::make_unique<nn::LstmCell>(2 * h, h, rng);
  // Each column-word slot carries [fw_t ; bw_t ; max-sim_t ; mean-sim_t]:
  // the LSTM states plus BiDAF-style word-similarity features.
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{(2 * h + 2) * config_.max_column_words,
                       config_.classifier_mlp_hidden, 1},
      rng);
}

void ColumnMentionClassifier::AddVocabulary(
    const std::vector<std::string>& words) {
  for (const auto& w : words) {
    if (vocab_.Contains(w)) continue;
    if (vocab_.size() >= word_embedding_->vocab_size()) break;  // -> <unk>
    const int id = vocab_.AddToken(w);
    if (id == text::Vocab::kUnk) continue;  // vocab frozen
    word_embedding_->SetRow(id, provider_->Vector(w));
  }
}

StatusOr<Var> ColumnMentionClassifier::Embed(
    const std::vector<std::string>& words, Var* word_lookup,
    std::vector<Var>* char_outputs) const {
  if (words.empty()) {
    return Status::InvalidArgument("cannot embed an empty word sequence");
  }
  std::vector<int> ids;
  ids.reserve(words.size());
  for (const auto& w : words) ids.push_back(vocab_.GetId(w));
  Var word_part = word_embedding_->Forward(ids);  // [n, word_dim]
  if (word_lookup != nullptr) *word_lookup = word_part;
  std::vector<Var> rows;
  rows.reserve(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    Var char_part = char_embedder_->Forward(char_vocab_.Encode(words[i]));
    if (char_outputs != nullptr) char_outputs->push_back(char_part);
    rows.push_back(
        ops::ConcatCols({ops::PickRow(word_part, static_cast<int>(i)),
                         char_part}));
  }
  return ops::ConcatRows(rows);  // [n, word_dim + char_out]
}

StatusOr<ColumnMentionClassifier::ForwardResult>
ColumnMentionClassifier::Forward(const std::vector<std::string>& question,
                                 const std::vector<std::string>& column) const {
  ForwardResult result;
  StatusOr<Var> q_emb_or = Embed(question, &result.question_word_embeddings,
                                 &result.question_char_embeddings);
  if (!q_emb_or.ok()) return q_emb_or.status();
  Var q_emb = *q_emb_or;
  Var c_word_lookup;
  StatusOr<Var> c_emb_or = Embed(column, &c_word_lookup, nullptr);
  if (!c_emb_or.ok()) return c_emb_or.status();
  Var c_emb = *c_emb_or;

  // BiDAF-style similarity matrix between column and question word
  // embeddings (the classifier is "a bidirectional attention flow" in the
  // paper; the similarity matrix is its core signal). Embeddings start
  // unit-norm, so dots approximate cosines.
  Var sim = ops::MatMul(c_word_lookup,
                        ops::Transpose(result.question_word_embeddings));
  Var sim_max = ops::RowMax(sim);    // [m,1]
  Var sim_mean = ops::RowMean(sim);  // [m,1]

  Var sq = question_lstm_->Forward(q_emb);  // [n, h]
  Var sc = column_lstm_->Forward(c_emb);    // [m, h]

  // Attention bi-LSTM over column steps. The query contribution at step t
  // is W2 s_t^c + W3 d_{t-1} + b (paper's e_t equation).
  Var memory_proj = attention_->ProjectMemory(sq);
  const int m = sc->value.rows();
  const int capped = std::min(m, config_.max_column_words);

  auto run_direction = [&](bool forward) {
    std::vector<Var> outs(capped);
    nn::LstmCell& cell = forward ? *fwd_cell_ : *bwd_cell_;
    nn::LstmCell::State state = cell.InitialState();
    for (int step = 0; step < capped; ++step) {
      const int t = forward ? step : capped - 1 - step;
      Var st = ops::PickRow(sc, t);
      Var query = ops::Add(query_state_proj_->Forward(st),
                           query_hidden_proj_->Forward(state.h));
      Var energies = attention_->Energies(memory_proj, query);
      Var weights = attention_->Weights(energies);
      Var context = attention_->Context(weights, sq);
      Var zt = ops::ConcatCols({st, context});
      state = cell.Step(zt, state);
      outs[t] = state.h;
    }
    return outs;
  };
  std::vector<Var> fw = run_direction(true);
  std::vector<Var> bw = run_direction(false);

  std::vector<Var> slots;
  slots.reserve(config_.max_column_words);
  const int h = config_.classifier_hidden;
  Var zero_slot = MakeVar(Tensor::Zeros({1, 2 * h + 2}));
  for (int t = 0; t < config_.max_column_words; ++t) {
    if (t < capped) {
      slots.push_back(ops::ConcatCols({fw[t], bw[t],
                                       ops::PickRow(sim_max, t),
                                       ops::PickRow(sim_mean, t)}));
    } else {
      slots.push_back(zero_slot);  // zero-padding (paper Sec. IV-B iii)
    }
  }
  Var features = ops::ConcatCols(slots);  // [1, 2h * max_column_words]
  result.logit = head_->Forward(features);
  return result;
}

StatusOr<float> ColumnMentionClassifier::Predict(
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  StatusOr<ForwardResult> r = Forward(question, column);
  if (!r.ok()) return r.status();
  const float x = r->logit->value.vec()[0];
  return 1.0f / (1.0f + std::exp(-x));
}

void ColumnMentionClassifier::CollectParameters(std::vector<Var>* out) const {
  word_embedding_->CollectParameters(out);
  char_embedder_->CollectParameters(out);
  question_lstm_->CollectParameters(out);
  column_lstm_->CollectParameters(out);
  attention_->CollectParameters(out);
  query_state_proj_->CollectParameters(out);
  query_hidden_proj_->CollectParameters(out);
  fwd_cell_->CollectParameters(out);
  bwd_cell_->CollectParameters(out);
  head_->CollectParameters(out);
}

}  // namespace core
}  // namespace nlidb
