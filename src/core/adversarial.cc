#include "core/adversarial.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

StatusOr<InfluenceProfile> AdversarialLocator::ComputeInfluence(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  StatusOr<ColumnMentionClassifier::ForwardResult> fr_or =
      classifier.Forward(question, column);
  if (!fr_or.ok()) return fr_or.status();
  ColumnMentionClassifier::ForwardResult fr = std::move(fr_or).value();
  // The paper takes dL/dq with L the classifier loss. Since
  // dL/dE = (sigmoid(z) - target) * dz/dE, the loss gradient is the
  // logit gradient scaled by a constant that underflows to exactly zero
  // in float once the classifier saturates (p -> 1). We therefore
  // backpropagate from the logit z itself: identical influence *profile*
  // (what the span search consumes), numerically stable at saturation.
  Var loss = fr.logit;
  // The embedding lookup nodes must expose gradients even though we never
  // update them here.
  fr.question_word_embeddings->requires_grad = true;
  for (auto& v : fr.question_char_embeddings) v->requires_grad = true;
  {
    // Influence probing only reads gradients at the embedding *lookup*
    // nodes, never at the weights. The scope makes Backward skip every
    // write into parameter leaves, which (a) drops the useless dW GEMMs
    // and (b) removes the only shared-state writes, so ComputeInfluence
    // calls on different threads never race (the lookup nodes and all
    // intermediates are per-graph).
    InferenceGradScope scope;
    Backward(loss);
  }

  // A lookup node the backward never reached keeps an empty grad; its
  // rows count as zeros (norm 0), as they always have.
  const int n = static_cast<int>(question.size());
  const int word_dim = fr.question_word_embeddings->value.cols();
  const int char_dim = classifier.char_output_dim();
  const Tensor& wg = fr.question_word_embeddings->grad;
  std::vector<float> word(static_cast<size_t>(n) * word_dim, 0.0f);
  if (!wg.empty()) std::copy(wg.vec().begin(), wg.vec().end(), word.begin());
  std::vector<float> chars(static_cast<size_t>(n) * char_dim, 0.0f);
  for (int i = 0; i < n; ++i) {
    const Tensor& cg = fr.question_char_embeddings[i]->grad;
    if (!cg.empty()) {
      std::copy(cg.vec().begin(), cg.vec().end(),
                chars.begin() + static_cast<size_t>(i) * char_dim);
    }
  }
  return ProfileFromGradients(n, word.data(), word_dim, chars.data(),
                              char_dim);
}

InfluenceProfile AdversarialLocator::ProfileFromGradients(
    int n, const float* word_grad, int word_dim, const float* char_grad,
    int char_dim) const {
  const float p = config_.influence_norm_p;
  // ||x||_p with Tensor::NormP's summation order.
  auto norm = [p](const float* x, int len) {
    float s = 0.0f;
    for (int j = 0; j < len; ++j) s += std::pow(std::fabs(x[j]), p);
    return std::pow(s, 1.0f / p);
  };
  InfluenceProfile profile;
  profile.word_level.resize(n, 0.0f);
  profile.char_level.resize(n, 0.0f);
  profile.total.resize(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    profile.word_level[i] =
        norm(word_grad + static_cast<size_t>(i) * word_dim, word_dim);
    profile.char_level[i] =
        norm(char_grad + static_cast<size_t>(i) * char_dim, char_dim);
    profile.total[i] = config_.influence_alpha * profile.word_level[i] +
                       config_.influence_beta * profile.char_level[i];
  }
  return profile;
}

StatusOr<AdversarialLocator::ScoredColumns> AdversarialLocator::ScoreColumns(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns,
    float threshold) const {
  ScoredColumns out;
  out.profiles.resize(columns.size());
  const int n = static_cast<int>(question.size());
  const int word_dim = classifier.config().word_dim;
  const int char_dim = classifier.char_output_dim();
  StatusOr<std::vector<float>> probs = classifier.PredictBatchWithGradients(
      question, columns, threshold,
      [&](const ColumnMentionClassifier::QuestionGradients& g) {
        out.profiles[g.column] =
            ProfileFromGradients(n, g.word, word_dim, g.chars, char_dim);
      });
  if (!probs.ok()) return probs.status();
  out.probabilities = std::move(probs).value();
  return out;
}

text::Span AdversarialLocator::LocateSpan(
    const InfluenceProfile& profile) const {
  const int n = static_cast<int>(profile.total.size());
  if (n == 0) return text::Span{};
  int peak = 0;
  for (int i = 1; i < n; ++i) {
    if (profile.total[i] > profile.total[peak]) peak = i;
  }
  const float threshold = 0.5f * profile.total[peak];
  int begin = peak;
  int end = peak + 1;
  // Greedy bidirectional extension by the stronger neighbor, bounded by
  // the maximum mention length.
  while (end - begin < config_.max_mention_length) {
    const float left = begin > 0 ? profile.total[begin - 1] : -1.0f;
    const float right = end < n ? profile.total[end] : -1.0f;
    if (left < threshold && right < threshold) break;
    if (left >= right) {
      --begin;
    } else {
      ++end;
    }
  }
  return text::Span{begin, end};
}

StatusOr<text::Span> AdversarialLocator::LocateMention(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  StatusOr<InfluenceProfile> profile =
      ComputeInfluence(classifier, question, column);
  if (!profile.ok()) return profile.status();
  return LocateSpan(*profile);
}

}  // namespace core
}  // namespace nlidb
