#ifndef NLIDB_CORE_ADVERSARIAL_H_
#define NLIDB_CORE_ADVERSARIAL_H_

#include <string>
#include <vector>

#include "core/column_mention_classifier.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {

/// Per-token influence levels (Sec. IV-C):
///   I(w) = alpha * ||dL/dE_word(w)||_p + beta * ||dL/dE_char(w)||_p
struct InfluenceProfile {
  std::vector<float> word_level;  // ||dL/dE_word(w_i)||_p
  std::vector<float> char_level;  // ||dL/dE_char(w_i)||_p
  std::vector<float> total;       // alpha*word + beta*char
};

/// The adversarial text method: locates the term of a column mention as
/// the contiguous span most influential to the classifier's decision,
/// measured by fast-gradient-method loss gradients w.r.t. the word- and
/// character-level representations (Goodfellow et al. [9], Miyato et
/// al. [25]).
class AdversarialLocator {
 public:
  explicit AdversarialLocator(const ModelConfig& config) : config_(config) {}

  /// Computes the influence of every question token on the prediction
  /// that `column` is mentioned in `question`. Runs one forward/backward
  /// pass of the classifier with target label 1. Propagates the
  /// classifier's InvalidArgument on empty inputs.
  StatusOr<InfluenceProfile> ComputeInfluence(
      const ColumnMentionClassifier& classifier,
      const std::vector<std::string>& question,
      const std::vector<std::string>& column) const;

  /// The annotator's classifier pass in one call: PredictBatch's
  /// probabilities and, for every column whose probability is at least
  /// `threshold`, the profile ComputeInfluence returns for it — bitwise,
  /// from the graph-free pass (ColumnMentionClassifier::
  /// PredictBatchWithGradients) instead of a taped forward + Backward
  /// per column. `profiles[c]` is empty for columns below the threshold.
  struct ScoredColumns {
    std::vector<float> probabilities;
    std::vector<InfluenceProfile> profiles;
  };
  StatusOr<ScoredColumns> ScoreColumns(
      const ColumnMentionClassifier& classifier,
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns,
      float threshold) const;

  /// The paper's per-token norms over logit gradients, shared by the
  /// tape and fast paths: word_level[i] = ||word_grad row i||_p,
  /// char_level[i] = ||char_grad row i||_p, total = alpha*word +
  /// beta*char. `word_grad` is [n, word_dim], `char_grad` [n, char_dim].
  InfluenceProfile ProfileFromGradients(int n, const float* word_grad,
                                        int word_dim, const float* char_grad,
                                        int char_dim) const;

  /// Picks the mention span from an influence profile: seeded at the
  /// influence peak and greedily extended while neighbors stay above
  /// half the peak, capped at `config.max_mention_length` (the paper's
  /// maximum mention length constraint).
  text::Span LocateSpan(const InfluenceProfile& profile) const;

  /// Convenience: ComputeInfluence + LocateSpan.
  StatusOr<text::Span> LocateMention(
      const ColumnMentionClassifier& classifier,
      const std::vector<std::string>& question,
      const std::vector<std::string>& column) const;

 private:
  ModelConfig config_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_ADVERSARIAL_H_
