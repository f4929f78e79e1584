#include "core/value_detector.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "common/workspace.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

ValueDetector::ValueDetector(const ModelConfig& config,
                             const text::EmbeddingProvider& provider)
    : config_(config), provider_(&provider) {
  Rng rng(config_.seed + 1);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{2 * provider.dim(), config_.value_mlp_hidden, 1}, rng);
}

namespace {

/// ForwardFromVectors' input check, shared with the batched Detect.
Status CheckInputDims(size_t span_dim, size_t stats_dim, int want) {
  if (static_cast<int>(span_dim) != want ||
      static_cast<int>(stats_dim) != want) {
    return Status::InvalidArgument(
        "ValueDetector input dims: span=" + std::to_string(span_dim) +
        " stats=" + std::to_string(stats_dim) +
        " want=" + std::to_string(want));
  }
  return Status::Ok();
}

/// One input row [s_c - s_span, s_c * s_span] (paper Sec. IV-D).
void FillInputRow(const std::vector<float>& span_embedding,
                  const std::vector<float>& column_stats, int d, float* row) {
  for (int j = 0; j < d; ++j) {
    row[j] = column_stats[j] - span_embedding[j];
    row[d + j] = column_stats[j] * span_embedding[j];
  }
}

}  // namespace

StatusOr<Var> ValueDetector::ForwardFromVectors(
    const std::vector<float>& span_embedding,
    const std::vector<float>& column_stats) const {
  const int d = provider_->dim();
  NLIDB_RETURN_IF_ERROR(
      CheckInputDims(span_embedding.size(), column_stats.size(), d));
  Tensor input({1, 2 * d});
  FillInputRow(span_embedding, column_stats, d, input.data());
  return mlp_->Forward(MakeVar(std::move(input)));
}

StatusOr<float> ValueDetector::Score(
    const std::vector<std::string>& span_tokens,
    const sql::ColumnStatistics& stats) const {
  const std::vector<float> span_emb = provider_->PhraseVector(span_tokens);
  StatusOr<Var> logit = ForwardFromVectors(span_emb, stats.embedding);
  if (!logit.ok()) return logit.status();
  return 1.0f / (1.0f + std::exp(-(*logit)->value.vec()[0]));
}

std::vector<text::Span> ValueDetector::CandidateSpans(
    const std::vector<std::string>& tokens) const {
  std::vector<text::Span> spans;
  const int n = static_cast<int>(tokens.size());
  for (int i = 0; i < n; ++i) {
    if (text::IsStopWord(tokens[i])) continue;
    for (int j = i + 1; j <= std::min(n, i + config_.max_value_span); ++j) {
      if (text::IsStopWord(tokens[j - 1])) break;
      spans.push_back(text::Span{i, j});
    }
  }
  return spans;
}

StatusOr<std::vector<ValueDetector::Detection>> ValueDetector::Detect(
    const std::vector<std::string>& tokens,
    const std::vector<sql::ColumnStatistics>& table_stats,
    const CancelContext* ctx) const {
  // Every type-compatible (span, column) pair becomes one row of a
  // [pairs, 2d] matrix that runs through the MLP as one GEMM per layer.
  // Rows are independent through every op, so each score is bitwise the
  // one Score would return, without a tape node.
  const int d = provider_->dim();
  const std::vector<text::Span> spans = CandidateSpans(tokens);
  struct Pair {
    int span;
    int column;
  };
  std::vector<Pair> pairs;
  std::vector<std::vector<float>> span_vectors(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "value_detector.detect"));
    const std::vector<std::string> span_tokens(
        tokens.begin() + spans[s].begin, tokens.begin() + spans[s].end);
    bool all_numeric = true;
    for (const auto& t : span_tokens) all_numeric = all_numeric && LooksNumeric(t);
    span_vectors[s] = provider_->PhraseVector(span_tokens);
    for (size_t c = 0; c < table_stats.size(); ++c) {
      // Type compatibility: a real column only takes all-numeric spans
      // ("june 23" can never be a laps value).
      if (table_stats[c].type == sql::DataType::kReal && !all_numeric) continue;
      NLIDB_RETURN_IF_ERROR(CheckInputDims(
          span_vectors[s].size(), table_stats[c].embedding.size(), d));
      pairs.push_back({static_cast<int>(s), static_cast<int>(c)});
    }
  }
  std::vector<Detection> detections;
  if (pairs.empty()) return detections;

  const int rows = static_cast<int>(pairs.size());
  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope scope(ws);
  float* x = ws.Floats(static_cast<size_t>(rows) * 2 * d);
  for (int p = 0; p < rows; ++p) {
    FillInputRow(span_vectors[pairs[p].span],
                 table_stats[pairs[p].column].embedding, d,
                 x + static_cast<size_t>(p) * 2 * d);
  }
  // nn::Mlp::Forward: Linear (GEMM + bias), ReLU between layers.
  int width = 2 * d;
  for (int l = 0; l < mlp_->num_layers(); ++l) {
    const nn::Linear& layer = mlp_->layer(l);
    const int out = layer.out_features();
    float* y = ws.Floats(static_cast<size_t>(rows) * out);
    GemmAccumulateRaw(x, layer.weight()->value.data(), y, rows, width, out);
    const float* bias = layer.bias()->value.data();
    const bool relu = l + 1 < mlp_->num_layers();
    for (int p = 0; p < rows; ++p) {
      float* row = y + static_cast<size_t>(p) * out;
      for (int j = 0; j < out; ++j) {
        row[j] += bias[j];
        if (relu) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
      }
    }
    x = y;
    width = out;
  }

  // Pairs are span-major in column order, so each span's detections are
  // a contiguous run; same order, sort and > 0.5 test as the scan over
  // Score always used.
  for (int p = 0; p < rows;) {
    Detection det;
    det.span = spans[pairs[p].span];
    const int span = pairs[p].span;
    for (; p < rows && pairs[p].span == span; ++p) {
      const float score = 1.0f / (1.0f + std::exp(-x[p]));
      if (score > 0.5f) det.column_scores.push_back({pairs[p].column, score});
    }
    if (det.column_scores.empty()) continue;
    std::sort(det.column_scores.begin(), det.column_scores.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    detections.push_back(std::move(det));
  }
  return detections;
}

void ValueDetector::CollectParameters(std::vector<Var>* out) const {
  mlp_->CollectParameters(out);
}

}  // namespace core
}  // namespace nlidb
