/// Graph-free inference for the column-mention classifier (DESIGN.md §12,
/// "Classifier inference fast path").
///
/// `ColumnMentionFastPass` re-implements `ColumnMentionClassifier::Forward`
/// for a batch of columns without the autodiff tape, and — for the
/// columns the annotator accepts — the part of `Backward(logit)` that the
/// adversarial locator reads: the gradients at the question's word
/// embedding rows and char-CNN outputs. Weight gradients and everything on
/// the column side of the graph are never computed.
///
/// Contract: probabilities are bitwise equal to `Predict`, and gradients
/// are bitwise equal to what the tape accumulates at the embedding lookup
/// nodes. That holds because
///  (a) every elementwise formula of tensor/ops.cc is replicated in the
///      reference evaluation order (tanh through the same kernel-tier
///      TanhInPlace as ops::Tanh), and this TU compiles with
///      -ffp-contract=off (src/core/CMakeLists.txt);
///  (b) every product goes through the deterministic GEMM kernels, whose
///      per-output accumulation order does not depend on the row count, so
///      stacking independent rows (columns, positions, accepted columns)
///      into one GEMM changes no bits;
///  (c) a gradient that the tape accumulates from three or more consumers
///      is summed here in the tape's order. Backward() processes nodes in
///      reverse post-order of a parents-first DFS from the logit; for this
///      graph that fixes three orders, derived in DESIGN.md §12 and
///      replayed below:
///        - attention h^fw_t:  (w_hh term + W3 term) + feature slot,
///        - attention h^bw_t:  (feature slot + w_hh term) + W3 term,
///        - sq and memory_proj: steps fw T-1..1, bw 0..T-1, then fw 0
///          (and sq's memory-projection term last).
///      Every other node has at most two contributions, and float addition
///      of two terms onto zero is order-free. (GEMM dA terms are a zeroed
///      dot added once — RowsABt — so each counts as one term.)
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "common/workspace.h"
#include "core/column_mention_classifier.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace core {

namespace {

/// ops::Sigmoid formula.
inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// ops::AddRowBroadcast: out[i, :] += bias for every row.
void AddBiasRows(float* out, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

size_t Sz(long long a, long long b = 1, long long c = 1) {
  return static_cast<size_t>(a * b * c);
}

/// Per-step activations of one LstmCell run over R sequences in lockstep.
/// Time-major: row t*R + r is sequence r at step t, so the R states of a
/// step are one contiguous GEMM operand.
struct LstmTrace {
  float* act = nullptr;  // [T*R, 4H] gate activations (i, f, g, o)
  float* c = nullptr;    // [T*R, H] cell states
  float* tc = nullptr;   // [T*R, H] tanh(c)
  float* h = nullptr;    // [T*R, H] hidden states

  void Allocate(Workspace& ws, int rows, int hidden) {
    act = ws.Floats(Sz(rows, 4, hidden));
    c = ws.Floats(Sz(rows, hidden));
    tc = ws.Floats(Sz(rows, hidden));
    h = ws.Floats(Sz(rows, hidden));
  }
};

/// LstmCell::Step after the gate GEMMs, for R rows: `act` holds the
/// pre-activation gates (bias added) and is overwritten with the
/// activations. `c_prev` null means the zero initial state. Formulas and
/// association follow rnn.cc: c = (f*c_prev) + (i*g), h = o*tanh(c).
void LstmElementwise(float* act, const float* c_prev, float* c, float* tc,
                     float* h, int rows, int H) {
  for (int r = 0; r < rows; ++r) {
    float* a = act + Sz(r, 4, H);
    for (int j = 0; j < H; ++j) {
      a[j] = SigmoidF(a[j]);
      a[H + j] = SigmoidF(a[H + j]);
      a[3 * H + j] = SigmoidF(a[3 * H + j]);
    }
    TanhInPlace(a + 2 * H, H);
    for (int j = 0; j < H; ++j) {
      const float cp = c_prev != nullptr ? c_prev[Sz(r, H) + j] : 0.0f;
      c[Sz(r, H) + j] = (a[H + j] * cp) + (a[j] * a[2 * H + j]);
    }
  }
  std::memcpy(tc, c, sizeof(float) * Sz(rows, H));
  TanhInPlace(tc, rows * H);
  for (int r = 0; r < rows; ++r) {
    const float* a = act + Sz(r, 4, H);
    for (int j = 0; j < H; ++j) {
      h[Sz(r, H) + j] = a[3 * H + j] * tc[Sz(r, H) + j];
    }
  }
}

/// The gate gradient of one LSTM step for one row, given dL/dh of that
/// step (`dh`), the cell-state gradient carried from the step that
/// consumed this one's c (`dc_next`, null at the chain end) and that
/// step's forget gate (`f_next`). Writes [di, df, dg, do] pre-activation
/// gradients to `dgates` and dL/dc to `dc`. Mirrors the ops.cc backward
/// closures of Mul, Tanh, Sigmoid and Add in rnn.cc's Step graph.
void LstmStepBackward(const float* act, const float* tc, const float* c_prev,
                      const float* dh, const float* dc_next,
                      const float* f_next, float* dgates, float* dc, int H) {
  for (int j = 0; j < H; ++j) {
    const float i = act[j];
    const float f = act[H + j];
    const float g = act[2 * H + j];
    const float o = act[3 * H + j];
    const float y = tc[j];
    // h = o * tanh(c): d(tanh c) = dh * o, then Tanh's (1 - y^2).
    float dcv = (dh[j] * o) * (1.0f - y * y);
    // The second consumer of c: the next step's f * c.
    if (dc_next != nullptr) dcv = dcv + dc_next[j] * f_next[j];
    const float d_o = dh[j] * y;
    const float cp = c_prev != nullptr ? c_prev[j] : 0.0f;
    dgates[j] = ((dcv * g) * i) * (1.0f - i);
    dgates[H + j] = ((dcv * cp) * f) * (1.0f - f);
    dgates[2 * H + j] = (dcv * i) * (1.0f - g * g);
    dgates[3 * H + j] = (d_o * o) * (1.0f - o);
    dc[j] = dcv;
  }
}

}  // namespace

/// One PredictBatchWithGradients call, driven by a single thread. Declared
/// a friend in column_mention_classifier.h so it can read the model's
/// parameters and vocabularies directly; every float buffer lives in the
/// thread's Workspace, released when Run returns.
class ColumnMentionFastPass {
 public:
  ColumnMentionFastPass(const ColumnMentionClassifier& clf, Workspace& ws)
      : clf_(clf),
        ws_(ws),
        wd_(clf.config_.word_dim),
        co_(clf.char_embedder_->output_dim()),
        e_(wd_ + co_),
        h_(clf.config_.classifier_hidden),
        att_(clf.attention_->attention_dim()),
        max_words_(clf.config_.max_column_words),
        slot_(2 * clf.config_.classifier_hidden + 2),
        feat_(slot_ * max_words_) {}

  StatusOr<std::vector<float>> Run(
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns, float threshold,
      const ColumnMentionClassifier::GradientSink& sink);

 private:
  /// Columns of one capped length, walked in lockstep as R rows.
  struct Group {
    int len = 0;               // T: capped column length
    std::vector<int> members;  // column indices, ascending
    float* emb = nullptr;      // [T*R, E] column embeddings, time-major
    float* col_h = nullptr;    // [T*R, H] column-LSTM top states
    struct Direction {
      LstmTrace lstm;
      float* query = nullptr;    // [T*R, att] W2 s_t + W3 d_{t-1} + b
      float* weights = nullptr;  // [T*R, n] attention weights
    };
    Direction fw, bw;
  };

  /// Gradient state carried along one attention direction's backward
  /// chain, for the accepted rows of one group.
  struct ChainCarry {
    bool live = false;
    int t = 0;                 // position of the step processed last
    float* dgates = nullptr;   // [Ag, 4H] that step's gate gradients
    float* dq = nullptr;       // [Ag, H] that step's query gradient
    float* dc = nullptr;       // [Ag, H] that step's cell gradient
  };

  void EmbedWord(const std::string& word, float* row);
  void CharCnn(const std::string& word, float* out);
  /// Stacked LSTM over R time-major sequences of length T; fills one
  /// trace per layer (the top layer's h is the output).
  void StackedLstmForward(const nn::StackedLstm& lstm, const float* in,
                          int in_dim, int T, int R, LstmTrace* traces);
  void AttentionDirection(Group& g, bool forward);
  void AttentionStepBackward(const Group& g, bool forward, int t,
                             const std::vector<int>& rows,
                             const std::vector<int>& acc_index,
                             ChainCarry& carry, float* dfeat, float* dsq,
                             float* dmem);
  void Backward(const std::vector<int>& accepted_columns,
                const ColumnMentionClassifier::GradientSink& sink);

  const ColumnMentionClassifier& clf_;
  Workspace& ws_;
  const int wd_;         // word_dim
  const int co_;         // char-CNN output width
  const int e_;          // embedding width wd + co
  const int h_;          // classifier_hidden
  const int att_;        // attention width
  const int max_words_;  // max_column_words
  const int slot_;       // feature slot width 2H + 2
  const int feat_;       // head input width

  // Per-call state.
  int n_ = 0;
  std::vector<LstmTrace> q_layers_;
  float* memproj_ = nullptr;  // [n, att]
  std::vector<Group> groups_;
  std::vector<int> group_of_;   // per column
  std::vector<int> row_of_;     // per column, r within its group
  std::vector<int> sim_arg_;    // [B * max_words] RowMax argmax
  std::vector<float*> head_pre_;  // per head layer: pre-activation [B, out]
};

void ColumnMentionFastPass::CharCnn(const std::string& word, float* out) {
  // CharCnnEmbedder::Forward = Conv1dMean per width over the embedded
  // characters, concatenated. The slice/row/char loop order and the
  // zero skip are ops.cc's, so each output sums the same terms in the
  // same order.
  const nn::CharCnnEmbedder& cnn = *clf_.char_embedder_;
  const int cd = cnn.char_dim();
  const int len = std::max<int>(1, static_cast<int>(word.size()));
  Workspace::Scope scope(ws_);
  float* chars = ws_.Floats(Sz(len, cd));
  const Tensor& table = cnn.char_embedding().table()->value;
  for (int i = 0; i < len; ++i) {
    // CharVocab::Encode maps an empty word to the single id 0.
    const int id = word.empty() ? 0 : clf_.char_vocab_.GetId(word[i]);
    std::memcpy(chars + Sz(i, cd), table.data() + Sz(id, cd),
                sizeof(float) * cd);
  }
  const int pw = cnn.per_width_dim();
  for (size_t w = 0; w < cnn.widths().size(); ++w) {
    const int k = cnn.widths()[w];
    const float* weight = cnn.conv_weight(static_cast<int>(w))->value.data();
    const float* bias = cnn.conv_bias(static_cast<int>(w))->value.data();
    float* o = out + Sz(w, pw);
    const int num_slices = std::max(len, k) - k + 1;
    for (int s = 0; s < num_slices; ++s) {
      for (int r = 0; r < k; ++r) {
        const int row = s + r;
        if (row >= len) continue;
        for (int c = 0; c < cd; ++c) {
          const float x = chars[Sz(row, cd) + c];
          if (x == 0.0f) continue;
          const float* wrow = weight + Sz(r * cd + c, pw);
          for (int j = 0; j < pw; ++j) o[j] += x * wrow[j];
        }
      }
    }
    const float inv = 1.0f / static_cast<float>(num_slices);
    for (int j = 0; j < pw; ++j) o[j] = o[j] * inv + bias[j];
  }
}

void ColumnMentionFastPass::EmbedWord(const std::string& word, float* row) {
  const Tensor& table = clf_.word_embedding_->table()->value;
  const int id = clf_.vocab_.GetId(word);
  std::memcpy(row, table.data() + Sz(id, wd_), sizeof(float) * wd_);
  CharCnn(word, row + wd_);
}

void ColumnMentionFastPass::StackedLstmForward(const nn::StackedLstm& lstm,
                                               const float* in, int in_dim,
                                               int T, int R,
                                               LstmTrace* traces) {
  const int H = h_;
  const int rows = T * R;
  for (int l = 0; l < lstm.num_layers(); ++l) {
    // rnn.cc applies the layer's input affine and the cell's x·W_ih per
    // position; both are row-independent, so all positions share a GEMM.
    const nn::Linear& affine = lstm.input_affine(l);
    const nn::LstmCell& cell = lstm.cell(l);
    LstmTrace& tr = traces[l];
    tr.Allocate(ws_, rows, H);
    {
      Workspace::Scope scope(ws_);
      float* x = ws_.Floats(Sz(rows, H));
      GemmAccumulateRaw(in, affine.weight()->value.data(), x, rows, in_dim, H);
      AddBiasRows(x, affine.bias()->value.data(), rows, H);
      GemmAccumulateRaw(x, cell.w_ih()->value.data(), tr.act, rows, H, 4 * H);
    }
    Workspace::Scope scope(ws_);
    float* hw = ws_.Floats(Sz(R, 4, H));
    const float* w_hh = cell.w_hh()->value.data();
    const float* bias = cell.bias()->value.data();
    for (int t = 0; t < T; ++t) {
      float* gates = tr.act + Sz(t, R, 4 * H);
      // Step 0's h_prev is the zero state: its product is +0, kept as
      // the zeroed buffer rather than a GEMM.
      if (t > 0) {
        std::fill_n(hw, Sz(R, 4, H), 0.0f);
        GemmAccumulateRaw(tr.h + Sz(t - 1, R, H), w_hh, hw, R, H, 4 * H);
      }
      for (size_t k = 0; k < Sz(R, 4, H); ++k) gates[k] += hw[k];
      AddBiasRows(gates, bias, R, 4 * H);
      LstmElementwise(gates, t > 0 ? tr.c + Sz(t - 1, R, H) : nullptr,
                      tr.c + Sz(t, R, H), tr.tc + Sz(t, R, H),
                      tr.h + Sz(t, R, H), R, H);
    }
    in = tr.h;
    in_dim = H;
  }
}

void ColumnMentionFastPass::AttentionDirection(Group& g, bool forward) {
  const int T = g.len;
  const int R = static_cast<int>(g.members.size());
  const int H = h_;
  const int att = att_;
  const int n = n_;
  const nn::LstmCell& cell = forward ? *clf_.fwd_cell_ : *clf_.bwd_cell_;
  Group::Direction& d = forward ? g.fw : g.bw;
  d.lstm.Allocate(ws_, T * R, H);
  d.query = ws_.Floats(Sz(T, R, att));
  d.weights = ws_.Floats(Sz(T, R, n));

  Workspace::Scope scope(ws_);
  const float* w_ih = cell.w_ih()->value.data();
  const float* w_hh = cell.w_hh()->value.data();
  const float* bias = cell.bias()->value.data();
  const float* w3 = clf_.query_hidden_proj_->weight()->value.data();
  const float* b3 = clf_.query_hidden_proj_->bias()->value.data();
  const float* v = clf_.attention_->score_vector().weight()->value.data();
  const float* sq = q_layers_.back().h;

  // Row-independent products over every step at once: the column-state
  // query term W2 s_t, and the s_t half of z_t·W_ih. The context half is
  // accumulated onto the latter per step, continuing the same k-ordered
  // sum the tape's single [1,2H]x[2H,4H] product runs.
  float* qs = ws_.Floats(Sz(T, R, H));
  GemmAccumulateRaw(g.col_h, clf_.query_state_proj_->weight()->value.data(),
                    qs, T * R, H, H);
  GemmAccumulateRaw(g.col_h, w_ih, d.lstm.act, T * R, H, 4 * H);

  float* arb = ws_.Floats(Sz(R, n, att));
  float* energies = ws_.Floats(Sz(R, n));
  float* ctx = ws_.Floats(Sz(R, H));
  float* hw = ws_.Floats(Sz(R, 4, H));
  for (int s = 0; s < T; ++s) {
    const int t = forward ? s : T - 1 - s;
    const int prev = forward ? t - 1 : t + 1;
    const float* h_prev = s > 0 ? d.lstm.h + Sz(prev, R, H) : nullptr;
    // query = W2 s_t + (W3 d_{t-1} + b).
    float* query = d.query + Sz(t, R, att);
    if (h_prev != nullptr) GemmAccumulateRaw(h_prev, w3, query, R, H, H);
    AddBiasRows(query, b3, R, H);
    const float* qs_t = qs + Sz(t, R, H);
    for (size_t k = 0; k < Sz(R, H); ++k) query[k] = qs_t[k] + query[k];
    // Energies e_j = v^T tanh(W_mem m_j + query), one [R*n, att] block.
    for (int r = 0; r < R; ++r) {
      for (int j = 0; j < n; ++j) {
        float* row = arb + Sz(r * n + j, att);
        const float* mp = memproj_ + Sz(j, att);
        const float* qr = query + Sz(r, att);
        for (int a = 0; a < att; ++a) row[a] = mp[a] + qr[a];
      }
    }
    TanhInPlace(arb, R * n * att);
    std::fill_n(energies, Sz(R, n), 0.0f);
    GemmAccumulateRaw(arb, v, energies, R * n, att, 1);
    // ops::SoftmaxRows per column row.
    float* weights = d.weights + Sz(t, R, n);
    for (int r = 0; r < R; ++r) {
      const float* e = energies + Sz(r, n);
      float* w = weights + Sz(r, n);
      float mx = e[0];
      for (int j = 1; j < n; ++j) mx = std::max(mx, e[j]);
      float sum = 0.0f;
      for (int j = 0; j < n; ++j) {
        w[j] = std::exp(e[j] - mx);
        sum += w[j];
      }
      for (int j = 0; j < n; ++j) w[j] /= sum;
    }
    std::fill_n(ctx, Sz(R, H), 0.0f);
    GemmAccumulateRaw(weights, sq, ctx, R, n, H);
    // gates = (z_t·W_ih + d_{t-1}·W_hh) + b.
    float* gates = d.lstm.act + Sz(t, R, 4 * H);
    GemmAccumulateRaw(ctx, w_ih + Sz(H, 4 * H), gates, R, H, 4 * H);
    std::fill_n(hw, Sz(R, 4, H), 0.0f);
    if (h_prev != nullptr) GemmAccumulateRaw(h_prev, w_hh, hw, R, H, 4 * H);
    for (size_t k = 0; k < Sz(R, 4, H); ++k) gates[k] += hw[k];
    AddBiasRows(gates, bias, R, 4 * H);
    LstmElementwise(gates, s > 0 ? d.lstm.c + Sz(prev, R, H) : nullptr,
                    d.lstm.c + Sz(t, R, H), d.lstm.tc + Sz(t, R, H),
                    d.lstm.h + Sz(t, R, H), R, H);
  }
}

StatusOr<std::vector<float>> ColumnMentionFastPass::Run(
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns, float threshold,
    const ColumnMentionClassifier::GradientSink& sink) {
  const int batch = static_cast<int>(columns.size());
  if (batch == 0) return std::vector<float>{};
  // Same statuses, in the same order, as the tape's Embed calls.
  if (question.empty()) {
    return Status::InvalidArgument("cannot embed an empty word sequence");
  }
  for (const auto& column : columns) {
    if (column.empty()) {
      return Status::InvalidArgument("cannot embed an empty word sequence");
    }
  }
  Workspace::Scope scope(ws_);
  const int n = n_ = static_cast<int>(question.size());
  const int H = h_;
  const int M = max_words_;

  // ---- Question encoding, shared by every column -------------------------
  float* q_emb = ws_.Floats(Sz(n, e_));
  for (int i = 0; i < n; ++i) EmbedWord(question[i], q_emb + Sz(i, e_));
  q_layers_.assign(clf_.question_lstm_->num_layers(), LstmTrace{});
  StackedLstmForward(*clf_.question_lstm_, q_emb, e_, n, 1,
                     q_layers_.data());
  const float* sq = q_layers_.back().h;
  memproj_ = ws_.Floats(Sz(n, att_));
  GemmAccumulateRaw(sq, clf_.attention_->memory_projection().weight()->value.data(),
                    memproj_, n, H, att_);

  // ---- Columns, grouped by capped length -----------------------------------
  // The column LSTM is causal, so the rows past max_column_words that
  // Forward still encodes never reach the logit; only capped rows run.
  groups_.clear();
  group_of_.assign(batch, -1);
  row_of_.assign(batch, 0);
  {
    std::vector<int> group_by_len(M + 1, -1);
    for (int len = 1; len <= M; ++len) {
      for (int c = 0; c < batch; ++c) {
        if (std::min<int>(static_cast<int>(columns[c].size()), M) != len) {
          continue;
        }
        if (group_by_len[len] < 0) {
          group_by_len[len] = static_cast<int>(groups_.size());
          groups_.emplace_back();
          groups_.back().len = len;
        }
        Group& g = groups_[group_by_len[len]];
        group_of_[c] = group_by_len[len];
        row_of_[c] = static_cast<int>(g.members.size());
        g.members.push_back(c);
      }
    }
  }
  sim_arg_.assign(Sz(batch, M), 0);
  // One feature row per column: [fw_t ; bw_t ; max_t ; mean_t] for
  // t < T, zero slots after (the arena buffer starts zeroed).
  float* features = ws_.Floats(Sz(batch, feat_));
  std::vector<LstmTrace> col_layers(clf_.column_lstm_->num_layers());
  const float inv_n = 1.0f / static_cast<float>(n);
  for (Group& g : groups_) {
    const int T = g.len;
    const int R = static_cast<int>(g.members.size());
    g.emb = ws_.Floats(Sz(T, R, e_));
    for (int r = 0; r < R; ++r) {
      const std::vector<std::string>& column = columns[g.members[r]];
      for (int t = 0; t < T; ++t) {
        EmbedWord(column[t], g.emb + Sz(t * R + r, e_));
      }
    }
    StackedLstmForward(*clf_.column_lstm_, g.emb, e_, T, R, col_layers.data());
    g.col_h = col_layers.back().h;
    // BiDAF similarity rows: RowMax / RowMean of c_word · q_word^T.
    for (int r = 0; r < R; ++r) {
      const int c = g.members[r];
      for (int t = 0; t < T; ++t) {
        float* slot = features + Sz(c, feat_) + Sz(t, slot_);
        const float* cw = g.emb + Sz(t * R + r, e_);
        float best = 0.0f;
        int arg = 0;
        float total = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float* qw = q_emb + Sz(j, e_);
          float dot = 0.0f;
          for (int k = 0; k < wd_; ++k) dot += cw[k] * qw[k];
          if (j == 0 || dot > best) {
            best = dot;
            arg = j;
          }
          total += dot;
        }
        slot[2 * H] = best;
        slot[2 * H + 1] = total * inv_n;
        sim_arg_[Sz(c, M) + t] = arg;
      }
    }
    AttentionDirection(g, /*forward=*/true);
    AttentionDirection(g, /*forward=*/false);
    for (int r = 0; r < R; ++r) {
      for (int t = 0; t < T; ++t) {
        float* slot = features + Sz(g.members[r], feat_) + Sz(t, slot_);
        std::memcpy(slot, g.fw.lstm.h + Sz(t * R + r, H), sizeof(float) * H);
        std::memcpy(slot + H, g.bw.lstm.h + Sz(t * R + r, H),
                    sizeof(float) * H);
      }
    }
  }

  // ---- Head MLP: one GEMM per layer for every column ---------------------
  const nn::Mlp& head = *clf_.head_;
  head_pre_.assign(head.num_layers(), nullptr);
  const float* layer_in = features;
  int in_dim = feat_;
  for (int l = 0; l < head.num_layers(); ++l) {
    const nn::Linear& layer = head.layer(l);
    const int out_dim = layer.out_features();
    float* pre = head_pre_[l] = ws_.Floats(Sz(batch, out_dim));
    GemmAccumulateRaw(layer_in, layer.weight()->value.data(), pre, batch,
                      in_dim, out_dim);
    AddBiasRows(pre, layer.bias()->value.data(), batch, out_dim);
    if (l + 1 < head.num_layers()) {
      float* act = ws_.Floats(Sz(batch, out_dim));
      for (size_t k = 0; k < Sz(batch, out_dim); ++k) {
        act[k] = pre[k] > 0.0f ? pre[k] : 0.0f;
      }
      layer_in = act;
    }
    in_dim = out_dim;
  }
  const float* logits = head_pre_.back();
  std::vector<float> probs(batch);
  std::vector<int> accepted;
  for (int c = 0; c < batch; ++c) {
    probs[c] = SigmoidF(logits[c]);
    if (probs[c] >= threshold) accepted.push_back(c);
  }
  if (!accepted.empty() && sink) Backward(accepted, sink);
  return probs;
}

void ColumnMentionFastPass::AttentionStepBackward(
    const Group& g, bool forward, int t, const std::vector<int>& rows,
    const std::vector<int>& acc_index, ChainCarry& carry, float* dfeat,
    float* dsq, float* dmem) {
  const int T = g.len;
  const int R = static_cast<int>(g.members.size());
  const int Ag = static_cast<int>(rows.size());
  const int H = h_;
  const int att = att_;
  const int n = n_;
  const nn::LstmCell& cell = forward ? *clf_.fwd_cell_ : *clf_.bwd_cell_;
  const Group::Direction& d = forward ? g.fw : g.bw;
  const float* w3 = clf_.query_hidden_proj_->weight()->value.data();
  const float* v = clf_.attention_->score_vector().weight()->value.data();
  const float* sq = q_layers_.back().h;
  // The step that produced this one's c_prev, if any.
  const int prev = forward ? t - 1 : t + 1;
  const bool has_prev = forward ? t > 0 : t < T - 1;

  Workspace::Scope scope(ws_);
  float* dh = ws_.Floats(Sz(Ag, H));
  float* dgates = ws_.Floats(Sz(Ag, 4, H));
  float* dc = ws_.Floats(Sz(Ag, H));
  float* dctx = ws_.Floats(Sz(Ag, H));
  float* dweights = ws_.Floats(Sz(Ag, n));
  float* dq = ws_.Floats(Sz(Ag, H));
  float* y = ws_.Floats(Sz(n, att));
  float* darb = ws_.Floats(Sz(n, att));

  // dL/dh_t. Its consumers are the feature slot, the next step's W_hh
  // product and the next step's W3 query term; the tape sums them as
  // (w_hh + W3) + slot on the forward chain and (slot + w_hh) + W3 on
  // the backward chain (DESIGN.md §12).
  const int slot_off = forward ? 0 : H;
  auto add_slot = [&]() {
    for (int a = 0; a < Ag; ++a) {
      const float* src = dfeat + Sz(acc_index[a], feat_) + Sz(t, slot_) + slot_off;
      for (int j = 0; j < H; ++j) dh[Sz(a, H) + j] += src[j];
    }
  };
  auto add_recurrent = [&]() {
    if (!carry.live) return;
    GemmAccumulateTransposeBRaw(carry.dgates, cell.w_hh()->value.data(), dh,
                                Ag, 4 * H, H);
    GemmAccumulateTransposeBRaw(carry.dq, w3, dh, Ag, H, H);
  };
  if (forward) {
    add_recurrent();
    add_slot();
  } else {
    add_slot();
    add_recurrent();
  }

  for (int a = 0; a < Ag; ++a) {
    const size_t rr = Sz(t, R) + rows[a];
    const float* c_prev =
        has_prev ? d.lstm.c + (Sz(prev, R) + rows[a]) * H : nullptr;
    const float* dc_next = carry.live ? carry.dc + Sz(a, H) : nullptr;
    const float* f_next =
        carry.live
            ? d.lstm.act + (Sz(carry.t, R) + rows[a]) * 4 * H + H
            : nullptr;
    LstmStepBackward(d.lstm.act + rr * 4 * H, d.lstm.tc + rr * H, c_prev,
                     dh + Sz(a, H), dc_next, f_next, dgates + Sz(a, 4, H),
                     dc + Sz(a, H), H);
  }
  // dz_t = dgates · W_ih^T; only its context half [H, 2H) is needed.
  GemmAccumulateTransposeBRaw(dgates, cell.w_ih()->value.data() + Sz(H, 4 * H),
                              dctx, Ag, 4 * H, H);
  GemmAccumulateTransposeBRaw(dctx, sq, dweights, Ag, H, n);

  for (int a = 0; a < Ag; ++a) {
    const size_t rr = Sz(t, R) + rows[a];
    const float* w = d.weights + rr * n;
    const float* dw = dweights + Sz(a, n);
    // ops::SoftmaxRows backward, then Transpose and the [att,1] score
    // product: d(tanh) = de_j * v.
    float dot = 0.0f;
    for (int j = 0; j < n; ++j) dot += dw[j] * w[j];
    const float* query = d.query + rr * att;
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < att; ++k) y[Sz(j, att) + k] = memproj_[Sz(j, att) + k] + query[k];
    }
    TanhInPlace(y, n * att);
    for (int j = 0; j < n; ++j) {
      const float de = w[j] * (dw[j] - dot);
      for (int k = 0; k < att; ++k) {
        const float yy = y[Sz(j, att) + k];
        darb[Sz(j, att) + k] = (de * v[k]) * (1.0f - yy * yy);
      }
    }
    // AddRowBroadcast backward: the memory term takes darb whole, the
    // query term its column sums (rows in order).
    float* dqa = dq + Sz(a, H);
    for (int k = 0; k < att; ++k) dqa[k] = 0.0f;
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < att; ++k) dqa[k] += darb[Sz(j, att) + k];
    }
    const int ai = acc_index[a];
    float* dmem_a = dmem + Sz(ai, n, att);
    for (size_t k = 0; k < Sz(n, att); ++k) dmem_a[k] += darb[k];
    // Context = weights · sq: sq's term is the rank-1 w^T dctx.
    float* dsq_a = dsq + Sz(ai, n, H);
    const float* dctx_a = dctx + Sz(a, H);
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < H; ++k) dsq_a[Sz(j, H) + k] += w[j] * dctx_a[k];
    }
  }

  // Hand this step's gradients to the next one along the chain. The
  // carry buffers outlive this scope, so copy into them.
  std::memcpy(carry.dgates, dgates, sizeof(float) * Sz(Ag, 4, H));
  std::memcpy(carry.dq, dq, sizeof(float) * Sz(Ag, H));
  std::memcpy(carry.dc, dc, sizeof(float) * Sz(Ag, H));
  carry.t = t;
  carry.live = true;
}

void ColumnMentionFastPass::Backward(
    const std::vector<int>& accepted_columns,
    const ColumnMentionClassifier::GradientSink& sink) {
  trace::TraceSpan span("annotator.influence");
  const int A = static_cast<int>(accepted_columns.size());
  span.Annotate("columns", static_cast<int64_t>(A));
  const int n = n_;
  const int H = h_;
  const int att = att_;
  const int M = max_words_;
  Workspace::Scope scope(ws_);

  // ---- Head MLP: dz/dfeatures for the accepted rows ----------------------
  // The root gradient is 1, so the last layer's input gradient is its
  // weight column; each ReLU passes gradient where its input was > 0.
  const nn::Mlp& head = *clf_.head_;
  float* dy = ws_.Floats(Sz(A, 1));
  for (int a = 0; a < A; ++a) dy[a] = 1.0f;
  int dy_width = 1;
  float* dfeat = nullptr;
  for (int l = head.num_layers() - 1; l >= 0; --l) {
    const nn::Linear& layer = head.layer(l);
    const int in_dim = layer.in_features();
    float* dx = ws_.Floats(Sz(A, in_dim));
    GemmAccumulateTransposeBRaw(dy, layer.weight()->value.data(), dx, A,
                                dy_width, in_dim);
    if (l == 0) {
      dfeat = dx;
      break;
    }
    const float* pre = head_pre_[l - 1];
    for (int a = 0; a < A; ++a) {
      const float* pre_row = pre + Sz(accepted_columns[a], in_dim);
      float* row = dx + Sz(a, in_dim);
      for (int k = 0; k < in_dim; ++k) {
        if (!(pre_row[k] > 0.0f)) row[k] = 0.0f;
      }
    }
    dy = dx;
    dy_width = in_dim;
  }

  // ---- Attention bi-LSTM, per group, into dsq and dmemproj ---------------
  float* dsq = ws_.Floats(Sz(A, n, H));
  float* dmem = ws_.Floats(Sz(A, n, att));
  for (int gi = 0; gi < static_cast<int>(groups_.size()); ++gi) {
    const Group& g = groups_[gi];
    // The group's accepted columns: their rows r in the forward
    // buffers and their index a among the accepted.
    std::vector<int> rows;
    std::vector<int> acc_index;
    for (int a = 0; a < A; ++a) {
      const int c = accepted_columns[a];
      if (group_of_[c] != gi) continue;
      rows.push_back(row_of_[c]);
      acc_index.push_back(a);
    }
    if (rows.empty()) continue;
    const int Ag = static_cast<int>(rows.size());
    const int T = g.len;
    ChainCarry fw_carry, bw_carry;
    for (ChainCarry* cc : {&fw_carry, &bw_carry}) {
      cc->dgates = ws_.Floats(Sz(Ag, 4, H));
      cc->dq = ws_.Floats(Sz(Ag, H));
      cc->dc = ws_.Floats(Sz(Ag, H));
    }
    // The tape's order for sq and memory_proj: forward steps T-1..1,
    // backward-direction positions 0..T-1, then forward step 0. The two
    // chains are independent otherwise, so interleaving them this way
    // changes nothing but those two sums.
    for (int t = T - 1; t >= 1; --t) {
      AttentionStepBackward(g, true, t, rows, acc_index, fw_carry, dfeat, dsq,
                            dmem);
    }
    for (int t = 0; t < T; ++t) {
      AttentionStepBackward(g, false, t, rows, acc_index, bw_carry, dfeat,
                            dsq, dmem);
    }
    AttentionStepBackward(g, true, 0, rows, acc_index, fw_carry, dfeat, dsq,
                          dmem);
  }
  // memory_proj = sq · W_mem contributes to sq last.
  GemmAccumulateTransposeBRaw(
      dmem, clf_.attention_->memory_projection().weight()->value.data(), dsq,
      A * n, att, H);

  // ---- Question LSTM BPTT, accepted columns as rows ----------------------
  // Position-major layout (row i*A + a) so each step's rows are one GEMM
  // operand.
  float* dstates = ws_.Floats(Sz(n, A, H));
  for (int a = 0; a < A; ++a) {
    for (int i = 0; i < n; ++i) {
      std::memcpy(dstates + Sz(i * A + a, H), dsq + Sz(a * n + i, H),
                  sizeof(float) * H);
    }
  }
  float* d_in = nullptr;
  for (int l = clf_.question_lstm_->num_layers() - 1; l >= 0; --l) {
    const nn::LstmCell& cell = clf_.question_lstm_->cell(l);
    const nn::Linear& affine = clf_.question_lstm_->input_affine(l);
    const LstmTrace& tr = q_layers_[l];
    float* dgates = ws_.Floats(Sz(n, A, 4 * H));
    float* dh = ws_.Floats(Sz(A, H));
    float* dc = ws_.Floats(Sz(A, H));
    float* dc_next = ws_.Floats(Sz(A, H));
    for (int i = n - 1; i >= 0; --i) {
      // h_i feeds the states row and the next step's W_hh product.
      std::memcpy(dh, dstates + Sz(i, A, H), sizeof(float) * Sz(A, H));
      if (i + 1 < n) {
        GemmAccumulateTransposeBRaw(dgates + Sz(i + 1, A, 4 * H),
                                    cell.w_hh()->value.data(), dh, A, 4 * H, H);
      }
      for (int a = 0; a < A; ++a) {
        LstmStepBackward(tr.act + Sz(i, 4 * H), tr.tc + Sz(i, H),
                         i > 0 ? tr.c + Sz(i - 1, H) : nullptr, dh + Sz(a, H),
                         i + 1 < n ? dc_next + Sz(a, H) : nullptr,
                         i + 1 < n ? tr.act + Sz(i + 1, 4 * H) + H : nullptr,
                         dgates + Sz(i * A + a, 4 * H), dc + Sz(a, H), H);
      }
      std::swap(dc, dc_next);
    }
    float* dx = ws_.Floats(Sz(n, A, H));
    GemmAccumulateTransposeBRaw(dgates, cell.w_ih()->value.data(), dx, n * A,
                                4 * H, H);
    const int in_dim = affine.in_features();
    d_in = ws_.Floats(Sz(n, A, in_dim));
    GemmAccumulateTransposeBRaw(dx, affine.weight()->value.data(), d_in,
                                n * A, H, in_dim);
    dstates = d_in;
  }

  // ---- Split into word / char rows; add the similarity path --------------
  float* word = ws_.Floats(Sz(n, wd_));
  float* chars = ws_.Floats(Sz(n, co_));
  float* dsim = ws_.Floats(Sz(M, n));
  for (int a = 0; a < A; ++a) {
    const int c = accepted_columns[a];
    const Group& g = groups_[group_of_[c]];
    const int T = g.len;
    const int R = static_cast<int>(g.members.size());
    for (int i = 0; i < n; ++i) {
      const float* src = d_in + Sz(i * A + a, e_);
      std::memcpy(word + Sz(i, wd_), src, sizeof(float) * wd_);
      std::memcpy(chars + Sz(i, co_), src + wd_, sizeof(float) * co_);
    }
    // sim = c_word · q_word^T: RowMax routes slot max_t to its argmax,
    // RowMean spreads slot mean_t * (1/n); q_word^T then takes
    // c_word^T · dsim (sum over t in order).
    const float* dfa = dfeat + Sz(a, feat_);
    for (int t = 0; t < T; ++t) {
      const float dmax = dfa[Sz(t, slot_) + 2 * H];
      const float g_mean = dfa[Sz(t, slot_) + 2 * H + 1] * (1.0f / static_cast<float>(n));
      for (int j = 0; j < n; ++j) dsim[Sz(t, n) + j] = g_mean;
      dsim[Sz(t, n) + sim_arg_[Sz(c, M) + t]] += dmax;
    }
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < wd_; ++k) {
        float s = 0.0f;
        for (int t = 0; t < T; ++t) {
          s += g.emb[Sz(t * R + row_of_[c], e_) + k] * dsim[Sz(t, n) + j];
        }
        word[Sz(j, wd_) + k] += s;
      }
    }
    sink(ColumnMentionClassifier::QuestionGradients{c, word, chars});
  }
}

StatusOr<std::vector<float>> ColumnMentionClassifier::PredictBatch(
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns) const {
  return PredictBatchWithGradients(
      question, columns, std::numeric_limits<float>::infinity(), nullptr);
}

StatusOr<std::vector<float>> ColumnMentionClassifier::PredictBatchWithGradients(
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns, float threshold,
    const GradientSink& sink) const {
  ColumnMentionFastPass pass(*this, Workspace::ThreadLocal());
  return pass.Run(question, columns, threshold, sink);
}

}  // namespace core
}  // namespace nlidb
