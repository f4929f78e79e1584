/// Graph-free decoder inference fast path (DESIGN.md §12).
///
/// `FastDecodeState` re-implements `Seq2SeqTranslator::BeamSearch` without
/// the autodiff tape: every intermediate lives in a Workspace arena, every
/// matrix product is a direct GemmAccumulateRaw call, and the GRU gate
/// products and output logits for the whole beam frontier are batched
/// into single [B, 3H] and [B, |domain|] GEMMs. The per-query encoder
/// state (encoder states, projected attention keys, copy-scatter slot
/// table, gathered output columns for the grammar mask) is computed once
/// and reused every step.
///
/// The contract is bitwise equivalence with the reference implementation:
/// kFastUnmasked reproduces kReference and kFast reproduces
/// kReferenceMasked — same token sequences, same hypothesis scores, same
/// error statuses. That only holds because (a) this TU replicates each
/// elementwise formula of tensor/ops.cc in the reference evaluation order
/// (tanh through the same kernel-tier TanhInPlace as ops::Tanh),
/// (b) GemmAccumulateRaw shares the deterministic kernels whose per-output
/// accumulation order is independent of batching and threading, and
/// (c) this file compiles with -ffp-contract=off like the kernel TUs, so
/// the compiler cannot fuse the replicated expressions into FMAs the
/// reference path never executed (src/core/CMakeLists.txt pins the flag).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/workspace.h"
#include "core/decode_grammar.h"
#include "core/seq2seq.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace core {

namespace {

constexpr int kVocabBudget = 1536;  // mirrors seq2seq.cc (lint-checked)

/// ops::Sigmoid formula.
inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// ops::Exp formula (clamped).
inline float ClampedExpF(float x) { return std::exp(std::min(x, 20.0f)); }

/// ops::AddRowBroadcast: out[i, :] += bias for every row.
void AddBiasRows(float* out, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

/// GruCell::Step after the two gate GEMMs, batched over `batch` rows:
/// gi/gh are [batch, 3H] with biases already added, h_prev/h_next are
/// [batch, H] and must not overlap. Gate layout [reset, update, new]; the
/// h' association (n - z*n) + (z*h) matches rnn.cc exactly. Each row's
/// candidate pre-activation is staged in its h_next row so one
/// TanhInPlace call covers the row.
void GruElementwise(const float* gi, const float* gh, const float* h_prev,
                    float* h_next, int batch, int H) {
  for (int b = 0; b < batch; ++b) {
    const float* gib = gi + static_cast<size_t>(b) * 3 * H;
    const float* ghb = gh + static_cast<size_t>(b) * 3 * H;
    const float* hp = h_prev + static_cast<size_t>(b) * H;
    float* hn = h_next + static_cast<size_t>(b) * H;
    for (int j = 0; j < H; ++j) {
      const float r = SigmoidF(gib[j] + ghb[j]);
      hn[j] = gib[2 * H + j] + r * ghb[2 * H + j];
    }
    TanhInPlace(hn, H);
    for (int j = 0; j < H; ++j) {
      const float z = SigmoidF(gib[H + j] + ghb[H + j]);
      const float n = hn[j];
      hn[j] = (n - z * n) + (z * hp[j]);
    }
  }
}

/// One GRU direction over a precomputed input sequence. `xs` is [n, H]
/// (the per-layer affine output), `states` receives [n, H] hidden states
/// in position order; the pass walks positions first..last by `stride`
/// (+1 forward, -1 backward). gi for every position is batched into one
/// [n, 3H] GEMM up front — only the recurrent gh product is sequential.
void RunGruDirection(const nn::GruCell& cell, const float* xs, int n, int H,
                     int first, int stride, float* states, Workspace& ws) {
  Workspace::Scope scope(ws);
  float* gi_all = ws.Floats(static_cast<size_t>(n) * 3 * H);
  GemmAccumulateRaw(xs, cell.w_ih()->value.data(), gi_all, n, H, 3 * H);
  AddBiasRows(gi_all, cell.b_ih()->value.data(), n, 3 * H);
  float* h = ws.Floats(H);  // zero initial state
  float* gh = ws.Floats(3 * H);
  const float* b_hh = cell.b_hh()->value.data();
  const float* w_hh = cell.w_hh()->value.data();
  for (int s = 0, i = first; s < n; ++s, i += stride) {
    std::fill_n(gh, 3 * H, 0.0f);
    GemmAccumulateRaw(h, w_hh, gh, 1, H, 3 * H);
    AddBiasRows(gh, b_hh, 1, 3 * H);
    float* out = states + static_cast<size_t>(i) * H;
    GruElementwise(gi_all + static_cast<size_t>(i) * 3 * H, gh, h, out, 1, H);
    std::memcpy(h, out, sizeof(float) * H);
  }
}

}  // namespace

/// One query's fast-path beam search, driven by a single thread:
///
///   FastDecodeState state(translator, source, beam_width, mask, ws);
///   NLIDB_RETURN_IF_ERROR(state.Admit());
///   state.BuildEncoderCache();
///   while (!state.done()) NLIDB_RETURN_IF_ERROR(state.Step(ctx));
///   auto result = state.TakeResult();
///
/// Declared (not defined) in seq2seq.h only so Seq2SeqTranslator can
/// befriend it: it reads the model parameters and config directly. All
/// float buffers live in the `ws` arena passed at construction, which
/// must outlive the state.
class FastDecodeState {
 public:
  /// A finished search: winning tokens + length-normalized log-prob.
  struct Result {
    std::vector<std::string> tokens;
    float score = 0.0f;
  };

  /// `source` and `ws` must outlive the state; `source` is the q^a token
  /// sequence fed to the decoder. `use_grammar_mask` requests the
  /// grammar-constrained mode (downgraded internally when the vocabulary
  /// cannot support it).
  FastDecodeState(const Seq2SeqTranslator& translator,
                  const std::vector<std::string>& source, int beam_width,
                  bool use_grammar_mask, Workspace& ws);
  FastDecodeState(const FastDecodeState&) = delete;
  FastDecodeState& operator=(const FastDecodeState&) = delete;

  /// Entry validation, called once before anything else: empty-source
  /// check plus the injectable `seq2seq/beam_exhausted` failpoint
  /// (beam_width > 1 only).
  Status Admit();

  /// Runs the encoder and builds the per-query cache (embedding gathers,
  /// biGRU states, projected attention keys, init state, grammar tables)
  /// plus the per-step scratch buffers. Emits the "seq2seq.encode" trace
  /// span. Call once, after a successful Admit().
  void BuildEncoderCache();

  /// Runs one decode step: deadline/cancel poll, live-frontier scan,
  /// output-safe early termination, then (unless that ended the search)
  /// the GRU step, attention, output scores, candidate expansion and
  /// beam pruning. A non-Ok status (deadline) abandons the search.
  Status Step(const CancelContext* ctx);

  /// True once the search has terminated (all beams finished, early
  /// termination, exhaustion, or the step limit).
  bool done() const { return done_; }

  /// Final hypothesis selection (length-normalized), or the
  /// beam-exhaustion error. Call once, after done() turns true.
  StatusOr<Result> TakeResult();

 private:
  struct FastBeam {
    int prev_token = 0;
    int grammar_state = DecodeGrammar::kStart;
    int slot = 0;  // row in d_prev/beta_prev
    std::vector<std::string> tokens;
    float log_prob = 0.0f;
    bool finished = false;
  };
  struct Candidate {
    int parent_slot = 0;
    FastBeam beam;
  };

  /// Step, part 1: poll, live frontier, early termination, step
  /// counters. Either sets done_ or leaves frontier_rows_ rows to run.
  Status BeginStep(const CancelContext* ctx);
  /// Step, part 2: writes the frontier's [emb(prev_token); beta_prev]
  /// rows into x_ and its previous decoder states into d_gather_.
  void StageFrontier();
  /// Step, part 3: the two batched GRU-gate GEMMs over the frontier,
  /// gi_ = x_ · W_ih + b_ih and gh_ = d_gather_ · W_hh + b_hh.
  void ComputeGates();
  /// Step, part 4: GRU elementwise, attention, output scores, candidate
  /// expansion and beam pruning.
  void FinishStep();

  const Seq2SeqTranslator& t_;
  const std::vector<std::string>& source_;
  const int beam_width_;
  Workspace& ws_;

  // Dimensions (fixed by the model config).
  const int d_;     // word_dim
  const int h_;     // seq2seq_hidden
  const int att_;   // attention width (= h_)
  const int h2_;    // decoder hidden H = 2h
  const int h4_;    // [d_i ; beta_i] width
  const int xin_;   // decoder GRU input width d + 2h
  const int vocab_size_;
  const int n_;     // source length

  // The translator's grammar (classified once, as its vocabulary grew);
  // an unusable grammar downgrades to unmasked decoding.
  const DecodeGrammar& grammar_;
  const bool masked_;
  int score_width_ = 0;
  int gemm_width_ = 0;

  // Per-query cached encoder state: everything a decode step would
  // recompute from the encoder outputs, plus the grammar-mask tables.
  struct EncoderCache {
    std::vector<int> source_ids;  // vocab ids of the source tokens
    float* enc_states = nullptr;  // [n, 2h] bidirectional states
    float* mem_proj = nullptr;    // [n, att] projected attention keys
    float* d0 = nullptr;          // [2h] initial decoder state

    // Grammar-mask extras (empty when masking is off).
    std::vector<int> domain;         // sorted vocab ids the mask can emit
    std::vector<int> slot_of_src;    // domain slot per source position
    std::vector<uint8_t> in_source;  // by vocab id
    float* u_sub = nullptr;          // [4h, |domain|] gathered out columns
    float* bias_sub = nullptr;       // [|domain|] gathered output bias
  };
  EncoderCache cache_;

  // Beam-state ping-pong buffers and per-step scratch, allocated once in
  // BuildEncoderCache (all from ws_, zero-initialized by the arena).
  float* d_prev_ = nullptr;
  float* beta_prev_ = nullptr;
  float* d_swap_ = nullptr;
  float* beta_swap_ = nullptr;
  float* d_next_ = nullptr;
  float* query_ = nullptr;
  float* tanh_keys_ = nullptr;
  float* energies_all_ = nullptr;
  float* weights_all_ = nullptr;
  float* beta_next_ = nullptr;
  float* cat_ = nullptr;
  float* logits_ = nullptr;
  float* mass_ = nullptr;
  float* scores_ = nullptr;
  // Frontier staging for the gate GEMMs: [W, xin] inputs, [W, 3H] gate
  // products, [W, H] gathered previous states.
  float* x_ = nullptr;
  float* gi_ = nullptr;
  float* gh_ = nullptr;
  float* d_gather_ = nullptr;

  std::vector<FastBeam> beams_;
  std::vector<FastBeam> finished_;
  std::vector<int> live_;
  int frontier_rows_ = 0;
  int step_ = 0;
  bool done_ = false;
};

FastDecodeState::FastDecodeState(const Seq2SeqTranslator& translator,
                                 const std::vector<std::string>& source,
                                 int beam_width, bool use_grammar_mask,
                                 Workspace& ws)
    : t_(translator),
      source_(source),
      beam_width_(beam_width),
      ws_(ws),
      d_(translator.config_.word_dim),
      h_(translator.config_.seq2seq_hidden),
      att_(translator.config_.seq2seq_hidden),
      h2_(2 * translator.config_.seq2seq_hidden),
      h4_(4 * translator.config_.seq2seq_hidden),
      xin_(translator.config_.word_dim + 2 * translator.config_.seq2seq_hidden),
      vocab_size_(translator.vocab_.size()),
      n_(static_cast<int>(source.size())),
      grammar_(translator.grammar_),
      masked_(use_grammar_mask && grammar_.usable()) {}

Status FastDecodeState::Admit() {
  if (source_.empty()) {
    return Status::InvalidArgument("cannot decode an empty source sequence");
  }
  if (beam_width_ > 1) {
    // Injectable exhaustion: lets tests exercise the greedy-fallback path
    // without crafting a model whose beams genuinely all die.
    NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("seq2seq/beam_exhausted"));
  }
  return Status::Ok();
}

void FastDecodeState::BuildEncoderCache() {
  const int d = d_;
  const int h = h_;
  const int att = att_;
  const int h2 = h2_;
  const int h4 = h4_;
  const int vocab_size = vocab_size_;
  const int n = n_;
  Workspace& ws = ws_;

  // ---- Per-query encoder cache -------------------------------------------
  {
    trace::TraceSpan encode_span("seq2seq.encode");
    encode_span.Annotate("source_len", static_cast<int64_t>(n));
    cache_.source_ids = t_.vocab_.Encode(source_);

    // Embedding gather: [n, d].
    const Tensor& table = t_.embedding_->table()->value;
    float* seq = ws.Floats(static_cast<size_t>(n) * d);
    for (int i = 0; i < n; ++i) {
      std::memcpy(seq + static_cast<size_t>(i) * d,
                  table.data() + static_cast<size_t>(cache_.source_ids[i]) * d,
                  sizeof(float) * d);
    }

    // Stacked bidirectional GRU, layer by layer. The per-position input
    // affine of rnn.cc is batched into one [n, in]x[in, h] GEMM; forward
    // and backward recurrences stay sequential.
    int in_width = d;
    const float* layer_in = seq;
    float* fw = ws.Floats(static_cast<size_t>(n) * h);
    float* bw = ws.Floats(static_cast<size_t>(n) * h);
    cache_.enc_states = ws.Floats(static_cast<size_t>(n) * h2);
    for (int l = 0; l < t_.encoder_->num_layers(); ++l) {
      Workspace::Scope layer_scope(ws);
      const nn::Linear& affine = t_.encoder_->input_affine(l);
      float* xs = ws.Floats(static_cast<size_t>(n) * h);
      GemmAccumulateRaw(layer_in, affine.weight()->value.data(), xs, n,
                        in_width, h);
      AddBiasRows(xs, affine.bias()->value.data(), n, h);
      RunGruDirection(t_.encoder_->forward_cell(l), xs, n, h, 0, 1, fw, ws);
      RunGruDirection(t_.encoder_->backward_cell(l), xs, n, h, n - 1, -1, bw,
                      ws);
      for (int i = 0; i < n; ++i) {
        std::memcpy(cache_.enc_states + static_cast<size_t>(i) * h2,
                    fw + static_cast<size_t>(i) * h, sizeof(float) * h);
        std::memcpy(cache_.enc_states + static_cast<size_t>(i) * h2 + h,
                    bw + static_cast<size_t>(i) * h, sizeof(float) * h);
      }
      layer_in = cache_.enc_states;
      in_width = h2;
    }

    // d0 = tanh(W1 [fw_last ; bw_first] + b1).
    float* cat0 = ws.Floats(h2);
    std::memcpy(cat0, fw + static_cast<size_t>(n - 1) * h, sizeof(float) * h);
    std::memcpy(cat0 + h, bw, sizeof(float) * h);
    cache_.d0 = ws.Floats(h2);
    GemmAccumulateRaw(cat0, t_.init_proj_->weight()->value.data(), cache_.d0,
                      1, h2, h2);
    AddBiasRows(cache_.d0, t_.init_proj_->bias()->value.data(), 1, h2);
    TanhInPlace(cache_.d0, h2);

    // Projected attention keys: [n, 2h] x [2h, att].
    cache_.mem_proj = ws.Floats(static_cast<size_t>(n) * att);
    GemmAccumulateRaw(
        cache_.enc_states,
        t_.attention_->memory_projection().weight()->value.data(),
        cache_.mem_proj, n, h2, att);

    if (masked_) {
      // Emittable-token domain: structural tokens plus everything the
      // source can supply, in ascending vocab-id order (so masked sums
      // walk ids in the same order as the reference masked path).
      cache_.in_source.assign(vocab_size, 0);
      for (int id : cache_.source_ids) cache_.in_source[id] = 1;
      std::vector<int> source_sorted = cache_.source_ids;
      std::sort(source_sorted.begin(), source_sorted.end());
      source_sorted.erase(
          std::unique(source_sorted.begin(), source_sorted.end()),
          source_sorted.end());
      const std::vector<int>& structural = grammar_.structural_ids();
      std::set_union(structural.begin(), structural.end(),
                     source_sorted.begin(), source_sorted.end(),
                     std::back_inserter(cache_.domain));
      cache_.slot_of_src.resize(n);
      for (int i = 0; i < n; ++i) {
        cache_.slot_of_src[i] = static_cast<int>(
            std::lower_bound(cache_.domain.begin(), cache_.domain.end(),
                             cache_.source_ids[i]) -
            cache_.domain.begin());
      }
      // Gather U's columns (and bias entries) for the domain once per
      // query: logits over the domain then cost [B, 4h]x[4h, |domain|]
      // instead of [B, 4h]x[4h, kVocabBudget] per step.
      const int ds = static_cast<int>(cache_.domain.size());
      const Tensor& u = t_.output_proj_->weight()->value;
      const Tensor& ub = t_.output_proj_->bias()->value;
      cache_.u_sub = ws.Floats(static_cast<size_t>(h4) * ds);
      cache_.bias_sub = ws.Floats(ds);
      for (int k = 0; k < h4; ++k) {
        const float* urow = u.data() + static_cast<size_t>(k) * kVocabBudget;
        float* srow = cache_.u_sub + static_cast<size_t>(k) * ds;
        for (int s = 0; s < ds; ++s) srow[s] = urow[cache_.domain[s]];
      }
      for (int s = 0; s < ds; ++s) {
        cache_.bias_sub[s] = ub(cache_.domain[s]);
      }
    }
  }

  // ---- Beam-search state --------------------------------------------------
  const int W = beam_width_;
  score_width_ =
      masked_ ? static_cast<int>(cache_.domain.size()) : vocab_size;
  gemm_width_ = masked_ ? score_width_ : kVocabBudget;

  // Beam-state ping-pong buffers and per-step scratch, allocated once.
  d_prev_ = ws.Floats(static_cast<size_t>(W) * h2);
  beta_prev_ = ws.Floats(static_cast<size_t>(W) * h2);
  d_swap_ = ws.Floats(static_cast<size_t>(W) * h2);
  beta_swap_ = ws.Floats(static_cast<size_t>(W) * h2);
  d_next_ = ws.Floats(static_cast<size_t>(W) * h2);
  query_ = ws.Floats(static_cast<size_t>(W) * att);
  tanh_keys_ = ws.Floats(static_cast<size_t>(n) * att);
  energies_all_ = ws.Floats(static_cast<size_t>(W) * n);
  weights_all_ = ws.Floats(static_cast<size_t>(W) * n);
  beta_next_ = ws.Floats(static_cast<size_t>(W) * h2);
  cat_ = ws.Floats(static_cast<size_t>(W) * h4);
  logits_ = ws.Floats(static_cast<size_t>(W) * gemm_width_);
  mass_ = ws.Floats(score_width_);
  scores_ = ws.Floats(static_cast<size_t>(W) * score_width_);
  // Frontier staging: one query, so at most W rows per step.
  x_ = ws.Floats(static_cast<size_t>(W) * xin_);
  gi_ = ws.Floats(static_cast<size_t>(W) * 3 * h2);
  gh_ = ws.Floats(static_cast<size_t>(W) * 3 * h2);
  d_gather_ = ws.Floats(static_cast<size_t>(W) * h2);

  FastBeam init;
  init.prev_token = text::Vocab::kBos;
  std::memcpy(d_prev_, cache_.d0, sizeof(float) * h2);
  // beta_prev row 0 is already zero (arena buffers are zero-initialized).
  beams_ = {init};
}

Status FastDecodeState::BeginStep(const CancelContext* ctx) {
  if (step_ >= t_.config_.max_decode_length) {
    done_ = true;
    return Status::Ok();
  }
  // Decode steps dominate query latency, so the deadline is polled at
  // this granularity (same contract as the reference path).
  NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "seq2seq.decode"));

  // Live frontier.
  live_.clear();
  for (int b = 0; b < static_cast<int>(beams_.size()); ++b) {
    if (!beams_[b].finished) live_.push_back(b);
  }
  const int B = static_cast<int>(live_.size());
  if (B == 0) {
    done_ = true;
    return Status::Ok();
  }

  // Output-safe early termination. Per-step log-prob increments are
  // log(p + 1e-12f) with p = score/(sum + 1e-9f) <= 1.0f in float
  // (score is one of the summed positive terms and float addition of
  // positives is monotone), so log_prob never increases along a path.
  // A hypothesis finishing later divides by a denominator of at most
  // max_decode_length, and x/len is monotone in len for x <= 0, so
  // log_prob / max_decode_length bounds every descendant's normalized
  // score (float division is monotone, so the bound holds bitwise).
  // When every live hypothesis is strictly below the best finished
  // score, nothing the remaining steps could add survives the strict
  // ">" selection in TakeResult — the reference loop would do the work
  // and then discard it, so stopping here returns the identical result.
  if (!finished_.empty()) {
    float best_norm = -1e30f;
    for (const FastBeam& f : finished_) {
      const float denom =
          static_cast<float>(std::max<size_t>(1, f.tokens.size()));
      best_norm = std::max(best_norm, f.log_prob / denom);
    }
    const float len_cap = static_cast<float>(t_.config_.max_decode_length);
    bool viable = false;
    for (const int b : live_) {
      if (!(beams_[b].log_prob / len_cap < best_norm)) {
        viable = true;
        break;
      }
    }
    if (!viable) {
      done_ = true;
      return Status::Ok();
    }
  }

  static metrics::Counter& decode_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.decode_steps");
  static metrics::Counter& copy_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.copy_steps");
  decode_steps.Increment(B);
  if (t_.config_.use_copy_mechanism) copy_steps.Increment(B);

  frontier_rows_ = B;
  return Status::Ok();
}

Status FastDecodeState::Step(const CancelContext* ctx) {
  NLIDB_RETURN_IF_ERROR(BeginStep(ctx));
  if (done_) return Status::Ok();
  StageFrontier();
  ComputeGates();
  FinishStep();
  return Status::Ok();
}

void FastDecodeState::StageFrontier() {
  const int d = d_;
  const int h2 = h2_;
  const int xin = xin_;
  const Tensor& emb_table = t_.embedding_->table()->value;
  // Stage [emb(prev) ; beta_prev] and gather d_prev for the frontier.
  for (int r = 0; r < frontier_rows_; ++r) {
    const FastBeam& beam = beams_[live_[r]];
    std::memcpy(x_ + static_cast<size_t>(r) * xin,
                emb_table.data() + static_cast<size_t>(beam.prev_token) * d,
                sizeof(float) * d);
    std::memcpy(x_ + static_cast<size_t>(r) * xin + d,
                beta_prev_ + static_cast<size_t>(beam.slot) * h2,
                sizeof(float) * h2);
    std::memcpy(d_gather_ + static_cast<size_t>(r) * h2,
                d_prev_ + static_cast<size_t>(beam.slot) * h2,
                sizeof(float) * h2);
  }
}

void FastDecodeState::ComputeGates() {
  const int h2 = h2_;
  const int xin = xin_;
  const int rows = frontier_rows_;
  const float* dec_w_ih = t_.decoder_cell_->w_ih()->value.data();
  const float* dec_w_hh = t_.decoder_cell_->w_hh()->value.data();
  const float* dec_b_ih = t_.decoder_cell_->b_ih()->value.data();
  const float* dec_b_hh = t_.decoder_cell_->b_hh()->value.data();
  // Batched GRU gates for the whole frontier: two [rows, 3H] GEMMs.
  std::fill_n(gi_, static_cast<size_t>(rows) * 3 * h2, 0.0f);
  GemmAccumulateRaw(x_, dec_w_ih, gi_, rows, xin, 3 * h2);
  AddBiasRows(gi_, dec_b_ih, rows, 3 * h2);
  std::fill_n(gh_, static_cast<size_t>(rows) * 3 * h2, 0.0f);
  GemmAccumulateRaw(d_gather_, dec_w_hh, gh_, rows, h2, 3 * h2);
  AddBiasRows(gh_, dec_b_hh, rows, 3 * h2);
}

void FastDecodeState::FinishStep() {
  const int att = att_;
  const int h2 = h2_;
  const int h4 = h4_;
  const int vocab_size = vocab_size_;
  const int n = n_;
  const int B = frontier_rows_;
  const int score_width = score_width_;
  const int gemm_width = gemm_width_;

  const float* q_w = t_.query_proj_->weight()->value.data();
  const float* v_w = t_.attention_->score_vector().weight()->value.data();
  const float* out_w = t_.output_proj_->weight()->value.data();
  const float* out_b = t_.output_proj_->bias()->value.data();

  GruElementwise(gi_, gh_, d_gather_, d_next_, B, h2);

  // Attention query contribution W3 d_i, batched: [B, 2h] x [2h, att].
  std::fill_n(query_, static_cast<size_t>(B) * att, 0.0f);
  GemmAccumulateRaw(d_next_, q_w, query_, B, h2, att);

  // Attention + context per frontier row (memory rows differ per query,
  // not per beam, but the softmax/argmax are row-local anyway).
  for (int r = 0; r < B; ++r) {
    const float* qrow = query_ + static_cast<size_t>(r) * att;
    for (int i = 0; i < n; ++i) {
      const float* mrow = cache_.mem_proj + static_cast<size_t>(i) * att;
      float* trow = tanh_keys_ + static_cast<size_t>(i) * att;
      for (int a = 0; a < att; ++a) trow[a] = mrow[a] + qrow[a];
    }
    TanhInPlace(tanh_keys_, n * att);
    float* energies = energies_all_ + static_cast<size_t>(r) * n;
    std::fill_n(energies, n, 0.0f);
    GemmAccumulateRaw(tanh_keys_, v_w, energies, n, att, 1);

    // SoftmaxRows over [1, n] (unclamped exp, reference loop order).
    float* wrow = weights_all_ + static_cast<size_t>(r) * n;
    float mx = energies[0];
    for (int i = 1; i < n; ++i) mx = std::max(mx, energies[i]);
    float wsum = 0.0f;
    for (int i = 0; i < n; ++i) {
      wrow[i] = std::exp(energies[i] - mx);
      wsum += wrow[i];
    }
    for (int i = 0; i < n; ++i) wrow[i] /= wsum;

    // beta_i = weights x enc_states: [1, n] x [n, 2h].
    float* brow = beta_next_ + static_cast<size_t>(r) * h2;
    std::fill_n(brow, h2, 0.0f);
    GemmAccumulateRaw(wrow, cache_.enc_states, brow, 1, n, h2);

    std::memcpy(cat_ + static_cast<size_t>(r) * h4,
                d_next_ + static_cast<size_t>(r) * h2, sizeof(float) * h2);
    std::memcpy(cat_ + static_cast<size_t>(r) * h4 + h2, brow,
                sizeof(float) * h2);
  }

  // Output logits U [d;beta] + b for the whole frontier: one
  // [B, 4h] x [4h, gemm_width] GEMM.
  std::fill_n(logits_, static_cast<size_t>(B) * gemm_width, 0.0f);
  GemmAccumulateRaw(cat_, masked_ ? cache_.u_sub : out_w, logits_, B, h4,
                    gemm_width);

  // Output scores: exp(logits) plus copy mass. The copy mass accumulates
  // in its own zeroed buffer and is added afterwards, replicating
  // ops::Add(Exp(logits), ScatterSumCols(...)) so the float addition
  // association matches the reference bitwise.
  for (int r = 0; r < B; ++r) {
    float* lrow = logits_ + static_cast<size_t>(r) * gemm_width;
    AddBiasRows(lrow, masked_ ? cache_.bias_sub : out_b, 1, score_width);
    float* srow = scores_ + static_cast<size_t>(r) * score_width;
    if (t_.config_.use_copy_mechanism) {
      const float* energies = energies_all_ + static_cast<size_t>(r) * n;
      std::fill_n(mass_, score_width, 0.0f);
      for (int i = 0; i < n; ++i) {
        const int slot =
            masked_ ? cache_.slot_of_src[i] : cache_.source_ids[i];
        mass_[slot] += ClampedExpF(energies[i]);
      }
      for (int s = 0; s < score_width; ++s) {
        srow[s] = ClampedExpF(lrow[s]) + mass_[s];
      }
    } else {
      for (int s = 0; s < score_width; ++s) srow[s] = ClampedExpF(lrow[s]);
    }
  }

  static metrics::Counter& masked_tokens =
      metrics::MetricsRegistry::Global().GetCounter(
          "seq2seq.grammar_masked_tokens");

  // Candidate expansion: identical control flow, sums and tie-breaks to
  // the reference (domain slots ascend in vocab-id order, so masked
  // normalization sums walk the same ids in the same order).
  std::vector<Candidate> candidates;
  const int k = std::min(beam_width_, vocab_size);
  for (int r = 0; r < B; ++r) {
    const FastBeam& beam = beams_[live_[r]];
    const float* srow = scores_ + static_cast<size_t>(r) * score_width;
    float sum = 0.0f;
    std::vector<int> top;
    if (masked_) {
      std::vector<int> legal;
      legal.reserve(score_width);
      for (int s = 0; s < score_width; ++s) {
        if (grammar_.IsLegal(beam.grammar_state, cache_.domain[s],
                             cache_.in_source)) {
          legal.push_back(s);
        }
      }
      masked_tokens.Increment(vocab_size - static_cast<int>(legal.size()));
      for (int s : legal) sum += srow[s];
      top = std::move(legal);
      TopKByScore(&top, srow, k);
    } else {
      for (int j = 0; j < vocab_size; ++j) sum += srow[j];
      top = TopKScoreIndices(srow, vocab_size, k);
    }
    for (const int sel : top) {
      const int tok = masked_ ? cache_.domain[sel] : sel;
      if (!masked_ && (tok == text::Vocab::kPad || tok == text::Vocab::kBos)) {
        continue;
      }
      const float p = srow[sel] / (sum + 1e-9f);
      Candidate c;
      c.parent_slot = r;  // row in d_next/beta_next
      c.beam = beam;
      c.beam.prev_token = tok;
      c.beam.log_prob = beam.log_prob + std::log(p + 1e-12f);
      if (masked_) {
        c.beam.grammar_state = grammar_.Advance(beam.grammar_state, tok);
      }
      if (tok == text::Vocab::kEos) {
        c.beam.finished = true;
      } else if (tok == text::Vocab::kUnk) {
        // Pointer fallback: emit the source token under the attention
        // peak instead of a literal <unk>.
        const float* wrow = weights_all_ + static_cast<size_t>(r) * n;
        int peak = 0;
        for (int i = 1; i < n; ++i) {
          if (wrow[i] > wrow[peak]) peak = i;
        }
        c.beam.tokens.push_back(source_[peak]);
      } else {
        c.beam.tokens.push_back(t_.vocab_.GetToken(tok));
      }
      candidates.push_back(std::move(c));
    }
  }
  ++step_;
  if (candidates.empty()) {
    done_ = true;
    return;
  }
  // stable_sort pins candidate order on log-prob ties to construction
  // order (beam order, then score rank), matching the reference path.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.beam.log_prob > b.beam.log_prob;
                   });
  beams_.clear();
  for (Candidate& c : candidates) {
    if (c.beam.finished) {
      finished_.push_back(std::move(c.beam));
    } else if (static_cast<int>(beams_.size()) < beam_width_) {
      const int slot = static_cast<int>(beams_.size());
      std::memcpy(d_swap_ + static_cast<size_t>(slot) * h2,
                  d_next_ + static_cast<size_t>(c.parent_slot) * h2,
                  sizeof(float) * h2);
      std::memcpy(beta_swap_ + static_cast<size_t>(slot) * h2,
                  beta_next_ + static_cast<size_t>(c.parent_slot) * h2,
                  sizeof(float) * h2);
      c.beam.slot = slot;
      beams_.push_back(std::move(c.beam));
    }
    if (static_cast<int>(beams_.size()) >= beam_width_ &&
        static_cast<int>(finished_.size()) >= beam_width_) {
      break;
    }
  }
  std::swap(d_prev_, d_swap_);
  std::swap(beta_prev_, beta_swap_);
  if (beams_.empty()) done_ = true;
}

StatusOr<FastDecodeState::Result> FastDecodeState::TakeResult() {
  for (FastBeam& b : beams_) finished_.push_back(std::move(b));
  beams_.clear();
  if (finished_.empty()) {
    return Status::Internal("beam search exhausted every hypothesis");
  }
  // Length-normalized selection.
  FastBeam* best = &finished_[0];
  float best_score = -1e30f;
  for (FastBeam& b : finished_) {
    const float denom =
        static_cast<float>(std::max<size_t>(1, b.tokens.size()));
    const float s = b.log_prob / denom;
    if (s > best_score) {
      best_score = s;
      best = &b;
    }
  }
  return Result{std::move(best->tokens), best_score};
}

StatusOr<Seq2SeqTranslator::ScoredTokens> Seq2SeqTranslator::FastBeamSearch(
    const std::vector<std::string>& source, int beam_width,
    bool use_grammar_mask, const CancelContext* ctx) const {
  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope query_scope(ws);
  FastDecodeState state(*this, source, beam_width, use_grammar_mask, ws);
  NLIDB_RETURN_IF_ERROR(state.Admit());
  trace::TraceSpan span("seq2seq.translate");
  span.Annotate("beam_width", static_cast<int64_t>(beam_width));
  state.BuildEncoderCache();

  trace::TraceSpan decode_span("seq2seq.decode");
  while (!state.done()) NLIDB_RETURN_IF_ERROR(state.Step(ctx));
  StatusOr<FastDecodeState::Result> result = state.TakeResult();
  if (!result.ok()) return result.status();
  return ScoredTokens{std::move(result->tokens), result->score};
}

}  // namespace core
}  // namespace nlidb
