// Differential test of the classifier inference fast path
// (column_mention_fast.cc) against the autodiff tape, its oracle:
//  - PredictBatch / ScoreColumns probabilities vs per-column Predict,
//  - ScoreColumns influence profiles vs ComputeInfluence,
//  - LocateSpan on both profiles,
// all compared bit for bit, on both GEMM kernel tiers. The hand backward
// replays the tape's per-node accumulation order (DESIGN.md §12), so
// there is no tolerance: every element must match exactly.
//
// Inputs: the trained test corpus (every column of every test-split
// question) plus fuzzed cases — columns longer than max_column_words,
// words shorter than every conv width, OOV words, a one-token question,
// duplicate columns — on a trained one-layer classifier and an untrained
// two-layer one (which exercises the question LSTM's lower-layer BPTT).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/adversarial.h"
#include "core/column_mention_classifier.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "tensor/gemm_kernels.h"

namespace nlidb {
namespace core {
namespace {

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

struct Case {
  std::vector<std::string> question;
  std::vector<std::vector<std::string>> columns;
};

class ColumnMentionFastTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    provider_ = new text::EmbeddingProvider(24);
    data::RegisterDomainClusters(*provider_);
    data::GeneratorConfig gc;
    gc.num_tables = 10;
    gc.questions_per_table = 4;
    gc.seed = 77;
    data::Splits splits = data::GenerateWikiSqlSplits(gc);

    trained_config_ = new ModelConfig(ModelConfig::Tiny());
    trained_config_->classifier_epochs = 2;
    trained_ = new ColumnMentionClassifier(*trained_config_, *provider_);
    TrainColumnMentionClassifier(*trained_, splits.train, *trained_config_);

    // Untrained, two question/column LSTM layers and a short cap, so
    // capping and lower-layer backprop both run on most columns.
    deep_config_ = new ModelConfig(ModelConfig::Tiny());
    deep_config_->classifier_layers = 2;
    deep_config_->max_column_words = 2;
    deep_config_->seed = 11;
    deep_ = new ColumnMentionClassifier(*deep_config_, *provider_);

    cases_ = new std::vector<Case>();
    std::vector<std::string> words;
    for (const data::Example& ex : splits.test.examples) {
      Case c;
      c.question = ex.tokens;
      for (int col = 0; col < ex.schema().num_columns(); ++col) {
        c.columns.push_back(ex.schema().column(col).DisplayTokens());
      }
      for (const auto& w : ex.tokens) words.push_back(w);
      deep_->AddVocabulary(ex.tokens);
      cases_->push_back(std::move(c));
    }
    // Fuzzed cases from corpus words, OOV words and 1-2 char words
    // (shorter than every conv width, so only the zero-padded slice
    // exists).
    const std::vector<std::string> odd = {"a", "x", "of", "zzqv",
                                          "unseenword", "7", "-"};
    Rng rng(2024);
    auto pick = [&]() -> std::string {
      if (rng.NextBool(0.3f)) return odd[rng.NextInt(0, static_cast<int>(odd.size()) - 1)];
      return words[rng.NextInt(0, static_cast<int>(words.size()) - 1)];
    };
    for (int k = 0; k < 24; ++k) {
      Case c;
      const int n = k == 0 ? 1 : rng.NextInt(1, 12);  // k == 0: one token
      for (int i = 0; i < n; ++i) c.question.push_back(pick());
      const int num_cols = rng.NextInt(1, 7);
      for (int j = 0; j < num_cols; ++j) {
        std::vector<std::string> col;
        const int m = rng.NextInt(1, 7);  // often > max_column_words
        for (int i = 0; i < m; ++i) col.push_back(pick());
        c.columns.push_back(col);
      }
      c.columns.push_back(c.columns.front());  // a duplicate column
      cases_->push_back(std::move(c));
    }
  }

  static void TearDownTestSuite() {
    delete cases_;
    delete deep_;
    delete deep_config_;
    delete trained_;
    delete trained_config_;
    delete provider_;
    gemm::SetTier(gemm::Tier::kAuto);
  }

  /// Asserts the fast pass equals the tape on every column of `c`. With
  /// threshold 0 every column takes the hand backward.
  static void ExpectMatchesTape(const ColumnMentionClassifier& clf,
                                const ModelConfig& config, const Case& c,
                                float threshold, const std::string& label) {
    AdversarialLocator locator(config);
    const std::vector<float> batch =
        clf.PredictBatch(c.question, c.columns).value();
    const AdversarialLocator::ScoredColumns scored =
        locator.ScoreColumns(clf, c.question, c.columns, threshold).value();
    ASSERT_EQ(batch.size(), c.columns.size()) << label;
    ASSERT_EQ(scored.probabilities.size(), c.columns.size()) << label;
    ASSERT_EQ(scored.profiles.size(), c.columns.size()) << label;
    for (size_t col = 0; col < c.columns.size(); ++col) {
      const std::string where = label + " column " + std::to_string(col);
      const float tape = clf.Predict(c.question, c.columns[col]).value();
      EXPECT_EQ(Bits(batch[col]), Bits(tape)) << where;
      EXPECT_EQ(Bits(scored.probabilities[col]), Bits(tape)) << where;
      const InfluenceProfile& fast = scored.profiles[col];
      if (!(tape >= threshold)) {
        EXPECT_TRUE(fast.total.empty()) << where;
        continue;
      }
      const InfluenceProfile ref =
          locator.ComputeInfluence(clf, c.question, c.columns[col]).value();
      ASSERT_EQ(fast.total.size(), c.question.size()) << where;
      for (size_t i = 0; i < c.question.size(); ++i) {
        EXPECT_EQ(Bits(fast.word_level[i]), Bits(ref.word_level[i]))
            << where << " token " << i;
        EXPECT_EQ(Bits(fast.char_level[i]), Bits(ref.char_level[i]))
            << where << " token " << i;
        EXPECT_EQ(Bits(fast.total[i]), Bits(ref.total[i]))
            << where << " token " << i;
      }
      EXPECT_EQ(locator.LocateSpan(fast), locator.LocateSpan(ref)) << where;
    }
  }

  static void SweepTiers(const ColumnMentionClassifier& clf,
                         const ModelConfig& config) {
    for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAvx2}) {
      gemm::SetTier(tier);
      for (size_t k = 0; k < cases_->size(); ++k) {
        const std::string label = std::string(tier == gemm::Tier::kBase
                                                  ? "base"
                                                  : "avx2") +
                                  " case " + std::to_string(k);
        ExpectMatchesTape(clf, config, (*cases_)[k], 0.0f, label);
        ExpectMatchesTape(clf, config, (*cases_)[k], 0.5f, label + " @0.5");
        if (HasFatalFailure()) return;
      }
    }
    gemm::SetTier(gemm::Tier::kAuto);
  }

  static text::EmbeddingProvider* provider_;
  static ModelConfig* trained_config_;
  static ColumnMentionClassifier* trained_;
  static ModelConfig* deep_config_;
  static ColumnMentionClassifier* deep_;
  static std::vector<Case>* cases_;
};

text::EmbeddingProvider* ColumnMentionFastTest::provider_ = nullptr;
ModelConfig* ColumnMentionFastTest::trained_config_ = nullptr;
ColumnMentionClassifier* ColumnMentionFastTest::trained_ = nullptr;
ModelConfig* ColumnMentionFastTest::deep_config_ = nullptr;
ColumnMentionClassifier* ColumnMentionFastTest::deep_ = nullptr;
std::vector<Case>* ColumnMentionFastTest::cases_ = nullptr;

TEST_F(ColumnMentionFastTest, TrainedClassifierMatchesTapeBitwise) {
  SweepTiers(*trained_, *trained_config_);
}

TEST_F(ColumnMentionFastTest, TwoLayerClassifierMatchesTapeBitwise) {
  SweepTiers(*deep_, *deep_config_);
}

TEST_F(ColumnMentionFastTest, ThresholdSelectsWhichColumnsGetProfiles) {
  // At the annotator's threshold some corpus columns are accepted and
  // some are not; profiles exist exactly for the accepted ones.
  AdversarialLocator locator(*trained_config_);
  int accepted = 0, rejected = 0;
  for (const Case& c : *cases_) {
    const AdversarialLocator::ScoredColumns scored =
        locator.ScoreColumns(*trained_, c.question, c.columns, 0.5f).value();
    for (size_t col = 0; col < c.columns.size(); ++col) {
      const bool in = scored.probabilities[col] >= 0.5f;
      EXPECT_EQ(scored.profiles[col].total.empty(), !in);
      (in ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(ColumnMentionFastTest, EmptyInputsReturnTheTapesStatus) {
  AdversarialLocator locator(*trained_config_);
  const Status tape_q =
      locator.ComputeInfluence(*trained_, {}, {"name"}).status();
  const Status tape_c =
      locator.ComputeInfluence(*trained_, {"who"}, {}).status();
  ASSERT_EQ(tape_q.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(tape_c.code(), StatusCode::kInvalidArgument);

  const Status fast_q =
      locator.ScoreColumns(*trained_, {}, {{"name"}}, 0.0f).status();
  EXPECT_EQ(fast_q.code(), tape_q.code());
  EXPECT_EQ(fast_q.message(), tape_q.message());
  const Status fast_c =
      locator.ScoreColumns(*trained_, {"who"}, {{"name"}, {}}, 0.0f).status();
  EXPECT_EQ(fast_c.code(), tape_c.code());
  EXPECT_EQ(fast_c.message(), tape_c.message());
  EXPECT_EQ(trained_->PredictBatch({}, {{"name"}}).status().message(),
            tape_q.message());

  // No columns: nothing to score, not an error (PredictBatch's contract).
  const AdversarialLocator::ScoredColumns none =
      locator.ScoreColumns(*trained_, {"who"}, {}, 0.0f).value();
  EXPECT_TRUE(none.probabilities.empty());
  EXPECT_TRUE(none.profiles.empty());
}

}  // namespace
}  // namespace core
}  // namespace nlidb
