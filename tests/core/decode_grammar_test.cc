#include "core/decode_grammar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace nlidb {
namespace core {
namespace {

using TC = DecodeGrammar::TokenClass;

/// A vocabulary covering every token class: structural SQL, annotation
/// symbols, and plain literals.
text::Vocab MakeVocab() {
  text::Vocab v;
  for (const char* t :
       {"SELECT", "WHERE", "AND", "MAX", "COUNT", "=", ">", "<", "c1", "c2",
        "v1", "g1", "revenue", "1996", "alice"}) {
    v.AddToken(t);
  }
  return v;
}

std::vector<uint8_t> AllInSource(const text::Vocab& v) {
  return std::vector<uint8_t>(v.size(), 1);
}

TEST(DecodeGrammarTest, ClassifiesEveryTokenClass) {
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  EXPECT_TRUE(g.usable());
  EXPECT_EQ(g.Classify(text::Vocab::kPad), TC::kSpecial);
  EXPECT_EQ(g.Classify(text::Vocab::kBos), TC::kSpecial);
  EXPECT_EQ(g.Classify(text::Vocab::kUnk), TC::kUnk);
  EXPECT_EQ(g.Classify(text::Vocab::kEos), TC::kEos);
  EXPECT_EQ(g.Classify(v.GetId("SELECT")), TC::kSelect);
  EXPECT_EQ(g.Classify(v.GetId("WHERE")), TC::kWhere);
  EXPECT_EQ(g.Classify(v.GetId("AND")), TC::kAnd);
  EXPECT_EQ(g.Classify(v.GetId("MAX")), TC::kAgg);
  EXPECT_EQ(g.Classify(v.GetId("COUNT")), TC::kAgg);
  EXPECT_EQ(g.Classify(v.GetId("=")), TC::kOp);
  EXPECT_EQ(g.Classify(v.GetId("c1")), TC::kColSym);
  EXPECT_EQ(g.Classify(v.GetId("v1")), TC::kValSym);
  EXPECT_EQ(g.Classify(v.GetId("g1")), TC::kHeaderSym);
  EXPECT_EQ(g.Classify(v.GetId("revenue")), TC::kLiteral);
  EXPECT_EQ(g.Classify(v.GetId("1996")), TC::kLiteral);
}

TEST(DecodeGrammarTest, StructuralIdsAreTheStateOnlyClassesAscending) {
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  std::vector<int> want = {text::Vocab::kUnk, text::Vocab::kEos};
  for (const char* t : {"SELECT", "WHERE", "AND", "MAX", "COUNT", "=", ">",
                        "<"}) {
    want.push_back(v.GetId(t));
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(g.structural_ids(), want);
}

TEST(DecodeGrammarTest, ExtendMatchesFreshClassification) {
  // Growing a grammar token by token (the translator's AddVocabulary
  // path) must equal classifying the finished vocabulary at once.
  const text::Vocab full = MakeVocab();
  text::Vocab v;
  DecodeGrammar grown(v);
  EXPECT_FALSE(grown.usable());
  for (int id = text::Vocab::kEos + 1; id < full.size(); ++id) {
    v.AddToken(full.GetToken(id));
    grown.Extend(v);
  }
  grown.Extend(v);  // no new ids: a no-op
  const DecodeGrammar fresh(v);
  EXPECT_TRUE(grown.usable());
  EXPECT_EQ(grown.structural_ids(), fresh.structural_ids());
  for (int id = 0; id < v.size(); ++id) {
    EXPECT_EQ(grown.Classify(id), fresh.Classify(id)) << v.GetToken(id);
  }
}

TEST(DecodeGrammarTest, UnusableWithoutSelect) {
  text::Vocab v;
  v.AddToken("revenue");
  v.AddToken("WHERE");
  DecodeGrammar g(v);
  EXPECT_FALSE(g.usable());
}

TEST(DecodeGrammarTest, AcceptsCanonicalSentence) {
  // SELECT MAX c1 WHERE c2 = v1 AND g1 > 1996 <eos> walks the automaton
  // to kDone without ever visiting kFree.
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  int s = DecodeGrammar::Start();
  for (const char* tok :
       {"SELECT", "MAX", "c1", "WHERE", "c2", "=", "v1", "AND", "g1", ">",
        "1996"}) {
    const int id = v.GetId(tok);
    EXPECT_TRUE(g.IsLegal(s, id, AllInSource(v))) << "illegal: " << tok;
    s = g.Advance(s, id);
    EXPECT_NE(s, DecodeGrammar::kFree) << "lost track at: " << tok;
  }
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kEos, AllInSource(v)));
  EXPECT_EQ(g.Advance(s, text::Vocab::kEos), DecodeGrammar::kDone);
}

TEST(DecodeGrammarTest, NoAggregateNoWhereAlsoAccepted) {
  // Minimal sentence: SELECT col <eos>.
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  int s = DecodeGrammar::Start();
  s = g.Advance(s, v.GetId("SELECT"));
  s = g.Advance(s, v.GetId("c1"));
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kEos, AllInSource(v)));
  EXPECT_FALSE(g.IsLegal(s, v.GetId("="), AllInSource(v)));
  EXPECT_EQ(g.Advance(s, text::Vocab::kEos), DecodeGrammar::kDone);
}

TEST(DecodeGrammarTest, LiteralValueRunsSpanMultipleTokens) {
  // WHERE c1 = alice 1996 AND ...: literal values may run until AND/eos.
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  int s = DecodeGrammar::Start();
  for (const char* tok : {"SELECT", "c1", "WHERE", "c2", "="}) {
    s = g.Advance(s, v.GetId(tok));
  }
  EXPECT_EQ(s, DecodeGrammar::kCondVal);
  s = g.Advance(s, v.GetId("alice"));
  EXPECT_EQ(s, DecodeGrammar::kValLit);
  EXPECT_TRUE(g.IsLegal(s, v.GetId("1996"), AllInSource(v)));
  s = g.Advance(s, v.GetId("1996"));
  EXPECT_EQ(s, DecodeGrammar::kValLit);
  EXPECT_TRUE(g.IsLegal(s, v.GetId("AND"), AllInSource(v)));
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kEos, AllInSource(v)));
  EXPECT_FALSE(g.IsLegal(s, v.GetId("WHERE"), AllInSource(v)));
}

TEST(DecodeGrammarTest, SourceGatingBlocksUncopiedSymbols) {
  // Symbols and literals are copied from q^a: with an empty source
  // bitmap they are illegal everywhere, while structural tokens and
  // <unk> stay legal by state.
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  std::vector<uint8_t> none(v.size(), 0);
  int s = g.Advance(DecodeGrammar::Start(), v.GetId("SELECT"));
  EXPECT_FALSE(g.IsLegal(s, v.GetId("c1"), none));
  EXPECT_FALSE(g.IsLegal(s, v.GetId("revenue"), none));
  EXPECT_TRUE(g.IsLegal(s, v.GetId("MAX"), none));  // structural
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kUnk, none));
  std::vector<uint8_t> c1_only(v.size(), 0);
  c1_only[v.GetId("c1")] = 1;
  EXPECT_TRUE(g.IsLegal(s, v.GetId("c1"), c1_only));
}

TEST(DecodeGrammarTest, SpecialTokensNeverLegal) {
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  for (int s = 0; s < DecodeGrammar::kNumStates; ++s) {
    EXPECT_FALSE(g.IsLegal(s, text::Vocab::kPad, AllInSource(v)));
    EXPECT_FALSE(g.IsLegal(s, text::Vocab::kBos, AllInSource(v)));
  }
}

TEST(DecodeGrammarTest, UndefinedTransitionFallsToFreeAndStaysLegal) {
  // A history the grammar does not recognize must never dead-end the
  // beam: it falls to kFree where every non-special token is legal.
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  int s = g.Advance(DecodeGrammar::Start(), v.GetId("WHERE"));  // not SELECT
  EXPECT_EQ(s, DecodeGrammar::kFree);
  EXPECT_TRUE(g.IsLegal(s, v.GetId("revenue"), AllInSource(v)));
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kEos, AllInSource(v)));
  EXPECT_FALSE(g.IsLegal(s, text::Vocab::kPad, AllInSource(v)));
  EXPECT_EQ(g.Advance(s, v.GetId("AND")), DecodeGrammar::kFree);
}

TEST(DecodeGrammarTest, DoneOnlyAcceptsEos) {
  text::Vocab v = MakeVocab();
  DecodeGrammar g(v);
  int s = DecodeGrammar::Start();
  for (const char* tok : {"SELECT", "c1"}) s = g.Advance(s, v.GetId(tok));
  s = g.Advance(s, text::Vocab::kEos);
  EXPECT_EQ(s, DecodeGrammar::kDone);
  EXPECT_TRUE(g.IsLegal(s, text::Vocab::kEos, AllInSource(v)));
  EXPECT_FALSE(g.IsLegal(s, v.GetId("SELECT"), AllInSource(v)));
  EXPECT_EQ(g.Advance(s, text::Vocab::kEos), DecodeGrammar::kDone);
}

}  // namespace
}  // namespace core
}  // namespace nlidb
