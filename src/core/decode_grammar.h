#ifndef NLIDB_CORE_DECODE_GRAMMAR_H_
#define NLIDB_CORE_DECODE_GRAMMAR_H_

#include <cstdint>
#include <vector>

#include "text/vocab.h"

namespace nlidb {
namespace core {

/// Next-token legality for decoding the annotated-SQL grammar s^a.
///
/// The decoder's output language is tiny and near-regular (the shape
/// RecoverSql accepts):
///
///   SELECT [AGG] col [WHERE col op val (AND col op val)*] <eos>
///   col ::= c_i | g_j | single literal column token | <unk>
///   val ::= v_i | literal token run | <unk>
///
/// This class classifies every vocabulary id once (the translator extends
/// it as its vocabulary grows) and exposes a deterministic automaton over
/// decode states, so beam search can restrict the softmax/copy/top-k loop
/// to the legal symbol set instead of the full vocabulary. Literal tokens
/// and annotation symbols are legal only when they occur in the source
/// sequence q^a (they are copied, never invented); structural tokens
/// (SELECT/WHERE/AND, aggregates, operators) are legal by state alone.
/// <unk> is legal wherever a literal may appear — it resolves through the
/// pointer fallback to a source token.
///
/// The mask is a *restriction*, not a rescoring: masked decoding normalizes
/// scores over the legal set, so masked and unmasked search can pick
/// different hypotheses. The fast decode path and the reference masked
/// path share this class, which is what makes them bitwise-comparable in
/// the differential fuzz harness.
class DecodeGrammar {
 public:
  /// Decode states. kFree is the escape hatch: any transition the grammar
  /// does not define lands there and every non-special token becomes
  /// legal, so an inconsistent history can never dead-end the beam.
  enum State : int {
    kStart = 0,      // expect SELECT
    kAfterSelect,    // expect AGG or the select column
    kAfterAgg,       // expect the select column
    kAfterSelCol,    // expect WHERE or <eos>
    kCondCol,        // expect a condition column
    kCondOp,         // expect =, >, <
    kCondVal,        // expect v_i or the first literal value token
    kAfterValSym,    // expect AND or <eos>
    kValLit,         // inside a literal value run: literal, AND or <eos>
    kDone,           // expect <eos>
    kFree,           // grammar lost track: everything non-special legal
    kNumStates
  };

  /// Token classes over the vocabulary.
  enum class TokenClass : uint8_t {
    kSelect,
    kWhere,
    kAnd,
    kAgg,        // MAX MIN COUNT SUM AVG
    kOp,         // = > <
    kColSym,     // c_i
    kValSym,     // v_i
    kHeaderSym,  // g_j
    kEos,
    kUnk,
    kSpecial,    // <pad>, <s>: never legal
    kLiteral
  };

  /// An empty grammar; Extend() classifies a vocabulary into it.
  DecodeGrammar() = default;

  /// Classifies every id of `vocab` (token strings are read once here;
  /// the per-step mask never touches strings).
  explicit DecodeGrammar(const text::Vocab& vocab) { Extend(vocab); }

  /// Classifies the ids `vocab` gained since the last call. Vocabularies
  /// only grow and never renumber, so the result equals
  /// DecodeGrammar(vocab) while each id is read once over all calls.
  void Extend(const text::Vocab& vocab);

  /// False when the vocabulary lacks the SELECT token — then no legal
  /// sentence exists and callers must decode unmasked.
  bool usable() const { return usable_; }

  static int Start() { return kStart; }

  /// The state after emitting `token_id` in `state`.
  int Advance(int state, int token_id) const;

  /// True when `token_id` may follow in `state`, for a query whose source
  /// vocabulary ids are flagged in `in_source` (indexed by vocab id).
  bool IsLegal(int state, int token_id,
               const std::vector<uint8_t>& in_source) const;

  TokenClass Classify(int token_id) const {
    return classes_[static_cast<size_t>(token_id)];
  }

  /// Ids whose legality depends on the decode state alone (SELECT,
  /// WHERE, AND, aggregates, operators, <eos>, <unk>), ascending. The
  /// rest of a query's emittable domain is its source tokens.
  const std::vector<int>& structural_ids() const { return structural_ids_; }

 private:
  std::vector<TokenClass> classes_;  // by vocab id
  std::vector<int> structural_ids_;
  bool usable_ = false;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_DECODE_GRAMMAR_H_
