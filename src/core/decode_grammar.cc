#include "core/decode_grammar.h"

#include "core/annotation.h"

namespace nlidb {
namespace core {

namespace {

using TC = DecodeGrammar::TokenClass;

/// A token usable in a (single-token) column position.
bool IsColumnish(TC c) {
  return c == TC::kColSym || c == TC::kHeaderSym || c == TC::kLiteral ||
         c == TC::kUnk;
}

/// A token usable inside a literal value run.
bool IsValueLiteral(TC c) { return c == TC::kLiteral || c == TC::kUnk; }

/// Classes that are only legal when the token was seen in the source q^a:
/// annotation symbols reference this query's mention pairs / headers, and
/// literal column or value words are copied from the question.
bool RequiresSource(TC c) {
  return c == TC::kColSym || c == TC::kValSym || c == TC::kHeaderSym ||
         c == TC::kLiteral;
}

}  // namespace

void DecodeGrammar::Extend(const text::Vocab& vocab) {
  const int size = vocab.size();
  for (int id = static_cast<int>(classes_.size()); id < size; ++id) {
    TC c = TC::kLiteral;
    if (id == text::Vocab::kPad || id == text::Vocab::kBos) {
      c = TC::kSpecial;
    } else if (id == text::Vocab::kUnk) {
      c = TC::kUnk;
    } else if (id == text::Vocab::kEos) {
      c = TC::kEos;
    } else {
      const std::string& token = vocab.GetToken(id);
      if (token == "SELECT") {
        c = TC::kSelect;
        usable_ = true;
      } else if (token == "WHERE") {
        c = TC::kWhere;
      } else if (token == "AND") {
        c = TC::kAnd;
      } else if (token == "MAX" || token == "MIN" || token == "COUNT" ||
                 token == "SUM" || token == "AVG") {
        c = TC::kAgg;
      } else if (token == "=" || token == ">" || token == "<") {
        c = TC::kOp;
      } else if (IsAnnotationSymbol(token)) {
        c = token[0] == 'c'   ? TC::kColSym
            : token[0] == 'v' ? TC::kValSym
                              : TC::kHeaderSym;
      }
    }
    classes_.push_back(c);
    if (c != TC::kSpecial && !RequiresSource(c)) structural_ids_.push_back(id);
  }
}

int DecodeGrammar::Advance(int state, int token_id) const {
  const TC c = Classify(token_id);
  switch (state) {
    case kStart:
      if (c == TC::kSelect) return kAfterSelect;
      break;
    case kAfterSelect:
      if (c == TC::kAgg) return kAfterAgg;
      if (IsColumnish(c)) return kAfterSelCol;
      break;
    case kAfterAgg:
      if (IsColumnish(c)) return kAfterSelCol;
      break;
    case kAfterSelCol:
      if (c == TC::kWhere) return kCondCol;
      if (c == TC::kEos) return kDone;
      break;
    case kCondCol:
      if (IsColumnish(c)) return kCondOp;
      break;
    case kCondOp:
      if (c == TC::kOp) return kCondVal;
      break;
    case kCondVal:
      if (c == TC::kValSym) return kAfterValSym;
      if (IsValueLiteral(c)) return kValLit;
      break;
    case kAfterValSym:
      if (c == TC::kAnd) return kCondCol;
      if (c == TC::kEos) return kDone;
      break;
    case kValLit:
      if (IsValueLiteral(c)) return kValLit;
      if (c == TC::kAnd) return kCondCol;
      if (c == TC::kEos) return kDone;
      break;
    case kDone:
    case kFree:
      return state;
    default:
      break;
  }
  return kFree;
}

bool DecodeGrammar::IsLegal(int state, int token_id,
                            const std::vector<uint8_t>& in_source) const {
  const TC c = Classify(token_id);
  if (c == TC::kSpecial) return false;
  if (RequiresSource(c) && !in_source[static_cast<size_t>(token_id)]) {
    return false;
  }
  switch (state) {
    case kStart:
      return c == TC::kSelect;
    case kAfterSelect:
      return c == TC::kAgg || IsColumnish(c);
    case kAfterAgg:
      return IsColumnish(c);
    case kAfterSelCol:
      return c == TC::kWhere || c == TC::kEos;
    case kCondCol:
      return IsColumnish(c);
    case kCondOp:
      return c == TC::kOp;
    case kCondVal:
      return c == TC::kValSym || IsValueLiteral(c);
    case kAfterValSym:
      return c == TC::kAnd || c == TC::kEos;
    case kValLit:
      return IsValueLiteral(c) || c == TC::kAnd || c == TC::kEos;
    case kDone:
      return c == TC::kEos;
    case kFree:
      return true;
    default:
      return false;
  }
}

}  // namespace core
}  // namespace nlidb
