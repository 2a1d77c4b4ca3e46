#ifndef IMPLIANCE_DISCOVERY_SENTIMENT_ANNOTATOR_H_
#define IMPLIANCE_DISCOVERY_SENTIMENT_ANNOTATOR_H_

#include <set>
#include <string>
#include <vector>

#include "discovery/annotator.h"

namespace impliance::discovery {

// Lexicon-based sentiment detection — the paper's canonical intra-document
// analysis besides entity extraction (Section 3.3). Emits a single
// document-level span of type "sentiment" with text "positive" /
// "negative" / "neutral" and confidence |pos-neg| / (pos+neg), plus a
// "sentiment_score" value in [-1, 1] recoverable from the confidence sign
// convention (text carries the label, confidence the strength).
class SentimentAnnotator : public Annotator {
 public:
  // Ships with a small built-in lexicon; extendable.
  SentimentAnnotator();

  void AddNegativeWord(std::string word);

  std::string name() const override { return "sentiment"; }

  std::vector<AnnotationSpan> Annotate(
      const model::Document& doc) const override;

  // Score in [-1, 1]; 0 when no lexicon word occurs.
  double Score(std::string_view text) const;

 private:
  std::set<std::string> positive_;
  std::set<std::string> negative_;
};

}  // namespace impliance::discovery

#endif  // IMPLIANCE_DISCOVERY_SENTIMENT_ANNOTATOR_H_
