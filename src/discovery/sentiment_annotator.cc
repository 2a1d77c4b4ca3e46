#include "discovery/sentiment_annotator.h"

#include <cmath>

#include "common/string_util.h"

namespace impliance::discovery {

SentimentAnnotator::SentimentAnnotator() {
  positive_ = {"good",      "great",   "excellent", "happy",   "love",
               "wonderful", "pleased", "satisfied", "perfect", "recommend",
               "fantastic", "helpful", "thanks",    "thank",   "awesome"};
  negative_ = {"bad",      "terrible", "awful",        "angry",   "hate",
               "broken",   "refund",   "disappointed", "problem", "complaint",
               "horrible", "cancel",   "unacceptable", "worst",   "defective"};
}

void SentimentAnnotator::AddNegativeWord(std::string word) {
  negative_.insert(ToLower(word));
}

double SentimentAnnotator::Score(std::string_view text) const {
  int pos = 0, neg = 0;
  for (const std::string& token : Tokenize(text)) {
    if (positive_.count(token)) ++pos;
    if (negative_.count(token)) ++neg;
  }
  if (pos + neg == 0) return 0.0;
  return static_cast<double>(pos - neg) / static_cast<double>(pos + neg);
}

std::vector<AnnotationSpan> SentimentAnnotator::Annotate(
    const model::Document& doc) const {
  const std::string text = doc.Text();
  const double score = Score(text);
  AnnotationSpan span;
  span.entity_type = "sentiment";
  span.text = score > 0.1 ? "positive" : (score < -0.1 ? "negative" : "neutral");
  span.begin = 0;
  span.end = static_cast<uint32_t>(text.size());
  span.confidence = std::abs(score);
  return {span};
}

}  // namespace impliance::discovery
