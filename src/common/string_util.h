#ifndef IMPLIANCE_COMMON_STRING_UTIL_H_
#define IMPLIANCE_COMMON_STRING_UTIL_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace impliance {

// Splits on a single delimiter character; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char delim);

// Splits and drops empty fields after trimming whitespace.
std::vector<std::string> SplitAndTrim(std::string_view text, char delim);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view TrimWhitespace(std::string_view text);

std::string ToLower(std::string_view text);

// Lowercased alphanumeric tokens, splitting on any other character.
// This is the tokenizer shared by the full-text indexer and keyword queries
// so that indexing and search agree on term boundaries.
std::vector<std::string> Tokenize(std::string_view text);

// Streaming variant of Tokenize: invokes `fn(std::string_view token)` for
// each lowercased alphanumeric token without materializing a
// vector<std::string>. The token's bytes live in a single lowered buffer
// that is reused across tokens, so the string_view is only valid for the
// duration of the callback — copy it if it must outlive the call. This is
// the indexer/search hot-path tokenizer (zero allocations after the buffer
// warms up).
template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  std::string token;  // lowered bytes, reused across tokens
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           !std::isalnum(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    token.clear();
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i]))) {
      token.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[i]))));
      ++i;
    }
    if (!token.empty()) fn(std::string_view(token));
  }
}

// Like Tokenize but also reports the byte offset of each token, for
// annotators that need spans.
struct Token {
  std::string text;    // lowercased
  size_t offset = 0;   // byte offset of the token start in the input
};
std::vector<Token> TokenizeWithOffsets(std::string_view text);

// Jaccard similarity of the token sets of two strings, in [0, 1].
double TokenJaccard(std::string_view a, std::string_view b);

// Jaro-Winkler similarity in [0, 1]; used by entity resolution.
double JaroWinkler(std::string_view a, std::string_view b);

// Levenshtein edit distance.
size_t EditDistance(std::string_view a, std::string_view b);

}  // namespace impliance

#endif  // IMPLIANCE_COMMON_STRING_UTIL_H_
