#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace impliance {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string> SplitAndTrim(std::string_view text, char delim) {
  std::vector<std::string> parts;
  for (const std::string& raw : Split(text, delim)) {
    std::string_view trimmed = TrimWhitespace(raw);
    if (!trimmed.empty()) parts.emplace_back(trimmed);
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachToken(text,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::vector<Token> TokenizeWithOffsets(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           !std::isalnum(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) {
      Token tok;
      tok.offset = start;
      tok.text = ToLower(text.substr(start, i - start));
      tokens.push_back(std::move(tok));
    }
  }
  return tokens;
}

double TokenJaccard(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = Tokenize(a);
  std::vector<std::string> tb = Tokenize(b);
  std::set<std::string> sa(ta.begin(), ta.end());
  std::set<std::string> sb(tb.begin(), tb.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& t : sa) {
    if (sb.count(t)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

double Jaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t match_window =
      std::max<size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Transpositions: matched characters out of order.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
}

}  // namespace

double JaroWinkler(std::string_view a, std::string_view b) {
  double jaro = Jaro(a, b);
  // Winkler prefix bonus, standard scaling factor 0.1 over at most 4 chars.
  size_t prefix = 0;
  while (prefix < std::min({a.size(), b.size(), size_t{4}}) &&
         a[prefix] == b[prefix]) {
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace impliance
