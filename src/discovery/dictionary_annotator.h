#ifndef IMPLIANCE_DISCOVERY_DICTIONARY_ANNOTATOR_H_
#define IMPLIANCE_DISCOVERY_DICTIONARY_ANNOTATOR_H_

#include <map>
#include <string>
#include <vector>

#include "discovery/annotator.h"

namespace impliance::discovery {

// Gazetteer-based entity recognition: matches dictionary entries (one to
// three tokens, case-insensitive) against document text, longest match
// first. Used for person names, locations, product names — the entity
// classes the paper's use cases revolve around (Section 2.1).
class DictionaryAnnotator : public Annotator {
 public:
  explicit DictionaryAnnotator(std::string annotator_name = "dictionary")
      : name_(std::move(annotator_name)) {}

  // Registers `entry` (e.g. "new york") as an entity of `entity_type`.
  void AddEntry(std::string_view entity_type, std::string_view entry);

  // Bulk registration.
  void AddEntries(std::string_view entity_type,
                  const std::vector<std::string>& entries);

  std::string name() const override { return name_; }

  std::vector<AnnotationSpan> Annotate(
      const model::Document& doc) const override;

  std::vector<AnnotationSpan> ScanText(std::string_view text) const;

 private:
  std::string name_;
  // normalized token-joined entry -> entity type.
  std::map<std::string, std::string> entries_;
  size_t max_entry_tokens_ = 1;
};

}  // namespace impliance::discovery

#endif  // IMPLIANCE_DISCOVERY_DICTIONARY_ANNOTATOR_H_
