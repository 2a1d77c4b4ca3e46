#ifndef IMPLIANCE_MODEL_VIEW_H_
#define IMPLIANCE_MODEL_VIEW_H_

#include <optional>
#include <string>
#include <vector>

#include "model/document.h"

namespace impliance::model {

// A relational row materialized from a document.
using Row = std::vector<Value>;

// System-supplied view definition (Figure 2): maps documents of one schema
// class back into relational rows so that SQL applications keep working
// without rewriting against new APIs. A view exposes named columns, each
// bound to a path in the document tree.
struct ViewColumn {
  std::string name;
  std::string path;  // e.g. "/doc/customer_id"

  bool operator==(const ViewColumn&) const = default;
};

struct ViewDef {
  std::string name;         // relational name, e.g. "orders"
  std::string kind;         // documents of this kind (or schema class) qualify
  std::vector<ViewColumn> columns;

  // Index of a column by name, or -1.
  int ColumnIndex(std::string_view column_name) const;

  bool operator==(const ViewDef&) const = default;
};

// Projects `doc` through the view. Missing paths become Null so that
// documents with ragged schemas ("schema chaos") still produce rows.
Row DocumentToRow(const ViewDef& view, const Document& doc);

// Infers a view over documents of `kind` from a sample: one column per
// distinct leaf path, named by the last path segment (disambiguated with
// full paths on collision). This is how SQL access appears over data that
// was never given a schema.
ViewDef InferView(std::string name, std::string kind,
                  const std::vector<const Document*>& sample);

}  // namespace impliance::model

#endif  // IMPLIANCE_MODEL_VIEW_H_
