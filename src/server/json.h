// JSON encoding of result tables for the wire protocol. Both the server
// (streaming batches) and the parity tests (encoding a materialized
// Query() result as the expected stream) use these helpers, so
// "streamed ≡ materialized" is compared on identical bytes.

#ifndef LAZYETL_SERVER_JSON_H_
#define LAZYETL_SERVER_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "storage/table.h"

namespace lazyetl::server {

// Appends `s` as a JSON string literal (quotes included).
void AppendJsonString(std::string_view s, std::string* out);

// Appends cell (row, col) as a JSON value: bools as true/false, integers
// and timestamps as decimal integers (timestamps stay nanosecond-exact),
// doubles via %.17g (round-trippable; NaN/Inf become null — JSON has no
// spelling for them), strings as escaped literals.
void AppendJsonValue(const storage::Table& t, size_t row, size_t col,
                     std::string* out);

// Appends row `row` as a JSON array "[v,v,...]".
void AppendJsonRow(const storage::Table& t, size_t row, std::string* out);

// All rows of `t`, one "[v,v,...]" string each, in order.
std::vector<std::string> JsonRows(const storage::Table& t);

}  // namespace lazyetl::server

#endif  // LAZYETL_SERVER_JSON_H_
