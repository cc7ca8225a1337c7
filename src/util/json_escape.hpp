// JSON string escaping, shared by every hand-written JSON writer.
#pragma once

#include <string>
#include <string_view>

namespace midrr {

/// `in` as the body of a JSON string literal (without the surrounding
/// quotes): quote, backslash and control characters escaped, every other
/// byte copied verbatim.
std::string json_escape(std::string_view in);

}  // namespace midrr
