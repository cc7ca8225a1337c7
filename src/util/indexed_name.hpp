// Generated names such as "f3" or "if0": a prefix and a decimal index.
#pragma once

#include <string>
#include <string_view>

namespace midrr {

/// indexed_name("f", 3) == "f3".  It appends instead of writing
/// `"f" + std::to_string(3)`, which GCC 12 flags with a false -Wrestrict
/// at -O2 and above.
template <typename Index>
std::string indexed_name(std::string_view prefix, Index index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace midrr
