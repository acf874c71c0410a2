// gtest prints a pointer parameter as its address, and CMake's
// gtest_discover_tests puts that print into each ctest name; with ASLR the
// address, and so the name, changes on every build.  Tests parameterized on
// a `const FormatSpec*` include this header so the print is the format name.
#pragma once

#include <ostream>

#include "fp/format.h"

namespace mfm::fp {

inline void PrintTo(const FormatSpec* f, std::ostream* os) { *os << f->name; }

}  // namespace mfm::fp
