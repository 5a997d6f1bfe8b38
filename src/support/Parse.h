//===- support/Parse.h - Strict numeric token parsing -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-token numeric parsing for user-supplied values (CLI flags, bench
/// environment knobs). atoi/atof and bare strtoul/strtod truncate at the
/// first bad character, so "10abc" read as 10 and "abc" as a silent 0;
/// these parsers refuse anything that is not entirely a number.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SUPPORT_PARSE_H
#define PRIMSEL_SUPPORT_PARSE_H

#include <string>

namespace primsel {

/// Parse a plain decimal count in [1, \p Max] into \p Out. Signs,
/// exponents, hex, trailing junk and out-of-range values are refused;
/// \p Out is untouched on failure.
bool parseCount(const std::string &Val, unsigned &Out, unsigned long Max);

/// Parse a finite decimal floating-point token into \p Out. Leading
/// whitespace, hex floats ("0x1"), "inf"/"nan", overflow ("1e999") and
/// trailing junk are refused; \p Out is untouched on failure. Range checks
/// (positivity etc.) are the caller's.
bool parseDouble(const std::string &Val, double &Out);

} // namespace primsel

#endif // PRIMSEL_SUPPORT_PARSE_H
