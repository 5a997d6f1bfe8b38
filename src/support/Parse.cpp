//===- support/Parse.cpp --------------------------------------------------===//

#include "support/Parse.h"

#include <cmath>
#include <cstdlib>

using namespace primsel;

bool primsel::parseCount(const std::string &Val, unsigned &Out,
                         unsigned long Max) {
  if (Val.empty() || Val.find_first_not_of("0123456789") != std::string::npos)
    return false;
  // strtoul saturates on overflow, which the range check below rejects;
  // the endptr check makes the full-token requirement explicit rather
  // than relying on the character scan above alone.
  char *End = nullptr;
  unsigned long Count = std::strtoul(Val.c_str(), &End, 10);
  if (End != Val.c_str() + Val.size() || Count < 1 || Count > Max)
    return false;
  Out = static_cast<unsigned>(Count);
  return true;
}

bool primsel::parseDouble(const std::string &Val, double &Out) {
  if (Val.empty())
    return false;
  // strtod alone is too permissive: it accepts leading whitespace, C99 hex
  // floats ("0x1"), and "inf"/"nan". Pre-screen to plain decimal notation,
  // then let strtod verify it consumes the whole token.
  bool SawDigit = false;
  for (char C : Val) {
    if (C >= '0' && C <= '9')
      SawDigit = true;
    else if (C != '.' && C != 'e' && C != 'E' && C != '+' && C != '-')
      return false;
  }
  if (!SawDigit)
    return false;
  const char *Begin = Val.c_str();
  char *End = nullptr;
  double V = std::strtod(Begin, &End);
  if (End != Begin + Val.size())
    return false;
  // Decimal overflow ("1e999") consumes the whole token but yields
  // HUGE_VAL, which would sail through positivity checks downstream.
  if (!std::isfinite(V))
    return false;
  Out = V;
  return true;
}
