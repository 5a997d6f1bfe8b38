//===- cost/CostDatabase.cpp ----------------------------------------------===//

#include "cost/CostDatabase.h"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace primsel;

std::string CostDatabase::convKey(const ConvScenario &S,
                                  const std::string &PrimName) {
  return S.key() + "|" + PrimName;
}

std::string CostDatabase::runKey(const ConvScenario &S,
                                 const std::string &PrimName,
                                 unsigned Threads) {
  assert(Threads >= 1 && "a run record needs its thread count");
  return convKey(S, PrimName) + "|t" + std::to_string(Threads);
}

namespace {

/// True when a conv run key ends in its "|tN" thread-count suffix.
bool hasThreadSuffix(const std::string &Key) {
  size_t Bar = Key.rfind('|');
  return Bar != std::string::npos && Bar + 2 < Key.size() &&
         Key[Bar + 1] == 't' &&
         Key.find_first_not_of("0123456789", Bar + 2) == std::string::npos;
}

} // namespace

std::string CostDatabase::transformKey(Layout From, Layout To,
                                       const TensorShape &Shape) {
  std::ostringstream OS;
  OS << layoutName(From) << ">" << layoutName(To) << "|c" << Shape.C << "_h"
     << Shape.H << "_w" << Shape.W;
  return OS.str();
}

bool CostDatabase::hasConvCost(const ConvScenario &S,
                               const std::string &PrimName,
                               unsigned Threads) const {
  return ConvCosts.count(runKey(S, PrimName, Threads)) != 0;
}

double CostDatabase::convCost(const ConvScenario &S,
                              const std::string &PrimName,
                              unsigned Threads) const {
  auto It = ConvCosts.find(runKey(S, PrimName, Threads));
  assert(It != ConvCosts.end() && "conv cost not in database");
  return It->second;
}

void CostDatabase::setConvCost(const ConvScenario &S,
                               const std::string &PrimName, double Millis,
                               unsigned Threads) {
  ConvCosts[runKey(S, PrimName, Threads)] = Millis;
}

bool CostDatabase::hasTransformCost(Layout From, Layout To,
                                    const TensorShape &Shape) const {
  return TransformCosts.count(transformKey(From, To, Shape)) != 0;
}

double CostDatabase::transformCost(Layout From, Layout To,
                                   const TensorShape &Shape) const {
  auto It = TransformCosts.find(transformKey(From, To, Shape));
  assert(It != TransformCosts.end() && "transform cost not in database");
  return It->second;
}

void CostDatabase::setTransformCost(Layout From, Layout To,
                                    const TensorShape &Shape, double Millis) {
  TransformCosts[transformKey(From, To, Shape)] = Millis;
}

bool CostDatabase::hasPrepareCost(const ConvScenario &S,
                                  const std::string &PrimName) const {
  return PrepareCosts.count(convKey(S, PrimName)) != 0;
}

double CostDatabase::prepareCost(const ConvScenario &S,
                                 const std::string &PrimName) const {
  auto It = PrepareCosts.find(convKey(S, PrimName));
  assert(It != PrepareCosts.end() && "prepare cost not in database");
  return It->second;
}

void CostDatabase::setPrepareCost(const ConvScenario &S,
                                  const std::string &PrimName,
                                  double Millis) {
  PrepareCosts[convKey(S, PrimName)] = Millis;
}

bool CostDatabase::save(const std::string &Path) const {
  // Write-to-temp then rename, so a serve racing this save (or a crash
  // mid-write) never observes a torn table. The temp name carries the pid:
  // two concurrent savers each rename their own complete file, and the
  // last full write wins.
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp);
    if (!Out)
      return false;
    Out.precision(9);
    for (const auto &[Key, Millis] : ConvCosts)
      Out << "conv " << Key << " " << Millis << "\n";
    for (const auto &[Key, Millis] : TransformCosts)
      Out << "dt " << Key << " " << Millis << "\n";
    for (const auto &[Key, Millis] : PrepareCosts)
      Out << "prep " << Key << " " << Millis << "\n";
    if (!Out) {
      Out.close();
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool CostDatabase::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  // Line-oriented so a malformed record (hand edits, version drift) is
  // skipped rather than truncating the rest of the file.
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Kind, Key;
    double Millis;
    if (!(LS >> Kind >> Key >> Millis))
      continue;
    if (Kind == "conv") {
      if (hasThreadSuffix(Key))
        ConvCosts[Key] = Millis;
    } else if (Kind == "dt") {
      TransformCosts[Key] = Millis;
    } else if (Kind == "prep") {
      PrepareCosts[Key] = Millis;
    }
    // Unknown kinds are skipped for forward compatibility.
  }
  return true;
}
