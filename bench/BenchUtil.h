//===- bench/BenchUtil.h - Shared bench helpers ------------------*- C++ -*-===//

#ifndef LLHD_BENCH_BENCHUTIL_H
#define LLHD_BENCH_BENCHUTIL_H

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace llhd_bench {

/// Wall-clock seconds of one callable.
template <typename Fn> double timeIt(Fn &&F) {
  auto Start = std::chrono::steady_clock::now();
  F();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Exit status for a malformed command line (sysexits EX_USAGE, as
/// llhd-sim uses).
constexpr int UsageExit = 64;

/// Reports a malformed flag value and exits with UsageExit.
[[noreturn]] inline void badFlag(const std::string &Name,
                                 const std::string &Value,
                                 const char *Want) {
  fprintf(stderr, "error: --%s=%s: expected %s\n", Name.c_str(),
          Value.c_str(), Want);
  std::exit(UsageExit);
}

/// The value of the first "--name=<value>" flag, or null when absent.
inline const char *argValue(int Argc, char **Argv, const std::string &Name) {
  std::string Prefix = "--" + Name + "=";
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]).rfind(Prefix, 0) == 0)
      return Argv[I] + Prefix.size();
  return nullptr;
}

/// Parses "--scale=<float>" style flags; a value that is not a finite
/// number is a usage error.
inline double argFloat(int Argc, char **Argv, const std::string &Name,
                       double Default) {
  const char *V = argValue(Argc, Argv, Name);
  if (!V)
    return Default;
  char *End = nullptr;
  double D = std::strtod(V, &End);
  if (End == V || *End != '\0' || !std::isfinite(D))
    badFlag(Name, V, "a number");
  return D;
}

/// Parses "--reps=<count>" style flags: a non-negative integer, else a
/// usage error.
inline unsigned argCount(int Argc, char **Argv, const std::string &Name,
                         unsigned Default) {
  const char *V = argValue(Argc, Argv, Name);
  if (!V)
    return Default;
  char *End = nullptr;
  errno = 0;
  unsigned long N = std::strtoul(V, &End, 10);
  if (End == V || *End != '\0' || *V == '-' || errno == ERANGE ||
      N > std::numeric_limits<unsigned>::max())
    badFlag(Name, V, "a non-negative integer");
  return static_cast<unsigned>(N);
}

/// Parses "--name=<string>" style flags.
inline std::string argStr(int Argc, char **Argv, const std::string &Name,
                          const std::string &Default) {
  const char *V = argValue(Argc, Argv, Name);
  return V ? V : Default;
}

inline bool argFlag(int Argc, char **Argv, const std::string &Name) {
  std::string Flag = "--" + Name;
  for (int I = 1; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

/// Counts non-empty lines (the "LoC" metric of Tables 2 and 4).
inline unsigned locOf(const std::string &Src) {
  unsigned N = 0;
  bool NonEmpty = false;
  for (char C : Src) {
    if (C == '\n') {
      N += NonEmpty;
      NonEmpty = false;
    } else if (C != ' ' && C != '\t') {
      NonEmpty = true;
    }
  }
  return N + NonEmpty;
}

} // namespace llhd_bench

#endif // LLHD_BENCH_BENCHUTIL_H
