//===- perfbench/gen.cpp - Writes the benchmark's design inputs ---------------===//
//
// Materialises Table-2 designs (src/designs) as SystemVerilog files at
// fixed testbench iteration counts, so the benchmark can hand llhd-sim
// exactly what a user would: a .sv file on disk.
//
//   perfbench-gen <out-dir> <key>=<iterations> [<key>=<iterations> ...]
//
// Writes <out-dir>/<key>-<iterations>.sv per argument and prints one
// line "<key> <top-module> <iterations> <path>" per file. Exits 64 on a
// malformed argument or unknown design, 66 when a file cannot be written.
//
//===----------------------------------------------------------------------===//

#include "designs/Designs.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace llhd;

int main(int Argc, char **Argv) {
  if (Argc < 3) {
    fprintf(stderr, "usage: perfbench-gen <out-dir> <key>=<iterations>...\n");
    return 64;
  }
  std::string Dir = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    size_t Eq = A.find('=');
    std::string Key = A.substr(0, Eq);
    char *End = nullptr;
    errno = 0;
    unsigned long long Iters =
        Eq == std::string::npos
            ? 0
            : strtoull(A.c_str() + Eq + 1, &End, 10);
    // allDesigns clamps every count to at least 400 iterations.
    if (Eq == std::string::npos || !End || *End != '\0' || errno ||
        Iters < 400 || Iters > (1ull << 40)) {
      fprintf(stderr,
              "perfbench-gen: bad design spec '%s' (want <key>=<n>, "
              "400 <= n <= 2^40)\n",
              A.c_str());
      return 64;
    }
    designs::DesignInfo Probe = designs::designByKey(Key, 0);
    if (Probe.Key.empty()) {
      fprintf(stderr, "perfbench-gen: unknown design '%s'\n", Key.c_str());
      return 64;
    }
    // Scale so that floor(CyclesPaper * Scale) lands exactly on Iters.
    double Scale = (static_cast<double>(Iters) + 0.5) /
                   static_cast<double>(Probe.CyclesPaper);
    designs::DesignInfo D = designs::designByKey(Key, Scale);
    if (D.Iterations != Iters) {
      fprintf(stderr, "perfbench-gen: cannot scale '%s' to %llu iterations\n",
              Key.c_str(), Iters);
      return 64;
    }
    std::string Path = Dir + "/" + Key + "-" + std::to_string(Iters) + ".sv";
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << D.Source;
    Out.close();
    if (!Out) {
      fprintf(stderr, "perfbench-gen: cannot write '%s'\n", Path.c_str());
      return 66;
    }
    printf("%s %s %llu %s\n", Key.c_str(), D.TopModule.c_str(), Iters,
           Path.c_str());
  }
  return 0;
}
