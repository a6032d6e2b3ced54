//===- perfbench/calib.cpp - Frozen calibration kernel -------------------------===//
//
// A fixed amount of CPU work that never changes with the code under test.
// Each round sorts 2000 small heap strings (allocation, pointer chasing,
// unpredictable compares: the interpreter's profile) and then runs four
// independent integer hash chains (high-IPC straight-line code: the
// profile of JIT-compiled processes). Of the kernels tried on a host
// whose CPU speed drifts (L2 and 4 MiB pointer chases, switch dispatch,
// ordered-map inserts, each half of this one), this mix tracked
// llhd-sim's speed most closely on both presets. The benchmark runs it
// before every unit of a pass to measure how fast the CPU is running at
// that moment.
//
//   perfbench-cal <rounds>
//
// Prints the kernel's own elapsed seconds (process start-up excluded)
// and a checksum that keeps the work from being optimised away.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

int main(int Argc, char **Argv) {
  char *End = nullptr;
  long Rounds = Argc == 2 ? strtol(Argv[1], &End, 10) : 0;
  if (Argc != 2 || !End || *End || Rounds < 1 || Rounds > 1000000) {
    fprintf(stderr, "usage: perfbench-cal <rounds 1..1000000>\n");
    return 64;
  }
  uint64_t X = 0x9e3779b97f4a7c15ull;
  auto rnd = [&X] {
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    return X * 0x2545f4914f6cdd1dull;
  };
  auto T0 = std::chrono::steady_clock::now();
  uint64_t Sum = 0, A = 1, B = 2, C = 3, D = 4;
  for (long R = 0; R != Rounds; ++R) {
    std::vector<std::string> V;
    for (int I = 0; I != 2000; ++I)
      V.push_back(std::to_string(rnd() % 100000));
    std::sort(V.begin(), V.end());
    Sum += V[1000].size();
    for (uint64_t I = 0; I != 5 * 65536; ++I) {
      A = A * 6364136223846793005ull + 1;
      B ^= B << 13;
      B ^= B >> 7;
      C += (C >> 3) ^ I;
      D = D * 31 + (A >> 40);
    }
  }
  double S =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  printf("%.9f %llu\n", S, static_cast<unsigned long long>(Sum ^ A ^ B ^ C ^ D));
  return 0;
}
