//===- bench/fig4_pipeline.cpp - Figure 4: the lowering pipeline ------------===//
//
// Regenerates the content of Figure 4 as a pass-pipeline report, now
// driven by the pass-manager instrumentation (passes/PassManager.h):
//
//   1. the accumulator design is lowered behavioural -> structural and
//      the per-pass run/changed/wall-time table plus the analysis-cache
//      hit rate are reported, and
//   2. the ten Table 2 evaluation designs are linked into one module
//      (replicated --rep times) and lowered once serially and once
//      across the thread pool, reporting the parallel speedup.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "asm/Parser.h"
#include "designs/Designs.h"
#include "ir/Verifier.h"
#include "moore/Compiler.h"
#include "passes/Passes.h"

#include <cstdio>
#include <memory>
#include <thread>

using namespace llhd;
using namespace llhd_bench;

static const char *ACC = R"(
entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
  %zero = const i32 0
  %d = sig i32 %zero
  inst @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q)
  inst @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d)
}
proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
init:
  %clk0 = prb i1$ %clk
  wait %check for %clk
check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %posedge = and i1 %chg, %clk1
  br %posedge, %init, %event
event:
  %dp = prb i32$ %d
  %delay = const time 1ns
  drv i32$ %q, %dp after %delay
  br %init
}
proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
entry:
  %qp = prb i32$ %q
  %enp = prb i1$ %en
  %delay = const time 0s
  drv i32$ %d, %qp after %delay
  br %enp, %final, %enabled
enabled:
  %xp = prb i32$ %x
  %sum = add i32 %qp, %xp
  drv i32$ %d, %sum after %delay
  br %final
final:
  wait %entry for %q, %x, %en
}
)";

static unsigned totalInsts(Module &M) {
  unsigned N = 0;
  for (const auto &U : M.units())
    N += U->numInsts();
  return N;
}

static unsigned numProcesses(Module &M) {
  unsigned N = 0;
  for (const auto &U : M.units())
    N += U->isProcess() && !U->isDeclaration();
  return N;
}

static void printCacheStats(const UnitAnalysisManager::Stats &S) {
  printf("analysis cache: %llu hits / %llu misses (%.0f%% hit rate), "
         "%llu invalidations\n",
         (unsigned long long)S.Hits, (unsigned long long)S.Misses,
         S.hitRate() * 100.0, (unsigned long long)S.Invalidations);
}

/// Compiles every Table 2 design \p Rep times and links everything into
/// one module (unit names get a replica prefix to stay unique). Returns
/// null on compile/link failure.
static std::unique_ptr<Module> compileSuite(Context &Ctx, unsigned Rep) {
  auto Combined = std::make_unique<Module>(Ctx, "suite");
  for (unsigned R = 0; R != Rep; ++R) {
    for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
      Module Staging(Ctx, D.Key);
      moore::CompileResult CR =
          moore::compileSystemVerilog(D.Source, D.TopModule, Staging);
      if (!CR.Ok) {
        fprintf(stderr, "compile %s: %s\n", D.Key.c_str(),
                CR.Error.c_str());
        return nullptr;
      }
      if (Rep > 1) {
        std::vector<Unit *> Units;
        for (const auto &U : Staging.units())
          if (!U->isDeclaration() && !U->isIntrinsic())
            Units.push_back(U.get());
        for (Unit *U : Units)
          Staging.renameUnit(U, "r" + std::to_string(R) + "." + U->name());
      }
      std::string Error;
      if (!Combined->linkFrom(Staging, Error)) {
        fprintf(stderr, "link %s: %s\n", D.Key.c_str(), Error.c_str());
        return nullptr;
      }
    }
  }
  return Combined;
}

int main(int Argc, char **Argv) {
  unsigned Rep = argCount(Argc, Argv, "rep", 3);

  //===------------------------------------------------------------------===//
  // Part 1: the accumulator, Figure 4.
  //===------------------------------------------------------------------===//

  Context Ctx;
  Module M(Ctx, "acc");
  if (!parseModule(ACC, M).Ok)
    return 1;

  printf("Figure 4: transformation passes on the accumulator design\n\n");
  printf("pipeline: %s,deseq+pl\n", kLoweringPipeline);
  printf("input: %u instructions (Behavioural LLHD)\n\n", totalInsts(M));

  LoweringResult LR;
  double T = timeIt([&] { LR = lowerToStructural(M); });
  printf("%s", LR.Stats.toString().c_str());
  printCacheStats(LR.AnalysisStats);
  printf("output: %u instructions, %.1f us total\n", totalInsts(M),
         T * 1e6);

  std::vector<std::string> Errors;
  bool Ok = verifyModule(M, Errors);
  printf("result: %s, level = %s\n\n", Ok ? "verified" : "BROKEN",
         irLevelName(classifyModule(M)));

  //===------------------------------------------------------------------===//
  // Part 2: serial vs parallel lowering of the Table 2 designs suite.
  //===------------------------------------------------------------------===//

  printf("Designs suite: serial vs parallel per-process lowering "
         "(--rep=%u)\n\n", Rep);

  Context SuiteCtx;
  std::unique_ptr<Module> Serial = compileSuite(SuiteCtx, Rep);
  std::unique_ptr<Module> Parallel = compileSuite(SuiteCtx, Rep);
  if (!Serial || !Parallel)
    return 1;
  printf("%u processes, %u instructions per copy\n",
         numProcesses(*Serial), totalInsts(*Serial));

  LoweringOptions SerialOpts;
  SerialOpts.Threads = 1;
  LoweringResult SerialR;
  double SerialT =
      timeIt([&] { SerialR = lowerToStructural(*Serial, SerialOpts); });

  LoweringOptions ParallelOpts;
  ParallelOpts.Threads = 0; // One worker per hardware thread.
  LoweringResult ParallelR;
  double ParallelT =
      timeIt([&] { ParallelR = lowerToStructural(*Parallel, ParallelOpts); });

  printf("serial   (1 thread%s): %8.2f ms, %zu rejected\n", "",
         SerialT * 1e3, SerialR.Rejected.size());
  printf("parallel (%u threads): %8.2f ms, %zu rejected\n",
         std::thread::hardware_concurrency(), ParallelT * 1e3,
         ParallelR.Rejected.size());
  printf("speedup: %.2fx\n", SerialT / ParallelT);
  printf("serial   "), printCacheStats(SerialR.AnalysisStats);
  printf("parallel "), printCacheStats(ParallelR.AnalysisStats);

  bool SerialOk = verifyModule(*Serial, Errors);
  bool ParallelOk = verifyModule(*Parallel, Errors);
  printf("suite result: serial %s, parallel %s\n",
         SerialOk ? "verified" : "BROKEN",
         ParallelOk ? "verified" : "BROKEN");

  return Ok && SerialOk && ParallelOk &&
                 classifyModule(M) == IRLevel::Structural
             ? 0
             : 1;
}
