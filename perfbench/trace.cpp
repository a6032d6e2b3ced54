//===- perfbench/trace.cpp - Traced per-layer run ------------------------------===//
//
// The benchmark's traced run. For every design in a manifest it calls
// each layer's public functions in the order llhd-sim and
// BlazeSim::buildProgram call them, and records a span around each call:
//
//   interp preset: moore -> elaborate -> LIR lower -> engine bind -> run
//   blaze preset:  moore -> asm clone (print + parse) -> opt passes ->
//                  elaborate -> LIR lower -> JIT emit -> host compile ->
//                  engine bind -> run
//
// followed by the differential runs the per-layer metrics need (native
// code off, trace digest off, streaming VCD on, periodic checkpoints plus
// a restore, and a batch at one and at four worker threads). Spans live
// in memory and are written once, as JSON, when the run ends; run.py
// turns them into per-layer self times.
//
//   perfbench-trace --manifest=<file> --out=<file> --work=<dir> [--jit-warm]
//
// Manifest lines are tab-separated: key, top module, .sv path, seed,
// batch size, then space-separated plusargs (`+key=value`). With
// --jit-warm only the blaze preset's compile chain runs, and the span
// around HostCompiler::compile is named jit.cache_hit: run it after a
// cold run that published objects to the same $LLHD_JIT_CACHE.
//
// Exit codes: 0 on success, 64 on a usage error, 65 when a design fails
// to compile or elaborate, 66 on an I/O error.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "blaze/Blaze.h"
#include "jit/Codegen.h"
#include "jit/HostCompiler.h"
#include "moore/Compiler.h"
#include "passes/Passes.h"
#include "sim/Batch.h"
#include "sim/Program.h"
#include "sim/Wave.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace llhd;

namespace {

using Clock = std::chrono::steady_clock;

/// One traced call: a layer's public function, within one design
/// invocation (Inv), nested under Parent (-1 for a root).
struct Span {
  std::string Name;
  int Inv;
  int Parent;
  double Start, End;
};

class Tracer {
public:
  /// Runs \p F inside a span named \p Name and returns its result.
  template <typename F> auto span(const std::string &Name, F &&Fn) {
    size_t Idx = Spans.size();
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, Inv, Parent, now(), 0});
    Stack.push_back(static_cast<int>(Idx));
    struct Close {
      Tracer &T;
      size_t Idx;
      ~Close() {
        T.Spans[Idx].End = T.now();
        T.Stack.pop_back();
      }
    } C{*this, Idx};
    return Fn();
  }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - T0).count();
  }

  int Inv = 0;
  std::vector<Span> Spans;

private:
  Clock::time_point T0 = Clock::now();
  std::vector<int> Stack;
};

struct Invocation {
  std::string Key, Top, Path;
  uint64_t Seed = 0;
  unsigned BatchN = 1;
  std::vector<std::pair<std::string, std::string>> Plusargs;
};

/// Per-invocation results: counts (deterministic) and digests.
struct Result {
  std::map<std::string, double> Counts;
  std::map<std::string, std::string> Digests;
};

std::string hex(uint64_t V) {
  char Buf[17];
  snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

uint64_t countInsts(const Module &M) {
  uint64_t N = 0;
  for (const auto &U : M.units())
    for (const BasicBlock *B : U->blocks())
      N += B->insts().size();
  return N;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool parseManifest(const std::string &Text, std::vector<Invocation> &Out,
                   std::string &Err) {
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::vector<std::string> F;
    std::istringstream LS(Line);
    std::string Field;
    while (std::getline(LS, Field, '\t'))
      F.push_back(Field);
    char *End1 = nullptr, *End2 = nullptr;
    Invocation I;
    if (F.size() >= 5) {
      I.Seed = strtoull(F[3].c_str(), &End1, 10);
      I.BatchN = static_cast<unsigned>(strtoul(F[4].c_str(), &End2, 10));
    }
    if (F.size() < 5 || F.size() > 6 || F[0].empty() || F[1].empty() ||
        F[2].empty() || !End1 || *End1 || F[3].empty() || !End2 || *End2 ||
        I.BatchN == 0 || I.BatchN > 1024) {
      Err = "manifest line " + std::to_string(LineNo) + " is malformed";
      return false;
    }
    I.Key = F[0];
    I.Top = F[1];
    I.Path = F[2];
    if (F.size() == 6) {
      std::istringstream PS(F[5]);
      std::string P;
      while (PS >> P) {
        if (P.size() < 2 || P[0] != '+') {
          Err = "manifest line " + std::to_string(LineNo) +
                ": bad plusarg '" + P + "'";
          return false;
        }
        size_t Eq = P.find('=');
        if (Eq == std::string::npos)
          I.Plusargs.emplace_back(P.substr(1), "");
        else
          I.Plusargs.emplace_back(P.substr(1, Eq - 1), P.substr(Eq + 1));
      }
    }
    Out.push_back(std::move(I));
  }
  if (Out.empty()) {
    Err = "empty manifest";
    return false;
  }
  return true;
}

/// The translation unit JitModule::compile would emit for \p P: the same
/// process units, in first-instantiation order, through the same public
/// codegen calls, so its source (and object-cache key) is identical.
struct Emitted {
  std::string Source;
  unsigned Native = 0, Deopt = 0;
};

Emitted emitProgram(const LirProgram &P) {
  Emitted E;
  std::vector<const LirUnit *> Units;
  std::set<const LirUnit *> Seen;
  for (const UnitInstance &UI : P.D.Instances)
    if (UI.U->isProcess()) {
      const LirUnit *L = P.Cache.lookup(UI.U);
      if (L && Seen.insert(L).second)
        Units.push_back(L);
    }
  E.Source = jit::emitPrelude();
  for (const LirUnit *L : Units) {
    jit::UnitPlan Plan = jit::planUnit(*L);
    if (!Plan.Native) {
      ++E.Deopt;
      continue;
    }
    E.Source += jit::emitUnit(Plan, E.Native++);
  }
  return E;
}

class Runner {
public:
  Runner(std::string WorkDir, bool JitWarm)
      : WorkDir(std::move(WorkDir)), JitWarm(JitWarm) {}

  Tracer T;
  std::vector<Result> Results;
  std::string Err;

  /// Traces one invocation; false (with Err set) on a frontend failure.
  bool run(const Invocation &I);

private:
  std::string WorkDir;
  bool JitWarm;

  SimOptions baseOptions(const Invocation &I) const {
    SimOptions O;
    O.Seed = I.Seed;
    O.Plusargs = I.Plusargs;
    return O;
  }

  std::unique_ptr<Module> compileSv(Context &Ctx, const std::string &Src,
                                    const Invocation &I, std::string &Top);
  bool runInterp(const Invocation &I, const std::string &Src, Result &R);
  bool runBlaze(const Invocation &I, const std::string &Src, Result &R);
};

std::unique_ptr<Module> Runner::compileSv(Context &Ctx,
                                          const std::string &Src,
                                          const Invocation &I,
                                          std::string &Top) {
  auto M = std::make_unique<Module>(Ctx, I.Path);
  moore::CompileResult CR = T.span("moore.compile", [&] {
    return moore::compileSystemVerilog(Src, I.Top, *M);
  });
  if (!CR.Ok) {
    Err = I.Key + ": " + CR.Error;
    return nullptr;
  }
  Top = CR.TopUnit;
  return M;
}

bool Runner::runInterp(const Invocation &I, const std::string &Src,
                       Result &R) {
  return T.span("interp", [&] {
    Context Ctx;
    std::string Top;
    std::unique_ptr<Module> M = compileSv(Ctx, Src, I, Top);
    if (!M)
      return false;
    Design D = T.span("design.elaborate", [&] { return elaborate(*M, Top); });
    if (!D.ok()) {
      Err = I.Key + ": " + D.Error;
      return false;
    }
    auto Prog = T.span("lir.lower", [&] {
      return LirProgram::build(std::move(D));
    });
    auto Sim = T.span("engine.bind", [&] {
      return std::make_unique<InterpSim>(Prog, baseOptions(I));
    });
    SimStats S = T.span("engine.interp_run", [&] { return Sim->run(); });
    R.Digests["interp"] = hex(Sim->trace().digest());
    R.Counts["interp.assert_failures"] = S.AssertFailures;
    R.Counts["engine.interp_activations"] = S.ProcessRuns + S.EntityEvals;
    return true;
  });
}

bool Runner::runBlaze(const Invocation &I, const std::string &Src,
                      Result &R) {
  Context Ctx;
  std::string Top;
  std::unique_ptr<Module> M;
  Module Clone(Ctx, I.Path + ".blaze");
  std::shared_ptr<const LirProgram> NoJit, Native;

  // The compile chain of BlazeSim::buildProgram, one span per layer. The
  // JIT-off program doubles as the native-off baseline below.
  bool Ok = T.span(JitWarm ? "blaze.warm" : "blaze", [&] {
    M = compileSv(Ctx, Src, I, Top);
    if (!M)
      return false;
    R.Counts["moore.insts"] = countInsts(*M);
    ParseResult PR = T.span("asm.clone", [&] {
      return parseModule(printModule(*M), Clone);
    });
    if (!PR.Ok) {
      Err = I.Key + ": clone failed: " + PR.Error;
      return false;
    }
    T.span("passes.opt", [&] { return runStandardOptimizations(Clone); });
    R.Counts["passes.insts_after"] = countInsts(Clone);
    Design D =
        T.span("design.elaborate", [&] { return elaborate(Clone, Top); });
    if (!D.ok()) {
      Err = I.Key + ": " + D.Error;
      return false;
    }
    R.Counts["design.signals"] = D.Signals.size();
    R.Counts["design.instances"] = D.Instances.size();
    NoJit = T.span("lir.lower", [&] {
      return LirProgram::build(std::move(D));
    });
    uint64_t Ops = 0;
    NoJit->Cache.forEach(
        [&](const Unit *, const LirUnit &L) { Ops += L.Ops.size(); });
    R.Counts["lir.ops"] = Ops;
    Emitted E = T.span("jit.emit", [&] { return emitProgram(*NoJit); });
    R.Counts["jit.source_bytes"] = E.Source.size();
    R.Counts["jit.native_units"] = E.Native;
    R.Counts["jit.deopt_units"] = E.Deopt;
    if (E.Native) {
      jit::CompileResult CR =
          T.span(JitWarm ? "jit.cache_hit" : "jit.host_compile",
                 [&] { return jit::HostCompiler::compile(E.Source); });
      if (!CR.ok()) {
        Err = I.Key + ": host compile failed: " + CR.Error;
        return false;
      }
    }
    return true;
  });
  if (!Ok || JitWarm)
    return Ok;

  // The native program, as BlazeSim::buildProgram makes it: its JIT
  // module recompiles the identical source, which the in-process object
  // cache now serves. Not part of llhd-sim's path, so outside the
  // preset's spans.
  Native = T.span("bench.native_program", [&] {
    jit::JitOptions J;
    J.M = jit::JitOptions::Mode::On;
    return LirProgram::build(elaborate(Clone, Top), J);
  });

  Ok = T.span("blaze.run", [&] {
    auto Sim = T.span("engine.bind", [&] {
      return std::make_unique<BlazeSim>(Native, baseOptions(I));
    });
    SimStats S = T.span("engine.blaze_run", [&] { return Sim->run(); });
    R.Digests["blaze"] = hex(Sim->trace().digest());
    R.Counts["blaze.assert_failures"] = S.AssertFailures;
    R.Counts["engine.slots"] = S.Steps;
    R.Counts["engine.process_runs"] = S.ProcessRuns;
    R.Counts["engine.entity_evals"] = S.EntityEvals;
    R.Counts["engine.signal_changes"] = Sim->trace().numChanges();
    R.Counts["engine.end_fs"] = S.EndTime.Fs;
    const jit::JitStats &J = Sim->jitStats();
    R.Counts["jit.native_procs"] = J.NativeProcs;
    R.Counts["jit.interp_procs"] = J.InterpProcs;
    return true;
  });
  if (!Ok)
    return false;
  uint64_t EndFs = static_cast<uint64_t>(R.Counts["engine.end_fs"]);

  // Differential runs over the same programs.
  T.span("engine.nojit_run", [&] {
    BlazeSim Sim(NoJit, baseOptions(I));
    Sim.run();
    R.Digests["nojit"] = hex(Sim.trace().digest());
  });
  T.span("trace.off_run", [&] {
    SimOptions O = baseOptions(I);
    O.TraceMode = Trace::Mode::Off;
    BlazeSim Sim(Native, O);
    Sim.run();
  });
  std::string VcdPath = WorkDir + "/" + I.Key + ".trace.vcd";
  T.span("wave.run", [&] {
    std::ofstream Vcd(VcdPath, std::ios::binary | std::ios::trunc);
    WaveWriter W;
    W.streamTo(Vcd);
    SimOptions O = baseOptions(I);
    O.Wave = &W;
    BlazeSim Sim(Native, O);
    Sim.run();
    W.finish();
    Vcd.flush();
    R.Counts["wave.bytes"] = static_cast<double>(Vcd.tellp());
    R.Digests["wave"] = hex(Sim.trace().digest());
  });

  // Periodic checkpoints (about eight per run), then a restore of the
  // mid-run one into a fresh engine that finishes the run.
  std::vector<uint8_t> Mid;
  T.span("ckpt.run", [&] {
    SimOptions O = baseOptions(I);
    O.RC.CheckpointEveryFs = std::max<uint64_t>(1, EndFs / 8);
    BlazeSim Sim(Native, O);
    unsigned Count = 0;
    double Bytes = 0;
    std::vector<uint8_t> Image;
    Sim.options().RC.Checkpoint = [&](Time) {
      T.span("ckpt.save", [&] {
        Image.clear();
        Sim.checkpoint(Image);
      });
      if (++Count <= 4)
        Mid = Image;
      Bytes += Image.size();
      return true;
    };
    Sim.run();
    R.Counts["ckpt.count"] = Count;
    R.Counts["ckpt.bytes"] = Bytes;
  });
  if (!Mid.empty()) {
    BlazeSim Sim(Native, baseOptions(I));
    std::string RErr;
    bool Restored =
        T.span("ckpt.restore", [&] { return Sim.restore(Mid, RErr); });
    if (!Restored) {
      Err = I.Key + ": checkpoint restore failed: " + RErr;
      return false;
    }
    T.span("ckpt.resumed_run", [&] { Sim.run(); });
    R.Digests["restored"] = hex(Sim.trace().digest());
  }

  // The batch layer at one worker and at four.
  unsigned Jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned J : {1u, Jobs}) {
    BatchOptions BO;
    BO.N = I.BatchN;
    BO.Jobs = J;
    BO.Engine = "blaze";
    BO.Jit.M = jit::JitOptions::Mode::On;
    BO.Base = baseOptions(I);
    std::string Suffix = J == 1 ? "j1" : "jn";
    BatchResult BR =
        T.span("batch." + Suffix, [&] { return runBatch(*M, Top, BO); });
    if (!BR.Ok && !BR.Error.empty()) {
      Err = I.Key + ": batch failed: " + BR.Error;
      return false;
    }
    unsigned Failed = 0;
    for (const BatchInstance &BI : BR.Instances)
      if (!BI.Error.empty() || BI.Stats.AssertFailures ||
          BI.Stats.Stop != StopReason::None)
        ++Failed;
    R.Counts["batch." + Suffix + ".build_s"] = BR.BuildSeconds;
    R.Counts["batch." + Suffix + ".run_s"] = BR.RunSeconds;
    R.Counts["batch." + Suffix + ".failed"] = Failed;
    R.Counts["batch." + Suffix + ".instances"] = BR.Instances.size();
    if (!BR.Instances.empty())
      R.Digests["batch." + Suffix + ".0"] = hex(BR.Instances[0].Digest);
  }
  return true;
}

bool Runner::run(const Invocation &I) {
  T.Inv = static_cast<int>(Results.size());
  Results.emplace_back();
  Result &R = Results.back();
  std::string Src;
  if (!readFile(I.Path, Src)) {
    Err = "cannot read '" + I.Path + "'";
    return false;
  }
  if (!JitWarm && !runInterp(I, Src, R))
    return false;
  return runBlaze(I, Src, R);
}

bool writeJson(const std::string &Path, const std::vector<Invocation> &Invs,
               const Runner &Rn) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "{\"invocations\": [";
  for (size_t I = 0; I != Rn.Results.size(); ++I) {
    const Result &R = Rn.Results[I];
    Out << (I ? ",\n" : "\n") << "{\"key\": " << jsonStr(Invs[I].Key)
        << ", \"counts\": {";
    bool First = true;
    for (const auto &[K, V] : R.Counts) {
      char Buf[64];
      snprintf(Buf, sizeof(Buf), "%.17g", V);
      Out << (First ? "" : ", ") << jsonStr(K) << ": " << Buf;
      First = false;
    }
    Out << "}, \"digests\": {";
    First = true;
    for (const auto &[K, V] : R.Digests) {
      Out << (First ? "" : ", ") << jsonStr(K) << ": " << jsonStr(V);
      First = false;
    }
    Out << "}}";
  }
  Out << "],\n\"spans\": [";
  for (size_t I = 0; I != Rn.T.Spans.size(); ++I) {
    const Span &S = Rn.T.Spans[I];
    char Buf[96];
    snprintf(Buf, sizeof(Buf), "%d, %d, %.9f, %.9f]", S.Inv, S.Parent,
             S.Start, S.End);
    Out << (I ? ",\n" : "\n") << "[" << jsonStr(S.Name) << ", " << Buf;
  }
  Out << "]}\n";
  Out.flush();
  return static_cast<bool>(Out);
}

int usage(const char *Msg) {
  fprintf(stderr,
          "perfbench-trace: %s\n"
          "usage: perfbench-trace --manifest=<file> --out=<file> "
          "--work=<dir> [--jit-warm]\n",
          Msg);
  return 64;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Manifest, OutPath, Work;
  bool JitWarm = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&](const char *Flag, std::string &Dst) {
      size_t L = strlen(Flag);
      if (A.compare(0, L, Flag) != 0)
        return false;
      Dst = A.substr(L);
      return true;
    };
    if (value("--manifest=", Manifest) || value("--out=", OutPath) ||
        value("--work=", Work))
      continue;
    if (A == "--jit-warm") {
      JitWarm = true;
      continue;
    }
    return usage(("unknown argument '" + A + "'").c_str());
  }
  if (Manifest.empty() || OutPath.empty() || Work.empty())
    return usage("--manifest, --out and --work are required");

  std::string Text, Err;
  std::vector<Invocation> Invs;
  if (!readFile(Manifest, Text)) {
    fprintf(stderr, "perfbench-trace: cannot read '%s'\n", Manifest.c_str());
    return 66;
  }
  if (!parseManifest(Text, Invs, Err))
    return usage(Err.c_str());

  Runner Rn(Work, JitWarm);
  for (const Invocation &I : Invs)
    if (!Rn.run(I)) {
      fprintf(stderr, "perfbench-trace: %s\n", Rn.Err.c_str());
      return 65;
    }
  if (!writeJson(OutPath, Invs, Rn)) {
    fprintf(stderr, "perfbench-trace: cannot write '%s'\n", OutPath.c_str());
    return 66;
  }
  return 0;
}
