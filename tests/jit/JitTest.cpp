//===- tests/jit/JitTest.cpp - Blaze native codegen tests -----------------===//
//
// The Blaze JIT (src/jit/): native code must be byte-for-byte
// trace-equivalent with the reference interpreter across the whole
// designs suite, at integer width boundaries through the generated
// code, and in mixed native/deopt designs. The fallback paths — no
// host compiler, failing compiler, unwritable temp dir — must degrade
// to the interpreter without breaking a single simulation. Tiered
// compilation: a run that switches from the interpreter to native code
// mid-run stays byte-identical, and a compile still running when its
// engine goes away leaves no process or temp dir behind.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/HostCompiler.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"
#include "sim/Wave.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

using namespace llhd;

namespace {

struct JitTest : public ::testing::Test {
  Context Ctx;

  Module *parseFresh(const std::string &Src, const std::string &Name) {
    auto *M = new Module(Ctx, Name); // Leaked into the test; fine.
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error;
    return M;
  }

  /// Interpreter trace digest for \p Src.
  uint64_t interpDigest(const std::string &Src, const char *Top) {
    Module *M = parseFresh(Src, std::string(Top) + ".ref");
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Ref(std::move(D));
    Ref.run();
    return Ref.trace().digest();
  }

  /// Runs \p Src on Blaze with \p Mode, native from the first instant,
  /// and returns the simulator for digest/stats inspection.
  std::unique_ptr<BlazeSim> runBlaze(const std::string &Src,
                                     const char *Top,
                                     jit::JitOptions::Mode Mode) {
    Module *M = parseFresh(Src, std::string(Top) + ".blz");
    BlazeSim::BlazeOptions O;
    O.Jit.M = Mode;
    auto B = std::make_unique<BlazeSim>(*M, Top, O);
    EXPECT_TRUE(B->valid()) << B->error();
    B->waitForNative();
    B->run();
    return B;
  }
};

/// A two-process design parameterised on integer width: a stimulus
/// process counting in an iW var, and a combinational process running
/// xor/add through width-W lanes. \p Salt makes the generated source
/// unique so fallback tests cannot hit the host compiler's
/// source-hash object cache.
std::string widthDesign(unsigned W, unsigned Salt = 0) {
  std::string Wi = "i" + std::to_string(W);
  std::string Src;
  Src += "entity @wtop () -> () {\n";
  Src += "  %z = const " + Wi + " 0\n";
  Src += "  %a = sig " + Wi + "$ %z\n";
  Src += "  %o = sig " + Wi + "$ %z\n";
  Src += "  inst @wstim () -> (" + Wi + "$ %a)\n";
  Src += "  inst @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o)\n";
  Src += "}\n";
  Src += "proc @wstim () -> (" + Wi + "$ %a) {\n";
  Src += "entry:\n";
  Src += "  %c0 = const i32 0\n";
  Src += "  %c1 = const i32 1\n";
  Src += "  %lim = const i32 " + std::to_string(9 + Salt) + "\n";
  Src += "  %zw = const " + Wi + " 0\n";
  Src += "  %onew = const " + Wi + " 1\n";
  Src += "  %t1 = const time 1ns\n";
  Src += "  %i = var i32 %c0\n";
  Src += "  %vw = var " + Wi + " %zw\n";
  Src += "  br %loop\n";
  Src += "loop:\n";
  Src += "  %av = ld " + Wi + "* %vw\n";
  Src += "  %nv = add " + Wi + " %av, %onew\n";
  Src += "  st " + Wi + "* %vw, %nv\n";
  Src += "  drv " + Wi + "$ %a, %nv after %t1\n";
  Src += "  wait %next for %t1\n";
  Src += "next:\n";
  Src += "  %ip = ld i32* %i\n";
  Src += "  %in = add i32 %ip, %c1\n";
  Src += "  st i32* %i, %in\n";
  Src += "  %cont = ult i32 %in, %lim\n";
  Src += "  br %cont, %end, %loop\n";
  Src += "end:\n";
  Src += "  halt\n";
  Src += "}\n";
  Src += "proc @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o) {\n";
  Src += "entry:\n";
  Src += "  %av = prb " + Wi + "$ %a\n";
  Src += "  %one = const " + Wi + " 1\n";
  Src += "  %x = xor " + Wi + " %av, %one\n";
  Src += "  %s = add " + Wi + " %x, %one\n";
  Src += "  %t0 = const time 0s\n";
  Src += "  drv " + Wi + "$ %o, %s after %t0\n";
  Src += "  wait %entry for %a\n";
  Src += "}\n";
  return Src;
}

//===----------------------------------------------------------------------===//
// Equivalence
//===----------------------------------------------------------------------===//

// The whole Table 2 suite, Blaze native code vs the reference
// interpreter, byte-for-byte — and the JIT must actually engage.
TEST_F(JitTest, SuiteDigestsMatchNative) {
  unsigned TotalNative = 0;
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);

    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    SimStats S1 = Ref.run();

    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    Blaze.waitForNative();
    SimStats S2 = Blaze.run();

    EXPECT_EQ(S1.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(S2.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_TRUE(Blaze.jitStats().Warning.empty())
        << D.Key << ": " << Blaze.jitStats().Warning;
    TotalNative += Blaze.jitStats().NativeUnits;
  }
  // The sweep is pointless if nothing actually ran as native code.
  EXPECT_GT(TotalNative, 0u);
}

// Width boundaries through the generated lane code: 1/63/64 run
// native, 65/128 deopt to the interpreter; every width matches the
// oracle either way.
TEST_F(JitTest, WidthBoundaries) {
  for (unsigned W : {1u, 63u, 64u, 65u, 128u}) {
    std::string Src = widthDesign(W);
    uint64_t Ref = interpDigest(Src, "wtop");
    auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
    EXPECT_EQ(Ref, B->trace().digest()) << "width " << W;
    const jit::JitStats &St = B->jitStats();
    if (W <= 64) {
      EXPECT_EQ(St.NativeUnits, 2u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 0u) << "width " << W;
    } else {
      EXPECT_EQ(St.NativeUnits, 0u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 2u) << "width " << W;
    }
    // And the ablation configuration stays equivalent too.
    auto BOff = runBlaze(Src, "wtop", jit::JitOptions::Mode::Off);
    EXPECT_EQ(Ref, BOff->trace().digest()) << "width " << W;
    EXPECT_FALSE(BOff->jitStats().Enabled);
  }
}

// The accumulator testbench mixes a native-eligible datapath with a
// process that calls a real function (forced deopt): native and
// interpreted instances must coexist and still match the oracle.
TEST_F(JitTest, MixedNativeAndInterpretedMatchesOracle) {
  std::string Src = llhd_test::accTestbench("50");
  uint64_t Ref = interpDigest(Src, "acc_tb");
  auto B = runBlaze(Src, "acc_tb", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_GE(St.NativeUnits, 1u);
  EXPECT_GE(St.DeoptUnits, 1u);
  EXPECT_GE(St.NativeProcs, 1u);
  EXPECT_GE(St.InterpProcs, 1u);
}

//===----------------------------------------------------------------------===//
// Fallback robustness
//===----------------------------------------------------------------------===//

struct EnvGuard {
  std::string Name;
  EnvGuard(const char *N, const std::string &Value) : Name(N) {
    setenv(N, Value.c_str(), /*overwrite=*/1);
  }
  ~EnvGuard() { unsetenv(Name.c_str()); }
};

/// A spelling of the host compiler no earlier build in this process has
/// used. The object caches key on (compiler, source), so setting it as
/// $LLHD_JIT_CXX makes the next builds miss and compile in the
/// background, whatever the other tests compiled before.
std::string coldCompiler() {
  static unsigned Fresh = 0;
  std::string C = jit::HostCompiler::findCompiler();
  size_t Slash = C.rfind('/');
  if (Slash == std::string::npos)
    return "";
  std::string Dots;
  for (unsigned I = 0; I <= Fresh; ++I)
    Dots += "./";
  ++Fresh;
  return C.substr(0, Slash + 1) + Dots + C.substr(Slash + 1);
}

// LLHD_JIT_CXX="" simulates a machine without any host compiler: the
// engine must interpret everything, correctly, with the stats saying
// why. Salted sources keep the compiler's object cache out of play.
TEST_F(JitTest, NoHostCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "");
  // Every suite design still runs, and matches the oracle.
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    Ref.run();
    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    Blaze.run();
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().CompilerFound) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().Compiled) << D.Key;
    EXPECT_EQ(Blaze.jitStats().NativeProcs, 0u) << D.Key;
  }
}

// A compiler that exists but always fails: the warning must carry the
// failing command so the user can reproduce it, and the simulation
// must still be correct.
TEST_F(JitTest, FailingCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "/bin/false");
  std::string Src = widthDesign(16, /*Salt=*/101);
  uint64_t Ref = interpDigest(Src, "wtop");
  ::testing::internal::CaptureStderr();
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  std::string Err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_TRUE(St.CompilerFound);
  EXPECT_FALSE(St.Compiled);
  EXPECT_EQ(St.Outcome, jit::Tier::Failed);
  EXPECT_EQ(St.NativeProcs, 0u);
  EXPECT_NE(St.Warning.find("/bin/false"), std::string::npos)
      << "warning should carry the failing command: " << St.Warning;
  // Exactly one warning, from the background compile.
  size_t First = Err.find("llhd-jit: warning");
  EXPECT_NE(First, std::string::npos) << Err;
  EXPECT_EQ(Err.find("llhd-jit: warning", First + 1), std::string::npos)
      << Err;
}

// A compiler path that does not exist fails to start: under tiering the
// run still starts at once, interprets to the end, matches the oracle,
// and the failure is reported once.
TEST_F(JitTest, MissingCompilerWarnsOnceAndInterprets) {
  EnvGuard G("LLHD_JIT_CXX", "/nonexistent/llhd-jit-c++");
  std::string Src = widthDesign(20, /*Salt=*/303);
  uint64_t Ref = interpDigest(Src, "wtop");
  ::testing::internal::CaptureStderr();
  std::string Err;
  {
    auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
    EXPECT_EQ(Ref, B->trace().digest());
    const jit::JitStats &St = B->jitStats();
    EXPECT_EQ(St.Outcome, jit::Tier::Failed);
    EXPECT_EQ(St.NativeProcs, 0u);
    EXPECT_GT(St.InterpProcs, 0u);
    EXPECT_NE(St.Warning.find("cannot start the host compiler"),
              std::string::npos)
        << St.Warning;
  }
  Err = ::testing::internal::GetCapturedStderr();
  size_t First = Err.find("llhd-jit: warning");
  EXPECT_NE(First, std::string::npos) << Err;
  EXPECT_EQ(Err.find("llhd-jit: warning", First + 1), std::string::npos)
      << Err;
}

// An unusable temp dir root: the compile step fails gracefully and the
// engine interprets.
TEST_F(JitTest, UnwritableTempDirFallsBack) {
  EnvGuard G("LLHD_JIT_TMPDIR", "/nonexistent/llhd-jit-tmp");
  std::string Src = widthDesign(24, /*Salt=*/202);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  EXPECT_FALSE(B->jitStats().Compiled);
  EXPECT_EQ(B->jitStats().NativeProcs, 0u);
  EXPECT_FALSE(B->jitStats().Warning.empty());
}

//===----------------------------------------------------------------------===//
// Tiered compilation
//===----------------------------------------------------------------------===//

// The switch from interpreter to native code at a physical-instant
// boundary is invisible in the results. Each suite design runs with a
// cold object cache; a checkpoint hook halfway through blocks until the
// background compile is done, so every run interprets its first half
// and switches there. Digests and VCDs must equal the interpreter's.
TEST_F(JitTest, MidRunSwitchMatchesInterp) {
  std::string Cold = coldCompiler();
  if (Cold.empty())
    GTEST_SKIP() << "no host compiler with a path";
  EnvGuard G("LLHD_JIT_CXX", Cold);
  unsigned Switched = 0;
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);

    WaveWriter WRef, WBlz;
    SimOptions O;
    O.Wave = &WRef;
    InterpSim Ref(elaborate(M1, R.TopUnit), O);
    SimStats SRef = Ref.run();

    BlazeSim::BlazeOptions BO;
    BO.Wave = &WBlz;
    BO.RC.CheckpointEveryFs = std::max<uint64_t>(1, SRef.EndTime.Fs / 2);
    BlazeSim Blaze(M2, R.TopUnit, BO);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    bool Compiling = Blaze.jitStats().Outcome == jit::Tier::Compiling;
    Blaze.options().RC.Checkpoint = [&](Time) {
      Blaze.waitForNative();
      return true;
    };
    SimStats SBlz = Blaze.run();

    EXPECT_EQ(SBlz.EndTime, SRef.EndTime) << D.Key;
    EXPECT_EQ(Blaze.trace().digest(), Ref.trace().digest()) << D.Key;
    EXPECT_EQ(WBlz.text(), WRef.text()) << D.Key << ": VCD differs";
    const jit::JitStats &St = Blaze.jitStats();
    if (!Compiling)
      continue; // Nothing admitted: there was nothing to switch to.
    EXPECT_EQ(St.Outcome, jit::Tier::Switched) << D.Key << St.Warning;
    EXPECT_GT(St.SwitchTime.Fs, 0u) << D.Key;
    EXPECT_GT(St.NativeProcs, 0u) << D.Key;
    Switched += St.Outcome == jit::Tier::Switched;
  }
  EXPECT_GT(Switched, 0u);
}

/// Pids of live processes whose command line mentions \p Needle.
std::vector<int> processesMentioning(const std::string &Needle) {
  std::vector<int> Out;
  DIR *Proc = opendir("/proc");
  if (!Proc)
    return Out;
  while (dirent *E = readdir(Proc)) {
    int Pid = atoi(E->d_name);
    if (Pid <= 0)
      continue;
    std::ifstream In(std::string("/proc/") + E->d_name + "/cmdline",
                     std::ios::binary);
    std::string Cmd((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    if (Cmd.find(Needle) != std::string::npos)
      Out.push_back(Pid);
  }
  closedir(Proc);
  return Out;
}

// A compile still running when its engine goes away is cancelled: the
// whole compiler process group is killed and reaped, and its temp dir
// removed. The run itself never waits for it.
TEST_F(JitTest, UnfinishedCompileIsCancelledAtExit) {
  std::string Cold = coldCompiler();
  if (Cold.empty())
    GTEST_SKIP() << "no host compiler with a path";
  std::string Tmp = ::testing::TempDir() + "llhd_jit_cancel_XXXXXX";
  ASSERT_NE(mkdtemp(Tmp.data()), nullptr);
  EnvGuard G1("LLHD_JIT_CXX", Cold);
  EnvGuard G2("TMPDIR", Tmp);
  unsetenv("LLHD_JIT_TMPDIR");
  unsetenv("LLHD_JIT_CACHE");

  std::string Src = widthDesign(32, /*Salt=*/404);
  uint64_t Ref = interpDigest(Src, "wtop");
  {
    Module *M = parseFresh(Src, "cancel.blz");
    BlazeSim B(*M, "wtop");
    ASSERT_TRUE(B.valid()) << B.error();
    B.run();
    EXPECT_EQ(B.trace().digest(), Ref);
    EXPECT_EQ(B.jitStats().Outcome, jit::Tier::Compiling);
    EXPECT_FALSE(B.jitStats().Persist);
    // Let the compiler get going, so the cancel meets a live process
    // group rather than a compile that has not started yet.
    for (int I = 0; I != 200 && processesMentioning(Tmp).empty(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(processesMentioning(Tmp).empty())
      << "a compiler process outlived its engine";
  DIR *Dir = opendir(Tmp.c_str());
  ASSERT_NE(Dir, nullptr);
  std::vector<std::string> Left;
  while (dirent *E = readdir(Dir))
    if (std::string(E->d_name) != "." && std::string(E->d_name) != "..")
      Left.push_back(E->d_name);
  closedir(Dir);
  EXPECT_TRUE(Left.empty()) << "left behind: " << Left.front();
  rmdir(Tmp.c_str());
}

} // namespace
