//===- jit/HostCompiler.h - Shared-object compilation ------------*- C++ -*-===//
//
// Compiles a generated C++ translation unit with the host toolchain and
// loads the resulting shared object. Discovery order for the compiler:
//
//   1. $LLHD_JIT_CXX — used verbatim when set; the empty string disables
//      JIT compilation entirely (the no-host-compiler test hook).
//   2. The compiler CMake recorded at configure time (LLHD_HOST_CXX),
//      when it still exists and is executable.
//   3. The first of c++ / g++ / clang++ found on PATH.
//
// Every failure mode — no compiler, unwritable or full temp dir, a
// failing compiler invocation, an unloadable or ABI-mismatched object —
// returns a result carrying the attempted command and the captured
// diagnostics instead of aborting, so the engine can log and fall back
// to interpretation.
//
// The work splits in two halves so the slow one can leave the critical
// path (see JitModule and DESIGN.md "Tiered compilation"):
//
//   probe()  compiler discovery plus the object-cache lookups; reads the
//            environment and returns a CompileRequest on a miss.
//   build()  the host compile and dlopen of that request; touches no
//            environment variable, so it may run on a background
//            thread, and a CompileJob lets another thread cancel it.
//
// compile() is probe() followed by build() on the calling thread.
//
// Loaded objects are cached process-wide by source hash and never
// dlclosed: bound function pointers must outlive every engine. Builds
// are serialized behind a mutex and re-check the cache first, so
// concurrent callers — batch instances racing to JIT one program — get
// exactly one compilation per distinct source. Setting $LLHD_JIT_CACHE
// to a directory additionally persists compiled objects across
// processes, published with an atomic tmp+rename so concurrent
// processes never observe a partial object.
//
// The compiler runs through posix_spawn with an argv (no shell), in its
// own process group: cancelling kills the compiler and every tool it
// started (cc1plus, as, ld) with one signal.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_HOSTCOMPILER_H
#define LLHD_JIT_HOSTCOMPILER_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace llhd {
namespace jit {

/// Outcome of one compile-and-load attempt.
struct CompileResult {
  /// dlopen handle, null on failure. Process lifetime; never dlclosed.
  void *Handle = nullptr;
  bool CompilerFound = false;
  std::string Compiler; ///< The discovered compiler, empty when none.
  std::string Command;  ///< The full invocation attempted, for logs.
  std::string Diagnostics; ///< Captured compiler stderr/stdout.
  std::string Error;    ///< Human-readable failure reason, empty on success.

  bool ok() const { return Handle != nullptr; }
};

/// Everything build() needs, resolved from the environment by probe() on
/// the caller's thread.
struct CompileRequest {
  std::string Compiler;  ///< As discovered (for messages).
  std::string Exe;       ///< Resolved executable path; empty when none.
  std::string Source;
  uint64_t Key = 0;      ///< Object-cache key over (compiler, source).
  std::string TmpBase;   ///< $LLHD_JIT_TMPDIR, else $TMPDIR, else /tmp.
  std::string Published; ///< $LLHD_JIT_CACHE object path; empty when unset.
  bool Keep = false;     ///< $LLHD_JIT_KEEP: keep the temp dir.
  std::vector<std::string> Env; ///< The compiler's environment.
};

/// Cancellation handle for one build() running on another thread.
class CompileJob {
public:
  /// Kills the compiler's process group if it is running, and makes the
  /// build refuse to start one otherwise. The build then reaps it,
  /// removes its temp dir and fails with "cancelled". Thread-safe.
  void cancel();
  /// True once cancel() was called.
  bool cancelled();

private:
  friend class HostCompiler;
  std::mutex Mu;
  pid_t Group = 0; ///< The running compiler's process group, 0 when none.
  bool Cancelled = false;
};

class HostCompiler {
public:
  /// The compiler the next compile() will use; empty when disabled or
  /// none found.
  static std::string findCompiler();

  /// Compiles \p Source into a shared object in a fresh temp dir
  /// (respecting $LLHD_JIT_TMPDIR / $TMPDIR), dlopens it, and verifies
  /// the embedded ABI version. The temp dir is removed afterwards
  /// unless $LLHD_JIT_KEEP is set. Thread-safe: one compilation per
  /// distinct (compiler, source) process-wide; with $LLHD_JIT_CACHE
  /// set, objects are reused across processes. Never throws, never
  /// aborts.
  static CompileResult compile(const std::string &Source);

  /// The fast half of compile(): discovers the compiler and looks
  /// \p Source up in the process-wide object map and $LLHD_JIT_CACHE.
  /// A hit returns ok(). A miss with a compiler available returns no
  /// handle and no error, and fills \p Req for build().
  static CompileResult probe(const std::string &Source, CompileRequest &Req);

  /// The slow half: compiles, loads and publishes \p Req. With \p Job,
  /// another thread may cancel it (CompileJob::cancel).
  static CompileResult build(const CompileRequest &Req,
                             CompileJob *Job = nullptr);

private:
  /// Runs \p Exe with \p Argv and \p Env, stdout and stderr to \p Log,
  /// in a process group of its own that \p Job records while it runs,
  /// and reaps it. Returns the wait status, or -1 with \p Err set when
  /// the compiler could not be started or the job was already cancelled.
  static int spawnAndWait(const std::string &Exe,
                          const std::vector<std::string> &Argv,
                          const std::vector<std::string> &Env,
                          const std::string &Log, CompileJob *Job,
                          std::string &Err);
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_HOSTCOMPILER_H
