//===- jit/HostCompiler.cpp - Shared-object compilation -------------------===//

#include "jit/HostCompiler.h"
#include "jit/Codegen.h" // AbiVersion.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace llhd;
using namespace llhd::jit;

namespace {

/// FNV-1a over the generated source: the key of the process-wide cache
/// of loaded objects (same source => same object, e.g. bench reps).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (char C : S) {
    H ^= (unsigned char)C;
    H *= 1099511628211ull;
  }
  return H;
}

bool isExecutable(const std::string &Path) {
  return !Path.empty() && access(Path.c_str(), X_OK) == 0;
}

/// Resolves a command name to an executable path: names containing a
/// '/' are taken as they are, bare names are searched on PATH. Empty
/// when nothing executable is found.
std::string resolveExe(const std::string &Cmd) {
  if (Cmd.find('/') != std::string::npos)
    return isExecutable(Cmd) ? Cmd : "";
  const char *Path = getenv("PATH");
  if (!Path)
    return "";
  std::string P(Path);
  size_t Pos = 0;
  while (Pos <= P.size()) {
    size_t End = P.find(':', Pos);
    if (End == std::string::npos)
      End = P.size();
    std::string Dir = P.substr(Pos, End - Pos);
    if (!Dir.empty() && isExecutable(Dir + "/" + Cmd))
      return Dir + "/" + Cmd;
    Pos = End + 1;
  }
  return "";
}

std::string readFile(const std::string &Path) {
  std::string Out;
  if (FILE *Fp = fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), Fp)) > 0)
      Out.append(Buf, N);
    fclose(Fp);
  }
  return Out;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  FILE *Fp = fopen(Path.c_str(), "wb");
  if (!Fp)
    return false;
  size_t N = fwrite(Data.data(), 1, Data.size(), Fp);
  bool Ok = N == Data.size() && fflush(Fp) == 0;
  fclose(Fp);
  return Ok;
}

/// Removes a build's temp dir: our jit.* files plus whatever the
/// compiler left in it (its own temp files when it was killed). A
/// killed tool still exiting may create one more file, so a non-empty
/// dir is retried briefly.
void removeTree(const std::string &Dir) {
  for (int Try = 0; Try != 100; ++Try) {
    if (DIR *D = opendir(Dir.c_str())) {
      while (dirent *E = readdir(D))
        if (strcmp(E->d_name, ".") != 0 && strcmp(E->d_name, "..") != 0)
          unlink((Dir + "/" + E->d_name).c_str());
      closedir(D);
    }
    if (rmdir(Dir.c_str()) == 0 || errno != ENOTEMPTY)
      return;
    usleep(1000);
  }
}

/// The process-wide object map (source hash -> loaded handle) and the
/// lock that serializes builds. MapMu guards only the map, so probes
/// never wait behind a running compile.
struct ObjectCache {
  std::mutex MapMu;
  std::map<uint64_t, void *> Map;
  std::mutex BuildMu;

  void *find(uint64_t Key) {
    std::lock_guard<std::mutex> Lock(MapMu);
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : It->second;
  }
  void insert(uint64_t Key, void *H) {
    std::lock_guard<std::mutex> Lock(MapMu);
    Map.emplace(Key, H);
  }
};

ObjectCache &objectCache() {
  static ObjectCache C;
  return C;
}

/// Shell-style quoting, only for the command line shown in messages.
std::string quoted(const std::string &S) { return "'" + S + "'"; }

/// A snapshot of this process's environment for the compiler, taken on
/// the probing thread so a background build never reads `environ`.
std::vector<std::string> environment() {
  std::vector<std::string> Env;
  for (char **E = environ; E && *E; ++E)
    Env.push_back(*E);
  return Env;
}

} // namespace

void CompileJob::cancel() {
  std::lock_guard<std::mutex> Lock(Mu);
  Cancelled = true;
  if (Group > 0)
    kill(-Group, SIGKILL);
}

bool CompileJob::cancelled() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Cancelled;
}

int HostCompiler::spawnAndWait(const std::string &Exe,
                               const std::vector<std::string> &Argv,
                               const std::vector<std::string> &Env,
                               const std::string &Log, CompileJob *Job,
                               std::string &Err) {
  std::vector<char *> A, E;
  for (const std::string &S : Argv)
    A.push_back(const_cast<char *>(S.c_str()));
  A.push_back(nullptr);
  for (const std::string &S : Env)
    E.push_back(const_cast<char *>(S.c_str()));
  E.push_back(nullptr);

  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  // Default dispositions and an empty mask whatever the spawning thread
  // has, and a process group of its own.
  posix_spawnattr_t At;
  posix_spawnattr_init(&At);
  sigset_t None, Dflt;
  sigemptyset(&None);
  sigemptyset(&Dflt);
  for (int Sig : {SIGINT, SIGTERM, SIGHUP, SIGPIPE, SIGQUIT})
    sigaddset(&Dflt, Sig);
  posix_spawnattr_setsigmask(&At, &None);
  posix_spawnattr_setsigdefault(&At, &Dflt);
  posix_spawnattr_setpgroup(&At, 0);
  posix_spawnattr_setflags(&At, POSIX_SPAWN_SETPGROUP |
                                    POSIX_SPAWN_SETSIGMASK |
                                    POSIX_SPAWN_SETSIGDEF);
  pid_t Pid = 0;
  int Rc;
  {
    std::unique_lock<std::mutex> Lock;
    if (Job)
      Lock = std::unique_lock<std::mutex>(Job->Mu);
    if (Job && Job->Cancelled) {
      Rc = ECANCELED;
    } else {
      Rc = Exe.empty() ? ENOENT
                       : posix_spawn(&Pid, Exe.c_str(), &FA, &At, A.data(),
                                     E.data());
      if (Rc == 0 && Job)
        Job->Group = Pid;
    }
  }
  posix_spawn_file_actions_destroy(&FA);
  posix_spawnattr_destroy(&At);
  if (Rc != 0) {
    Err = Rc == ECANCELED ? "cancelled"
                          : std::string("cannot start the host compiler: ") +
                                strerror(Rc);
    return -1;
  }

  // Wait without reaping first: while the exited leader is a zombie its
  // pid, and so its process-group id, cannot be reused, so a concurrent
  // cancel() never signals an unrelated group.
  siginfo_t Info;
  while (waitid(P_PID, Pid, &Info, WEXITED | WNOWAIT) != 0 && errno == EINTR)
    continue;
  if (Job) {
    std::lock_guard<std::mutex> Lock(Job->Mu);
    Job->Group = 0;
  }
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    continue;
  return Status;
}

std::string HostCompiler::findCompiler() {
  // 1. The test/override hook: used verbatim, even when bogus — a bad
  //    path exercises the compile-failure fallback; the empty string
  //    disables compilation.
  if (const char *Env = getenv("LLHD_JIT_CXX"))
    return Env;
  // 2. The compiler CMake configured this build with.
#ifdef LLHD_HOST_CXX
  if (isExecutable(LLHD_HOST_CXX))
    return LLHD_HOST_CXX;
#endif
  // 3. Whatever the environment offers.
  for (const char *Cand : {"c++", "g++", "clang++"})
    if (!resolveExe(Cand).empty())
      return Cand;
  return "";
}

/// Loads \p So and verifies its embedded ABI stamp; null handle + error
/// text on failure. Shared by the fresh-compile and on-disk-cache paths.
static void *loadAndCheck(const std::string &So, std::string &Err) {
  void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    const char *E = dlerror();
    Err = std::string("dlopen failed: ") + (E ? E : "unknown error");
    return nullptr;
  }
  int *Abi = reinterpret_cast<int *>(dlsym(H, "llhd_jit_abi_version"));
  if (!Abi || *Abi != AbiVersion) {
    Err = "generated object has ABI version " +
          (Abi ? std::to_string(*Abi) : std::string("<missing>")) +
          ", engine expects " + std::to_string(AbiVersion);
    return nullptr;
  }
  return H;
}

/// Serves \p Req from the process-wide map, then from the published
/// on-disk object; null on a miss.
static void *lookup(const CompileRequest &Req) {
  ObjectCache &C = objectCache();
  if (void *H = C.find(Req.Key))
    return H;
  // Objects land in $LLHD_JIT_CACHE via atomic rename (build()), so a
  // concurrent process sees either nothing or a complete object.
  if (Req.Published.empty() || access(Req.Published.c_str(), R_OK) != 0)
    return nullptr;
  std::string LoadErr;
  void *H = loadAndCheck(Req.Published, LoadErr);
  // A stale or foreign object is a miss: build() recompiles and the
  // publish replaces it atomically.
  if (H)
    C.insert(Req.Key, H);
  return H;
}

CompileResult HostCompiler::probe(const std::string &Source,
                                  CompileRequest &Req) {
  CompileResult R;
  R.Compiler = findCompiler();
  if (R.Compiler.empty()) {
    R.Error = "no host C++ compiler found (checked $LLHD_JIT_CXX, the "
              "configured compiler, and c++/g++/clang++ on PATH)";
    return R;
  }
  R.CompilerFound = true;

  // Availability is checked before the cache so that a run with the
  // compiler disabled can never be satisfied by an earlier run's
  // cached object.
  Req.Compiler = R.Compiler;
  Req.Exe = resolveExe(R.Compiler);
  Req.Source = Source;
  Req.Key = fnv1a(R.Compiler + '\0' + Source);
  const char *Base = getenv("LLHD_JIT_TMPDIR");
  if (!Base)
    Base = getenv("TMPDIR");
  Req.TmpBase = Base ? Base : "/tmp";
  Req.Keep = getenv("LLHD_JIT_KEEP") != nullptr;
  Req.Published.clear();
  // Optional cross-process object cache: $LLHD_JIT_CACHE names a
  // directory of compiled objects keyed by (compiler, source, ABI).
  if (const char *CacheDir = getenv("LLHD_JIT_CACHE")) {
    if (*CacheDir) {
      mkdir(CacheDir, 0777); // Best-effort; may already exist.
      char Hex[17];
      snprintf(Hex, sizeof(Hex), "%016llx",
               static_cast<unsigned long long>(Req.Key));
      Req.Published = std::string(CacheDir) + "/llhd-jit-" + Hex + "-abi" +
                      std::to_string(AbiVersion) + ".so";
    }
  }
  R.Handle = lookup(Req);
  if (!R.ok())
    Req.Env = environment();
  return R;
}

CompileResult HostCompiler::build(const CompileRequest &Req,
                                  CompileJob *Job) {
  CompileResult R;
  R.Compiler = Req.Compiler;
  R.CompilerFound = true;

  // One build at a time, process-wide: concurrent callers racing on the
  // same source (batch instances JITting one program) get exactly one
  // compilation — the loser finds the winner's object below.
  std::lock_guard<std::mutex> Lock(objectCache().BuildMu);
  if ((R.Handle = lookup(Req)))
    return R;

  std::string Templ = Req.TmpBase + "/llhd-jit-XXXXXX";
  std::vector<char> Dir(Templ.begin(), Templ.end());
  Dir.push_back('\0');
  if (!mkdtemp(Dir.data())) {
    R.Error = "cannot create temp dir under '" + Req.TmpBase +
              "': " + strerror(errno);
    return R;
  }
  std::string D(Dir.data());
  std::string Src = D + "/jit.cpp", So = D + "/jit.so", Log = D + "/jit.log";
  auto fail = [&](std::string Msg) {
    R.Error = std::move(Msg);
    if (!Req.Keep)
      removeTree(D);
    return R;
  };

  if (!writeFile(Src, Req.Source))
    return fail("cannot write '" + Src + "': " + strerror(errno));

  std::vector<std::string> Argv = {Req.Compiler, "-std=c++17", "-O2",
                                   "-fPIC", "-shared", "-o", So, Src};
  // The compiler's own temp files (cc*.s, ...) go into the build's dir
  // too, so removing the dir cleans up even after a cancel killed the
  // compiler mid-way.
  std::vector<std::string> Env;
  for (const std::string &E : Req.Env)
    if (E.rfind("TMPDIR=", 0) != 0)
      Env.push_back(E);
  Env.push_back("TMPDIR=" + D);
  for (const std::string &A : Argv)
    R.Command += (R.Command.empty() ? "" : " ") +
                 (A[0] == '-' ? A : quoted(A));
  std::string SpawnErr;
  int Status = spawnAndWait(Req.Exe, Argv, Env, Log, Job, SpawnErr);
  if (Status < 0)
    return fail(SpawnErr + ": " + R.Command);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    R.Diagnostics = readFile(Log);
    return fail("host compiler " +
                (WIFSIGNALED(Status)
                     ? "killed by signal " + std::to_string(WTERMSIG(Status))
                     : "failed (exit status " +
                           std::to_string(WEXITSTATUS(Status)) + ")") +
                ": " + R.Command);
  }

  std::string LoadErr;
  void *H = loadAndCheck(So, LoadErr);
  if (!H)
    return fail(LoadErr);
  // Publish into the cross-process cache: rename is atomic within a
  // filesystem, so readers never see a partial object. EXDEV (cache on
  // another filesystem) just skips persistence. The already-loaded
  // mapping survives the rename (same inode).
  if (!Req.Published.empty())
    rename(So.c_str(), Req.Published.c_str());
  // The mapping survives unlinking the file; only the handle matters.
  if (!Req.Keep)
    removeTree(D);

  objectCache().insert(Req.Key, H);
  R.Handle = H;
  return R;
}

CompileResult HostCompiler::compile(const std::string &Source) {
  CompileRequest Req;
  CompileResult R = probe(Source, Req);
  if (R.ok() || !R.CompilerFound)
    return R;
  return build(Req);
}
