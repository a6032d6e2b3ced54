//===- perfbench/spawn.cpp - Runs one command, reports wall time and RSS -------===//
//
// ru_maxrss of a child also counts the memory its parent had when it
// forked (the pre-exec image is the parent's), so a Python parent that
// reads wait4() directly measures its own size as much as llhd-sim's.
// This small launcher forks from a tiny image instead:
//
//   perfbench-spawn <timeout-seconds> <program> [args...]
//
// The command's stdout goes to /dev/null and its stderr is inherited.
// Prints "<exit code> <wall seconds> <ru_maxrss KiB>" on stdout. A
// command still running after the timeout is killed (exit code 137);
// the command is also killed if this launcher dies first.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {
volatile pid_t Child = 0;

void onAlarm(int) {
  if (Child > 0)
    kill(Child, SIGKILL);
}
} // namespace

int main(int Argc, char **Argv) {
  char *End = nullptr;
  long Timeout = Argc >= 3 ? strtol(Argv[1], &End, 10) : 0;
  if (Argc < 3 || !End || *End || Timeout < 1 || Timeout > 86400) {
    fprintf(stderr, "usage: perfbench-spawn <timeout-seconds> <program> "
                    "[args...]\n");
    return 64;
  }
  pid_t Parent = getpid();
  auto T0 = std::chrono::steady_clock::now();
  pid_t Pid = fork();
  if (Pid < 0) {
    perror("perfbench-spawn: fork");
    return 70;
  }
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(127);
    int Null = open("/dev/null", O_WRONLY);
    if (Null >= 0)
      dup2(Null, STDOUT_FILENO);
    execvp(Argv[2], Argv + 2);
    perror("perfbench-spawn: exec");
    _exit(127);
  }
  Child = Pid;
  signal(SIGALRM, onAlarm);
  alarm(static_cast<unsigned>(Timeout));
  int Status = 0;
  struct rusage Ru = {};
  while (wait4(Pid, &Status, 0, &Ru) < 0) {
    if (errno != EINTR) {
      perror("perfbench-spawn: wait4");
      return 70;
    }
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  printf("%d %.9f %ld\n", Code, Wall, Ru.ru_maxrss);
  return 0;
}
