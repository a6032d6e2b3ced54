#!/usr/bin/env python3
"""End-to-end benchmark of llhd-sim, plus a traced per-layer run.

Run from the root of an llhd source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke       # every workload at a tiny size
    python3 perfbench/run.py --self-test   # an injected digest mismatch must fail

The first run builds llhd-sim and the helpers in this directory
(perfbench-gen, -trace, -cal, -spawn) into .bench_build/ with CMake.
Inputs are generated from --seed and the fixed workload definitions in
workloads.json; llhd-sim is then run as a user would run it, one process
per invocation, for --seconds seconds of complete passes.

--trace 0 reports the end-to-end metrics, --trace 1 runs one untraced pass
and then perfbench-trace, which calls each layer's public functions in
llhd-sim's order with a span around each call, and reports the per-layer
metrics. Every output is checked (exit codes, assertion-free finishes,
interp == blaze trace digests, byte-identical VCDs, resumed == uninterrupted
VCDs, batch scoreboards); the last line of standard output is the JSON
result, and the exit status is nonzero when any check failed.

Exit codes: 0 ok, 1 a correctness check failed, 2 the source tree or the
build is unusable, 64 usage error.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SPEC = json.load(open(os.path.join(HERE, "workloads.json")))

EXIT_CHECK_FAILED, EXIT_NO_TREE, EXIT_USAGE = 1, 2, 64
SIM_OK, SIM_DELTA_BUDGET = 0, 82  # llhd-sim's documented exit codes.
PROC_TIMEOUT_S = 120
RUN_DEADLINE_S = 150  # Start no pass that would end later; runs end by 180 s.
MIN_PASSES = 3
# Calibration: perfbench-cal runs CAL_ROUNDS rounds of a frozen kernel
# before every unit of a pass. Hosts with shared cores change speed by tens
# of percent over seconds to minutes, so each pass's host times are divided
# by the pass's median kernel time and multiplied by CAL_REF_S: they read as
# seconds on a CPU where the kernel takes CAL_REF_S. Raw times are reported
# beside them.
CAL_ROUNDS = 10
CAL_REF_S = 0.01
JOBS = max(1, min(4, os.cpu_count() or 1))
PRESETS = ("interp", "blaze")

STATS_RE = re.compile(
    r"^(interp|blaze): .* end time (\S+), (\d+) slots, .* digest ([0-9a-f]{16})(, finished)?",
    re.M)
BATCH_RE = re.compile(
    r"^batch\[(\d+)\]: seed \d+, end time \S+, (\d+) slots, digest ([0-9a-f]{16})(, finished)?",
    re.M)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("run.py: error: %s\n" % message)
        sys.exit(EXIT_USAGE)


def bounded_int(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text):
            raise argparse.ArgumentTypeError("'%s' is not a whole number" % text)
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError("%d is outside %d..%d" % (value, lo, hi))
        return value
    return parse


def parse_args(argv):
    p = Parser(prog="run.py", allow_abbrev=False,
               description="End-to-end and per-layer benchmark of llhd-sim.")
    p.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    p.add_argument("--seed", type=bounded_int(0, 2**63 - 1))
    p.add_argument("--seconds", type=bounded_int(1, 600))
    p.add_argument("--trace", type=bounded_int(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at a tiny size, one pass each")
    p.add_argument("--self-test", action="store_true",
                   help="check that an injected digest mismatch is counted")
    a = p.parse_args(argv)
    if not (a.smoke or a.self_test):
        missing = [f for f in ("workload", "seed", "seconds", "trace")
                   if getattr(a, f) is None]
        if missing:
            p.error("missing --" + ", --".join(missing))
    return a


# --------------------------------------------------------------------------
# Build and fingerprint
# --------------------------------------------------------------------------

def die(code, msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark's binaries; returns paths."""
    for rel in ("CMakeLists.txt", "src", os.path.join("tools", "llhd-sim.cpp")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            die(EXIT_NO_TREE, "no llhd source tree here (missing %s)" % rel)
    if shutil.which("cmake") is None:
        die(EXIT_NO_TREE, "cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    env = dict(os.environ, TMPDIR=BUILD)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
              "llhd-sim", "perfbench-gen", "perfbench-trace", "perfbench-cal",
              "perfbench-spawn"]]
    with open(log_path, "wb") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env,
                                timeout=900).returncode
            if rc != 0:
                tail = open(log_path, errors="replace").read().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                die(EXIT_NO_TREE, "build failed (%s); log in %s" % (" ".join(cmd), log_path))
    return {"sim": os.path.join(BUILD, "llhd", "llhd-sim"),
            "gen": os.path.join(BUILD, "perfbench-gen"),
            "trace": os.path.join(BUILD, "perfbench-trace"),
            "cal": os.path.join(BUILD, "perfbench-cal"),
            "spawn": os.path.join(BUILD, "perfbench-spawn")}


def fingerprint():
    cache = {}
    for line in open(os.path.join(BUILD, "CMakeCache.txt"), errors="replace"):
        m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2).strip()
    cxx = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # The benchmark also runs from exported trees without .git: hash the
    # sources that make up the measured program instead.
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            h.update(open(f, "rb").read())
    return {"nproc": os.cpu_count(), "compiler": cxx, "compiler_version": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "git_commit": commit or "unavailable (not a git checkout)",
            "source_sha256": h.hexdigest()[:16],
            "llhd_jit_cache_set": "LLHD_JIT_CACHE" in os.environ,
            "llhd_jit_cxx_set": "LLHD_JIT_CXX" in os.environ}


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

class Proc:
    __slots__ = ("rc", "wall", "rss_kb", "err")


def run_proc(bins, cmd, env, err_path):
    """Runs one process to completion through perfbench-spawn, which
    measures its wall time and ru_maxrss from a small parent image."""
    with open(err_path, "wb") as err:
        out = subprocess.run([bins["spawn"], str(PROC_TIMEOUT_S)] + cmd,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=err, env=env, cwd=ROOT, timeout=PROC_TIMEOUT_S + 30)
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 3:
        die(EXIT_NO_TREE, "perfbench-spawn failed on %s" % " ".join(cmd))
    r = Proc()
    r.rc, r.wall, r.rss_kb = int(fields[0]), float(fields[1]), int(fields[2])
    r.err = open(err_path, errors="replace").read()
    return r


# --------------------------------------------------------------------------
# Workload plans
# --------------------------------------------------------------------------

class Unit:
    """One simulation target (a design, or a batch) on one preset."""

    def __init__(self, key, preset, cycles, path, top, args):
        self.key, self.preset, self.cycles = key, preset, cycles
        self.path, self.top, self.args = path, top, args
        self.kill_at = None      # observed_sim: --max-deltas of the kill run.
        self.ckpt_every = None   # observed_sim: --checkpoint-every.
        self.batch = 0           # fleet: --batch.


class Plan:
    def __init__(self, spec, smoke, seed, bins, work):
        self.smoke, self.seed = smoke, seed
        self.bins, self.work = bins, work
        self.warm_cache = spec["jit_cache"] == "warm"
        # cold_start: the run phase is within the noise of set-up, so a
        # run's rate is taken over its whole wall time.
        self.rate_over_full_run = spec.get("rate_over") == "full_run"
        self.units = []
        self.invocations = []  # (key, top, path, seed, batch, plusargs) for tracing.
        sm = SPEC["smoke"]
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        if "fleet" in spec:
            f = spec["fleet"]
            cycles = sm["fleet_cycles"] if smoke else f["cycles"]
            n = sm["fleet_instances"] if smoke else f["instances"]
            path = os.path.join(inputs, f["source"])
            shutil.copyfile(os.path.join(HERE, f["source"]), path)
            plus = ["+cycles=%d" % cycles]
            for preset in PRESETS:
                u = Unit("fleet", preset, cycles * n, path, f["top"],
                         ["--batch=%d" % n, "--jobs=%d" % min(JOBS, f["jobs"])] + plus)
                u.batch = n
                self.units.append(u)
            self.invocations.append(("fleet", f["top"], path, seed,
                                     spec["trace_batch"] if not smoke else n, plus))
            return
        designs = spec["designs"]
        iters = {k: (sm["iterations"] if smoke else v) for k, v in designs.items()}
        out = subprocess.run([bins["gen"], inputs] + ["%s=%d" % kv for kv in iters.items()],
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            die(EXIT_NO_TREE, "perfbench-gen failed: " + out.stderr.strip())
        for line in out.stdout.splitlines():
            key, top, n, path = line.split(" ", 3)
            for preset in PRESETS:
                u = Unit(key, preset, int(n), path, top, [])
                if "kill_at_slots" in spec:
                    u.kill_at = sm["observed_kill_at_slots"] if smoke else spec["kill_at_slots"][key]
                    u.ckpt_every = (sm["observed_checkpoint_every"] if smoke
                                    else spec["checkpoint_every"][key])
                self.units.append(u)
            self.invocations.append((key, top, path, seed,
                                     spec["trace_batch"] if not smoke else 2, []))

    def env(self):
        env = dict(os.environ)
        for var in ("LLHD_JIT_CACHE", "LLHD_JIT_KEEP", "LLHD_JIT_TMPDIR"):
            env.pop(var, None)
        env["TMPDIR"] = os.path.join(self.work, "tmp")
        if self.warm_cache:
            env["LLHD_JIT_CACHE"] = os.path.join(self.work, "jit-cache")
        return env


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------

class PassResult:
    def __init__(self):
        self.attempted = 0
        self.failures = []        # Human-readable failure descriptions.
        self.full = {}            # (key, preset) -> full-run wall.
        self.setup = {}           # (key, preset) -> set-up wall.
        self.user_walls = []      # Every user-facing invocation wall.
        self.setup_walls = []
        self.rss_kb = 0           # Largest ru_maxrss of the pass.
        self.rss = {}             # (key, preset) -> full-run ru_maxrss.
        self.digests = {}         # (key, preset) -> digest (batch: instance 0).
        self.batch_digests = {}   # (key, preset) -> [digest per instance].
        self.cal = []             # Calibration kernel times.

    def check(self, ok, failure):
        """Counts one correctness check; records the failure when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(failure)
        return ok

    def wall_s(self):
        return sum(self.user_walls)

    def setup_s(self):
        return sum(self.setup_walls)


def finished_digests(u, r, res, what):
    """The digest(s) llhd-sim --stats printed for a run that finished
    ($finish reached on every instance); None, and a failure, otherwise."""
    if u.batch:
        rows = BATCH_RE.findall(r.err)
        done = sum(1 for row in rows if row[3])
        if not res.check(len(rows) == u.batch and done == u.batch,
                         "%s/%s %s: %d of %d instances finished" % (
                             u.key, u.preset, what, done, u.batch)):
            return None
        return [d for _, _, d, _ in sorted(rows, key=lambda row: int(row[0]))]
    m = STATS_RE.search(r.err)
    if not res.check(m and m.group(5), "%s/%s %s: run did not finish" % (u.key, u.preset, what)):
        return None
    return m.group(4)


def run_unit(plan, u, res, inject):
    """All invocations of one unit in one pass, with their checks."""
    sim, env, work = plan.bins["sim"], plan.env(), plan.work
    tag = "%s.%s" % (u.key, u.preset)
    base = [sim, u.path, "--top=" + u.top, "--engine=" + u.preset,
            "--seed=%d" % plan.seed, "--stats"] + u.args
    err = os.path.join(work, tag + ".err")

    def invoke(extra, want_rc, what):
        r = run_proc(plan.bins, base + extra, env, err)
        res.rss_kb = max(res.rss_kb, r.rss_kb)
        last = (r.err.strip().splitlines() or [""])[-1]
        return r, res.check(r.rc == want_rc, "%s %s: exit %d, expected %d: %s" % (
            tag, what, r.rc, want_rc, last))

    observed = u.kill_at is not None
    vcd = os.path.join(work, tag + ".vcd")
    ckpt = os.path.join(work, tag + ".ckpt")
    full_extra = []
    if observed:
        full_extra = ["--vcd=" + vcd, "--checkpoint=" + ckpt,
                      "--checkpoint-every=" + u.ckpt_every]

    r, ok = invoke(full_extra + ["--max-deltas=1"], SIM_DELTA_BUDGET, "set-up")
    res.setup[(u.key, u.preset)] = r.wall
    res.setup_walls.append(r.wall)

    r, ok = invoke(full_extra, SIM_OK, "full run")
    res.full[(u.key, u.preset)] = r.wall
    res.rss[(u.key, u.preset)] = r.rss_kb
    res.user_walls.append(r.wall)
    digest = finished_digests(u, r, res, "full run") if ok else None
    if isinstance(digest, list):
        res.batch_digests[(u.key, u.preset)] = digest
        digest = digest[0]
    if digest and inject and u.preset == "blaze":
        digest = "%016x" % (int(digest, 16) ^ 1)
    res.digests[(u.key, u.preset)] = digest

    if observed:
        part = os.path.join(work, tag + ".resumed.vcd")
        kill_ckpt = os.path.join(work, tag + ".kill.ckpt")
        r, ok1 = invoke(["--vcd=" + part, "--checkpoint=" + kill_ckpt,
                         "--max-deltas=%d" % u.kill_at], SIM_DELTA_BUDGET, "kill run")
        res.user_walls.append(r.wall)
        r, ok2 = invoke(["--vcd=" + part, "--resume=" + kill_ckpt], SIM_OK, "resume run")
        res.user_walls.append(r.wall)
        resumed = finished_digests(u, r, res, "resume run") if ok1 and ok2 else None
        if resumed and digest:
            res.check(resumed == digest, tag + ": resumed digest differs from the full run")
        res.check(same_file(vcd, part), tag + ": resumed VCD differs from the uninterrupted VCD")


def same_file(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def calibrate(plan):
    out = subprocess.run([plan.bins["cal"], str(CAL_ROUNDS)], capture_output=True,
                         text=True, timeout=60)
    if out.returncode != 0:
        die(EXIT_NO_TREE, "perfbench-cal failed: " + out.stderr.strip())
    return float(out.stdout.split()[0])


def warm_up(plan):
    """Untimed: one set-up run per blaze unit fills the JIT object cache
    (on warm-cache workloads) and the OS caches the host compiler uses."""
    for u in plan.units:
        if u.preset == "blaze":
            run_proc(plan.bins, [plan.bins["sim"], u.path, "--top=" + u.top, "--engine=blaze",
                      "--seed=%d" % plan.seed, "--max-deltas=1"] + u.args,
                     plan.env(), os.path.join(plan.work, "warm-up.err"))


def run_pass(plan, rng, inject=False):
    res = PassResult()
    keys = sorted({u.key for u in plan.units})
    rng.shuffle(keys)
    for key in keys:
        for u in plan.units:
            if u.key == key:
                res.cal.append(calibrate(plan))
                run_unit(plan, u, res, inject)
        d = [res.digests.get((key, p)) for p in PRESETS]
        if None not in d:
            res.check(d[0] == d[1], "%s: interp digest %s != blaze digest %s" % (key, d[0], d[1]))
        b = [res.batch_digests.get((key, p)) for p in PRESETS]
        if None not in b:
            res.check(b[0] == b[1], key + ": per-instance digests differ between presets")
            res.check(len(set(b[0])) > 1 or len(b[0]) == 1,
                      key + ": every instance ran the same stimulus")
        if any(u.kill_at is not None for u in plan.units if u.key == key):
            vcds = [os.path.join(plan.work, "%s.%s.vcd" % (key, p)) for p in PRESETS]
            res.check(same_file(*vcds), key + ": interp and blaze VCDs differ")
    return res


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    return best, statistics.quantiles(samples, n=1000, method="inclusive")[int(best * 10) - 1]


def speed(p):
    """How fast the CPU ran during pass p, relative to the reference."""
    return statistics.median(p.cal) / CAL_REF_S


def end_to_end(plan, passes):
    """The end-to-end metrics and per-run rows. Each pass's times are
    divided by that pass's speed; a metric is the median over passes."""
    med = statistics.median
    run = lambda p, k: (p.full[k] if plan.rate_over_full_run or plan.smoke
                        else p.full[k] - p.setup[k])
    m = {"wall_s": med([p.wall_s() / speed(p) for p in passes]),
         "setup_s": med([p.setup_s() / speed(p) for p in passes]),
         "peak_rss_mb": med([p.rss_kb for p in passes]) / 1024.0}
    rows = []
    for preset in PRESETS:
        units = [u for u in plan.units if u.preset == preset]
        m[preset + ".cycles_per_s"] = med([
            geomean([u.cycles * speed(p) / max(run(p, (u.key, preset)), 1e-9)
                     for u in units]) for p in passes])
        for u in units:
            k = (u.key, preset)
            rows.append((u.key, preset, u.cycles, med([p.full[k] for p in passes]),
                         med([p.setup[k] for p in passes]),
                         med([u.cycles * speed(p) / max(run(p, k), 1e-9) for p in passes])))
    return m, rows


def self_times(spans):
    """Self time per span (duration minus the time its children cover)."""
    child = [0.0] * len(spans)
    for name, inv, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[1], s[4] - s[3] - c) for s, c in zip(spans, child)]


def per_layer(plan, untraced, cold, warm):
    invs = cold["invocations"]
    total = lambda name: sum(t for n, _, t in self_times(cold["spans"]) if n == name)
    dur = lambda name, sp=cold["spans"]: sum(s[4] - s[3] for s in sp if s[0] == name)
    count = lambda name: sum(i["counts"].get(name, 0) for i in invs)
    m = {}
    for name in ("moore.compile", "asm.clone", "passes.opt", "design.elaborate",
                 "lir.lower", "jit.emit", "jit.host_compile", "engine.bind",
                 "engine.interp_run", "engine.blaze_run", "engine.nojit_run",
                 "ckpt.save", "ckpt.restore"):
        m[name + "_s"] = total(name)
    m["jit.cache_hit_s"] = dur("jit.cache_hit", warm["spans"])
    for name in ("moore.insts", "passes.insts_after", "design.signals",
                 "design.instances", "lir.ops", "jit.source_bytes", "jit.native_units",
                 "jit.deopt_units", "engine.slots", "engine.process_runs",
                 "engine.entity_evals", "engine.signal_changes", "wave.bytes",
                 "ckpt.bytes", "ckpt.count"):
        m[name] = count(name)
    procs = count("jit.native_procs") + count("jit.interp_procs")
    m["jit.native_ratio"] = count("jit.native_procs") / procs if procs else 0.0
    m["engine.interp_ns_per_activation"] = (
        m["engine.interp_run_s"] / max(1, count("engine.interp_activations")) * 1e9)
    m["engine.blaze_ns_per_activation"] = (
        m["engine.blaze_run_s"] / max(1, m["engine.process_runs"] + m["engine.entity_evals"]) * 1e9)
    m["trace.hash_s"] = m["engine.blaze_run_s"] - dur("trace.off_run")
    m["wave.s"] = dur("wave.run") - m["engine.blaze_run_s"]
    # A restored run that diverges is a sim/Checkpoint defect the benchmark
    # reports as a count: see README.md.
    m["ckpt.resume_mismatches"] = sum(
        1 for i in invs if i["digests"].get("restored") != i["digests"].get("blaze"))
    m["batch.build_s"] = count("batch.jn.build_s")
    m["batch.run_s"] = count("batch.jn.run_s")
    m["batch.scaling"] = count("batch.j1.run_s") / max(1e-9, count("batch.jn.run_s"))
    m["batch.instances_failed"] = count("batch.j1.failed") + count("batch.jn.failed")
    # The traced presets mirror the untraced full runs and their set-up
    # spans the --max-deltas=1 runs; on warm-cache workloads those load JIT
    # objects instead of compiling them, so the cache-hit span stands in.
    compile_s = m["jit.cache_hit_s"] if plan.warm_cache else m["jit.host_compile_s"]
    if any(u.batch for u in plan.units):
        # A fleet's traced counterpart is the blaze batch (runBatch builds
        # its own program from the moore module).
        blaze_moore = sum(s[4] - s[3] for s in cold["spans"] if s[0] == "moore.compile"
                          and s[2] >= 0 and cold["spans"][s[2]][0] == "blaze")
        traced = blaze_moore + dur("batch.jn")
        untraced_s = sum(v for (k, p), v in untraced.full.items() if p == "blaze")
    else:
        traced = (dur("interp") + dur("blaze") + dur("blaze.run")
                  - m["jit.host_compile_s"] + compile_s)
        untraced_s = sum(untraced.full.values())
    m["bench.tracing_overhead_s"] = traced - untraced_s
    setup_spans = ["moore.compile", "asm.clone", "passes.opt", "design.elaborate",
                   "lir.lower", "jit.emit", "engine.bind"]
    m["bench.unaccounted_setup_s"] = (
        untraced.setup_s() - sum(total(n) for n in setup_spans) - compile_s)
    return m


def trace_checks(untraced, cold, res):
    """The traced run must reach the untraced run's digests."""
    for inv in cold["invocations"]:
        key, d = inv["key"], inv["digests"]
        for preset in PRESETS:
            want = untraced.digests.get((key, preset))
            res.check(d.get(preset) == want, "%s/%s: traced digest %s != llhd-sim digest %s" % (
                key, preset, d.get(preset), want))
        for extra in ("nojit", "wave", "batch.j1.0", "batch.jn.0"):
            res.check(d.get(extra) == d.get("blaze"), "%s: traced %s digest %s != blaze %s" % (
                key, extra, d.get(extra), d.get("blaze")))
        c = inv["counts"]
        res.check(not (c.get("interp.assert_failures") or c.get("blaze.assert_failures")),
                  key + ": traced run hit assertion failures")


def run_trace(plan, env, warm):
    manifest = os.path.join(plan.work, "trace.manifest")
    with open(manifest, "w") as f:
        for key, top, path, seed, batch, plus in plan.invocations:
            f.write("\t".join([key, top, path, str(seed), str(batch), " ".join(plus)]) + "\n")
    out = os.path.join(plan.work, "trace-%s.json" % ("warm" if warm else "cold"))
    cmd = [plan.bins["trace"], "--manifest=" + manifest, "--out=" + out,
           "--work=" + plan.work] + (["--jit-warm"] if warm else [])
    r = run_proc(plan.bins, cmd, env, out + ".err")
    if r.rc != 0:
        return None, "perfbench-trace exited %d: %s" % (r.rc, r.err.strip())
    return json.load(open(out)), None


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def fmt(v):
    return "%.6g" % v


def run_workload(name, seed, seconds, trace, bins, smoke=False, inject=False):
    """Runs one workload; returns (result dict, report lines)."""
    spec = SPEC["workloads"][name]
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    try:
        plan = Plan(spec, smoke, seed, bins, work)
        rng = random.Random(seed)
        start = time.monotonic()
        if not smoke:
            warm_up(plan)
        passes = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(plan, rng, inject))
            now = time.monotonic()
            if smoke or trace:
                break
            if len(passes) >= MIN_PASSES and now - measure_start >= seconds:
                break
            if now - start + (now - t0) > RUN_DEADLINE_S:
                break
        e2e, rows = end_to_end(plan, passes)
        lines = ["workload %s, seed %d, %d pass(es)" % (name, seed, len(passes))]
        speeds = [speed(p) for p in passes]
        lines.append("  cpu speed per pass (calibration kernel / %s s): median %s, "
                     "range %s..%s; times are divided by it" % (
                         fmt(CAL_REF_S), fmt(statistics.median(speeds)),
                         fmt(min(speeds)), fmt(max(speeds))))
        lines.append("  %-15s %-6s %9s %10s %10s %12s" % (
            "design", "preset", "cycles", "raw full_s", "raw setup", "cycles/s"))
        for key, preset, cycles, full, setup, rate in rows:
            lines.append("  %-15s %-6s %9d %10.4f %10.4f %12.1f" % (
                key, preset, cycles, full, setup, rate))
        for k, samples in (("raw wall_s", [p.wall_s() for p in passes]),
                           ("raw setup_s", [p.setup_s() for p in passes]),
                           ("raw invocation wall", [w for p in passes for w in p.user_walls])):
            tp = tail_percentile(samples)
            lines.append("  %s: median %s s, %s (n=%d)" % (
                k, fmt(statistics.median(samples)),
                "p%g %s s" % tp if tp else "no percentile has ten samples beyond it",
                len(samples)))
        metrics, kind = e2e, "end_to_end"
        checks = PassResult()  # The traced run's own checks.
        if trace:
            metrics, kind = {}, "per_layer"
            env = plan.env()
            env["LLHD_JIT_CACHE"] = os.path.join(work, "trace-jit-cache")
            cold, err = run_trace(plan, env, warm=False)
            warm, err = (run_trace(plan, env, warm=True) if cold else (None, err))
            if checks.check(err is None, err):
                trace_checks(passes[0], cold, checks)
                metrics = per_layer(plan, passes[0], cold, warm)
        attempted = sum(p.attempted for p in passes) + checks.attempted
        failures = [f for p in passes + [checks] for f in p.failures]
        failed = len(failures)
        lines.append("  %d llhd-sim invocations and checks attempted, %d failed" % (
            attempted, failed))
        units = {k: v[0] for k, v in SPEC["metrics"][kind].items()}
        shown = dict(e2e)
        if name == "fleet":
            shown["fleet.cycles_per_s"] = e2e["blaze.cycles_per_s"]
        shown.update(metrics)
        shown["failed_ratio"] = failed / max(1, attempted)
        all_units = {k: v[0] for group in SPEC["metrics"].values() for k, v in group.items()}
        for k in sorted(shown):
            lines.append("  %-34s %14s %s" % (k, fmt(shown[k]), all_units[k]))
        for f in failures[:20]:
            lines.append("  FAILED: " + f)
        if metrics.get("ckpt.resume_mismatches"):
            lines.append("  DEFECT: %d traced run(s) diverged after a checkpoint restore" %
                         metrics["ckpt.resume_mismatches"])
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        raw = [{"full": {"%s/%s" % k: v for k, v in p.full.items()},
                "setup": {"%s/%s" % k: v for k, v in p.setup.items()},
                "user_walls": p.user_walls, "cal": p.cal, "rss_kb": p.rss_kb,
                "rss": {"%s/%s" % k: v for k, v in p.rss.items()}}
               for p in passes]
        return result, lines, raw
    finally:
        shutil.rmtree(work, ignore_errors=True)


def save_result(name, seed, trace, fp, result, lines, raw):
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "report": lines, "result": result, "passes": raw},
                  f, indent=1)


def smoke(bins):
    """Every workload at its tiny smoke size, traced (which includes one
    untraced pass with all of its checks)."""
    ok = True
    for name in sorted(SPEC["workloads"]):
        t0 = time.monotonic()
        result, lines, _ = run_workload(name, 1, 1, 1, bins, smoke=True)
        print("\n".join(lines))
        print("  (%.1f s)" % (time.monotonic() - t0))
        ok = ok and result["correct"]
    return ok


def self_test(bins):
    ok = True
    # Malformed flags are usage errors, never crashes or results.
    for bad in (["--seed", "abc"], ["--seconds", "0"], ["--trace", "2"],
                ["--workload", "nope"], ["--seed", "-1"], ["--seed"]):
        argv = ["--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"]
        i = argv.index(bad[0])
        argv[i:i + 2] = bad
        r = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                           capture_output=True, text=True, timeout=60)
        if r.returncode != EXIT_USAGE or r.stdout.strip():
            print("self-test: %s was not rejected as a usage error (exit %d)" % (bad, r.returncode))
            ok = False
    # An injected digest mismatch must be counted and fail the run.
    result, _, _ = run_workload("fleet", 1, 1, 0, bins, smoke=True, inject=True)
    if result["correct"] or result["failed"] < 1:
        print("self-test: injected digest mismatch was not counted: %s" % result)
        ok = False
    print("self-test: %s" % ("ok" if ok else "FAILED"))
    return ok


def main(argv):
    args = parse_args(argv)
    bins = build()
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if args.self_test:
        return 0 if self_test(bins) else EXIT_CHECK_FAILED
    if args.smoke:
        return 0 if smoke(bins) else EXIT_CHECK_FAILED
    result, lines, raw = run_workload(args.workload, args.seed, args.seconds, args.trace, bins)
    save_result(args.workload, args.seed, args.trace, fp, result, lines, raw)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
