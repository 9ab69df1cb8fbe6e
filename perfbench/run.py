"""The sb-abelian benchmark.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

The end-to-end unit is what a user runs: one ``sb-abelian`` process for one
argv (or, on ``socle_certify``, one ``perfbench/certify.py`` process).  The
load is a closed loop with one client and one child process at a time.  The
seeded generator in ``workloads.py`` gives one cycle of calls ("slots"); a
run replays the whole cycle a fixed number of times, ``--seconds`` over the
workload's nominal cycle time (at least twice), checks every output with
``check.py`` and prints one JSON object as its last line.  The repeat count
depends only on ``--seconds``, never on how fast the program is.

The children run this tree's ``src/`` through a bootstrap that puts it first
on ``sys.path`` and refuses to run if ``sb_abelian`` came from anywhere else,
so an installed copy is never measured instead.

Timings count each slot's best repeat.  On a shared 2-CPU machine other
tenants slow a process by up to 2x for seconds to minutes at a time; that
only ever adds time, and the repeats of a slot are a cycle apart, so the
best repeat is the steadiest estimate of what the call costs.

``--trace 0`` reports the end-to-end metrics (per workload):

* ``setup_s``: wall time of a process that only starts and imports the CLI
  (``sb-abelian --help``); four set-up slots are spread through the cycle
  and the median of their best repeats is reported;
* ``calls_per_s``: calls per second over one cycle of slots;
* ``call_p50_s``: median over slots of the wall time from spawn to exit;
* ``call_tail_s``: the best wall time of the slowest slot (no cycle has the
  eleven slots a percentile with ten beyond it needs); the slot, the slot
  count and the repeats are printed on stderr and kept in the results file;
* ``cpu_s_per_call``: child user+sys CPU per call (rusage of each child);
* ``peak_rss_mb``: the largest child max-RSS in the run.

The failure share (calls whose exit code or checked output differs from the
expected one, over calls attempted) is ``failed / attempted`` in the result
line, and is printed on stderr.  A call expected to exit 4 succeeds when it
exits 4 with nothing on stdout.

``--trace 1`` runs the same cycle in-process instead (half as many times):
each call once untraced and once with span wrappers from ``spans.py``
installed, with the library's caches emptied before each call as in a fresh
process.  It reports the per-layer metrics averaged per call, the start-up
import times from ``python -X importtime``, and the tracing overhead (traced
minus untraced best wall time, averaged over slots).

Details of every run (the generated calls, per-call records, spans) go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from check import check_call
from spans import Tracer, missing_targets
from workloads import CYCLE_SECONDS, WORKLOADS, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CERTIFY = HERE / "certify.py"

SETUP_SLOTS = 4
STARTUP_SPAWNS = 3
CALL_TIMEOUT_S = 60.0
WRONG_TREE = 97

# Children may write bytecode caches under src/, so that after the warm-up
# spawn every call starts from them, as an installed package does.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

# Runs as ``python -c BOOT SRC ARGS...``: import the package from SRC, refuse
# any other copy, then run it exactly as ``python -m sb_abelian ARGS...``.
BOOT = """\
import os, runpy, sys
src = sys.argv.pop(1)
sys.path.insert(0, src)
import sb_abelian
if os.path.dirname(os.path.dirname(os.path.realpath(sb_abelian.__file__))) != src:
    sys.exit(f"benchmark: imported {sb_abelian.__file__}, not the tree at {src}")
runpy.run_module("sb_abelian", run_name="__main__", alter_sys=True)
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def child_argv(call: dict) -> list[str]:
    if call["kind"] == "certify":
        return [sys.executable, str(CERTIFY), *call["args"]]
    return [sys.executable, "-c", BOOT, str(SRC), *call["args"]]


def spawn(argv: list[str]) -> dict:
    """Run one child to completion; wall time, rusage, exit code and output."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, CHILD_ENV, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], CALL_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    code = os.waitstatus_to_exitcode(status)
    if code == WRONG_TREE or b"not the tree at" in stderr:
        raise BenchError(stderr.decode(errors="replace").strip())
    return {
        "code": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": stdout,
        "stderr": stderr.decode(errors="replace")[-300:],
    }


class Identity:
    """Flags a repeated argv whose stdout differs from its first run."""

    def __init__(self):
        self.seen: dict[tuple, bytes] = {}

    def check(self, call: dict, stdout: bytes) -> str | None:
        key = (call["kind"], *call["args"])
        first = self.seen.setdefault(key, stdout)
        return None if first == stdout else "repeated argv gave different stdout"


HELP = {"kind": "cli", "args": ["--help"], "code": 0}


def with_setup_slots(calls: list[dict]) -> list[dict]:
    """The cycle with ``SETUP_SLOTS`` set-up slots (``--help`` processes)
    spread through it, so set-up is measured at several points of the run."""
    before = Counter(k * len(calls) // SETUP_SLOTS for k in range(SETUP_SLOTS))
    out = []
    for i, call in enumerate(calls):
        out += [HELP] * before[i] + [call]
    return out


def run_end_to_end(calls: list[dict], cycles: int) -> dict:
    cycle = with_setup_slots(calls)
    spawn(child_argv(HELP))  # warm-up: writes the bytecode caches
    identity = Identity()
    records = []
    best_wall = [math.inf] * len(cycle)
    best_cpu = [math.inf] * len(cycle)
    for _ in range(cycles):
        for pos, call in enumerate(cycle):
            rec = spawn(child_argv(call))
            # Interference only ever adds time, so each slot counts its best repeat.
            best_wall[pos] = min(best_wall[pos], rec["wall_s"])
            best_cpu[pos] = min(best_cpu[pos], rec["cpu_s"])
            if call is HELP:
                if rec["code"] != 0:
                    raise BenchError(f"--help exited {rec['code']}: {rec['stderr']}")
                continue
            rec["pos"], rec["args"] = pos, call["args"]
            stdout = rec.pop("stdout")
            rec["error"] = check_call(call, rec["code"], stdout) or identity.check(call, stdout)
            records.append(rec)
    setup = [best_wall[p] for p, call in enumerate(cycle) if call is HELP]
    work = [p for p, call in enumerate(cycle) if call is not HELP]
    walls = [best_wall[p] for p in work]
    slowest = max(work, key=best_wall.__getitem__)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "calls_per_s": (len(work) / sum(walls), "1/s"),
        "call_p50_s": (statistics.median(walls), "s"),
        "call_tail_s": (best_wall[slowest], "s"),
        "cpu_s_per_call": (statistics.fmean(best_cpu[p] for p in work), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }
    return {
        "metrics": metrics,
        "records": records,
        "extra": {"setup_best_s": setup, "slots": len(work), "cycles": cycles,
                  "slowest_slot": cycle[slowest]["args"]},
    }


# ---------------------------------------------------------------------------
# traced run


def _importtime() -> tuple[float, float]:
    """(all imports, numpy) in seconds, from one ``-X importtime`` CLI start."""
    argv = [sys.executable, "-X", "importtime", "-c", BOOT, str(SRC), "--help"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV,
                          timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"-X importtime start failed: {proc.stderr[-300:]}")
    total = numpy = 0.0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match is None:
            continue
        total += int(match.group(1)) / 1e6
        if match.group(4) == "numpy":
            numpy = int(match.group(2)) / 1e6
    return total, numpy


class InProcess:
    """Runs calls inside this process, against this tree's ``src/``."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import sb_abelian
        import sb_abelian.cli
        import sb_abelian.witness_socle

        if Path(sb_abelian.__file__).resolve().parent.parent != SRC:
            raise BenchError(f"imported {sb_abelian.__file__}, not the tree at {SRC}")
        import certify

        self.sb = sb_abelian
        self.certify = certify
        # Taken before any span wrapper is installed: a wrapper hides the
        # cache_clear and cache_info of the function it replaces.
        self.caches = {id(value): value
                       for name, mod in sys.modules.items()
                       if name == "sb_abelian" or name.startswith("sb_abelian.")
                       for value in vars(mod).values() if hasattr(value, "cache_clear")}
        self.cached = sb_abelian.invariants.szmielew_invariants

    def _reset_caches(self) -> None:
        """Empty the library's caches and their hit counts, as in a fresh process."""
        for cache in self.caches.values():
            cache.cache_clear()

    def _call(self, call: dict) -> int:
        if call["kind"] == "cli":
            return self.sb.cli.run_cli(list(call["args"]))
        opts = self.certify.parse_args(call["args"])
        report = self.certify.certify(self.sb.witness_socle, self.sb.parse_spec(opts.spec),
                                      opts.seed, opts.threshold)
        print(json.dumps(report, sort_keys=True))
        return 0

    def run(self, call: dict) -> dict:
        """Exit code, stdout, stderr, wall time and the invariant-cache hits
        and misses of one call."""
        self._reset_caches()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self._call(call)
            except Exception:  # a crash is a failed call, as in a child process
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        info = self.cached.cache_info()
        return {"code": code, "stdout": out.getvalue().encode(), "stderr": err.getvalue()[-300:],
                "wall_s": wall, "hits": info.hits, "misses": info.misses}


def run_traced(calls: list[dict], cycles: int) -> dict:
    startup = [_importtime() for _ in range(STARTUP_SPAWNS)]
    runner = InProcess()
    missing = missing_targets()
    if missing:
        raise BenchError(f"traced functions missing from the tree: {', '.join(missing)}")
    tracer = Tracer()
    identity = Identity()
    records = []
    best = {False: {}, True: {}}  # untraced / traced: slot -> best wall
    hits = misses = 0
    for index in [i for _ in range(cycles) for i in range(len(calls))]:
        call = calls[index]
        # alternate which side runs first, so warm-up favours neither
        order = (False, True) if len(records) % 2 == 0 else (True, False)
        rec = {"pos": index, "args": call["args"], "error": None}
        for traced in order:
            if traced:
                tracer.new_call()
                with tracer.installed():
                    result = runner.run(call)
                hits, misses = hits + result["hits"], misses + result["misses"]
            else:
                result = runner.run(call)
            best[traced][index] = min(best[traced].get(index, math.inf), result["wall_s"])
            error = check_call(call, result["code"], result["stdout"]) or identity.check(
                call, result["stdout"])
            if error and not rec["error"]:
                rec.update(error=error, stderr=result["stderr"])
        records.append(rec)
    n = len(records)
    layer = tracer.metrics(n, hits, misses)
    layer["startup.import_s"] = statistics.median(t for t, _ in startup)
    layer["startup.numpy_import_s"] = statistics.median(t for _, t in startup)
    layer["trace.overhead_s"] = statistics.fmean(
        best[True][i] - best[False][i] for i in best[False])
    return {
        "metrics": {k: (v, _layer_unit(k)) for k, v in sorted(layer.items())},
        "records": records,
        "tracer": tracer,
        "extra": {"calls": n, "best_untraced_s": best[False], "best_traced_s": best[True]},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/call"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/call"


# ---------------------------------------------------------------------------
# entry point


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = schedule(workload, seed)
    # A fixed number of whole cycles, the same on every commit: a faster
    # program must not earn a lower best-of-repeats from extra repeats.
    # A traced call runs twice, without and with spans.
    if trace:
        outcome = run_traced(calls, max(1, round(seconds / (2 * CYCLE_SECONDS[workload]))))
    else:
        outcome = run_end_to_end(calls, max(2, round(seconds / CYCLE_SECONDS[workload])))
    records = outcome["records"]
    failed = [r for r in records if r["error"]]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "schedule": calls,
              "result": result, **outcome["extra"], "calls": records}
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        outcome["tracer"].dump(RESULTS / f"{tag}-spans.json")
    share = len(failed) / len(records)
    print(f"{tag}: {len(records)} calls, fail_share {share:.4f}", file=sys.stderr)
    for rec in failed[:5]:
        print(f"  failed call: {rec['error']} {rec['args']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    if not trace:
        extra = outcome["extra"]
        print(f"  call_tail_s is the slowest of {extra['slots']} slots, "
              f"{extra['cycles']} repeats each: {extra['slowest_slot']}", file=sys.stderr)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="sb-abelian benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sb_abelian" / "__init__.py").is_file():
        print(f"benchmark: no sb_abelian package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
