"""Time-to-result benchmark of the ``airybeam`` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (no install step).  One invocation runs at a time, with
``--threads`` left at its default of 1, so a 2-core machine holds this
process and one child.

``--trace 0`` runs the real CLI in child processes, as a user does,
interpreter start and imports included.  Set-up times a fresh
``airybeam --version`` several times (``setup_s``); then the workload's
seeded invocation list (see ``workloads.py``) runs in rounds for
``--seconds``, stopping before the first invocation that would end past it,
so the last round may be partial.  Every invocation is checked
(``checks.py``), and each complete round re-runs one seeded invocation and
compares the SHA-256 of its outputs.  Per-subcommand times are medians over
all of the run's samples of that subcommand; ``wall_s``, the time of one
round, is the sum of those medians over the round's invocations.  Of the
per-subcommand times only ``detector_image_s`` is a metric: the other
subcommands take a few 1-2 s samples a run, too few for a steady median,
so their times are in the run record and in ``wall_s``.

``--trace 1`` runs the same invocations in this process through
``airybeam.cli.main``, alternating untraced rounds with rounds traced by
``tracing.py``, and reports per-layer numbers, an import probe of
``import airybeam.cli`` in fresh processes, and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run
(environment stamp, calibration loop, sample counts, percentiles and
failures) goes to ``.perfbench_out/runs/``; traced runs also write their
spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks          # sibling modules: the script's directory is on sys.path
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"
RUNS = OUT / "runs"

TIME_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_REPEATS = 5          # fresh `airybeam --version` calls timed in set-up
IMPORT_PROBES = 3
_CHILD = "import sys; from airybeam.cli import main; sys.exit(main())"
_PROBE = (
    "import json, sys, time; before = set(sys.modules); t = time.perf_counter(); "
    "import airybeam.cli; dt = time.perf_counter() - t; "
    "print(json.dumps({'cli_s': dt, 'modules': len(set(sys.modules) - before), "
    "'scipy_integrate': 'scipy.integrate' in sys.modules, "
    "'scipy_special': 'scipy.special' in sys.modules}))"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "detector_image_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "airy.calls": "count", "airy.self_s": "s", "airy.us_per_call": "us",
    "airy.mid_share": "ratio", "airy.errors": "count",
    "green.closed_calls": "count", "green.oracle_calls": "count",
    "green.oracle_kept_ratio": "ratio", "green.integrand_evals": "count",
    "sources.calls": "count", "sources.self_s": "s", "sources.us_per_call": "us",
    "sources.sum_rule_j_evals": "count", "sources.far_field_warnings": "count",
    "sources.errors": "count",
    "scenarios.calls": "count", "scenarios.points": "count", "scenarios.self_s": "s",
    "output.calls": "count", "output.bytes": "B", "output.self_s": "s",
    "output.mb_per_s": "MB/s", "cli.self_s": "s",
    "import.cli_s": "s", "import.modules": "count",
    "import.scipy_integrate": "flag", "import.scipy_special": "flag",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_kb: int = 0


def _deadline_left(start: float) -> float:
    return TIME_LIMIT_S - (time.perf_counter() - start)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], env: dict, timeout: float) -> Result:
    """Run one process to completion; wall time and peak RSS from wait4."""
    io_dir = OUT / "io"
    io_dir.mkdir(parents=True, exist_ok=True)
    with open(io_dir / "stdout", "w+b") as fo, open(io_dir / "stderr", "w+b") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fo, stderr=fe, env=env, cwd=WORK)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        fo.seek(0)
        fe.seek(0)
        return Result(proc.returncode, fo.read().decode(errors="replace"),
                      fe.read().decode(errors="replace"), wall, usage.ru_maxrss)


def run_in_process(main, argv: list[str], tracer=None) -> Result:
    """Call ``airybeam.cli.main`` here, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = tracer.invocation(main, argv) if tracer else main(argv)
        except SystemExit as exc:              # argparse: --version, bad flags
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:                      # a traceback is a failed check
            traceback.print_exc()
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


class Runner:
    """Runs invocations, checks them and keeps samples and failures."""

    def __init__(self, workload: str, seed: int, execute):
        self.workload = workload
        self.seed = seed
        self.execute = execute                    # (argv) -> Result
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rss_kb: list[int] = []
        self._stdout: dict[int, str] = {}
        self._again = random.Random(f"{workload}:{seed}:again")

    def invoke(self, inv, stem: str, tag: str, execute=None) -> Result:
        res = (execute or self.execute)(inv.argv(stem))
        self.attempted += 1
        self.rss_kb.append(res.rss_kb)
        errs = checks.check(inv, stem, res.code, res.stdout, res.stderr,
                            f"{self.workload}:{self.seed}:{tag}")
        self._fail(inv, stem, tag, errs)
        return res

    def _fail(self, inv, stem, tag, errs) -> None:
        if errs:
            self.failed += 1
            self.failures += [f"{tag} {' '.join(inv.argv(stem))}: {e}" for e in errs]

    def fits(self, inv, deadline: float | None) -> bool:
        """Whether ``inv``, judged by its last sample, ends before ``deadline``."""
        if deadline is None or not self.samples[inv.command]:
            return True
        return time.perf_counter() + self.samples[inv.command][-1] <= deadline

    def round(self, calls, k: int, execute=None, deadline: float | None = None):
        """One pass over the invocation list, stopping before an invocation
        that would end past ``deadline``; returns (summed wall time, complete)."""
        wall = 0.0
        for i, inv in enumerate(calls):
            if not self.fits(inv, deadline):
                return wall, False
            res = self.invoke(inv, str(WORK / f"r{k}-{i}-{inv.command}"), f"r{k}.{i}",
                              execute)
            self.samples[inv.command].append(res.wall_s)
            self._stdout[i] = res.stdout
            wall += res.wall_s
        return wall, True

    def determinism(self, calls, k: int, deadline: float | None = None) -> None:
        """Re-run one seeded invocation of round k; its output must not change.

        Files are compared by SHA-256; an invocation that writes no file
        (--version, validate) must print the same text.  The re-run is one
        more timing sample of its subcommand, but not part of the round.
        It is skipped when it would end past ``deadline``.
        """
        i = self._again.randrange(len(calls))
        inv = calls[i]
        if not self.fits(inv, deadline):
            return
        first = str(WORK / f"r{k}-{i}-{inv.command}")
        again = str(WORK / f"r{k}-{i}-again")
        failed_before = self.failed
        res = self.invoke(inv, again, f"r{k}.{i}.again")
        self.samples[inv.command].append(res.wall_s)
        if inv.ext is None:
            same = res.stdout == self._stdout[i]
        else:
            same = checks.output_digest(first) == checks.output_digest(again)
        if not same and self.failed == failed_before:
            self._fail(inv, again, f"r{k}.{i}.again", ["re-run output differs"])


def _clean_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def summarize(values) -> dict:
    """Median plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    for p, q in ((99.9, 1000), (99, 100), (90, 10)):
        if len(vals) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = statistics.quantiles(vals, n=q, method="inclusive")[-1]
            break
    return out


def calibrate() -> float:
    """Median time of a fixed pure-Python loop (recorded, never used to rescale)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _repeat(seconds: float, step) -> int:
    """Call ``step(k)`` for k = 0, 1, ... while one more call, judged by the
    last one, still ends within ``seconds``; at least once.  Returns the count."""
    begin = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        step(k)
        k += 1
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return k


def timed_run(calls, args, start) -> tuple[Runner, dict, dict]:
    env = _child_env()
    child = [sys.executable, "-c", _CHILD]
    runner = Runner(args.workload, args.seed,
                      lambda argv: run_child(child + argv, env, _deadline_left(start)))
    version = workloads.Invocation("version")
    runner.invoke(version, str(WORK / "warmup"), "warmup")   # writes bytecode caches
    setup = [runner.invoke(version, str(WORK / "setup"), f"setup.{i}").wall_s
             for i in range(SETUP_REPEATS)]

    # the first round always runs whole, so every subcommand has a sample
    deadline = time.perf_counter() + args.seconds
    walls, k, complete = [], 0, True
    while complete:
        wall, complete = runner.round(calls, k, deadline=deadline if k else None)
        if complete:
            walls.append(wall)
            runner.determinism(calls, k, deadline)
        _clean_work()
        k += 1

    stats = {"setup_s": summarize(setup)}
    for cmd, values in runner.samples.items():
        stats[cmd.replace("-", "_") + "_s"] = summarize(values)
    if "detector_image_s" not in stats:
        raise RuntimeError(f"workload {args.workload} never runs detector-image")
    stats["wall_s"] = {"median": sum(stats[inv.command.replace("-", "_") + "_s"]["median"]
                                     for inv in calls),
                       "n": len(walls), "complete_rounds_s": walls}
    stats["peak_rss_mb"] = {"median": max(runner.rss_kb) / 1024.0,
                            "n": len(runner.rss_kb)}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    samples = {"setup_s": setup, **runner.samples}
    return runner, metrics, {"rounds": len(walls), "stats": stats, "samples": samples}


def import_probe(start) -> dict:
    env = _child_env()
    runs = []
    for _ in range(IMPORT_PROBES):
        res = run_child([sys.executable, "-c", _PROBE], env, _deadline_left(start))
        if res.code != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.strip()[-300:]}")
        runs.append(json.loads(res.stdout))
    return {"import.cli_s": statistics.median(r["cli_s"] for r in runs),
            "import.modules": runs[-1]["modules"],
            "import.scipy_integrate": int(runs[-1]["scipy_integrate"]),
            "import.scipy_special": int(runs[-1]["scipy_special"])}


def traced_run(calls, args, start) -> tuple[Runner, dict, dict]:
    probe = import_probe(start)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import airybeam.cli
    import_in_process = time.perf_counter() - t0

    main = airybeam.cli.main
    runner = Runner(args.workload, args.seed, lambda argv: run_in_process(main, argv))
    untraced, traced, tracers = [], [], []

    def step(k):
        # an untraced round, then a traced one, so both see the same machine
        untraced.append(runner.round(calls, 2 * k)[0])
        runner.determinism(calls, 2 * k)
        _clean_work()
        tracer = Tracer()
        with tracer.installed():
            traced.append(runner.round(
                calls, 2 * k + 1, lambda argv: run_in_process(main, argv, tracer))[0])
        runner.determinism(calls, 2 * k + 1)
        _clean_work()
        tracers.append(tracer)

    rounds = 2 * _repeat(args.seconds, step)

    layer = [t.layer_metrics() for t in tracers]
    values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    values.update(probe)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    spans_path = RUNS / f"{args.workload}-seed{args.seed}.spans.tsv"
    with open(spans_path, "w") as fh:
        fh.write("round\tinvocation\tspan\tparent\tname\tstart\tend\n")
        for i, tracer in enumerate(tracers):
            tracer.write_spans(fh, 2 * i + 1)
    detail = {"rounds": rounds, "untraced_round_s": untraced, "traced_round_s": traced,
              "import_in_process_s": import_in_process,
              "self_s_by_round": [{name: v for name, v in m.items() if name.endswith("self_s")}
                                  for m in layer],
              "spans": str(spans_path.relative_to(ROOT))}
    return runner, metrics, detail


def environment() -> dict:
    """Commit (when the checkout is a git work tree), versions and machine."""
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass                               # the source hash still identifies it
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    if not (SRC / "airybeam" / "cli.py").is_file():
        print(f"perfbench: no airybeam sources under {SRC}", file=sys.stderr)
        return 2
    _clean_work()
    RUNS.mkdir(parents=True, exist_ok=True)

    calls = workloads.invocations(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(),
              "calibration_start_s": calibrate(),
              "invocations": [inv.argv("OUT") for inv in calls]}
    run = traced_run if args.trace else timed_run
    runner, metrics, detail = run(calls, args, start)
    shutil.rmtree(WORK, ignore_errors=True)
    record.update(detail, calibration_end_s=calibrate(), metrics=metrics,
                  attempted=runner.attempted, failed=runner.failed,
                  fail_ratio=runner.failed / runner.attempted,
                  failures=runner.failures, elapsed_s=time.perf_counter() - start)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for line in runner.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"{runner.attempted} invocations, {runner.failed} failed, "
          f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
