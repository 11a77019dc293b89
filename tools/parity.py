"""Run the committed list of CLI invocations on two source trees, check
each, and compare their outputs byte for byte.

    python tools/parity.py OLD NEW
    python tools/parity.py . .

OLD and NEW are checkouts of this repository, each with ``src/airybeam``.
``calls()`` is the one committed list of CLI invocations, and the list CI
runs; CI's YAML repeats only a few of them, on the installed package.  Each
invocation runs once per tree, in a fresh process and a fresh working
directory, under the Python that runs this script, with ``PYTHONPATH`` set
to that tree's ``src`` and RuntimeWarnings made errors.  The list:

* every subcommand at a small size, every preset at default sizes, and the
  regimes of the paper at their edges: wide and narrow condensates, deep
  tunnelling, scan windows far from the peak, flux through two planes,
  overlays;
* every unit suffix a dimensioned flag takes, at physical values;
* both benchmark workloads at seeds 1-3, read from ``perfbench/workloads.py``;
* JSON images of each preset at n = 1, 2, 7, 8 and 1024, and of O- at 2048;
  PGM images at odd sizes that span several interpolated row blocks;
* every scan as JSON, ``validate --suite all`` and ``--suite oracle``, a
  ``--config`` file, ``--version``, ``--help``, usage errors and inputs the
  CLI rejects.

Each invocation on NEW must exit with the code its ``Call`` expects (0, but
2 for a usage error and 1 for a rejected input) and print no traceback.
It must also give what it gives on OLD: the exit code, stdout, stderr (the
tree's ``src`` path written as ``<src>``), the number of modules loaded and
the SHA-256 of every file written are compared.  The script prints each
failure and difference and exits 1 if there is any, else 0.

Run against itself, ``. .``, it is the smoke test: CI runs it on every
Python and NumPy leg, and under an install without scipy.  Run with the
parent commit as OLD, it shows each output a change alters.  Two invocations
run at a time.
"""

from __future__ import annotations

import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, invocations  # noqa: E402

PRESETS = ("s-minus", "o-minus", "rb-atom-laser")
SEEDS = (1, 2, 3)
TIMEOUT_S = 600

# runs the CLI as ``python -m airybeam.cli`` does, then records how many
# modules it loaded in the file named by its first argument
_LAUNCHER = """import runpy, sys
modules = sys.argv.pop(1)
try:
    runpy.run_module("airybeam.cli", run_name="__main__", alter_sys=True)
finally:
    with open(modules, "w") as fh:
        fh.write(str(len(sys.modules)))
"""

# overlay inputs in both abscissa units, the last with a byte-order mark, as
# spreadsheets save "CSV UTF-8"
_OV_HZ = ("ov-hz.csv", b"# detuning_Hz,value\n2000,0.99\n-1000,0.9\n500,0.97\n")
_OV_J = ("ov-j.csv", b"# energy_J,value\n1e-24,0.5\n8e-24,1\n")
_OV_BOM = ("ov-bom.csv", b"\xef\xbb\xbf2000,0.99\n-1000,0.9\n")


class Call(NamedTuple):
    """One CLI invocation, the input files it reads (name, bytes), whether it
    runs with ``AIRYBEAM_OUTDIR=out``, and the exit code it must give."""

    argv: tuple[str, ...]
    inputs: tuple[tuple[str, bytes], ...] = ()
    outdir: bool = False
    exit: int = 0

    def __str__(self):
        return " ".join(self.argv) + (" [AIRYBEAM_OUTDIR=out]" if self.outdir else "")


def calls() -> list[Call]:
    """The committed invocation list, each invocation once.  Every one exits
    0 unless its ``exit`` says otherwise."""
    out = []

    def add(*argv, inputs=(), outdir=False, exit=0):
        out.append(Call(tuple(map(str, argv)), tuple(inputs), outdir, exit))

    # every subcommand at a small size, writing under AIRYBEAM_OUTDIR; odd n:
    # the quadrant's middle row and column are not mirrored
    add("--version", outdir=True)
    for p in PRESETS:
        add("total-current", "--preset", p, "--n", 50, "-o", f"tc-{p}.csv", outdir=True)
        add("density-profile", "--preset", p, "--n", 51, "-o", f"dp-{p}.csv", outdir=True)
        for n in (16, 15):
            add("detector-image", "--preset", p, "--n", n, "-o", f"di-{p}-{n}.pgm",
                outdir=True)
            add("detector-image", "--preset", p, "--n", n, "--format", "json",
                "-o", f"di-{p}-{n}.json", outdir=True)
    add("total-current", "--n", 50, "--format", "json", "-o", "tc.json", outdir=True)
    add("atom-laser", "--n", 21, "-o", "al.csv", outdir=True)
    for fmt in ("csv", "json"):
        add("transition", "--widths", "0.4um,2.8um", "--n", 21, "--format", fmt,
            "-o", f"tr.{fmt}", outdir=True)
    add("validate", "--suite", "all", outdir=True)
    # a wide condensate (alpha = 33): its sum rule must still hold
    add("total-current", "--preset", "rb-atom-laser", "--width", "20um", "--n", 50,
        "-o", "tc-wide.csv", outdir=True)
    add("transition", "--widths", "20um", "--n", 21, "-o", "tr-wide.csv", outdir=True)
    # narrow condensates (alpha = 0.003 to 0.08): J's emission tail reaches
    # |eps| ~ 1/(4 alpha^2), far past the Airy scale
    add("total-current", "--preset", "rb-atom-laser", "--width", "2nm", "--n", 50,
        "-o", "tc-narrow.csv", outdir=True)
    add("transition", "--widths", "5nm,50nm", "--n", 21, "-o", "tr-narrow.csv", outdir=True)
    # alpha = 33 and 83: the Airy argument eps~ + delta ~ 4 alpha^4 of j_z
    # passes airy.X_SCALED_MAX, and its exponents cancel in closed form
    for w in ("20um", "50um"):
        add("density-profile", "--preset", "rb-atom-laser", "--width", w, "--n", 51,
            "-o", f"dp-wide-{w}.csv", outdir=True)
        for fmt in ("pgm", "json"):
            add("detector-image", "--preset", "rb-atom-laser", "--width", w, "--n", 16,
                "--format", fmt, "-o", f"di-wide-{w}.{fmt}", outdir=True)
    # deep tunnelling: j_z near 1e-245 and J near 1e-263, not flushed to 0
    add("density-profile", "--preset", "o-minus", "--energy", "-1.3meV", "--n", 51,
        "-o", "dp-tunnel.csv", outdir=True)
    add("detector-image", "--preset", "o-minus", "--energy", "-1.3meV", "--n", 16,
        "-o", "di-tunnel.pgm", outdir=True)
    add("total-current", "--preset", "s-minus", "--emin", "-19meV", "--emax", "-18meV",
        "--n", 50, "-o", "tc-tunnel.csv", outdir=True)
    # a scan window far from the current's peak: the sum rule must not depend on it
    add("total-current", "--preset", "rb-atom-laser", "--numin", "100kHz", "--numax", "101kHz",
        "--n", 21, "-o", "tc-off-window.csv", outdir=True)
    add("transition", "--numin", "20kHz", "--numax", "30kHz", "--n", 21,
        "-o", "tr-off-window.csv", outdir=True)
    # flux through two planes of O- and of the Rb preset; the oracle panel alone
    add("validate", "--suite", "flux", outdir=True)
    add("validate", "--suite", "oracle", outdir=True)
    # every suffix of every unit kind at least once, at the presets' own
    # values or near them: -50 ueV to 0.3 meV, 24.3 GHz = 100.5 ueV, 20 ms
    add("total-current", "--preset", "s-minus", "--emin", "-50000neV", "--emax", "0.3meV",
        "--n", 21, "-o", "tc-nev-mev.csv", outdir=True)
    add("total-current", "--preset", "o-minus", "--emin", "-3.2e-24J", "--emax", "3e-4eV",
        "--n", 21, "-o", "tc-j-ev.csv", outdir=True)
    add("total-current", "--preset", "s-minus", "--emin", "-12000MHz", "--emax", "72000000kHz",
        "--n", 21, "-o", "tc-mhz-khz.csv", outdir=True)
    add("density-profile", "--preset", "o-minus", "--energy", "24300000000Hz", "--field",
        "423V/m", "--z", "51.4cm", "--n", 21, "-o", "dp-hz-vm-cm.csv", outdir=True)
    add("detector-image", "--preset", "o-minus", "--field", "423eV/m", "--n", 15,
        "--format", "json", "-o", "di-evm.json", outdir=True)
    add("density-profile", "--preset", "rb-atom-laser", "--width", "400nm", "--z", "700um",
        "--nu", "0.0025MHz", "--n", 21, "-o", "dp-nm-um-mhz.csv", outdir=True)
    add("atom-laser", "--time", "20000000ns", "--n", 21, "-o", "al-ns.csv", outdir=True)
    add("atom-laser", "--time", "20000us", "--omega", "0.105585kHz", "--n", 21,
        "-o", "al-us-khz.csv", outdir=True)
    add("atom-laser", "--time", "0.02s", "--n", 21, "-o", "al-s.csv", outdir=True)
    # overlay models of both preset kinds, each the main output's own function
    overlays = (_OV_HZ, _OV_J, _OV_BOM)
    add("total-current", "--preset", "rb-atom-laser", "--n", 21, "--overlay", "ov-hz.csv",
        "-o", "ov-rb.csv", inputs=overlays, outdir=True)
    add("total-current", "--preset", "s-minus", "--n", 21, "--overlay", "ov-j.csv",
        "-o", "ov-s.csv", inputs=overlays, outdir=True)
    add("atom-laser", "--n", 21, "--overlay", "ov-hz.csv", "-o", "ov-al.csv",
        inputs=overlays, outdir=True)
    add("atom-laser", "--n", 21, "--flip-detuning", "--overlay", "ov-hz.csv",
        "-o", "ov-al-flip.csv", inputs=overlays, outdir=True)
    add("atom-laser", "--n", 21, "--overlay", "ov-bom.csv", "-o", "ov-al-bom.csv",
        inputs=overlays, outdir=True)
    # every subcommand and preset at default sizes; n = 1 and odd n: the
    # quadrant of detector_image unfolded by the writers
    for p in PRESETS:
        add("total-current", "--preset", p, "-o", f"tc-{p}.csv")
        add("density-profile", "--preset", p, "-o", f"dp-{p}.csv")
        add("detector-image", "--preset", p, "-o", f"di-{p}.pgm")
    for n in (1, 7):
        add("detector-image", "--preset", "o-minus", "--n", n, "-o", f"di-o-minus-{n}.pgm")
    add("atom-laser", "-o", "al.csv")
    add("transition", "-o", "tr.csv")
    # both benchmark workloads
    for workload in WORKLOADS:
        for seed in SEEDS:
            for inv in invocations(workload, seed):
                add(*inv.argv("out"))
    # images: JSON at small and published sizes, PGM at odd sizes
    for p in PRESETS:
        for n in (1, 2, 7, 8, 1024):
            add("detector-image", "--preset", p, "--n", n, "--format", "json",
                "-o", f"di-{p}-{n}.json")
        add("detector-image", "--preset", p, "--n", 333, "-o", f"di-{p}-333.pgm")
    add("detector-image", "--preset", "o-minus", "--n", 2048, "--format", "json",
        "-o", "di-o-minus-2048.json")
    add("detector-image", "--preset", "s-minus", "--n", 513, "-o", "di-s-minus-513.pgm")
    # every scan as JSON
    for p in PRESETS:
        add("total-current", "--preset", p, "--format", "json", "-o", f"tc-{p}.json")
        add("density-profile", "--preset", p, "--format", "json", "-o", f"dp-{p}.json")
    add("atom-laser", "--format", "json", "-o", "al.json")
    add("transition", "--format", "json", "-o", "tr.json")
    # flags from a config file; help; usage errors (a bare number, a config
    # key of no flag, a config that is no JSON object, a preset flag the
    # preset has no field for) and rejected inputs (no pixels, more points
    # or pixels than an array holds)
    add("total-current", "--config", "cfg.json", "-o", "cfg.csv",
        inputs=[("cfg.json", b'{"preset": "rb-atom-laser", "n": 17}')])
    add("--help")
    add("detector-image", "--help")
    add("total-current", "--emin", "5", "-o", "bare.csv", exit=2)
    add("total-current", "--config", "bogus.json", "-o", "bogus.csv",
        inputs=[("bogus.json", b'{"bogus": false}')], exit=2)
    add("total-current", "--config", "list.json", "-o", "list.csv",
        inputs=[("list.json", b'["--n", "17"]')], exit=2)
    add("total-current", "--preset", "s-minus", "--width", "1um", "-o", "width.csv", exit=2)
    add("detector-image", "--n", 0, "-o", "empty.pgm", exit=1)
    add("total-current", "--n", 10**20, "-o", "huge.csv", exit=1)
    add("detector-image", "--n", 2 * 10**9, "-o", "huge.pgm", exit=1)
    return list(dict.fromkeys(out))


def run(tree: Path, call: Call) -> dict:
    """What one invocation gives on one tree."""
    src = str(tree / "src")
    env = {k: v for k, v in os.environ.items() if k != "AIRYBEAM_OUTDIR"}
    env["PYTHONPATH"] = src
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        cwd, modules = Path(tmp, "cwd"), Path(tmp, "modules")
        cwd.mkdir()
        for name, data in call.inputs:
            (cwd / name).write_bytes(data)
        if call.outdir:
            (cwd / "out").mkdir()
            env["AIRYBEAM_OUTDIR"] = "out"
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", _LAUNCHER,
                str(modules), *call.argv]
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = f"timeout after {TIMEOUT_S} s", exc.stdout, exc.stderr
        inputs = {name for name, _ in call.inputs}
        files = {str(p.relative_to(cwd)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(cwd.rglob("*"))
                 if p.is_file() and str(p.relative_to(cwd)) not in inputs}
        loaded = modules.read_text() if modules.exists() else None
    text = {name: (raw or b"").replace(src.encode(), b"<src>").decode(errors="replace")
            for name, raw in (("stdout", stdout), ("stderr", stderr))}
    return {"exit code": code, **text, "modules loaded": loaded, "files": files}


def faults(call: Call, record: dict) -> list[str]:
    """Each way in which one tree's record of an invocation fails it on its
    own: an exit code other than the expected one, or a traceback on stderr."""
    out = []
    if record["exit code"] != call.exit:
        out.append(f"exit code {record['exit code']}, expected {call.exit}")
    if "Traceback (most recent call last)" in record["stderr"]:
        out.append("traceback on stderr:\n    "
                   + "\n    ".join(record["stderr"].splitlines()[-3:]))
    return out


def differences(old: dict, new: dict) -> list[str]:
    """Each way in which two records of one invocation differ."""
    out = []
    for key in ("exit code", "modules loaded"):
        if old[key] != new[key]:
            out.append(f"{key}: {old[key]} -> {new[key]}")
    for key in ("stdout", "stderr"):
        if old[key] != new[key]:
            diff = difflib.unified_diff(old[key].splitlines(), new[key].splitlines(),
                                        "old", "new", lineterm="", n=0)
            out.append(f"{key}:\n    " + "\n    ".join(list(diff)[:12]))
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name, "missing"), new["files"].get(name, "missing")
        if a != b:
            out.append(f"file {name}: sha256 {a[:16]} -> {b[:16]}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/parity.py OLD NEW", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "airybeam" / "cli.py").is_file():
            print(f"parity: {tree} has no src/airybeam/cli.py", file=sys.stderr)
            return 2
    todo = calls()
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = list(pool.map(lambda c: [run(t, c) for t in trees], todo))
    bad = 0
    for call, (old, new) in zip(todo, records):
        found = ([f"FAIL {call}: {line}" for line in faults(call, new)]
                 + [f"DIFF {call}: {line}" for line in differences(old, new)])
        bad += bool(found)
        for line in found:
            print(line)
    files = sum(len(old["files"]) for old, _ in records)
    print(f"parity: {len(todo)} invocations, {files} files written by OLD: "
          + (f"{bad} invocation(s) fail or differ" if bad
             else "no failure, no difference"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
