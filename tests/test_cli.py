import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import airybeam
from airybeam import cli, scenarios, validation
from airybeam.cli import main
from airybeam.errors import DomainError
from airybeam.output import RasterImage, ScanResult, write_csv, write_json, write_pgm
from airybeam.scenarios import (AtomLaserPreset, detector_image, lateral_profile, o_minus,
                                rb_atom_laser)


def read_csv(path):
    xs, ys, meta = [], [], {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if " = " in line:
                    key, val = line[2:].split(" = ", 1)
                    meta[key] = val
                continue
            a, b = line.split(",")
            xs.append(float(a))
            ys.append(float(b))
    return np.array(xs), np.array(ys), meta


def read_record(path):
    """The meta a written file carries: its CSV header, its JSON ``meta``,
    or for a PGM the ``meta`` of its sidecar."""
    data = Path(path).read_bytes()
    if data.startswith(b"P5"):
        return json.loads(Path(f"{path}.meta.json").read_text())["meta"]
    if data.startswith(b"#"):
        return read_csv(path)[2]
    return json.loads(data)["meta"]


def test_total_current_run_and_roundtrip(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["total-current", "--preset", "s-minus", "--emin", "-50ueV",
               "--emax", "300ueV", "--n", "50", "-o", str(out)])
    assert rc == 0
    xs, ys, meta = read_csv(out)
    assert xs.size == 50 and np.all(np.diff(xs) > 0) and np.all(ys > 0)
    assert "beta" in meta and "species" in meta
    # 17 significant digits round-trip bit-exactly
    raw = out.read_text().splitlines()
    data = [l for l in raw if not l.startswith("#")]
    for line in data[:5]:
        a, b = line.split(",")
        assert format(float(a), ".17g") == a
        assert format(float(b), ".17g") == b


def test_byte_identical_reruns(tmp_path):
    args = ["total-current", "--preset", "s-minus", "--n", "40",
            "--emin", "-20ueV", "--emax", "250ueV"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(f1)]) == 0
    assert main(args + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_threads_flag_removed(tmp_path):
    # grids are evaluated as whole arrays; there is no thread pool to size
    with pytest.raises(SystemExit) as exc:
        main(["total-current", "--preset", "s-minus", "--n", "10",
              "--threads", "2", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # every integral in the package (the sum rule, the flux suite and the
    # Green-function oracle) uses airybeam.quadrature, never scipy.integrate
    env = dict(os.environ, PYTHONPATH=str(Path(airybeam.__file__).parents[1]))
    code = ("import sys, airybeam.cli; "
            "sys.exit(3 if 'scipy.integrate' in sys.modules else 0)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    out = str(tmp_path / "x.csv")
    code = ("import sys; from airybeam.cli import main; rc = main(sys.argv[1:]); "
            "sys.exit(3 if 'scipy.integrate' in sys.modules else rc)")
    for argv in (["total-current", "--preset", "rb-atom-laser", "--n", "50", "-o", out],
                 ["transition", "--widths", "0.4um", "--n", "50", "-o", out],
                 ["validate", "--suite", "sum-rule"],
                 ["validate", "--suite", "flux"],
                 ["validate", "--suite", "oracle"]):
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, (argv, run.returncode, run.stderr)


def test_no_scipy_module_loads(tmp_path):
    # scipy is a test dependency only: the import, --version and every
    # computing path leave no scipy module in sys.modules
    env = dict(os.environ, PYTHONPATH=str(Path(airybeam.__file__).parents[1]))
    code = ("import sys\n"
            "from airybeam.cli import main\n"
            "try:\n"
            "    rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(*loaded, file=sys.stderr)\n"
            "sys.exit(3 if loaded else rc)\n")
    out = str(tmp_path / "x.pgm")
    for argv in ([], ["--version"], ["validate", "--suite", "all"],
                 *(["detector-image", "--preset", p, "--n", "8", "-o", out]
                   for p in ("s-minus", "o-minus", "rb-atom-laser"))):
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, (argv, run.returncode, run.stderr)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, as Linux reports it")
def test_detector_image_2048_peak_rss(tmp_path):
    # a launcher importing only os runs the CLI: a child inherits the
    # high-water RSS of the process that forks it, and pytest's is large.
    # The raster is held as one 1024 x 1024 quadrant, never as 2048 x 2048
    env = dict(os.environ, PYTHONPATH=str(Path(airybeam.__file__).parents[1]))
    launcher = ("import os, sys\n"
                "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],"
                " os.environ)\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    argv = ["-m", "airybeam.cli", "detector-image", "--preset", "o-minus",
            "--n", "2048", "-o", str(tmp_path / "o.pgm")]
    run = subprocess.run([sys.executable, "-c", launcher, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, run.stdout.splitlines()[-1].split())
    assert code == 0, run.stderr
    assert maxrss_kib / 1024.0 < 60.0


def test_detector_image_pgm(tmp_path):
    out = tmp_path / "rings.pgm"
    rc = main(["detector-image", "--preset", "o-minus", "--n", "64",
               "-o", str(out)])
    assert rc == 0
    blob = out.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"64 64"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"65535" and len(pixels) == 64 * 64 * 2
    side = json.loads((tmp_path / "rings.pgm.meta.json").read_text())
    assert side["width"] == 64 and side["normalization_peak"] > 0
    # determinism of the binary raster too
    out2 = tmp_path / "rings2.pgm"
    main(["detector-image", "--preset", "o-minus", "--n", "64", "-o", str(out2)])
    assert out2.read_bytes() == blob


def test_pgm_zero_image_guard(tmp_path):
    img = RasterImage(np.zeros((8, 8)), half_width=1e-3)
    write_pgm(img, tmp_path / "zero.pgm")
    blob = (tmp_path / "zero.pgm").read_bytes()
    assert blob.endswith(b"\x00" * 128)
    side = json.loads((tmp_path / "zero.pgm.meta.json").read_text())
    assert side["normalization_peak"] == 0.0


@pytest.mark.parametrize("height", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
def test_pgm_body_equals_whole_image_quantization(tmp_path, height, transposed):
    # row blocks of the writer against one quantization of the whole image
    rng = np.random.default_rng(height)
    p = rng.random((5, height)).T if transposed else rng.random((height, 5))
    img = RasterImage(p, half_width=1e-3)
    write_pgm(img, tmp_path / "img.pgm")
    blob = (tmp_path / "img.pgm").read_bytes()
    body = np.rint(p / img.peak * 65535).astype(">u2").tobytes()
    assert blob == f"P5\n5 {height}\n65535\n".encode("ascii") + body


def test_pgm_subnormal_peak(tmp_path):
    # 65535 / 5e-310 overflows: the peak pixel still reads full scale
    img = RasterImage(np.array([[0.0, 2.5e-310], [5e-310, 1e-320]]), half_width=1e-3)
    write_pgm(img, tmp_path / "faint.pgm")
    samples = np.frombuffer((tmp_path / "faint.pgm").read_bytes()[-8:], dtype=">u2")
    assert samples.tolist() == [0, 32768, 65535, 0]


def test_image_rings_match_profile_csv(tmp_path):
    # cross-format consistency: ring radii from the PGM equal those of the
    # 1-D profile CSV within one pixel
    n = 512
    rc = main(["detector-image", "--preset", "o-minus", "--n", str(n),
               "-o", str(tmp_path / "img.pgm")])
    assert rc == 0
    side = json.loads((tmp_path / "img.pgm.meta.json").read_text())
    half = side["half_width_m"]
    rc = main(["density-profile", "--preset", "o-minus", "--half-width",
               f"{half * 1e3}mm", "--n", str(n), "-o", str(tmp_path / "prof.csv")])
    assert rc == 0
    blob = (tmp_path / "img.pgm").read_bytes()
    pixels = np.frombuffer(blob.split(b"\n", 3)[3], dtype=">u2").reshape(n, n)
    row = pixels[n // 2].astype(float)
    xs_img = (np.arange(n) - (n - 1) / 2) * (2 * half / n)
    xs_csv, ys_csv, _ = read_csv(tmp_path / "prof.csv")

    def maxima(xs, ys):
        keep = (ys[1:-1] > ys[:-2]) & (ys[1:-1] > ys[2:])
        return np.sort(np.abs(xs[1:-1][keep]))

    r_img = maxima(xs_img, row)
    r_csv = maxima(xs_csv, ys_csv)
    pix = 2 * half / n
    for r in r_img:
        assert np.min(np.abs(r_csv - r)) <= pix


def test_json_format(tmp_path):
    out = tmp_path / "scan.json"
    rc = main(["total-current", "--preset", "s-minus", "--n", "10",
               "--emin", "0ueV", "--emax", "100ueV", "--format", "json",
               "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["abscissa"]) == 10 and doc["meta"]["species"] == "S-"


def test_atom_laser_flip_detuning(tmp_path):
    base = ["atom-laser", "--n", "41", "--numin", "-3kHz", "--numax", "3kHz"]
    f1, f2 = tmp_path / "n.csv", tmp_path / "f.csv"
    assert main(base + ["-o", str(f1)]) == 0
    assert main(base + ["--flip-detuning", "-o", str(f2)]) == 0
    x1, y1, _ = read_csv(f1)
    x2, y2, _ = read_csv(f2)
    assert_allclose(x2, -x1[::-1], rtol=0)
    assert_allclose(y2, y1[::-1], rtol=0)


def test_transition_writes_pair_files(tmp_path):
    rc = main(["transition", "--n", "51", "--numin", "-10kHz",
               "--numax", "10kHz", "--widths", "0.4um,1um",
               "-o", str(tmp_path / "tr.csv")])
    assert rc == 0
    for tag in ("a0.4um", "a1um"):
        for kind in ("exact", "slicing"):
            assert (tmp_path / f"tr_{tag}_{kind}.csv").exists()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["total-current", "--bogus", "1", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_bare_number_rejected_for_dimensioned_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["total-current", "--emin", "5", "--emax", "300ueV",
              "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["1e-114", "2E+5", "3e7 "])
def test_bare_exponent_number_is_not_read_as_a_unit(tmp_path, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["total-current", "--emin", value, "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "needs a unit suffix (bare numbers are rejected)" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path):
    rc = main(["total-current", "--preset", "s-minus", "--n", "10",
               "--emin", "0ueV", "--emax", "10ueV",
               "-o", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 1


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 17}))
    out = tmp_path / "cfg_scan.csv"
    rc = main(["total-current", "--preset", "s-minus", "--emin", "0ueV",
               "--emax", "100ueV", "--config", str(cfg), "-o", str(out)])
    assert rc == 0
    xs, _, _ = read_csv(out)
    assert xs.size == 17


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("AIRYBEAM_OUTDIR", str(tmp_path))
    rc = main(["total-current", "--preset", "s-minus", "--n", "10",
               "--emin", "0ueV", "--emax", "50ueV", "-o", "env_scan.csv"])
    assert rc == 0
    assert (tmp_path / "env_scan.csv").exists()


def test_scan_result_validation():
    from airybeam.errors import DomainError
    with pytest.raises(DomainError):
        ScanResult(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        ScanResult(np.array([0.0, 1.0]), np.array([0.0, math.nan]))


def test_csv_writer_deterministic_bytes(tmp_path):
    res = ScanResult(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]),
                     meta={"b_key": 2.0, "a_key": 1.0})
    write_csv(res, tmp_path / "w1.csv")
    write_csv(res, tmp_path / "w2.csv")
    b = (tmp_path / "w1.csv").read_bytes()
    assert b == (tmp_path / "w2.csv").read_bytes()
    text = b.decode()
    assert text.index("a_key") < text.index("b_key")   # sorted provenance


@pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_overlay_emits_data_and_model_files(tmp_path, prefix):
    # a byte-order mark, as spreadsheets write "CSV UTF-8", is accepted
    overlay = tmp_path / "meas.csv"
    overlay.write_bytes(prefix + b"2000,0.99\n# measured\n-1000,0.9\n500,0.97\n")
    rc = main(["atom-laser", "--n", "21", "--numin", "-3kHz", "--numax", "3kHz",
               "--overlay", str(overlay), "-o", str(tmp_path / "dep.csv")])
    assert rc == 0
    xs_d, ys_d, _ = read_csv(tmp_path / "dep_overlay_data.csv")
    xs_m, ys_m, _ = read_csv(tmp_path / "dep_overlay_model.csv")
    assert_allclose(xs_d, [-1000.0, 500.0, 2000.0], rtol=0)   # sorted echo
    assert_allclose(xs_m, xs_d, rtol=0)
    assert np.all((ys_m > 0) & (ys_m <= 1))


@pytest.mark.parametrize("command, name, shown", [
    ("total-current", "données.csv", "donn\\xe9es.csv"),
    ("atom-laser", "a\nb.csv", "a\\nb.csv"),
], ids=["non-ascii", "newline"])
def test_overlay_path_escaped_in_csv_header(tmp_path, command, name, shown):
    # the overlay path enters every header; it stays one ASCII line
    overlay = tmp_path / name
    overlay.write_text("100,0.5\n200,0.4\n")
    rc = main([command, "--n", "11", "--overlay", str(overlay),
               "-o", str(tmp_path / "out.csv")])
    assert rc == 0
    for suffix in ("", "_overlay_data", "_overlay_model"):
        lines = (tmp_path / f"out{suffix}.csv").read_bytes().decode("ascii").splitlines()
        header = [line for line in lines if line.startswith("# ")]
        assert f"# arg_overlay = {tmp_path}/{shown}" in header
        for row in lines[len(header):]:
            float(row.split(",")[0])


def test_atom_laser_reports_both_peak_conventions(tmp_path, capsys):
    rc = main(["atom-laser", "--n", "21", "--numin", "-3kHz", "--numax", "3kHz",
               "-o", str(tmp_path / "d.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact-current peak" in out and "slicing peak" in out


def test_validate_subcommand_runs():
    assert main(["validate", "--suite", "sum-rule"]) == 0


def test_validate_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(validation, "flux", lambda preset, planes, name: [
        validation.Check(f"flux conservation {name} z=1 m", 1.5, 1e-3, False)])
    # the suite checks two presets, O- and Rb, one flux call each, and each
    # line names its preset
    assert main(["validate", "--suite", "flux"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] flux conservation o-minus z=1 m: ratio = 1.50000000\n"
        "[FAIL] flux conservation rb-atom-laser z=1 m: ratio = 1.50000000\n"
        "validate: 2 check(s) FAILED\n")


# ----------------------------------------------------------------------------
# one parameter path: preset flags, --config and the writers
# ----------------------------------------------------------------------------

_POINT_FLAGS = {"field", "energy", "strength2", "z", "emin", "emax"}
_RB_FLAGS = {"z", "width", "omega", "time", "n0", "nu", "numin", "numax"}
_APPLIES = {"s-minus": _POINT_FLAGS, "o-minus": _POINT_FLAGS,
            "rb-atom-laser": _RB_FLAGS}
_FLAG_VALUES = {"field": "500eV/m", "energy": "80ueV", "strength2": "2",
                "z": "2mm", "emin": "-10ueV", "emax": "200ueV", "width": "1um",
                "omega": "90Hz", "time": "10ms", "n0": "1000", "nu": "2kHz",
                "numin": "-5kHz", "numax": "5kHz"}
_ALL_PRESETS = ("s-minus", "o-minus", "rb-atom-laser")
_IMAGE_FLAGS = "energy nu z field strength2 width omega"
# subcommand: presets it takes, its preset flags, small-grid arguments
_COMMANDS = {
    "total-current": (_ALL_PRESETS, "emin emax numin numax field strength2 width omega",
                      ["--n", "6"]),
    "density-profile": (_ALL_PRESETS, _IMAGE_FLAGS, ["--n", "6"]),
    "detector-image": (_ALL_PRESETS, _IMAGE_FLAGS, ["--n", "4", "--format", "json"]),
    "atom-laser": (("rb-atom-laser",), "width omega time numin numax n0", ["--n", "6"]),
    "transition": (("rb-atom-laser",), "omega numin numax",
                   ["--n", "6", "--widths", "1um"]),
}
_CASES = [(cmd, preset, flag) for cmd, (presets, flags, _) in _COMMANDS.items()
          for preset in presets for flag in flags.split()]


def _outputs(tmp_path, stem):
    return b"".join(p.read_bytes() for p in sorted(tmp_path.glob(stem + "*")))


@pytest.mark.parametrize("command,preset,flag", _CASES)
def test_preset_flag_applies_or_exits_2(tmp_path, capsys, command, preset, flag):
    base = [command, "--preset", preset, *_COMMANDS[command][2]]
    argv = base + [f"--{flag}", _FLAG_VALUES[flag], "-o", str(tmp_path / "flag.out")]
    if flag not in _APPLIES[preset]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # the subcommand's usage line, as its other usage errors print
        assert capsys.readouterr().err.startswith(f"usage: airybeam {command} ")
        return
    assert main(argv) == 0
    assert main(base + ["-o", str(tmp_path / "base.out")]) == 0
    assert _outputs(tmp_path, "flag") != _outputs(tmp_path, "base")
    for path in tmp_path.glob("flag*"):
        assert f"arg_{flag}" in read_record(path)


def test_transition_takes_omega_from_preset(tmp_path):
    rc = main(["transition", "--n", "6", "--widths", "1um", "-o", str(tmp_path / "t.csv")])
    assert rc == 0
    _, _, meta = read_csv(tmp_path / "t_a1um_exact.csv")
    assert float(meta["coupling_rad_per_s"]) == 2.0 * math.pi * 105.585


def _main_with_config(tmp_path, cfg, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(argv + ["--config", str(path)])


def test_config_values_parse_with_units(tmp_path):
    out = tmp_path / "p.csv"
    rc = _main_with_config(tmp_path, {"width": "0.4um"},
                           ["density-profile", "--preset", "rb-atom-laser",
                            "--n", "11", "-o", str(out)])
    assert rc == 0
    assert float(read_csv(out)[2]["arg_width"]) == pytest.approx(0.4e-6, rel=1e-15)


def test_config_bare_number_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _main_with_config(tmp_path, {"width": 0.4},
                          ["density-profile", "--preset", "rb-atom-laser",
                           "--n", "11", "-o", str(tmp_path / "p.csv")])
    assert exc.value.code == 2


def test_explicit_flag_beats_config(tmp_path):
    out = tmp_path / "scan.csv"
    rc = _main_with_config(tmp_path, {"n": 17},
                           ["total-current", "--emin", "0ueV", "--emax", "100ueV",
                            "--n", "12", "-o", str(out)])
    assert rc == 0
    assert read_csv(out)[0].size == 12


def test_config_switch_matches_flag(tmp_path):
    base = ["atom-laser", "--n", "11", "--numin", "-3kHz", "--numax", "3kHz"]
    assert main(base + ["--flip-detuning", "-o", str(tmp_path / "flag.csv")]) == 0
    assert _main_with_config(tmp_path, {"flip_detuning": True},
                             base + ["-o", str(tmp_path / "cfg.csv")]) == 0
    assert _main_with_config(tmp_path, {"flip_detuning": False},
                             base + ["-o", str(tmp_path / "off.csv")]) == 0
    x_flag, _, _ = read_csv(tmp_path / "flag.csv")
    assert_allclose(read_csv(tmp_path / "cfg.csv")[0], x_flag, rtol=0)
    assert_allclose(read_csv(tmp_path / "off.csv")[0], -x_flag[::-1], rtol=0)


@pytest.mark.parametrize("value", [False, True, 1, "1um", None, ["1um"]],
                         ids=["false", "true", "number", "string", "null", "list"])
@pytest.mark.parametrize("key", ["bogus", "flip_detuning"])
def test_config_key_of_no_flag_exits_2(tmp_path, key, value):
    # total-current has no --bogus and no --flip-detuning, whatever the value
    with pytest.raises(SystemExit) as exc:
        _main_with_config(tmp_path, {key: value},
                          ["total-current", "--n", "5", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["n", "emin", "preset"])
def test_config_false_for_a_valued_flag_exits_2(tmp_path, key, capsys):
    with pytest.raises(SystemExit) as exc:
        _main_with_config(tmp_path, {key: False},
                          ["total-current", "--n", "5", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: airybeam total-current [-h]"), err
    assert f"false for --{key}, no switch of total-current" in err


def test_config_false_switch_is_off(tmp_path):
    # the same bytes as without the key
    argv = ["atom-laser", "--n", "11"]
    assert main(argv + ["-o", str(tmp_path / "plain.csv")]) == 0
    assert _main_with_config(tmp_path, {"flip_detuning": False},
                             argv + ["-o", str(tmp_path / "off.csv")]) == 0
    assert (tmp_path / "off.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "invalid", "not-an-object"])
def test_bad_config_file_exits_2(tmp_path, content, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["total-current", "--n", "5", "--config", str(cfg),
              "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    # the subcommand's usage, as argparse's own errors for it (--n abc) print
    err = capsys.readouterr().err
    assert err.startswith("usage: airybeam total-current [-h]"), err
    assert f"airybeam total-current: error: --config {cfg}: " in err


@pytest.mark.parametrize("value", ["-1"])
def test_bad_strength2_exits_1(tmp_path, value, capsys):
    rc = main(["total-current", "--n", "5", "--strength2", value,
               "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "strength2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["total-current", "--strength2", "inf"],
    ["total-current", "--strength2", "nan"],
    ["atom-laser", "--n0", "1e999"],
    ["total-current", "--emax", "1e999ueV"],
    ["total-current", "--preset", "rb-atom-laser", "--width", "1e999um"],
    ["atom-laser", "--time", "1e999ms"],
    ["atom-laser", "--numax", "1e305MHz"],       # finite literal, product overflows
    ["total-current", "--field", "1e999eV/m"],
], ids=["strength2-inf", "strength2-nan", "n0", "energy", "length", "time",
        "frequency", "field"])
def test_non_finite_flag_exits_2(tmp_path, argv, capsys):
    # one case per flag type: bare numbers and each unit kind
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}:" in err and "not finite" in err


# float.hex of each unit kind's parse of 1.25, -3e-2 and 7 in each suffix,
# frozen from the parser that kept a dictionary per kind and a chain of
# conversions keyed by kind: the table must give the same doubles
_UNIT_VALUES = ("1.25", "-3e-2", "7")
_FROZEN_SI = {
    ("energy", "J"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6", "0x1.c000000000000p+2"),
    ("energy", "neV"): ("0x1.fbc002d06bc4bp-93", "-0x1.85f3b86eea517p-98",
                        "0x1.636ccec5183cfp-90"),
    ("energy", "ueV"): ("0x1.efd982bf893e1p-83", "-0x1.7cd0021c50d38p-88",
                        "0x1.5b1841ec79ab7p-80"),
    ("energy", "meV"): ("0x1.e43a69af0c06ap-73", "-0x1.73e3220fa6ee9p-78",
                        "0x1.52f5b060eed17p-70"),
    ("energy", "eV"): ("0x1.d8e10b34f1be8p-63", "-0x1.6b2bcf434904fp-68",
                       "0x1.4b03ee3ea9389p-60"),
    ("energy", "Hz"): ("0x1.133c76a9419a5p-110", "-0x1.a6c3459fa0286p-116",
                       "0x1.8154a62028a4dp-108"),
    ("energy", "kHz"): ("0x1.0cc90be14a10bp-100", "-0x1.9cdab1fde2677p-106",
                        "0x1.784caa3b67b0fp-98"),
    ("energy", "MHz"): ("0x1.067c559a02545p-90", "-0x1.932d91d1ef190p-96",
                        "0x1.6f7ade3e0342dp-88"),
    ("length", "nm"): ("0x1.5798ee2308c3ap-30", "-0x1.07e1fe91b0b70p-35",
                       "0x1.e1094d643f785p-28"),
    ("length", "um"): ("0x1.4f8b588e368f0p-20", "-0x1.01b2b29a4692bp-25",
                       "0x1.d5c31593e5fb7p-18"),
    ("length", "mm"): ("0x1.47ae147ae147bp-10", "-0x1.f75104d551d69p-16",
                       "0x1.cac083126e979p-8"),
    ("length", "cm"): ("0x1.999999999999ap-7", "-0x1.3a92a30553261p-12", "0x1.1eb851eb851ecp-4"),
    ("length", "m"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6", "0x1.c000000000000p+2"),
    ("time", "ns"): ("0x1.5798ee2308c3ap-30", "-0x1.07e1fe91b0b70p-35", "0x1.e1094d643f785p-28"),
    ("time", "us"): ("0x1.4f8b588e368f0p-20", "-0x1.01b2b29a4692bp-25", "0x1.d5c31593e5fb7p-18"),
    ("time", "ms"): ("0x1.47ae147ae147bp-10", "-0x1.f75104d551d69p-16", "0x1.cac083126e979p-8"),
    ("time", "s"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6", "0x1.c000000000000p+2"),
    ("frequency", "Hz"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6",
                          "0x1.c000000000000p+2"),
    ("frequency", "kHz"): ("0x1.3880000000000p+10", "-0x1.e000000000000p+4",
                           "0x1.b580000000000p+12"),
    ("frequency", "MHz"): ("0x1.312d000000000p+20", "-0x1.d4c0000000000p+14",
                           "0x1.ab3f000000000p+22"),
    ("field", "eV/m"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6", "0x1.c000000000000p+2"),
    ("field", "V/m"): ("0x1.4000000000000p+0", "-0x1.eb851eb851eb8p-6", "0x1.c000000000000p+2"),
}
_UNIT_PAIRS = sorted(set(_FROZEN_SI)
                     | {(kind, sfx) for kind, factors in cli._UNITS.items() for sfx in factors})


@pytest.mark.parametrize("kind,suffix", _UNIT_PAIRS, ids=["-".join(p) for p in _UNIT_PAIRS])
def test_unit_conversions_are_frozen(kind, suffix):
    # a pair in only one of the table and the frozen values fails here
    assert suffix in cli._UNITS[kind]
    got = tuple(getattr(cli, f"_{kind}")(v + suffix).hex() for v in _UNIT_VALUES)
    assert got == _FROZEN_SI[kind, suffix]


@pytest.mark.parametrize("kind", list(cli._UNITS))
def test_unit_error_messages_keep_their_words(kind):
    sfx = next(iter(cli._UNITS[kind]))
    for text, words in (
            ("5", f"{kind} value '5' needs a unit suffix (bare numbers are rejected)"),
            ("3furlongs", f"unknown {kind} unit 'furlongs' in '3furlongs'"),
            (f"1e999{sfx}", f"{kind} value '1e999{sfx}' is not finite")):
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            cli._unit(kind)(text)
        assert str(exc.value) == words


def test_readme_unit_table_lists_the_units():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("| Unit kind |", 1)[1]
    rows = itertools.takewhile(lambda line: line.startswith("|"), section.splitlines()[2:])
    table = {}
    for row in rows:
        kind, sfx, flags = row.strip("|").split("|")
        table[kind.strip()] = (re.findall(r"`([^`]+)`", sfx),
                               set(re.findall(r"`([^`]+)`", flags)))
    types = {getattr(cli, f"_{kind}"): kind for kind in cli._UNITS}
    flags = {kind: set() for kind in cli._UNITS}
    for sp in cli.build_parser().commands.values():
        for action in sp._actions:
            if action.type in types:
                flags[types[action.type]].update(action.option_strings)
    assert table == {kind: (list(factors), flags[kind])
                     for kind, factors in cli._UNITS.items()}


def test_negative_image_half_width_exits_1(tmp_path, capsys):
    rc = main(["detector-image", "--n", "8", "--half-width", "-1mm",
               "-o", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "half_width" in capsys.readouterr().err
    with pytest.raises(DomainError):
        detector_image(o_minus(), half_width=math.nan, resolution=8)


def test_wide_condensate_image_exits_0(tmp_path):
    # a 50 um Rb source puts the Airy argument near 2e8 on the detector, far
    # beyond airy.X_SCALED_MAX; j_z cancels its exponents in closed form
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["detector-image", "--preset", "rb-atom-laser", "--width", "50um",
                   "--n", "8", "--format", "json", "-o", str(out)])
    assert rc == 0
    pixels = np.array(json.loads(out.read_text())["pixels"])
    assert np.all(np.isfinite(pixels)) and pixels.max() > 0.0


@pytest.mark.parametrize("rows, line", [
    (b"1000", 2), (b"1000,abc", 2), (b"nan,3", 2), (b"inf,3", 2), (b"1,2\n1,3", 3),
    (b"1,2\n3,4 # \xff", 3), (b"1,2,3", 2),
], ids=["one-column", "non-numeric", "nan", "inf", "repeated-abscissa",
        "not-utf8", "three-columns"])
def test_malformed_overlay_row_exits_1(tmp_path, rows, line, capsys):
    overlay = tmp_path / "meas.csv"
    overlay.write_bytes(b"# measured\n" + rows + b"\n")
    rc = main(["atom-laser", "--n", "11", "--overlay", str(overlay),
               "-o", str(tmp_path / "dep.csv")])
    assert rc == 1
    assert f"{overlay}:{line}:" in capsys.readouterr().err


def test_empty_widths_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["transition", "--widths", "", "-o", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


def test_write_json_raster_image_bytes(tmp_path):
    img = RasterImage(np.array([[0.0, 1.5], [2.25, 1e-300], [0.1, 7.0]]),
                      half_width=1.25e-3, meta={"z_m": 0.5, "beta": 2.0})
    write_json(img, tmp_path / "img.json")
    doc = {"pixels": img.pixels.tolist(), "half_width_m": img.half_width,
           "meta": {**img.meta, "airybeam": airybeam.__version__}}
    assert (tmp_path / "img.json").read_bytes() == \
        (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")


def test_overlay_without_data_rows_exits_1(tmp_path, capsys):
    overlay = tmp_path / "empty.csv"
    overlay.write_text("# only comments\n\n")
    rc = main(["atom-laser", "--n", "11", "--overlay", str(overlay),
               "-o", str(tmp_path / "dep.csv")])
    assert rc == 1
    assert f"{overlay}: no data rows" in capsys.readouterr().err
    assert not (tmp_path / "dep_overlay_data.csv").exists()


@pytest.mark.parametrize("widths", ["1um,1um", "1um,0.4um,1000nm"])
def test_duplicate_widths_exit_2(tmp_path, widths, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transition", "--n", "6", "--widths", widths,
              "-o", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "duplicate width" in capsys.readouterr().err


def test_negative_profile_half_width_exits_1(tmp_path, capsys):
    rc = main(["density-profile", "--n", "8", "--half-width", "-1mm",
               "-o", str(tmp_path / "p.csv")])
    assert rc == 1
    assert "half_width must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


# ----------------------------------------------------------------------------
# one code path per observable: each overlay model is the main output's
# function, and huge geometries fail before any NumPy warning
# ----------------------------------------------------------------------------

def _overlay_at_main_abscissae(tmp_path, argv):
    """Run ``argv``, then rerun it with an overlay at every other abscissa
    of its output; the main rows at those abscissae and the model rows."""
    assert main(argv + ["-o", str(tmp_path / "main.csv")]) == 0
    xs, ys, _ = read_csv(tmp_path / "main.csv")
    overlay = tmp_path / "meas.csv"
    overlay.write_text("".join(f"{x:.17g},1\n" for x in xs[::2]))
    assert main(argv + ["--overlay", str(overlay), "-o", str(tmp_path / "ov.csv")]) == 0
    xs_m, ys_m, _ = read_csv(tmp_path / "ov_overlay_model.csv")
    assert np.array_equal(xs_m, xs[::2])
    return ys[::2], ys_m


@pytest.mark.parametrize("argv", [
    ["total-current", "--preset", "rb-atom-laser", "--n", "21"],
    ["total-current", "--preset", "s-minus", "--n", "21"],
    ["atom-laser", "--n", "21"],
    ["atom-laser", "--n", "21", "--flip-detuning"],
], ids=["total-current-rb", "total-current-s-minus", "atom-laser", "atom-laser-flipped"])
def test_overlay_model_is_main_output(tmp_path, argv):
    main_rows, model_rows = _overlay_at_main_abscissae(tmp_path, argv)
    assert np.array_equal(model_rows, main_rows)


def test_beam_profile_family_is_density_profile(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["density-profile", "--preset", "rb-atom-laser", "--width", "0.4um",
                 "--half-width", "90um", "--n", "41", "-o", str(out)]) == 0
    xs, ys, meta = read_csv(out)
    preset = rb_atom_laser()
    assert float(meta["z_m"]) == preset.detector_z
    profile = lateral_profile(dataclasses.replace(preset, width=float(meta["width_m"])),
                              float(meta["half_width_m"]), 41)
    assert np.array_equal(profile.abscissa, xs)
    assert np.array_equal(profile.values, ys)


@pytest.mark.parametrize("z", ["1e160m", "1e200m", "1e300m"])
@pytest.mark.parametrize("preset", ["o-minus", "rb-atom-laser"])
@pytest.mark.parametrize("command", ["density-profile", "detector-image"])
def test_huge_geometry_exits_1_without_warnings(tmp_path, command, preset, z, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--preset", preset, "--z", z, "--n", "8",
                   "-o", str(tmp_path / "x.out")])
    assert rc == 1
    assert "scaled distance" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv, fields", [
    (["total-current", "--emin", "5ueV", "--emax", "5ueV"], "scan_min must be below scan_max"),
    (["total-current", "--emin", "6ueV", "--emax", "5ueV"], "scan_min must be below scan_max"),
    (["atom-laser", "--numin", "2kHz", "--numax", "2kHz"],
     "detuning_min must be below detuning_max"),
    (["transition", "--numin", "3kHz", "--numax", "-3kHz"],
     "detuning_min must be below detuning_max"),
])
def test_inverted_scan_window_exits_1(tmp_path, argv, fields, capsys):
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 1
    assert fields in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "total-current --preset rb-atom-laser --width 20um --n 50",
    "transition --widths 20um --n 21",
    pytest.param("total-current --preset rb-atom-laser --numin 100kHz --numax 101kHz --n 21",
                 id="total-current-off-window"),
    pytest.param("transition --numin 20kHz --numax 30kHz --n 21", id="transition-off-window"),
    # alpha = 0.003 to 0.08: J's emission tail reaches |eps| ~ 1/(4 alpha^2)
    pytest.param("total-current --preset rb-atom-laser --width 2nm --n 50",
                 id="total-current-narrow"),
    pytest.param("transition --widths 5nm,50nm --n 21", id="transition-narrow"),
], ids=lambda argv: argv.split()[0])
def test_wide_condensate_meets_sum_rule(tmp_path, argv, capsys):
    # alpha = 33 at 20 um: the exact J's alpha^6 exponents cancel analytically
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split() + ["-o", str(tmp_path / "x.csv")]) == 0
    ratios = re.search(r"sum-rule (?:ratio|area ratios =) ([0-9., ]+)",
                       capsys.readouterr().out).group(1).rstrip(" ,").split(", ")
    assert ratios and all(abs(float(r) - 1.0) <= 5e-3 for r in ratios)


def test_transition_area_ratios_do_not_depend_on_the_window(tmp_path, capsys):
    # every width's area is the integral over all energies, not over the scan
    assert main(["transition", "--numin", "20kHz", "--numax", "30kHz", "--n", "21",
                 "-o", str(tmp_path / "t.csv")]) == 0
    line = capsys.readouterr().out
    ratios = re.search(r"area ratios = ([0-9., ]+) \(", line).group(1).split(", ")
    assert len(ratios) == 4
    assert all(abs(float(r) - 1.0) <= 5e-3 for r in ratios), line


@pytest.mark.parametrize("n", ["100000000000000000000", "9223372036854775807"],
                         ids=["1e20", "int64-max"])
@pytest.mark.parametrize("command", ["total-current", "density-profile", "detector-image",
                                     "atom-laser", "transition"])
def test_huge_point_count_exits_1(tmp_path, command, n, capsys):
    # more points than one array can hold: a DomainError naming the count,
    # a refused input and not a numerical failure
    assert main([command, "--n", n, "-o", str(tmp_path / "x.out")]) == 1
    err = capsys.readouterr().err
    assert n in err and "more than one array can hold" in err
    assert "numerical failure" not in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("width", ["1e60m", "1e80m"])
@pytest.mark.parametrize("argv", [
    "total-current --preset rb-atom-laser --width {}",
    "density-profile --preset rb-atom-laser --width {}",
    "detector-image --preset rb-atom-laser --n 8 --width {}",
    "atom-laser --width {}",
    "transition --widths 1um,{}",
], ids=lambda argv: argv.split()[0])
def test_huge_source_width_exits_1_without_warnings(tmp_path, argv, width, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv.format(width).split() + ["-o", str(tmp_path / "x.out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gaussian_scaled: alpha" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


# every magnitude from 1e-300 to 1e300 a preset flag may be given, both signs
_EXTREMES = ["0"] + [f"{sign}1e{e}" for e in (300, 250, 200, 150, 100, 30,
                                               -30, -100, -150, -200, -250, -300)
                     for sign in ("", "-")]


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return False


def _written_numbers_finite(path) -> bool:
    """Whether every number of a written JSON or CSV file is finite: JSON
    values, or CSV rows and the numeric header values."""
    data = path.read_bytes()
    if not data.startswith(b"#"):
        return not _non_finite(json.loads(data))
    for line in data.decode("ascii").splitlines():
        fields = line[2:].split(" = ", 1)[1:] if line.startswith("#") else line.split(",")
        for text in fields:
            try:
                value = float(text)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


@pytest.mark.parametrize("command,preset,flag",
                         [case for case in _CASES if case[2] in _APPLIES[case[1]]])
def test_preset_flag_at_extreme_values(tmp_path, command, preset, flag, capsys):
    # exit 0, 1 or 2, with no exception or warning out of main, and on exit 0
    # only finite numbers in the files written
    unit = re.fullmatch(r"-?[0-9.]+(\D*)", _FLAG_VALUES[flag]).group(1)
    for k, value in enumerate(_EXTREMES):
        out = tmp_path / str(k)
        out.mkdir()
        argv = [command, "--preset", preset, *_COMMANDS[command][2],
                f"--{flag}", value + unit, "-o", str(out / "x.out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rc = main(argv)
            except SystemExit as exc:        # argparse's usage errors
                rc = exc.code
            except Exception as exc:
                pytest.fail(f"{' '.join(argv)}: {exc!r} escaped main")
        assert rc in (0, 1, 2), argv
        if rc == 0:
            for path in out.iterdir():
                assert _written_numbers_finite(path), (argv, path.name)
    assert "Traceback" not in capsys.readouterr().err


_LENGTH_UNITS = ("nm", "um", "mm", "cm", "m")
_KNOWN_UNITS = _LENGTH_UNITS + ("ueV", "eV", "J", "Hz", "kHz", "ms", "eV/m")
_number_text = st.one_of(st.floats(), st.floats(-1e3, 1e3), st.integers(-10**6, 10**6),
                         st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-330, 330))
                         ).map(str)
_lengths = st.builds("{}{}".format, _number_text, st.sampled_from(_LENGTH_UNITS))
# malformed unit strings: a wrong, misspelt or missing unit, or any text
_malformed = st.one_of(
    st.builds("{}{}".format, _number_text,
              st.sampled_from(_KNOWN_UNITS + ("", "furlongs", "UM", " um", "u m", "µm"))),
    st.text(max_size=8),
)


def _property_argv(data, out) -> list[str]:
    """One drawn command line: ``--n``, ``--half-width``, ``--widths`` and
    perhaps one preset flag, each unit flag well formed or malformed."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    presets, flags, _ = _COMMANDS[command]
    image = command in ("density-profile", "detector-image")
    n = data.draw(st.integers(-3, 64 if image else 200), label="n")
    argv = [command, "--preset", data.draw(st.sampled_from(presets)), "--n", str(n),
            "-o", str(out / "x.out")]
    if image:
        argv += ["--half-width", data.draw(_lengths | _malformed, label="half-width")]
    if command == "detector-image":
        argv += ["--format", "json"]
    if command == "transition":
        widths = st.lists(_lengths, min_size=1, max_size=3) | st.lists(_malformed, max_size=3)
        argv += ["--widths", ",".join(data.draw(widths, label="widths"))]
    flag = data.draw(st.none() | st.sampled_from(flags.split()), label="flag")
    if flag is not None:
        unit = re.fullmatch(r"-?[0-9.]+(\D*)", _FLAG_VALUES[flag]).group(1)
        value = st.builds("{}{}".format, _number_text, st.just(unit)) | _malformed
        argv += [f"--{flag}", data.draw(value, label=flag)]
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_numeric_flags_property(data):
    # exit 0, 1 or 2 with a message and no traceback or RuntimeWarning, and
    # on exit 0 only finite numbers in the files written
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = _property_argv(data, out)
        err = StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rc = main(argv)
            except SystemExit as exc:        # argparse's usage errors
                rc = exc.code
        err = err.getvalue()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err
        assert {0: True, 1: "airybeam: " in err, 2: "usage: airybeam" in err}[rc], err
        if rc == 0:
            for path in out.iterdir():
                assert _written_numbers_finite(path), (argv, path.name)


def test_transition_at_vanishing_width(tmp_path, capsys):
    # alpha ~ 1e-154: the slicing exponent -eps^2/(4 alpha^2) overflows to
    # -inf and J_sp is 0; alpha ~ 1e-294: alpha^2 underflows, exit 1
    argv = ["transition", "--n", "5", "-o", str(tmp_path / "t.csv"), "--widths"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["1e-160m"]) == 0
        assert main(argv + ["1e-300m"]) == 1
    assert "total_current_slicing: alpha = beta F a = 1.66e-294" in capsys.readouterr().err
    for path in tmp_path.iterdir():
        assert _written_numbers_finite(path), path.name


def test_out_of_memory_is_a_message(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape "
                          "(200000, 200000) and data type float64")
    monkeypatch.setattr(cli, "detector_image", exhausted)
    assert main(["detector-image", "--n", "200000", "-o", str(tmp_path / "x.pgm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("airybeam: out of memory: Unable to allocate 298. GiB")
    assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------------
# one provenance record: every file written names its run, and the run it
# names writes the same bytes again
# ----------------------------------------------------------------------------

# the SI unit in which the record holds each dimensioned flag
_SI_UNIT = {"energy": "J", "emin": "J", "emax": "J", "z": "m", "width": "m",
            "half_width": "m", "widths": "m", "field": "eV/m", "omega": "Hz",
            "nu": "Hz", "numin": "Hz", "numax": "Hz", "time": "s"}
# subcommand: its formats, and its flags beyond the preset flags
_REPLAY = {
    "total-current": (("csv", "json"), ["--n", "6"]),
    "density-profile": (("csv", "json"), ["--n", "6", "--half-width", "1mm"]),
    "detector-image": (("pgm", "json"), ["--n", "4", "--half-width", "1mm"]),
    "atom-laser": (("csv", "json"), ["--n", "6", "--flip-detuning"]),
    "transition": (("csv", "json"), ["--n", "6", "--widths", "0.4um,1um"]),
}
_REPLAY_CASES = [(cmd, preset, fmt) for cmd, (formats, _) in _REPLAY.items()
                 for preset in _COMMANDS[cmd][0] for fmt in formats]


def replay_argv(record) -> list[str]:
    """The command line a record names, each value given with its SI unit."""
    argv = [record["command"]]
    for key, val in sorted(record.items()):
        if not key.startswith("arg_"):
            continue
        name = key[len("arg_"):]
        flag = "--" + name.replace("_", "-")
        if name == "flip_detuning":
            argv += [flag] * (str(val) == "True")
            continue
        items = str(val).split(",") if name == "widths" else [str(val)]
        argv += [flag, ",".join(item + _SI_UNIT.get(name, "") for item in items)]
    return argv


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


@pytest.mark.parametrize("command,preset,fmt", _REPLAY_CASES)
def test_record_replays_byte_identical(tmp_path, command, preset, fmt):
    flags = [token for flag in _COMMANDS[command][1].split()
             if flag in _APPLIES[preset] for token in (f"--{flag}", _FLAG_VALUES[flag])]
    extra = _REPLAY[command][1]
    if command in ("total-current", "atom-laser"):
        overlay = tmp_path / "meas.csv"
        overlay.write_text("-1000,0.9\n2000,0.99\n" if preset == "rb-atom-laser"
                           else "1e-24,0.5\n8e-24,1\n")
        extra = extra + ["--overlay", str(overlay)]
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    assert main([command, "--preset", preset, "--format", fmt, *flags, *extra,
                 "-o", str(first / f"out.{fmt}")]) == 0
    # every file, a transition pair and overlay files included, names one run
    (argv,) = {tuple(replay_argv(read_record(path))) for path in first.iterdir()}
    assert main([*argv, "-o", str(again / f"out.{fmt}")]) == 0
    assert _digests(again) == _digests(first)


# ----------------------------------------------------------------------------
# the CLI's outputs against 30-digit mpmath: 8 seeded rows of each CSV that
# total-current, density-profile and atom-laser write at a preset's defaults,
# recomputed from the preset's SI inputs, each within its budget in
# ``_MP_OUTPUTS``, relative to the output's peak
# ----------------------------------------------------------------------------

def _mp_source(preset, energy):
    """At 30 digits: beta, beta F, the Airy energy eps (or eps~), the shift of
    zeta (0, or 2 alpha^4) and the weight w = |C|^2 (or |Lambda|^2) of the
    preset's (virtual) point source at ``energy``."""
    sys = preset.system
    force, hbar = mp.mpf(sys.force), mp.mpf(sys.hbar)
    beta = mp.cbrt(mp.mpf(sys.mass) / (4 * hbar**2 * force**2))
    eps = -2 * beta * energy
    if not isinstance(preset, AtomLaserPreset):
        return beta, beta * force, eps, 0, mp.mpf(preset.strength2)
    a = mp.mpf(preset.width)
    alpha = beta * force * a
    eps_t = eps + 4 * alpha**4
    weight = ((hbar * mp.mpf(preset.coupling))**2 * (2 * mp.sqrt(mp.pi) * a)**3
              * mp.exp(4 * alpha**2 * (eps_t - 4 * alpha**4 / 3)))
    return beta, beta * force, eps_t, 2 * alpha**4, weight


def _mp_energy(preset, x):
    """The energy (J) of a scan abscissa: E itself, or 2 pi hbar nu."""
    if isinstance(preset, AtomLaserPreset):
        return 2 * mp.pi * mp.mpf(preset.system.hbar) * mp.mpf(x)
    return mp.mpf(x)


def _mp_total_current(preset, energy):
    """J = 8 w beta (beta F)^3 / hbar [Ai'(e)^2 - e Ai(e)^2]: 2 |C|^2 m beta F
    / hbar^3 [...] for a point source, and 64 pi^(3/2) hbar Omega^2 alpha^3
    beta e^(4 alpha^2 (eps~ - 4 alpha^4/3)) [...] at eps~ for a Gaussian."""
    beta, bf, e, _, weight = _mp_source(preset, energy)
    bracket = mp.airyai(e, 1)**2 - e * mp.airyai(e)**2
    return 8 * weight * beta * bf**3 / mp.mpf(preset.system.hbar) * bracket


def _mp_current_density(preset, x):
    """j_z(x, 0, z) on the preset's plane: w m (beta F)^3 / (2 pi hbar^3) rho^-3
    {zeta Ai'(a)^2 + [zeta (zeta - e) + rho^2] Ai(a)^2}, a = e + rho - zeta,
    in the tilde variables for a Gaussian."""
    energy, z = preset.plane
    if isinstance(preset, AtomLaserPreset):
        energy = _mp_energy(preset, preset.profile_nu)
    _, bf, e, shift, weight = _mp_source(preset, mp.mpf(energy))
    xi, zeta = bf * mp.mpf(x), bf * mp.mpf(z) + shift
    rho = mp.sqrt(xi**2 + zeta**2)
    a = e + rho - zeta
    shape = (zeta * mp.airyai(a, 1)**2 + (zeta * (zeta - e) + rho**2) * mp.airyai(a)**2) / rho**3
    sys = preset.system
    return weight * mp.mpf(sys.mass) * bf**3 / (2 * mp.pi * mp.mpf(sys.hbar)**3) * shape


def _mp_remaining(preset, nu):
    """N(T) = N0 e^(-J T) at detuning ``nu``."""
    j = _mp_total_current(preset, _mp_energy(preset, nu))
    return mp.mpf(preset.atom_count) * mp.exp(-j * mp.mpf(preset.operation_time))


# each output's model and budget; the worst of all rows of the default
# outputs is 7e-15 for J, 1.6e-14 for j_z (O-, zeta ~ 5.7e6) and 1.8e-15 for N
_MP_OUTPUTS = {"total-current": (lambda p, x: _mp_total_current(p, _mp_energy(p, x)), 1e-13),
               "density-profile": (_mp_current_density, 1e-12),
               "atom-laser": (_mp_remaining, 1e-13)}


@pytest.mark.parametrize("command,preset", [
    *((command, preset) for command in ("total-current", "density-profile")
      for preset in ("s-minus", "o-minus", "rb-atom-laser")),
    ("atom-laser", "rb-atom-laser"),
])
def test_output_rows_match_mpmath(tmp_path, command, preset):
    out = tmp_path / "out.csv"
    assert main([command, "--preset", preset, "-o", str(out)]) == 0
    xs, ys, _ = read_csv(out)
    p = getattr(scenarios, preset.replace("-", "_"))()
    model, budget = _MP_OUTPUTS[command]
    for i in np.random.default_rng(20240501).choice(len(xs), 8, replace=False):
        with mp.workdps(30):
            want = float(model(p, xs[i]))
        assert abs(ys[i] - want) <= budget * ys.max(), (xs[i], ys[i], want)
