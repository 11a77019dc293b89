import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import airybeam
from airybeam.cli import main
from airybeam.output import RasterImage, ScanResult, write_csv, write_pgm


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


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the quadrature paths need scipy.integrate; start-up skips it
    env = dict(os.environ, PYTHONPATH=str(Path(airybeam.__file__).parents[1]))
    code = ("import sys, airybeam.cli; "
            "sys.exit(3 if 'scipy.integrate' in sys.modules else 0)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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


def test_overlay_emits_data_and_model_files(tmp_path):
    overlay = tmp_path / "meas.csv"
    overlay.write_text("# measured\n2000,0.99\n-1000,0.9\n500,0.97\n")
    rc = main(["atom-laser", "--n", "21", "--numin", "-3kHz", "--numax", "3kHz",
               "--overlay", str(overlay), "-o", str(tmp_path / "dep.csv")])
    assert rc == 0
    xs_d, ys_d, _ = read_csv(tmp_path / "dep_overlay_data.csv")
    xs_m, ys_m, _ = read_csv(tmp_path / "dep_overlay_model.csv")
    assert_allclose(xs_d, [-1000.0, 500.0, 2000.0], rtol=0)   # sorted echo
    assert_allclose(xs_m, xs_d, rtol=0)
    assert np.all((ys_m > 0) & (ys_m <= 1))


def test_atom_laser_reports_both_peak_conventions(tmp_path, capsys):
    rc = main(["atom-laser", "--n", "21", "--numin", "-3kHz", "--numax", "3kHz",
               "-o", str(tmp_path / "d.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact-current peak" in out and "slicing peak" in out


def test_validate_subcommand_runs():
    assert main(["validate", "--suite", "sum-rule"]) == 0
