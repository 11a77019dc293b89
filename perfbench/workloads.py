"""Seeded invocation lists of the ``airybeam`` CLI, one list per workload.

A workload is a list of CLI invocations that the benchmark runs back to
back, as one round, and repeats in rounds.  The seed sets the physical
inputs (energies, planes, detunings, widths) and the order.  It does not
change how much work an invocation does: the sizes are fixed, and each
seeded range lies where the cost does not depend on the value.  Point-source
ranges are +-2% around the published energy and plane, because the cost of
a point-source grid grows with its energy (the Taylor-stepped Airy
arguments span more of the middle range): an O- image at 120 ueV costs a
quarter more than one at 80 ueV.  Source widths are below 0.8 um and
between 2.0 and 2.8 um; a width near 1 um costs a quarter as much in
``transition``.

Every workload runs ``detector-image``, whose time is a metric on every
workload, and ``total-current``, ``density-profile`` and ``validate``.  No
subcommand appears twice in a list: the time of a round is the sum of its
subcommands' median times.

Why each workload exists:

* ``photodetach-grid`` -- point-source grids at published sizes (O- rings at
  2048 px, the O- lateral profile, the S- staircase) and the flux suite,
  which calls j_z one point at a time inside ``quad``.  Almost every Airy
  argument lies in the Taylor-stepped middle range |x| < 9, so Airy
  stepping dominates the compute and the outputs are small.  It never
  calls the Green-function layer.
* ``atom-laser-export`` -- Rb Gaussian-source commands with large text
  outputs (a 1024 px JSON image, 20000-point scans), plus ``validate
  --suite all`` and ``transition``.  The grid Airy arguments sit near
  x ~ 1900 in the asymptotic branch, and writing CSV/JSON is the bulk of
  the compute.  The oracle suite is the only caller of the Green-function
  quadrature; the sum rules drive J(E) through ``quad``.  A change that
  speeds Taylor stepping but slows the asymptotic branch, the writers or
  scalar calls inside ``quad`` shows here.

There are two workloads, not more, and few invocations in a round, so that
each run can last long enough, and take enough samples of each subcommand,
for its medians to be steady on a machine whose speed drifts by a third
over tens of seconds (see ``BENCHMARK.json`` ``run_seconds``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_FILE_EXT = {
    "total-current": "csv", "density-profile": "csv", "atom-laser": "csv",
    "transition": "csv", "detector-image": "pgm",
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a subcommand (or ``--version``) and its flags."""

    command: str                 # subcommand name, or "version"
    flags: tuple[str, ...] = ()  # everything after the subcommand except -o

    def flag(self, name: str, default: str | None = None) -> str | None:
        """Value of ``--name`` in the flags, or ``default``."""
        for key, val in zip(self.flags, self.flags[1:]):
            if key == name:
                return val
        return default

    @property
    def ext(self) -> str | None:
        """Extension of the output file, or None when no file is written."""
        if self.command not in _FILE_EXT:
            return None
        return self.flag("--format", _FILE_EXT[self.command])

    def argv(self, out_stem: str) -> list[str]:
        """CLI arguments, writing the output to ``out_stem`` plus extension."""
        if self.command == "version":
            return ["--version"]
        argv = [self.command, *self.flags]
        if self.ext is not None:
            argv += ["-o", f"{out_stem}.{self.ext}"]
        return argv


def _inv(command: str, *flags) -> Invocation:
    return Invocation(command, tuple(str(f) for f in flags))


def _ueV(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}ueV"


def _widths(rng: random.Random, ranges) -> str:
    return ",".join(f"{rng.uniform(lo, hi):.3f}um" for lo, hi in ranges)


def photodetach_grid(rng: random.Random) -> list[Invocation]:
    calls = [
        _inv("detector-image", "--preset", "o-minus", "--n", 2048,
             "--energy", _ueV(rng, 98, 102), "--z", f"{rng.uniform(0.49, 0.51):.4f}m"),
        _inv("density-profile", "--preset", "o-minus", "--n", 1201,
             "--energy", _ueV(rng, 98, 102), "--z", f"{rng.uniform(0.49, 0.51):.4f}m"),
        _inv("total-current", "--preset", "s-minus", "--n", 4000,
             "--emin", _ueV(rng, -51, -49), "--emax", _ueV(rng, 294, 306)),
        # point-source j_z on the O- plane inside quad: scalar Taylor-range calls
        _inv("validate", "--suite", "flux"),
    ]
    rng.shuffle(calls)
    return calls


def atom_laser_export(rng: random.Random) -> list[Invocation]:
    nu = lambda: f"{rng.uniform(2.3, 2.7):.4f}kHz"
    z = lambda: f"{rng.uniform(0.95, 1.05):.4f}mm"
    calls = [
        _inv("detector-image", "--preset", "rb-atom-laser", "--n", 1024,
             "--nu", nu(), "--z", z(), "--format", "json"),
        _inv("total-current", "--preset", "rb-atom-laser", "--n", 20000,
             "--omega", f"{rng.uniform(95, 115):.3f}Hz", "--format", "json"),
        _inv("density-profile", "--preset", "rb-atom-laser", "--n", 20000,
             "--nu", nu(), "--z", z()),
        _inv("atom-laser", "--n", 601, "--time", f"{rng.uniform(15, 25):.2f}ms"),
        # the Green-function oracle, Rb sum rules and j_z inside quad
        _inv("validate", "--suite", "all"),
        _inv("transition", "--widths", _widths(rng, [(0.2, 0.8), (2.0, 2.8)]),
             "--format", "json"),
    ]
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "photodetach-grid": photodetach_grid,
    "atom-laser-export": atom_laser_export,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The seeded invocation list of one round of ``workload``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
