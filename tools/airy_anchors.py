"""Generate the Taylor anchor table of ``src/airybeam/airy.py``.

    python tools/airy_anchors.py

prints the ``_ANCHORS`` literal: Ai, Ai', Bi and Bi' at x = -9.5 + 0.25 k,
k = 0, ..., 70, each the double nearest to its 40-digit mpmath value.  Paste
the output over the literal in airy.py; ``tests/test_airy.py`` reruns this
script and checks that the two tables are equal.  Needs mpmath, a test
dependency; the package itself never imports it.
"""

from __future__ import annotations

import mpmath as mp

LO = -9.5
STEP = 0.25
COUNT = 71
DIGITS = 40


def anchor_rows() -> list[tuple[float, float, float, float]]:
    """(Ai, Ai', Bi, Bi') at each anchor, correctly rounded to doubles."""
    rows = []
    with mp.workdps(DIGITS):
        for k in range(COUNT):
            x = mp.mpf(LO) + k * mp.mpf(STEP)
            rows.append((float(mp.airyai(x)), float(mp.airyai(x, derivative=1)),
                         float(mp.airybi(x)), float(mp.airybi(x, derivative=1))))
    return rows


def literal(rows) -> str:
    """The rows as the ``_ANCHORS`` assignment of airy.py."""
    lines = ["_ANCHORS = np.array([",
             f"    # Ai, Ai', Bi, Bi' at x = {LO} + {STEP} k; "
             "generated by tools/airy_anchors.py"]
    for k, row in enumerate(rows):
        lines.append(f"    ({', '.join(repr(v) for v in row)}),  # {LO + STEP * k}")
    lines.append("])")
    return "\n".join(lines)


if __name__ == "__main__":
    print(literal(anchor_rows()))
