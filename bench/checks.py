"""Correctness checks of fracperc's outputs, by routes apart from the code under test.

Each check returns a list of problems; an empty list means it passed.
Monte Carlo means are compared with exact expectations through a Student t
bound sized for the number of rows, so that a correct program fails a run
with probability at most ``ALPHA``. Everything else is exact up to float
rounding: properties the method must have (areas of F and C add up to the
unit square, coupled grids are nested in p) and recounts done here (a
breadth-first search over living cells, face counts, p^n).
"""

from __future__ import annotations

import csv
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.stats import t as student_t

#: Chance per run that a correct program fails one of the mean checks.
ALPHA = 1e-6
#: Float rounding allowed on quantities that are exact per replicate.
ROUNDING = 1e-12

_K = {"V0": 0, "V1": 1, "V2": 2}


def read_rows(path) -> list[dict]:
    """simulation.csv rows with the numeric columns parsed."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["p"] = Fraction(repr(float(row["p"])))
        row["n"] = int(row["n"])
        row["count"] = int(row["count"])
        row["mean"] = float(row["mean"])
        row["stderr"] = float(row["stderr"])
    return rows


def z_limit(rows: int, samples: int) -> float:
    """Two-sided t bound over ``rows`` means of ``samples`` replicates each."""
    return float(student_t.ppf(1 - ALPHA / (2 * rows), samples - 1))


def _z(mean: float, exact, stderr: float) -> float:
    gap = abs(mean - float(exact))
    if stderr > 0:
        return gap / stderr
    return 0.0 if gap == 0 else float("inf")


def check_minkowski_rows(rows: list[dict], M: int, samples: int, ev) -> list[str]:
    """Counts, t bounds against ``ev`` (exact, in Fraction arithmetic), and
    for the area rows also against p^n and 1 - p^n computed here."""
    mink = [r for r in rows if r["functional"] in _K]
    limit = z_limit(len(mink), samples)
    problems = []
    for row in rows:
        if row["count"] != samples:
            problems.append(f"{_tag(row)}: count {row['count']} != {samples}")
    for row in mink:
        p, n, target = row["p"], row["n"], row["target"]
        exact = ev(M, p, n, _K[row["functional"]], target)
        references = [("ev", exact)]
        if row["functional"] == "V2":
            references.append(("p^n", p**n if target == "F" else 1 - p**n))
        for name, value in references:
            z = _z(row["mean"], value, row["stderr"])
            if z > limit:
                problems.append(f"{_tag(row)}: |z| = {z:.2f} > {limit:.2f} against {name}")
    return problems


def check_sweep_properties(rows: list[dict]) -> list[str]:
    """Area of F plus area of C is 1, and the area of F rises with p."""
    area = {}
    for row in rows:
        if row["functional"] == "V2":
            area[(row["p"], row["target"])] = row["mean"]
    problems = []
    grid = sorted({p for p, _ in area})
    for p in grid:
        total = area[(p, "F")] + area[(p, "C")]
        if abs(total - 1) > ROUNDING:
            problems.append(f"p={float(p)}: mean V2(F) + mean V2(C) = {total!r}")
    for lo, hi in zip(grid, grid[1:]):
        if area[(hi, "F")] < area[(lo, "F")] - ROUNDING:
            problems.append(f"mean V2(F) falls from p={float(lo)} to p={float(hi)}")
    return problems


def components_bfs(occ: np.ndarray) -> tuple[int, bool, bool]:
    """Breadth-first search over the living cells of a lattice, 8-connected.

    Returns the number of components and whether one of them touches both
    the left and right columns (spans x) or the top and bottom rows (spans y).
    """
    H, W = occ.shape
    todo = bytearray(np.ascontiguousarray(occ, dtype=np.uint8).tobytes())
    components = 0
    spans_x = spans_y = False
    for start in np.flatnonzero(occ).tolist():
        if not todo[start]:
            continue
        todo[start] = 0
        components += 1
        left = right = top = bottom = False
        queue = deque((start,))
        while queue:
            cell = queue.popleft()
            r, c = divmod(cell, W)
            left |= c == 0
            right |= c == W - 1
            top |= r == 0
            bottom |= r == H - 1
            for rr in (r - 1, r, r + 1):
                if rr < 0 or rr >= H:
                    continue
                for cc in (c - 1, c, c + 1):
                    if 0 <= cc < W:
                        j = rr * W + cc
                        if todo[j]:
                            todo[j] = 0
                            queue.append(j)
        spans_x |= left and right
        spans_y |= top and bottom
    return components, spans_x, spans_y


def check_deep_replicates(rows, draw, samples: int, labelled: int, label) -> list[str]:
    """Spanning fractions and areas against the replicates ``draw(i)`` redrawn
    and recounted here; component counts of the first ``labelled`` against
    ``label``."""
    problems = []
    spans_x = spans_y = 0
    area = 0.0
    for i in range(samples):
        grid = draw(i)
        components, sx, sy = components_bfs(grid.occupancy)
        spans_x += sx
        spans_y += sy
        area += np.count_nonzero(grid.occupancy) / grid.occupancy.size
        if i < labelled:
            lab = label(grid)
            got = (lab.component_count, lab.spans_x, lab.spans_y)
            if got != (components, sx, sy):
                problems.append(
                    f"replicate {i}: label() gives (components, spans_x, spans_y) = {got}, "
                    f"the search gives {(components, sx, sy)}"
                )
    expected = {
        ("span_x", "F"): spans_x / samples,
        ("span_y", "F"): spans_y / samples,
        ("V2", "F"): area / samples,
        ("V2", "C"): 1 - area / samples,
    }
    for row in rows:
        key = (row["functional"], row["target"])
        if key in expected and abs(row["mean"] - expected[key]) > ROUNDING:
            problems.append(f"{_tag(row)}: mean {row['mean']!r} != recount {expected[key]!r}")
    return problems


def check_verify_report(report: dict, comparisons: dict) -> list[str]:
    """Every group passed and the oracle groups made the expected comparisons."""
    problems = []
    groups = {g["name"]: g for g in report.get("groups", ())}
    if not report.get("passed") or not groups:
        problems.append("verify report did not pass")
    for group in groups.values():
        if not group["passed"]:
            problems.append(f"group {group['name']} failed (worst {group['worst_residual']})")
    for name, count in comparisons.items():
        got = groups.get(name, {}).get("details", {}).get("comparisons")
        if got != count:
            problems.append(f"group {name}: {got} comparisons, expected {count}")
    return problems


def _tag(row) -> str:
    return f"p={float(row['p'])} {row['functional']}({row['target']})"
