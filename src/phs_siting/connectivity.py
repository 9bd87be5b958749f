"""Anti-fragmentation constraints: separating planes and perimeter tour.

Separating planes force the rows (columns, and optionally diagonals) occupied
by interior cells to form a single contiguous band: for every empty slice, all
occupied slices must lie entirely on one side of it. Only the slices strictly
between the first and the last that hold an interior candidate need the rule:
no other slice has candidates on both sides, so one of its switches is free.
They are cheap but only necessary for a connected interior, hence the
escalation ladder.

The tour constraints make the active perimeter cells a single closed walk over
the 8-neighborhood, ordering cells with continuous ranks as in Miller-Tucker-
Zemlin subtour elimination. Two repairs to the textbook form are needed here
because the tour has no fixed depot and no fixed length: the conveyance link
cell acts as the root (arcs entering it are exempt from the rank inequality),
and the rank upper bound scales with the perimeter-candidate count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import CellNames, MipProblem, Sense, SitingVariables, VarKind, _at, _id_raster, _RowFamilies
from .terrain import EIGHT_NEIGHBORS, CandidateSets, count_components

_EIGHT = np.array(EIGHT_NEIGHBORS).T


class Level(IntEnum):
    """Defense levels in escalation order."""

    NONE = 0
    HV_PLANES = 1
    HV_DIAG_PLANES = 2
    TSP = 3


def parse_level(value) -> Level:
    if isinstance(value, Level):
        return value
    if isinstance(value, int):
        return Level(value)
    name = str(value).strip().lower()
    for lv in Level:
        if name in (lv.name.lower(), str(int(lv))):
            return lv
    raise ValueError(f"unknown connectivity level {value!r}")


def _add_band_constraints(
    prob: MipProblem,
    families: _RowFamilies,
    tag: str,
    before_name: str,
    after_name: str,
    y: np.ndarray,
    slice_of: np.ndarray,
) -> None:
    """One contiguity band over ordered slices; ``y[k]`` lies in slice ``slice_of[k]``.

    Per slice s: (1 - sum_s y) <= before_s + after_s, with before_s = 1
    forbidding any y in earlier slices and after_s = 1 forbidding any y in
    later slices (big-M switched). big M is the interior-candidate count, the
    tightest constant that still lets a fully flooded side of any slice switch
    its constraint off. The switches go into ``prob``, the rows into ``families``.

    Only the slices strictly between the first and the last that hold a y get
    switches and rows. A slice with no y before it satisfies its three rows
    with before_s = 1 whatever the y are (one with no y after it, with
    after_s = 1), and its switches appear in no other row and cost nothing; so
    leaving them out keeps the MIP optimum and the LP relaxation.
    """
    big_m = max(1.0, float(len(y)))
    first, last = (int(slice_of.min()), int(slice_of.max())) if len(y) else (0, 0)
    s = np.arange(first + 1, last)  # the slices strictly inside the span
    at = np.arange(len(s))  # their positions among the band's slices
    before = prob.add_variables(CellNames((f"{before_name}_{{}}",), s[:, None]))
    after = prob.add_variables(CellNames((f"{after_name}_{{}}",), s[:, None]))
    inside = np.flatnonzero((slice_of > first) & (slice_of < last))
    k_e, earlier = np.nonzero(slice_of[:, None] < s)
    k_l, later = np.nonzero(slice_of[:, None] > s)
    names = CellNames((f"{tag}gap_{{}}", f"{tag}pre_{{}}", f"{tag}post_{{}}"), s[:, None])
    families.add_terms(
        names, (Sense.GE, Sense.LE, Sense.LE), (1.0, big_m, big_m),
        (3 * (slice_of[inside] - first - 1), y[inside], 1.0), (3 * at, before, 1.0), (3 * at, after, 1.0),
        (3 * earlier + 1, y[k_e], 1.0), (3 * at + 1, before, big_m),
        (3 * later + 2, y[k_l], 1.0), (3 * at + 2, after, big_m),
    )


def add_separating_planes(
    prob: MipProblem,
    sv: SitingVariables,
    cands: CandidateSets,
    include_diagonals: bool = False,
) -> None:
    """Row/column (and optionally diagonal) contiguity bands on interior cells."""
    nc = cands.shape[1]
    y = sv.ids("y")
    i, j = sv.cells["y"].T
    families = _RowFamilies()
    # "up" clears the rows above an empty row, "down" the rows below; the
    # column pair works the same way across columns.
    _add_band_constraints(prob, families, "row", "up", "down", y, i)
    _add_band_constraints(prob, families, "col", "right", "left", y, j)
    if include_diagonals:
        _add_band_constraints(prob, families, "adg", "adg_b", "adg_a", y, i + j)
        _add_band_constraints(prob, families, "mdg", "mdg_b", "mdg_a", y, i - j + nc - 1)
    families.add_to(prob)


def add_tour_constraints(
    prob: MipProblem,
    sv: SitingVariables,
    cands: CandidateSets,
) -> None:
    """Single closed perimeter tour via rank (MTZ-style) ordering.

    Arc variables w exist for ordered pairs of 8-adjacent perimeter candidates;
    every active perimeter cell has in- and out-degree one. Rank inequalities
    u_a - u_b + S*w_ab <= S - 1 + S*l_b hold for every arc, with S the
    perimeter-candidate count; the l_b term exempts arcs entering the link
    cell, which anchors ranks through u <= (S-1)(1-l). Ranks are capped by
    u <= (S-1)x rather than u <= x, which would forbid tours longer than two
    cells. The perimeter indicator x is the expression z - y, so each x term
    enters a row as a +z/-y pair. Arcs run from each perimeter cell, in
    row-major order, to its perimeter neighbors in ``EIGHT_NEIGHBORS`` order.

    The ranks u are continuous on [0, S-1]; integrality would allow no other
    tours, projected onto (z, y, l, w):

    - On an arc a->b with w_ab = 1 that does not enter the link cell, ``mtz``
      reads u_b >= u_a + 1. A directed cycle that avoids the link would need
      real numbers to rise all the way round it, which is impossible.
    - Conversely, for any single cycle through the link, give each cell its
      position on the cycle (0 at the link) and each inactive cell 0. These
      integers satisfy ``rank_cap``, ``rank_root``, the bounds and, since
      0 <= u <= S-1, every ``mtz`` row with w = 0.

    The LP relaxation is the same either way; only branching and cuts on u
    go away.
    """
    if any(len(cells) for cells in sv.fixed.values()):
        raise ValueError("the perimeter tour needs every z and l column; build the model at level 3")
    cells = sv.cells["l"]  # the perimeter candidates
    n = len(cells)
    if n < 3:
        raise ValueError(f"perimeter tour needs at least 3 perimeter candidates, got {n}")
    s_bound = float(n)

    k = np.arange(n)
    nbr = _at(_id_raster(cands.shape, cells, k), cells, _EIGHT)  # perimeter index, -1 elsewhere
    a, d = np.nonzero(nbr >= 0)
    b = nbr[a, d]
    arcs = np.column_stack([cells[a], cells[b]])
    w = prob.add_variables(CellNames(("w_{}_{}_{}_{}",), arcs))
    u = prob.add_variables(CellNames(("u_{}_{}",), cells), VarKind.CONTINUOUS,
                           0.0, s_bound - 1.0)
    z, y = (_at(_id_raster(cands.shape, sv.cells[f], sv.ids(f)), cells)[:, 0] for f in "zy")
    link = sv.ids("l")

    families = _RowFamilies()
    patterns = ("deg_out_{}_{}", "deg_in_{}_{}", "rank_cap_{}_{}", "rank_root_{}_{}")
    families.add_terms(
        CellNames(patterns, cells), (Sense.EQ, Sense.EQ, Sense.LE, Sense.LE),
        (0.0, 0.0, 0.0, s_bound - 1.0),
        (4 * a, w, 1.0), (4 * b + 1, w, 1.0),
        (4 * k, z, -1.0), (4 * k, y, 1.0), (4 * k + 1, z, -1.0), (4 * k + 1, y, 1.0),
        (4 * k + 2, u, 1.0), (4 * k + 2, z, 1.0 - s_bound), (4 * k + 2, y, s_bound - 1.0),
        (4 * k + 3, u, 1.0), (4 * k + 3, link, s_bound - 1.0),
    )
    arc = np.arange(len(w))
    families.add_terms(CellNames(("mtz_{}_{}_{}_{}",), arcs), Sense.LE, s_bound - 1.0,
                       (arc, u[a], 1.0), (arc, u[b], -1.0), (arc, w, s_bound), (arc, link[b], -s_bound))
    families.add_to(prob)


@dataclass(frozen=True)
class Verdict:
    """Flood-fill connectivity check of an incumbent reservoir."""

    connected: bool
    n_components: int

    def __str__(self) -> str:
        return "connected" if self.connected else f"fragmented({self.n_components})"


def connectivity_verdict(reservoir_mask: np.ndarray) -> Verdict:
    """Classify a reservoir mask by its 4-connected components.

    Ring reservoirs (holes inside) count as connected; only fragmentation into
    several components triggers escalation.
    """
    count = count_components(reservoir_mask, "four")
    return Verdict(connected=count == 1, n_components=count)
