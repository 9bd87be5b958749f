"""Anti-fragmentation constraints: separating planes and perimeter tour.

Separating planes force the rows (columns, and optionally diagonals) occupied
by interior cells to form a single contiguous band: for every empty slice, all
occupied slices must lie entirely on one side of it. They are cheap but only
necessary for a connected interior, hence the escalation ladder.

The tour constraints make the active perimeter cells a single closed walk over
the 8-neighborhood, ordering cells with integer ranks as in Miller-Tucker-
Zemlin subtour elimination. Two repairs to the textbook form are needed here
because the tour has no fixed depot and no fixed length: the conveyance link
cell acts as the root (arcs entering it are exempt from the rank inequality),
and the rank upper bound scales with the perimeter-candidate count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import MipProblem, Sense, SitingVariables, VarKind
from .terrain import EIGHT_NEIGHBORS, CandidateSets, connected_components


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
    tag: str,
    before_name: str,
    after_name: str,
    slices: list[list[int]],
    big_m: float,
) -> None:
    """One contiguity band over an ordered family of slices of y-variables.

    Per slice s: (1 - sum_s y) <= before_s + after_s, with before_s = 1
    forbidding any y in earlier slices and after_s = 1 forbidding any y in
    later slices (big-M switched).
    """
    n = len(slices)
    before = [prob.add_variable(f"{before_name}_{s}") for s in range(n)]
    after = [prob.add_variable(f"{after_name}_{s}") for s in range(n)]
    flat: list[int] = []
    offsets: list[int] = []
    for members in slices:
        offsets.append(len(flat))
        flat.extend(members)
    for s in range(n):
        coeffs = [(vid, 1.0) for vid in slices[s]]
        coeffs += [(before[s], 1.0), (after[s], 1.0)]
        prob.add_row(f"{tag}gap_{s}", coeffs, Sense.GE, 1.0)
        earlier = flat[: offsets[s]]
        later = flat[offsets[s] + len(slices[s]) :]
        prob.add_row(
            f"{tag}pre_{s}",
            [(vid, 1.0) for vid in earlier] + [(before[s], big_m)],
            Sense.LE,
            big_m,
        )
        prob.add_row(
            f"{tag}post_{s}",
            [(vid, 1.0) for vid in later] + [(after[s], big_m)],
            Sense.LE,
            big_m,
        )


def add_separating_planes(
    prob: MipProblem,
    sv: SitingVariables,
    cands: CandidateSets,
    include_diagonals: bool = False,
) -> None:
    """Row/column (and optionally diagonal) contiguity bands on interior cells.

    big M is the interior-candidate count, the tightest constant that still
    lets a fully flooded side of any slice switch its constraint off.
    """
    nr, nc = cands.shape
    big_m = max(1.0, float(len(sv.y)))

    rows: list[list[int]] = [[] for _ in range(nr)]
    cols: list[list[int]] = [[] for _ in range(nc)]
    for (i, j), vid in sv.y.items():
        rows[i].append(vid)
        cols[j].append(vid)
    # "up" clears the rows above an empty row, "down" the rows below; the
    # column pair works the same way across columns.
    _add_band_constraints(prob, "row", "up", "down", rows, big_m)
    _add_band_constraints(prob, "col", "right", "left", cols, big_m)

    if include_diagonals:
        anti: list[list[int]] = [[] for _ in range(nr + nc - 1)]
        main: list[list[int]] = [[] for _ in range(nr + nc - 1)]
        for (i, j), vid in sv.y.items():
            anti[i + j].append(vid)
            main[i - j + nc - 1].append(vid)
        _add_band_constraints(prob, "adg", "adg_b", "adg_a", anti, big_m)
        _add_band_constraints(prob, "mdg", "mdg_b", "mdg_a", main, big_m)


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
    cells.
    """
    cells = sorted(sv.x)
    if len(cells) < 3:
        raise ValueError(f"perimeter tour needs at least 3 perimeter candidates, got {len(cells)}")
    if not sv.link:
        raise ValueError("link variables must be added before the tour constraints")
    s_bound = float(len(cells))

    arcs: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    out_arcs: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    in_arcs: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    for (i, j) in cells:
        for di, dj in EIGHT_NEIGHBORS:
            nbr = (i + di, j + dj)
            if nbr in sv.x:
                wid = prob.add_variable(f"w_{i}_{j}_{nbr[0]}_{nbr[1]}")
                arcs[((i, j), nbr)] = wid
                out_arcs[(i, j)].append(wid)
                in_arcs[nbr].append(wid)

    rank: dict[tuple[int, int], int] = {}
    for (i, j) in cells:
        rank[(i, j)] = prob.add_variable(
            f"u_{i}_{j}", VarKind.INTEGER, lb=0.0, ub=s_bound - 1.0
        )

    for cell in cells:
        i, j = cell
        xid = sv.x[cell]
        prob.add_row(
            f"deg_out_{i}_{j}",
            [(wid, 1.0) for wid in out_arcs[cell]] + [(xid, -1.0)],
            Sense.EQ,
            0.0,
        )
        prob.add_row(
            f"deg_in_{i}_{j}",
            [(wid, 1.0) for wid in in_arcs[cell]] + [(xid, -1.0)],
            Sense.EQ,
            0.0,
        )
        prob.add_row(
            f"rank_cap_{i}_{j}", [(rank[cell], 1.0), (xid, 1.0 - s_bound)], Sense.LE, 0.0
        )
        prob.add_row(
            f"rank_root_{i}_{j}",
            [(rank[cell], 1.0), (sv.link[cell], s_bound - 1.0)],
            Sense.LE,
            s_bound - 1.0,
        )

    for (a, b), wid in arcs.items():
        prob.add_row(
            f"mtz_{a[0]}_{a[1]}_{b[0]}_{b[1]}",
            [(rank[a], 1.0), (rank[b], -1.0), (wid, s_bound), (sv.link[b], -s_bound)],
            Sense.LE,
            s_bound - 1.0,
        )


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
    comps = connected_components(np.asarray(reservoir_mask, dtype=bool), "four")
    return Verdict(connected=len(comps) == 1, n_components=len(comps))
