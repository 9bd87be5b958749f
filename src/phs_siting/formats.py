"""MPS and LP file export/import for solver interoperability.

The writers are deterministic: the same problem always produces byte-identical
text. Free-form MPS and LP files carry the documented ``x_i_j`` variable
names; fixed-form MPS sanitizes names to the historical 8-character fields
(``V0000001``/``C0000001``) while preserving order, so structural round trips
compare by position rather than by name.

Conventions (also honored by the parsers here): the objective is the first N
row; an RHS entry on the objective row stores the negated objective constant;
integer variables sit between INTORG/INTEND markers; every variable appears in
COLUMNS at least once (a zero objective entry is emitted if needed).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from .errors import GridFormatError
from .model import KINDS, SENSES, MipProblem, Sense, VarKind

_SENSE_TO_MPS = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}
_MPS_TO_SENSE = {v: k for k, v in _SENSE_TO_MPS.items()}
_OBJ = "COST"


def _fmt(value: float, digits: int = 17) -> str:
    text = f"{value:.{digits}g}"
    return "0" if text in ("-0", "-0.0") else text


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_mps(problem: MipProblem, form: str = "free") -> str:
    """Render the problem as MPS text in "free" or "fixed" form."""
    if form not in ("free", "fixed"):
        raise ValueError(f"unknown MPS form {form!r}")
    fixed = form == "fixed"
    digits = 12 if fixed else 17

    if fixed:
        var_names = [f"V{vid:07d}" for vid in range(problem.num_variables)]
        row_names = [f"C{rid:07d}" for rid in range(problem.num_constraints)]
    else:
        var_names = problem.variable_names()
        row_names = problem.row_names()

    def card(f1: str, f2: str = "", f3: str = "", f4: str = "", f5: str = "", f6: str = "") -> str:
        if fixed:
            line = f" {f1:<2} {f2:<8}  {f3:<8}  {f4:<12}"
            if f5:
                line += f"   {f5:<8}  {f6:<12}"
            return line.rstrip()
        parts = [" " + f1] + [p for p in (f2, f3, f4, f5, f6) if p]
        return "  ".join(parts)

    lines = [f"NAME          {problem.name}"]
    lines.append("ROWS")
    lines.append(card("N", _OBJ))
    for name, code in zip(row_names, problem.senses.tolist()):
        lines.append(card(_SENSE_TO_MPS[SENSES[code]], name))

    # Per column: the objective entry first (a zero one if the column has no
    # entry at all), then its rows in row order.
    lines.append("COLUMNS")
    objective = problem.objective
    columns = problem.matrix.tocsc()
    columns.sort_indices()
    ptr, row_ids, coefs = (a.tolist() for a in (columns.indptr, columns.indices, columns.data))
    kinds = problem.kinds.tolist()
    continuous = KINDS.index(VarKind.CONTINUOUS)
    in_integer_block = False
    marker = 0
    for vid, name in enumerate(var_names):
        is_int = kinds[vid] != continuous
        if is_int != in_integer_block:
            lines.append(card(f"MARKER{marker}", "'MARKER'", "'INTORG'" if is_int else "'INTEND'"))
            marker += 1
            in_integer_block = is_int
        if vid in objective or ptr[vid] == ptr[vid + 1]:
            lines.append(card("", name, _OBJ, _fmt(objective.get(vid, 0.0), digits)))
        for k in range(ptr[vid], ptr[vid + 1]):
            lines.append(card("", name, row_names[row_ids[k]], _fmt(coefs[k], digits)))
    if in_integer_block:
        lines.append(card(f"MARKER{marker}", "'MARKER'", "'INTEND'"))

    lines.append("RHS")
    if problem.objective_constant != 0.0:
        lines.append(card("", "RHS", _OBJ, _fmt(-problem.objective_constant, digits)))
    for name, rhs in zip(row_names, problem.rhs.tolist()):
        if rhs != 0.0:
            lines.append(card("", "RHS", name, _fmt(rhs, digits)))

    lines.append("BOUNDS")
    for name, kind, lb, ub in zip(var_names, kinds, problem.lb.tolist(), problem.ub.tolist()):
        if KINDS[kind] is VarKind.BINARY:
            lines.append(card("BV", "BND", name))
        elif KINDS[kind] is VarKind.INTEGER:
            lines.append(card("LI", "BND", name, _fmt(lb, digits)))
            if math.isfinite(ub):
                lines.append(card("UI", "BND", name, _fmt(ub, digits)))
        else:
            if lb != 0.0:
                if math.isfinite(lb):
                    lines.append(card("LO", "BND", name, _fmt(lb, digits)))
                else:
                    lines.append(card("MI", "BND", name))
            if math.isfinite(ub):
                lines.append(card("UP", "BND", name, _fmt(ub, digits)))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_lp(problem: MipProblem) -> str:
    """Render the problem in CPLEX-style LP text."""

    def term(coef: float, name: str, first: bool) -> str:
        sign = "-" if coef < 0 else ("" if first else "+")
        mag = _fmt(abs(coef))
        lead = f"{sign} " if sign and not first else sign
        return f"{lead}{mag} {name}"

    def wrap(label: str, tokens: list[str], suffix: str = "") -> list[str]:
        out = []
        line = f" {label}"
        for tok in tokens:
            if len(line) + len(tok) + 1 > 78:
                out.append(line)
                line = "   " + tok
            else:
                line += " " + tok
        if suffix:
            line += " " + suffix
        out.append(line)
        return out

    names = problem.variable_names()
    lines = [f"\\ {problem.name}", "Minimize"]
    tokens = [
        term(coef, names[vid], k == 0)
        for k, (vid, coef) in enumerate(problem.objective.items())
    ]
    const = problem.objective_constant
    if const != 0.0 or not tokens:
        sign = "-" if const < 0 else ("" if not tokens else "+")
        tokens.append(f"{sign} {_fmt(abs(const))}".strip() if sign else _fmt(abs(const)))
    lines.extend(wrap("obj:", tokens))

    lines.append("Subject To")
    sense_text = {Sense.LE: "<=", Sense.GE: ">=", Sense.EQ: "="}
    matrix = problem.matrix
    ptr, cols, coefs = (a.tolist() for a in (matrix.indptr, matrix.indices, matrix.data))
    for rid, (name, code, rhs) in enumerate(
        zip(problem.row_names(), problem.senses.tolist(), problem.rhs.tolist())
    ):
        tokens = [term(coefs[k], names[cols[k]], k == ptr[rid]) for k in range(ptr[rid], ptr[rid + 1])]
        if not tokens:
            tokens.append("0")
        lines.extend(wrap(f"{name}:", tokens, f"{sense_text[SENSES[code]]} {_fmt(rhs)}"))

    kinds = [KINDS[code] for code in problem.kinds.tolist()]
    lb, ub = problem.lb.tolist(), problem.ub.tolist()
    bounded = [vid for vid, kind in enumerate(kinds) if kind is VarKind.INTEGER]
    bounded += [vid for vid, kind in enumerate(kinds) if kind is VarKind.CONTINUOUS]
    if bounded:
        lines.append("Bounds")
        for vid in bounded:
            upper = "inf" if math.isinf(ub[vid]) else _fmt(ub[vid])
            lines.append(f" {_fmt(lb[vid])} <= {names[vid]} <= {upper}")

    binaries = [name for name, kind in zip(names, kinds) if kind is VarKind.BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(wrap("", binaries))
    generals = [name for name, kind in zip(names, kinds) if kind is VarKind.INTEGER]
    if generals:
        lines.append("Generals")
        lines.extend(wrap("", generals))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_problem(problem: MipProblem, fmt: str, path: str | Path) -> Path:
    """Write the problem to ``path`` in mps_fixed, mps_free, or lp format."""
    if fmt == "mps_fixed":
        text = write_mps(problem, "fixed")
    elif fmt == "mps_free":
        text = write_mps(problem, "free")
    elif fmt == "lp":
        text = write_lp(problem)
    else:
        raise ValueError(f"unknown export format {fmt!r}; use mps_fixed, mps_free or lp")
    path = Path(path)
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


class _ProblemAssembler:
    """Accumulates declarations before building an immutable MipProblem."""

    def __init__(self, name: str = "parsed"):
        self.name = name
        self.order: list[str] = []
        self.kinds: dict[str, VarKind] = {}
        self.lbs: dict[str, float] = {}
        self.ubs: dict[str, float] = {}
        self.rows: list[tuple[str, dict[str, float], Sense, float]] = []
        self.objective: dict[str, float] = {}
        self.constant = 0.0

    def ensure_var(self, name: str, kind: VarKind = VarKind.CONTINUOUS) -> None:
        if name not in self.kinds:
            self.order.append(name)
            self.kinds[name] = kind

    def set_kind(self, name: str, kind: VarKind) -> None:
        self.ensure_var(name, kind)
        self.kinds[name] = kind

    def build(self) -> MipProblem:
        """The problem, checked for what only outside input can get wrong:
        repeated row names and (in ``add_variables``) lb > ub."""
        seen: set[str] = set()
        for row_name, *_ in self.rows:
            if row_name in seen:
                raise GridFormatError(f"duplicate row name {row_name!r}")
            seen.add(row_name)
        problem = MipProblem(self.name)
        order = self.order
        problem.add_variables(order, [self.kinds[n] for n in order],
                              [self.lbs.get(n, 0.0) for n in order],
                              [self.ubs.get(n, math.inf) for n in order])
        ids = {name: vid for vid, name in enumerate(order)}
        names, coeffs, senses, rhs = zip(*self.rows) if self.rows else ((), (), (), ())
        problem.add_rows(list(names), np.repeat(np.arange(len(names)), [len(c) for c in coeffs]),
                         [ids[n] for c in coeffs for n in c], [v for c in coeffs for v in c.values()],
                         senses, rhs)
        problem.set_objective({ids[n]: c for n, c in self.objective.items()}, self.constant)
        return problem


def read_mps(text: str, name: str = "parsed") -> MipProblem:
    """Parse the MPS subset produced by :func:`write_mps` (both forms)."""
    asm = _ProblemAssembler(name)
    section = None
    obj_name = None
    senses: dict[str, Sense] = {}
    row_order: list[str] = []
    row_coeffs: dict[str, dict[str, float]] = {}
    rhs: dict[str, float] = {}
    integer_mode = False

    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            parts = raw.split()
            section = parts[0].upper()
            if section == "NAME" and len(parts) > 1:
                asm.name = parts[1]
            if section == "ENDATA":
                break
            continue
        tokens = raw.split()
        if section == "ROWS":
            kind, row_name = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_name is None:
                    obj_name = row_name
                continue
            if kind not in _MPS_TO_SENSE:
                raise GridFormatError(f"unknown MPS row type {kind!r}")
            senses[row_name] = _MPS_TO_SENSE[kind]
            row_order.append(row_name)
            row_coeffs[row_name] = {}
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                integer_mode = tokens[2] == "'INTORG'"
                continue
            var = tokens[0]
            asm.ensure_var(var, VarKind.INTEGER if integer_mode else VarKind.CONTINUOUS)
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise GridFormatError(f"odd COLUMNS entry count in line {raw!r}")
            for k in range(0, len(pairs), 2):
                row_name, value = pairs[k], float(pairs[k + 1])
                if row_name == obj_name:
                    if value != 0.0:
                        asm.objective[var] = asm.objective.get(var, 0.0) + value
                elif row_name in row_coeffs:
                    row_coeffs[row_name][var] = row_coeffs[row_name].get(var, 0.0) + value
                else:
                    raise GridFormatError(f"COLUMNS references unknown row {row_name!r}")
        elif section == "RHS":
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise GridFormatError(f"odd RHS entry count in line {raw!r}")
            for k in range(0, len(pairs), 2):
                row_name, value = pairs[k], float(pairs[k + 1])
                if row_name == obj_name:
                    asm.constant = -value
                else:
                    rhs[row_name] = value
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            var = tokens[2]
            asm.ensure_var(var)
            if btype == "BV":
                asm.set_kind(var, VarKind.BINARY)
            elif btype in ("UI", "UP"):
                asm.ubs[var] = float(tokens[3])
            elif btype in ("LI", "LO"):
                asm.lbs[var] = float(tokens[3])
            elif btype == "FX":
                asm.lbs[var] = asm.ubs[var] = float(tokens[3])
            elif btype == "MI":
                asm.lbs[var] = -math.inf
            elif btype == "PL":
                asm.ubs[var] = math.inf
            elif btype == "FR":
                asm.lbs[var] = -math.inf
                asm.ubs[var] = math.inf
            else:
                raise GridFormatError(f"unsupported bound type {btype!r}")
        elif section == "RANGES":
            raise GridFormatError("RANGES section is not supported")

    for row_name in row_order:
        asm.rows.append((row_name, row_coeffs[row_name], senses[row_name], rhs.get(row_name, 0.0)))
    return asm.build()


_LP_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_LP_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _lp_tokens(text: str) -> list[str]:
    out: list[str] = []
    for raw in text.splitlines():
        code = raw.split("\\", 1)[0]
        code = code.replace(":", " : ").replace("<=", " <= ").replace(">=", " >= ")
        for token in code.split():
            out.append(token)
    return out


def read_lp(text: str, name: str = "parsed") -> MipProblem:
    """Parse the LP subset produced by :func:`write_lp`."""
    tokens = _lp_tokens(text)
    asm = _ProblemAssembler(name)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def keyword_at(idx: int) -> str | None:
        if idx >= len(tokens):
            return None
        lowered = tokens[idx].lower()
        if lowered in ("minimize", "maximize", "bounds", "binaries", "binary", "end",
                       "generals", "general"):
            return lowered
        if lowered == "subject" and idx + 1 < len(tokens) and tokens[idx + 1].lower() == "to":
            return "subject to"
        return None

    def parse_expr() -> tuple[dict[str, float], float]:
        """Parse signed terms until a sense token or section keyword."""
        nonlocal pos
        coeffs: dict[str, float] = {}
        constant = 0.0
        sign = 1.0
        pending: float | None = None
        while pos < len(tokens):
            tok = tokens[pos]
            if tok in ("<=", ">=", "=") or keyword_at(pos):
                break
            if tok == "+":
                if pending is not None:
                    constant += sign * pending
                    pending = None
                sign = 1.0
                pos += 1
            elif tok == "-":
                if pending is not None:
                    constant += sign * pending
                    pending = None
                sign = -1.0
                pos += 1
            elif _LP_NUMBER.match(tok):
                if pending is not None:
                    constant += sign * pending
                pending = float(tok)
                pos += 1
            elif _LP_IDENT.match(tok):
                if pos + 1 < len(tokens) and tokens[pos + 1] == ":":
                    break
                coef = sign * (1.0 if pending is None else pending)
                asm.ensure_var(tok)
                coeffs[tok] = coeffs.get(tok, 0.0) + coef
                pending = None
                sign = 1.0
                pos += 1
            else:
                raise GridFormatError(f"unexpected LP token {tok!r}")
        if pending is not None:
            constant += sign * pending
        return coeffs, constant

    while pos < len(tokens):
        kw = keyword_at(pos)
        if kw in ("minimize", "maximize"):
            if kw == "maximize":
                raise GridFormatError("maximization LP files are not supported")
            pos += 1
            if peek() and _LP_IDENT.match(tokens[pos]) and pos + 1 < len(tokens) and tokens[pos + 1] == ":":
                pos += 2
            coeffs, constant = parse_expr()
            asm.objective = coeffs
            asm.constant = constant
        elif kw == "subject to":
            pos += 2
            while pos < len(tokens) and not keyword_at(pos):
                row_name = f"c{len(asm.rows)}"
                if _LP_IDENT.match(tokens[pos]) and pos + 1 < len(tokens) and tokens[pos + 1] == ":":
                    row_name = tokens[pos]
                    pos += 2
                coeffs, constant = parse_expr()
                if pos >= len(tokens) or tokens[pos] not in ("<=", ">=", "="):
                    raise GridFormatError(f"constraint {row_name!r} lacks a sense")
                sense = {"<=": Sense.LE, ">=": Sense.GE, "=": Sense.EQ}[tokens[pos]]
                pos += 1
                if pos >= len(tokens) or not _LP_NUMBER.match(tokens[pos]):
                    raise GridFormatError(f"constraint {row_name!r} lacks a numeric rhs")
                rhs = float(tokens[pos]) - constant
                pos += 1
                asm.rows.append((row_name, coeffs, sense, rhs))
        elif kw == "bounds":
            pos += 1
            while pos < len(tokens) and not keyword_at(pos):
                # Only the emitted two-sided form: lo <= name <= up
                lo_tok = tokens[pos]
                if not _LP_NUMBER.match(lo_tok):
                    raise GridFormatError(f"unsupported bound line near {lo_tok!r}")
                if tokens[pos + 1] != "<=" or tokens[pos + 3] != "<=":
                    raise GridFormatError("unsupported bound syntax")
                var = tokens[pos + 2]
                up_tok = tokens[pos + 4]
                asm.ensure_var(var)
                asm.lbs[var] = float(lo_tok)
                asm.ubs[var] = math.inf if up_tok.lower() == "inf" else float(up_tok)
                pos += 5
        elif kw in ("binaries", "binary"):
            pos += 1
            while pos < len(tokens) and not keyword_at(pos):
                asm.set_kind(tokens[pos], VarKind.BINARY)
                pos += 1
        elif kw in ("generals", "general"):
            pos += 1
            while pos < len(tokens) and not keyword_at(pos):
                asm.set_kind(tokens[pos], VarKind.INTEGER)
                pos += 1
        elif kw == "end":
            break
        else:
            raise GridFormatError(f"unexpected LP token {tokens[pos]!r} at top level")
    return asm.build()


def read_problem_file(path: str | Path) -> MipProblem:
    """Load an exported file, dispatching on extension (.mps or .lp)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".lp":
        return read_lp(text, path.stem)
    return read_mps(text, path.stem)


def problems_structurally_equal(
    a: MipProblem, b: MipProblem, tol: float = 1e-9
) -> list[str]:
    """Compare two problems; returns difference descriptions (empty = equal).

    Variables and rows are matched by name when both problems share the same
    name sets (free MPS, LP) and by position otherwise (fixed MPS, which
    sanitizes names but preserves order). A row's coefficients differ when it
    has entries on other variables, explicit zeros included, or a value not
    within ``tol`` (relative, floored at 1).
    """

    def close(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        with np.errstate(invalid="ignore"):
            return (u == v) | (np.abs(u - v) <= tol * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v))))

    diffs: list[str] = []
    if a.num_variables != b.num_variables:
        diffs.append(f"variable count {a.num_variables} != {b.num_variables}")
    if a.num_constraints != b.num_constraints:
        diffs.append(f"constraint count {a.num_constraints} != {b.num_constraints}")
    if diffs:
        return diffs

    # b's variable and row ids -> a's, so everything compares in a's order
    a_names, b_names = a.variable_names(), b.variable_names()
    by_name = set(a_names) == set(b_names)
    var_map = np.array([a.variable_id(n) for n in b_names] if by_name else range(b.num_variables),
                       dtype=np.int64)
    a_rows, b_rows = a.row_names(), b.row_names()
    rows_by_name = by_name and set(a_rows) == set(b_rows)
    if rows_by_name:
        a_row_id = {name: rid for rid, name in enumerate(a_rows)}
        row_map = np.array([a_row_id[n] for n in b_rows], dtype=np.int64)
    else:
        row_map = np.arange(b.num_constraints)

    kind_bad = a.kinds[var_map] != b.kinds
    bound_bad = ~(close(a.lb[var_map], b.lb) & close(a.ub[var_map], b.ub))
    for vid in np.flatnonzero(kind_bad | bound_bad).tolist():
        avid = int(var_map[vid])
        label = a_names[avid] if by_name else f"#{avid}"
        if kind_bad[vid]:
            diffs.append(f"variable {label} kind {KINDS[a.kinds[avid]].value} != "
                         f"{KINDS[b.kinds[vid]].value}")
        if bound_bad[vid]:
            diffs.append(f"variable {label} bounds differ")

    a_rhs, b_rhs = a.rhs[row_map], b.rhs
    sense_bad = a.senses[row_map] != b.senses
    rhs_bad = ~close(a_rhs, b_rhs)
    coef_bad = _rows_differ(a.matrix[row_map], b.matrix, var_map, close)
    for rid in np.flatnonzero(sense_bad | rhs_bad | coef_bad).tolist():
        label = a_rows[row_map[rid]]
        if sense_bad[rid]:
            diffs.append(f"row {label} sense differs")
        if rhs_bad[rid]:
            diffs.append(f"row {label} rhs {a_rhs[rid]} != {b_rhs[rid]}")
        if coef_bad[rid]:
            diffs.append(f"row {label} coefficients differ")

    oa = {k: v for k, v in a.objective.items() if v != 0.0}
    ob = {int(var_map[k]): v for k, v in b.objective.items() if v != 0.0}
    if set(oa) != set(ob) or any(not close(oa[k], ob[k]) for k in oa):
        diffs.append("objective coefficients differ")
    if not close(a.objective_constant, b.objective_constant):
        diffs.append("objective constant differs")
    return diffs


def _rows_differ(a_matrix, b_matrix, var_map: np.ndarray, close) -> np.ndarray:
    """Per row: whether the entries of ``b_matrix``, its columns mapped through
    ``var_map``, differ from those of ``a_matrix`` in position or value."""
    b_matrix = sparse.csr_array((b_matrix.data, var_map[b_matrix.indices], b_matrix.indptr),
                                shape=b_matrix.shape, copy=True)
    for m in (a_matrix, b_matrix):
        m.sort_indices()
    counts_a, counts_b = np.diff(a_matrix.indptr), np.diff(b_matrix.indptr)
    bad = counts_a != counts_b
    # Rows with equal counts hold aligned entries once the others are dropped.
    keep_a = np.repeat(~bad, counts_a)
    keep_b = np.repeat(~bad, counts_b)
    row_of = np.repeat(np.arange(len(bad)), counts_a)[keep_a]
    entry_bad = (a_matrix.indices[keep_a] != b_matrix.indices[keep_b]) | ~close(
        a_matrix.data[keep_a], b_matrix.data[keep_b]
    )
    bad[row_of[entry_bad]] = True
    return bad
