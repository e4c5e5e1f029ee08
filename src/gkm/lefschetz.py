"""Hodge-Riemann pairings and the hard Lefschetz verdict.

For a six-dimensional index-increasing instance the only nontrivial
nonsingularity question lives in cohomological degree 2.  This module
computes the degree-2 pairing matrix in the mixed Thom bases two
independent ways (full localization vs. the single-vertex shortcut),
verifies the product formula entry = -(thom coefficient)*(moment ratio)
for every index-two/index-four pair, evaluates determinants of all the
even-degree pairings exactly, checks every sign condition the theory
predicts, and assembles a verdict report.

Every check returns nothing and builds no witness when it passes; when it
fails it raises a GkmError whose message names the vertex, pair or entry
at fault, and the report records that message as the check's detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg
from .cohomology import equivariant_symplectic_class, euler_class, slice_dimension, thom_class
from .errors import (
    DegreeError,
    GkmError,
    NonZero,
    NotDivisible,
    PreconditionError,
    TypeMismatch,
)
from .geometry import (
    CycleShape,
    MomentImageType,
    classify_type,
    cycle_shape,
    require_six_dim,
)
from .graph import OrientedGkmGraph
# integrate is unused here; perfbench's tracer self-test expects it.
from .localization import check_low_degree_vanishing, integrate, pairing  # noqa: F401
from .polynomial import lin_form


def moment_ratio(og: OrientedGkmGraph, p: str, q: str) -> Fraction:
    """The positive scalar with mu(q) - mu(p) = ratio * (weight from p to q).

    Zero when p and q are not adjacent.
    """
    edge = og.graph.edge_between(p, q)
    if edge is None:
        return Fraction(0)
    step, w = og.graph.mu(q) - og.graph.mu(p), edge.weight_from(p)
    if step.cross(w) != 0:
        raise GkmError(f"moment difference across {edge} is not parallel to its weight")
    return Fraction(step.dot(w), w.dot(w))


def below_neighbor(og: OrientedGkmGraph, q: str, excluding: str) -> str:
    """The unique neighbor of q below q other than ``excluding``."""
    candidates = [v for v in og.down_neighbors(q) if v != excluding]
    if len(candidates) != 1:
        raise GkmError(f"{q} has below-neighbors {candidates} apart from {excluding}")
    return candidates[0]


def thom_coefficient(og: OrientedGkmGraph, p: str, q: str) -> Fraction:
    """Restriction coefficient of the Thom class of p at an adjacent q.

    The class is supported on p's ascending reach, which misses q's other
    below-neighbor v; so its value at q is a rational multiple of the
    weight read from q toward v, and that multiple is returned.  Zero
    when p and q are not adjacent.
    """
    if og.down_degree(p) != 1 or og.down_degree(q) != 2:
        raise PreconditionError("expected an index-two p and an index-four q")
    if not og.graph.adjacent(p, q):
        return Fraction(0)
    edge = og.graph.edge_between(q, below_neighbor(og, q, excluding=p))
    value = thom_class(og, p, "plus").value(q)
    ratio = value.parallel_ratio(lin_form(edge.weight_from(q)))
    if ratio is None:
        raise NotDivisible(f"value at {q} is no multiple of the weight of {edge}")
    return ratio


@dataclass(frozen=True)
class CoefficientPair:
    p: str
    q: str
    moment_ratio: Fraction
    thom_coefficient: Fraction
    adjacent: bool

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "moment_ratio": str(self.moment_ratio),
            "thom_coefficient": str(self.thom_coefficient),
            "adjacent": self.adjacent,
        }


def coefficient_pairs(og: OrientedGkmGraph) -> list[CoefficientPair]:
    """All (index-two, index-four) pairs with their coefficients.

    Enforces the structural biconditional: ratio > 0 iff adjacent iff
    coefficient nonzero.  Computed once per orientation; each call returns
    a new list.
    """
    def compute():
        pairs = []
        for p in og.vertices_of_index(1):
            for q in og.vertices_of_index(2):
                adjacent = og.graph.adjacent(p, q)
                ratio = moment_ratio(og, p, q)
                coeff = thom_coefficient(og, p, q)
                if adjacent != (ratio > 0) or adjacent != (coeff != 0):
                    raise GkmError(
                        f"pair ({p}, {q}): adjacency {adjacent}, ratio {ratio}, "
                        f"coefficient {coeff} violate the nonzero biconditional"
                    )
                pairs.append(CoefficientPair(p, q, ratio, coeff, adjacent))
        return pairs

    return list(og.derived("coefficient_pairs", compute))


def mixed_hr2_matrix(og: OrientedGkmGraph) -> list[list[Fraction]]:
    """Degree-2 pairing matrix: rows = descending Thom classes of the
    index-four vertices, columns = ascending Thom classes of the index-two
    vertices, paired through one symplectic factor.

    Every entry is computed twice -- the localization pairing and the
    single-vertex shortcut -- and the two must agree exactly.  The matrix
    is built once per orientation; each call returns a new copy.
    """
    require_six_dim(og)
    matrix = og.derived("mixed_hr2_matrix", lambda: _mixed_hr2_entries(og))
    return [list(row) for row in matrix]


def _mixed_hr2_entries(og: OrientedGkmGraph) -> list[list[Fraction]]:
    ps = og.vertices_of_index(1)
    qs = og.vertices_of_index(2)
    if len(ps) != len(qs):
        raise GkmError(f"unequal index-two/index-four counts: {ps} vs {qs}")
    omega = equivariant_symplectic_class(og.graph)

    def entry(q, p):
        tau_p = thom_class(og, p, "plus")
        via_integral = pairing(og, tau_p, thom_class(og, q, "minus"), 1)
        via_shortcut = (tau_p.value(q) * (omega.value(q) - omega.value(p))).parallel_ratio(
            euler_class(og, q, "plus"))
        if via_shortcut is None:
            raise GkmError(f"entry ({q}, {p}): shortcut value is no multiple of nu_q^+")
        if via_integral != via_shortcut:
            raise GkmError(
                f"entry ({q}, {p}): localization gives {via_integral}, "
                f"shortcut gives {via_shortcut}"
            )
        return via_integral

    return [[entry(q, p) for p in ps] for q in qs]


def check_pairing_identity(og: OrientedGkmGraph) -> None:
    """entry = -(thom coefficient) * (moment ratio), exactly, for all pairs."""
    ps = og.vertices_of_index(1)
    qs = og.vertices_of_index(2)
    matrix = mixed_hr2_matrix(og)
    pairs = {(c.p, c.q): c for c in coefficient_pairs(og)}
    for j, q in enumerate(qs):
        if all(matrix[j][k] == 0 for k in range(len(ps))):
            raise GkmError(f"row of {q} is identically zero")
        for k, p in enumerate(ps):
            c = pairs[(p, q)]
            expected = -c.thom_coefficient * c.moment_ratio
            if matrix[j][k] != expected:
                raise GkmError(
                    f"entry ({q}, {p}) = {matrix[j][k]} but "
                    f"-coefficient*ratio = {expected}"
                )


def hr_matrix(og: OrientedGkmGraph, k: int) -> list[list[Fraction]]:
    """Pairing matrix in cohomological degree k (even, 0 <= k <= 2n).

    For k <= n this is the Hodge-Riemann form on the degree-k Thom basis
    with n - k symplectic factors; above the middle the complementary
    basis is paired with no symplectic factor (Poincare pairing).  An
    entry whose integral fails re-raises the error's class with
    ``degree-{k} entry ({u}, {v}): `` in front of its message.
    """
    n = og.graph.valence
    if type(k) is not int or k % 2 != 0 or not 0 <= k <= 2 * n:
        raise DegreeError(f"k must be an even int in 0..{2 * n}, got {k!r}")
    row_d = k // 2
    col_d = row_d if k <= n else n - row_d
    power = n - row_d - col_d
    rows = og.vertices_of_index(row_d)
    cols = og.vertices_of_index(col_d)

    def entry(u, v):
        tau_u, tau_v = thom_class(og, u, "plus"), thom_class(og, v, "plus")
        try:
            return pairing(og, tau_u, tau_v, power)
        except GkmError as exc:
            raise type(exc)(f"degree-{k} entry ({u}, {v}): {exc}") from exc

    return [[entry(u, v) for v in cols] for u in rows]


def _moment_image_type(og: OrientedGkmGraph) -> MomentImageType:
    """``classify_type(og)``, computed once per orientation."""
    return og.derived("moment_image_type", lambda: classify_type(og))


def _cycle_shapes(og: OrientedGkmGraph) -> dict[str, CycleShape]:
    """The ascending cycle's shape at each index-two vertex.  Computed once
    per orientation; each call returns a new dict."""
    return dict(og.derived("cycle_shapes", lambda: {
        p: cycle_shape(og, p) for p in og.vertices_of_index(1)
    }))


def check_column_independence(og: OrientedGkmGraph) -> None:
    """For the two all-entries-nonzero types: one column operation leaves a
    nonzero entry, and the three relevant moment images are not collinear.
    No entry is zero, so the operation's multiple t0 is nonzero."""
    table = _moment_image_type(og)
    if table.label not in ("d", "f"):
        raise TypeMismatch(f"expected type (d) or (f), got ({table.label})")
    a = mixed_hr2_matrix(og)
    ps, qs = og.vertices_of_index(1), og.vertices_of_index(2)
    zeros = [(q, p) for q, row in zip(qs, a) for p, entry in zip(ps, row) if entry == 0]
    if zeros:
        raise GkmError("entry (%s, %s) is 0, but types (d)/(f) have every pairing "
                       "entry nonzero" % zeros[0])
    t0 = -a[0][1] / a[0][0]
    second = a[1][1] + t0 * a[1][0]
    if second == 0:
        raise GkmError(f"column operation with t0={t0} leaves second combination {second}")
    g = og.graph
    r = og.r_vertex()
    p1, p2 = ps
    if (g.mu(p1) - g.mu(r)).cross(g.mu(p2) - g.mu(r)) == 0:
        raise GkmError(f"mu({r}), mu({p1}), mu({p2}) are collinear")


def check_sign_conditions(og: OrientedGkmGraph) -> None:
    """Side-of-line criterion for each adjacent pair, positivity on convex
    tetragonal cycles, and convexity of all cycles on 8-vertex instances."""
    require_six_dim(og)
    g = og.graph
    pairs = coefficient_pairs(og)
    coefficients = {(c.p, c.q): c.thom_coefficient for c in pairs}
    for c in pairs:
        if not c.adjacent:
            continue
        p, q = c.p, c.q
        nu_p_direction = og.down_edges(p)[0].weight_from(p)
        v = below_neighbor(og, q, excluding=p)
        alpha_qv = g.edge_between(q, v).weight_from(q)
        alpha_pq = g.edge_between(p, q).weight_from(p)
        v0 = alpha_pq.perp()
        product = nu_p_direction.dot(v0) * alpha_qv.dot(v0)
        if product == 0:
            raise GkmError(f"degenerate side test at pair ({p}, {q}): weights not independent")
        same = product > 0
        positive = c.thom_coefficient > 0
        if same != positive:
            raise GkmError(
                f"pair ({p}, {q}): same-side={same} but coefficient {c.thom_coefficient}"
            )
    shapes = _cycle_shapes(og)
    for p, shape in shapes.items():
        if shape.kind == "tetragonal" and shape.tetra_class == "convex":
            for q in og.up_neighbors(p):
                if og.down_degree(q) != 2:
                    continue
                coeff = coefficients[(p, q)]
                if coeff <= 0:
                    raise GkmError(f"convex cycle at {p} but coefficient at {q} is {coeff}")
    if len(g.vertices) == 8:
        for p, shape in shapes.items():
            if shape.kind != "tetragonal" or shape.tetra_class != "convex":
                raise GkmError(f"8-vertex instance has a non-convex cycle at {p}: {shape}")


def _check_type_g_determinant(a: list[list[Fraction]],
                              shapes: dict[str, CycleShape]) -> None:
    """Zeros permute to the diagonal; the determinant reduces to the two
    3-cycle products and is negative when every cycle is convex."""
    zero_cols = []
    for j, row in enumerate(a):
        zeros = [k for k, entry in enumerate(row) if entry == 0]
        if len(zeros) != 1:
            raise GkmError(f"type (g) row {j} has {len(zeros)} zero entries")
        zero_cols.append(zeros[0])
    if sorted(zero_cols) != [0, 1, 2]:
        raise GkmError("type (g) zeros do not hit each column exactly once")
    # Permute columns so the zero of row j lands on the diagonal.
    b = [[a[j][zero_cols[k]] for k in range(3)] for j in range(3)]
    formula = b[0][1] * b[1][2] * b[2][0] + b[0][2] * b[1][0] * b[2][1]
    if linalg.determinant(b) != formula:
        raise GkmError("permuted type (g) determinant does not match the 3-cycle formula")
    if all(s.tetra_class == "convex" for s in shapes.values()):
        negatives = all(
            entry < 0 for j, row in enumerate(b) for k, entry in enumerate(row) if k != j
        )
        if not negatives or formula >= 0:
            raise GkmError(
                "convex type (g) instance must have negative entries and determinant"
            )


@dataclass
class LefschetzReport:
    """Everything the verdict rests on, in scale-invariant form."""

    betti: tuple[int, ...]
    down_degree: dict[str, int]
    index_increasing: bool
    o: Optional[str] = None
    r: Optional[str] = None
    table: Optional[MomentImageType] = None
    cycle_shapes: dict[str, CycleShape] = field(default_factory=dict)
    pairs: list[CoefficientPair] = field(default_factory=list)
    index_two: list[str] = field(default_factory=list)
    index_four: list[str] = field(default_factory=list)
    mixed_matrix: list[list[Fraction]] = field(default_factory=list)
    mixed_determinant: Optional[Fraction] = None
    hr_matrices: dict[int, list[list[Fraction]]] = field(default_factory=dict)
    hr_determinants: dict[int, Fraction] = field(default_factory=dict)
    verdicts: dict[int, bool] = field(default_factory=dict)
    hard_lefschetz: Optional[bool] = None
    checks: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "betti": list(self.betti),
            "down_degree": dict(sorted(self.down_degree.items())),
            "index_increasing": self.index_increasing,
            "o": self.o,
            "r": self.r,
            "type": self.table.to_jsonable() if self.table else None,
            "cycles": {p: s.to_jsonable() for p, s in sorted(self.cycle_shapes.items())},
            "pairs": [c.to_jsonable() for c in self.pairs],
            "index_two": self.index_two,
            "index_four": self.index_four,
            "mixed_matrix": [[str(e) for e in row] for row in self.mixed_matrix],
            "mixed_determinant": (None if self.mixed_determinant is None
                                  else str(self.mixed_determinant)),
            "hr_matrices": {
                str(k): [[str(e) for e in row] for row in m]
                for k, m in sorted(self.hr_matrices.items())
            },
            "hr_determinants": {str(k): str(d) for k, d in sorted(self.hr_determinants.items())},
            "verdicts": {str(k): v for k, v in sorted(self.verdicts.items())},
            "hard_lefschetz": self.hard_lefschetz,
            "checks": self.checks,
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = []
        lines.append(f"betti numbers      : {self.betti}")
        degrees = ", ".join(f"{v}:{d}" for v, d in sorted(self.down_degree.items()))
        lines.append(f"down-degrees       : {degrees}")
        lines.append(f"index increasing   : {self.index_increasing}")
        if self.o is not None:
            lines.append(f"extremal vertices  : o={self.o}  r={self.r}")
        if self.table is not None:
            t = self.table
            lines.append(
                f"moment-image type  : ({t.label})  hull={t.hull_shape}  "
                f"V={t.vertex_count}  o~r={'yes' if t.o_adjacent_r else 'no'}  "
                f"tetragonal={t.tetragonal_cycles}"
            )
        for p, s in sorted(self.cycle_shapes.items()):
            extra = f" ({s.tetra_class})" if s.tetra_class else ""
            lines.append(f"cycle at {p:<10}: {'-'.join(s.vertices)} {s.kind}{extra}")
        if self.pairs:
            lines.append("pair coefficients  : (p, q) -> ratio, coefficient")
            for c in self.pairs:
                lines.append(
                    f"  ({c.p}, {c.q}): l={c.moment_ratio}, c={c.thom_coefficient}"
                    f"{'' if c.adjacent else '  [not adjacent]'}"
                )
        if self.mixed_matrix:
            lines.append(
                f"degree-2 pairing   : rows={self.index_four} cols={self.index_two}"
            )
            for row in self.mixed_matrix:
                lines.append("  [" + ", ".join(str(e) for e in row) + "]")
            lines.append(f"  determinant = {self.mixed_determinant}")
        for k in sorted(self.hr_determinants):
            lines.append(
                f"HR det (degree {k}) : {self.hr_determinants[k]}  "
                f"{'nonsingular' if self.verdicts[k] else 'SINGULAR'}"
            )
        lines.append(f"hard Lefschetz     : {self.hard_lefschetz}")
        for c in self.checks:
            status = "ok" if c["ok"] else "FAIL"
            detail = f" - {c['detail']}" if c.get("detail") else ""
            lines.append(f"[{status}] {c['name']}{detail}")
        return "\n".join(lines)


def hard_lefschetz_report(og: OrientedGkmGraph) -> LefschetzReport:
    """Run the full verification pipeline and collect a verdict report.

    Failures of individual assertions become failing check entries rather
    than exceptions, so callers can present complete diagnostics.
    """
    report = LefschetzReport(
        betti=og.betti(),
        down_degree={v: og.down_degree(v) for v in og.graph.vertex_ids()},
        index_increasing=og.is_index_increasing(),
    )

    def run(name: str, thunk):
        try:
            value = thunk()
        except GkmError as exc:
            report.checks.append({"name": name, "ok": False, "detail": str(exc)})
            return False, None
        report.checks.append({"name": name, "ok": True, "detail": ""})
        return True, value

    in_scope, _ = run("six-dim-scope", lambda: require_six_dim(og))
    if not in_scope:
        return report

    ok, extremes = run("unique-extrema", lambda: (og.o_vertex(), og.r_vertex()))
    if not ok:
        return report
    report.o, report.r = extremes

    n_half = len(og.graph.vertices) // 2 - 1
    run("betti-structure", lambda: _require(
        report.betti[1] == report.betti[2] == n_half,
        f"betti {report.betti} incompatible with vertex count",
    ))
    run("index-two-adjacent-o", lambda: _require(
        all(og.graph.adjacent(p, report.o) for p in og.vertices_of_index(1)),
        "an index-two vertex misses the bottom vertex",
    ))
    run("index-four-adjacent-r", lambda: _require(
        all(og.graph.adjacent(q, report.r) for q in og.vertices_of_index(2)),
        "an index-four vertex misses the top vertex",
    ))

    report.index_two = og.vertices_of_index(1)
    report.index_four = og.vertices_of_index(2)

    _, table = run("classify-type", lambda: _moment_image_type(og))
    if table is not None:
        report.table = table

    _, shapes = run("cycle-shapes", lambda: _cycle_shapes(og))
    if shapes is not None:
        report.cycle_shapes = shapes

    _, pairs = run("coefficient-pairs", lambda: coefficient_pairs(og))
    if pairs is not None:
        report.pairs = pairs

    _, matrix = run("pairing-identity", lambda: (check_pairing_identity(og),
                                                 mixed_hr2_matrix(og))[1])
    if matrix is not None:
        report.mixed_matrix = matrix
        report.mixed_determinant = linalg.determinant(matrix)

    run("sign-conditions", lambda: check_sign_conditions(og))

    if table is not None and table.label in ("d", "f"):
        run("column-independence", lambda: check_column_independence(og))
    if table is not None and table.label == "g" and matrix is not None and shapes:
        run("type-g-determinant", lambda: _check_type_g_determinant(matrix, shapes))

    def hr_sweep():
        for k in range(0, 2 * og.graph.valence + 1, 2):
            pairing = hr_matrix(og, k)
            det = linalg.determinant(pairing)
            report.hr_matrices[k] = pairing
            report.hr_determinants[k] = det
            report.verdicts[k] = det != 0

    run("hr-determinants", hr_sweep)

    if report.mixed_determinant is not None and 2 in report.verdicts:
        run("hr2-mixed-equivalence", lambda: _require(
            (report.mixed_determinant != 0) == report.verdicts[2],
            f"mixed determinant {report.mixed_determinant} and plus-basis degree-2 "
            f"determinant {report.hr_determinants[2]} disagree on nonsingularity",
        ))

    run("low-degree-vanishing", lambda: _certify_low_degree_vanishing(og))

    def kronecker():
        ids = og.graph.vertex_ids()
        for v, w in ((v, w) for v in ids for w in ids if og.down_degree(v) == og.down_degree(w)):
            value = pairing(og, thom_class(og, v, "plus"), thom_class(og, w, "minus"), 0)
            _require(value == (1 if v == w else 0), f"pairing of {v}, {w} gave {value}")

    run("kronecker-pairing", kronecker)

    if report.verdicts:
        report.hard_lefschetz = all(report.verdicts.values())
    return report


def _certify_low_degree_vanishing(og: OrientedGkmGraph) -> None:
    """The localization numerator vanishes on every class of degree < n.

    The products x^a * tau_v^+ of degree d are independent: triangular by
    support, with tau_v^+(v) = nu_v^+ != 0.  In rank 2 there are
    sum over dd(v) <= d of (d - dd(v) + 1) of them, so when that count is
    the slice dimension (the GKM Betti numbers are the Morse ones) they
    span the slice.  The numerator is linear and N(x^a * f) = x^a * N(f),
    so it vanishes on the slice iff it vanishes on each tau_v^+ there.
    """
    n = og.graph.valence
    down = {v: og.down_degree(v) for v in og.graph.vertex_ids()}
    for d in range(n):
        count = sum(d - dd + 1 for dd in down.values() if dd <= d)
        dimension = slice_dimension(og.graph, d)
        _require(count == dimension,
                 f"degree {d}: {count} Thom products but slice dimension {dimension}")
    for v, dd in down.items():
        if dd < n:
            try:
                check_low_degree_vanishing(og, thom_class(og, v, "plus"))
            except NonZero as exc:
                raise NonZero(f"tau_{v}^+: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GkmError(message)
