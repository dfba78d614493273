"""Subvarieties reached from the 13-fold by freezing parameter entries.

Three targets have their own coordinates and defining equations:

  m8   twelve coordinates packed into a trace-free 2x2 block, a full 2x2
       block, another trace-free block, and two scalars (ten equations);
  s6   a symmetric 3x3 block, a 3-vector and a scalar (nine equations);
  c2   thirteen cluster coordinates with nine exchange relations.

For each one a coordinate dictionary maps the 17 ambient variables into
the target ring; substituting it into the nine ambient generators must
reproduce the target's span exactly.  The partial specializations ``h12``
and ``h11`` just freeze one or two parameter entries and are emitted
without an external target.  Dictionary names (m8, s6, c2, h12, h11)
are the stable interface used by the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Sequence

from . import grading, hvariety
from .errors import UnknownDictionary
from .exactcore import (Batch, EquationSet, Poly, PolyMatrix, Rational, Report, Ring,
                        SpanResult, compile_batch, span_compare)

M8_VARS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "w1", "w2", "w3", "y", "z")
S6_VARS = ("s11", "s12", "s13", "s22", "s23", "s33",
           "sigma1", "sigma2", "sigma3", "t")
C2_VARS = ("th12", "th23", "th31", "th1", "th2", "th3",
           "A12", "A23", "A31", "A1", "A2", "A3", "lam")


def m8_ring(extra: Sequence[str] = ()) -> Ring:
    return Ring(M8_VARS + tuple(extra))


def s6_ring(extra: Sequence[str] = ()) -> Ring:
    return Ring(S6_VARS + tuple(extra))


def c2_ring() -> Ring:
    return Ring(C2_VARS)


def _m8_blocks(ring: Ring) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix, Poly, Poly]:
    v = ring.var
    X1 = PolyMatrix.from_rows(ring, [[v("x1"), v("x2")], [v("x3"), -v("x1")]])
    X2 = PolyMatrix.from_rows(ring, [[v("x4"), v("x5")], [v("x6"), v("x7")]])
    W = PolyMatrix.from_rows(ring, [[v("w1"), v("w2")], [v("w3"), -v("w1")]])
    return X1, X2, W, v("y"), v("z")


def m8_equations() -> EquationSet:
    """Ten generators: one scalar determinant relation, two 2x2 matrix
    relations, and one more scalar determinant relation."""
    ring = m8_ring()
    X1, X2, W, y, z = _m8_blocks(ring)
    gens: list[Poly] = [y * z - X2.det()]
    labels = ["det-yz"]
    yw = W.scale(y) - X2.adjugate() * X1 * X2
    for i in range(2):
        for j in range(2):
            gens.append(yw.get(i, j))
            labels.append(f"yw{i + 1}{j + 1}")
    xw = X2 * W - (X1 * X2).scale(z)
    for i in range(2):
        for j in range(2):
            gens.append(xw.get(i, j))
            labels.append(f"xw{i + 1}{j + 1}")
    gens.append(W.det() - z * z * X1.det())
    labels.append("det-w")
    return EquationSet(ring, tuple(gens), tuple(labels))


def _s6_blocks(ring: Ring) -> tuple[PolyMatrix, tuple[Poly, Poly, Poly], Poly]:
    v = ring.var
    S = PolyMatrix.from_rows(ring, [
        [v("s11"), v("s12"), v("s13")],
        [v("s12"), v("s22"), v("s23")],
        [v("s13"), v("s23"), v("s33")],
    ])
    return S, (v("sigma1"), v("sigma2"), v("sigma3")), v("t")


def s6_equations(ring: Ring | None = None) -> EquationSet:
    """Nine generators: the kernel condition on the vector and the six
    distinct entries of the adjugate identity."""
    if ring is None:
        ring = s6_ring()
    S, sigma, t = _s6_blocks(ring)
    gens = list(S.apply(sigma))
    labels = ["ker1", "ker2", "ker3"]
    adj = S.adjugate()
    for i in range(3):
        for j in range(i, 3):
            gens.append(adj.get(i, j) - t * sigma[i] * sigma[j])
            labels.append(f"adj{i + 1}{j + 1}")
    return EquationSet(ring, tuple(gens), tuple(labels))


def c2_equations() -> EquationSet:
    """The nine exchange relations over the three cyclic index triples."""
    ring = c2_ring()
    v = ring.var

    def th(i: int, j: int) -> Poly:
        pair = {frozenset((1, 2)): "th12", frozenset((2, 3)): "th23",
                frozenset((3, 1)): "th31"}[frozenset((i, j))]
        return v(pair)

    def A(i: int, j: int | None = None) -> Poly:
        if j is None:
            return v(f"A{i}")
        pair = {frozenset((1, 2)): "A12", frozenset((2, 3)): "A23",
                frozenset((3, 1)): "A31"}[frozenset((i, j))]
        return v(pair)

    lam = v("lam")
    gens: list[Poly] = []
    labels: list[str] = []
    for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        gens.append(v(f"th{i}") * v(f"th{j}") - A(i, j) * th(i, j)
                    - A(j, k) * A(k) * A(k, i))
        labels.append(f"ex1-{i}{j}{k}")
        gens.append(th(k, i) * th(i, j) - A(i) * v(f"th{i}") ** 2
                    - lam * A(j, k) * v(f"th{i}") - A(j) * A(j, k) ** 2 * A(k))
        labels.append(f"ex2-{i}{j}{k}")
        gens.append(v(f"th{i}") * th(j, k) - A(i, j) * A(j) * v(f"th{j}")
                    - lam * A(k, i) * A(i, j) - A(k) * A(k, i) * v(f"th{k}"))
        labels.append(f"ex3-{i}{j}{k}")
    return EquationSet(ring, tuple(gens), tuple(labels))


# ---------------------------------------------------------------------------
# Coordinate dictionaries into the ambient 17-variable ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dictionary:
    """Images of the seventeen ambient variables inside a target ring.

    ``mapping`` sends every ambient variable to a polynomial in the target
    coordinates (frozen parameter entries map to constants).
    """

    name: str
    target: Ring
    mapping: dict[str, Poly]

    def specialize(self) -> EquationSet:
        eqs = hvariety.equations()
        return eqs.substitute(self.mapping, self.target)


def _m8_dictionary() -> Dictionary:
    ring = m8_ring()
    v = ring.var
    c = ring.const
    mapping = {
        "x11": v("w1"), "x21": v("z"),
        "x12": v("x5"), "x22": v("x7"),
        "x13": v("x4"), "x23": v("x6"),
        "u1": -v("y"), "u2": -v("w3"), "u3": -v("w2"),
        "p111": -v("x2"), "p211": c(0), "p121": v("x1"), "p221": c(-1),
        "p112": v("x1"), "p212": c(1), "p122": v("x3"), "p222": c(0),
    }
    return Dictionary("m8", ring, mapping)


def _s6_dictionary() -> Dictionary:
    ring = s6_ring()
    v = ring.var
    c = ring.const
    mapping = {
        "u1": v("s11"), "x13": v("s12"), "x12": v("s13"),
        "u2": v("s22"), "x11": v("s23"), "u3": v("s33"),
        "x21": v("sigma1"), "x22": v("sigma2"), "x23": v("sigma3"),
        "p111": -v("t"),
        "p221": c(1), "p212": c(1), "p122": c(1),
        "p222": c(0), "p211": c(0), "p121": c(0), "p112": c(0),
    }
    return Dictionary("s6", ring, mapping)


def _c2_dictionary() -> Dictionary:
    ring = c2_ring()
    v = ring.var
    c = ring.const
    mapping = {
        "u1": v("th12"), "u2": v("th23"), "u3": v("th31"),
        "x11": v("A12"), "x21": v("th3"),
        "x12": v("A23"), "x22": v("th1"),
        "x13": v("A31"), "x23": v("th2"),
        "p212": -v("A1"), "p221": -v("A2"), "p122": -v("A3"),
        "p222": v("lam"),
        "p121": c(0), "p112": c(0), "p211": c(0), "p111": c(1),
    }
    return Dictionary("c2", ring, mapping)


def _partial_dictionary(name: str, frozen: Mapping[str, Rational]) -> Dictionary:
    from .coord8 import ALL_VARS
    keep = tuple(n for n in ALL_VARS if n not in frozen)
    ring = Ring(keep)
    mapping: dict[str, Poly] = {n: ring.var(n) for n in keep}
    for n, val in frozen.items():
        mapping[n] = ring.const(val)
    return Dictionary(name, ring, mapping)


def dictionary(name: str) -> Dictionary:
    builders: dict[str, Callable[[], Dictionary]] = {
        "m8": _m8_dictionary,
        "s6": _s6_dictionary,
        "c2": _c2_dictionary,
        "h12": lambda: _partial_dictionary("h12", {"p111": 1}),
        "h11": lambda: _partial_dictionary("h11", {"p111": 1, "p121": 1}),
    }
    try:
        return builders[name]()
    except KeyError:
        raise UnknownDictionary(name) from None


TARGET_EQUATIONS: dict[str, Callable[[], EquationSet]] = {
    "m8": m8_equations,
    "s6": s6_equations,
    "c2": c2_equations,
}


@dataclass
class SpecializationReport:
    """The specialized generators and, for a name with a target system,
    their span comparison with it (``span``; None for ``h12`` and ``h11``)."""

    specialized: EquationSet
    span: SpanResult | None

    @property
    def ok(self) -> bool:
        return self.span is None or self.span.equal


def verify_specialization(d: Dictionary | str) -> SpecializationReport:
    """Substitute a dictionary, or the one of that name, into the nine
    ambient generators and compare spans with the target equations of its
    name (names with no target emit the specialized set only)."""
    if isinstance(d, str):
        d = dictionary(d)
    specialized = d.specialize()
    if d.name not in TARGET_EQUATIONS:
        return SpecializationReport(specialized, None)
    target = TARGET_EQUATIONS[d.name]()
    return SpecializationReport(specialized, span_compare(specialized.gens, target.gens))


def composed_specialization_check() -> bool:
    """Freezing the remaining three cluster parameters inside the first
    partial specialization reproduces the cluster system's span."""
    h12 = verify_specialization("h12").specialized
    ring = h12.ring
    step = {n: ring.var(n) for n in ring.names}
    step["p121"] = ring.const(0)
    step["p112"] = ring.const(0)
    step["p211"] = ring.const(0)
    narrowed = h12.substitute(step, ring)
    c2 = dictionary("c2")
    relabel = {n: c2.mapping[n] for n in ring.names}
    via_h12 = narrowed.substitute(relabel, c2.target)
    return span_compare(via_h12.gens, c2_equations().gens).relation == "equal"


# ---------------------------------------------------------------------------
# Cluster-variety images of the matrix subvarieties
# ---------------------------------------------------------------------------

# Dictionary names for the two embeddings; values map the target variables
# to polynomials in the cluster coordinates on the stated slice.


def _c2_to_m8_images(ring: Ring) -> dict[str, Poly]:
    v = ring.var
    half = Fraction(1, 2)
    return {
        "x1": half * v("lam"), "x2": v("A2"), "x3": -v("A1"),
        "x4": v("th1"), "x5": v("A31"), "x6": v("A23"), "x7": v("th2"),
        "w1": v("th3") + half * v("lam") * v("A12"),
        "w2": v("th23"), "w3": -v("th31"),
        "y": v("th12"), "z": v("A12"),
    }


def _c2_to_s7_images(ring: Ring) -> dict[str, Poly]:
    v = ring.var
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    return {
        "s11": v("th12"),
        "s12": -v("th1") + half * v("lam") * v("A23"),
        "s13": v("A31") - half * v("lam") * v("th2"),
        "s22": -v("th31"),
        "s23": v("th3") + half * v("lam") * v("A12"),
        "s33": -v("th23"),
        "sigma1": v("A12"), "sigma2": v("th2"), "sigma3": v("A23"),
        "t": -quarter * v("lam") ** 2 - v("A2"),
    }


EMBEDDING_SLICES = {
    "I": {"p122": Fraction(-1)},                      # unit third cluster scalar
    "II": {"p122": Fraction(-1), "p212": Fraction(1)},  # and first scalar = -1
}


def cluster_point(rng: random.Random, part: str) -> dict[str, Fraction]:
    """Sampled variety point on the cluster slice, in cluster coordinates."""
    constraints = {"p121": Fraction(0), "p112": Fraction(0),
                   "p211": Fraction(0), "p111": Fraction(1)}
    constraints.update(EMBEDDING_SLICES[part])
    point = hvariety.sample_point(rng, constraints)
    return {name: point[amb] / coeff for amb, name, coeff in _c2_inverse()}


@cache
def _c2_inverse() -> tuple[tuple[str, str, Rational], ...]:
    """The linear entries of the c2 dictionary, as (ambient coordinate,
    cluster coordinate, coefficient): dividing the ambient value by the
    coefficient inverts the (linear, triangular) dictionary on the slice."""
    c2 = dictionary("c2")
    out = []
    for amb, img in c2.mapping.items():
        if len(img.terms) == 1:
            (mono, coeff), = img.terms.items()
            if sum(mono) == 1:
                out.append((amb, c2.target.names[mono.index(1)], coeff))
    return tuple(out)


@cache
def _embedding_batches(part: str) -> tuple[tuple[str, ...], Batch, tuple[str, ...], Batch]:
    """The target coordinates of one embedding, their compiled images in
    the cluster coordinates, and the labels and compiled generators of the
    target system."""
    if part == "I":
        target, images = m8_equations(), _c2_to_m8_images(c2_ring())
    else:
        target, images = s6_equations(), _c2_to_s7_images(c2_ring())
    return (tuple(images), compile_batch(tuple(images.values())), target.labels,
            compile_batch(target.gens))


def verify_cluster_embedding(part: str, seed: int, samples: int = 30) -> Report:
    """Certify one of the two cluster-slice embeddings.

    Sampled cluster points pushed through the embedding dictionary must
    satisfy every target generator exactly, and the weight relations that
    make the dictionary homogeneous must hold on the solved weight
    lattice of the exchange relations.
    """
    if part not in ("I", "II"):
        raise ValueError("part must be 'I' or 'II'")
    rng = random.Random(f"{seed}:embedding:{part}")
    failures: list[str] = []
    names, images, labels, target = _embedding_batches(part)

    for k in range(samples):
        cpt = cluster_point(rng, part)
        for v, lbl in zip(target(dict(zip(names, images(cpt)))), labels):
            if v != 0:
                failures.append(f"part {part}: generator {lbl} fails on sample {k}")
        if failures:
            break

    # the cone coordinate never appears in the target equations
    if part == "II":
        used = set()
        for g in s6_equations(s6_ring(("sigma0",))).gens:
            used |= g.variables()
        if "sigma0" in used:
            failures.append("cone coordinate appears in the equations")

    fixed = {"A3": Fraction(0)} if part == "I" else {"A3": Fraction(0), "A1": Fraction(0)}
    lattice = grading.solve_weight_constraints(c2_equations(), fixed)
    relations = {
        "I": {"w(th3)=w(lam)+w(A12)": {"th3": 1, "lam": -1, "A12": -1}},
        "II": {
            "w(th1)=w(lam)+w(A23)": {"th1": 1, "lam": -1, "A23": -1},
            "w(A31)=w(lam)+w(th2)": {"A31": 1, "lam": -1, "th2": -1},
            "w(th3)=w(lam)+w(A12)": {"th3": 1, "lam": -1, "A12": -1},
            "w(A2)=2w(lam)": {"A2": 1, "lam": -2},
        },
    }[part]
    holds = {label: lattice.relation_holds(rel) for label, rel in relations.items()}
    return Report(not failures and all(holds.values()),
                  {"samples": samples, "weight_relations": holds, "failures": failures})


# ---------------------------------------------------------------------------
# Group-action certificates on the matrix subvarieties
# ---------------------------------------------------------------------------


def m8_action_certificate() -> Report:
    """Exact transformation law of the ten generators under the symbolic
    two-factor action.

    The scalar used for the last coordinate carries an inverse determinant;
    clearing it, each transformed block equals a stated matrix combination
    of the original blocks, so the span is preserved."""
    ring = m8_ring(("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2"))
    v = ring.var
    g1 = PolyMatrix.from_rows(ring, [[v("a1"), v("b1")], [v("c1"), v("d1")]])
    g2 = PolyMatrix.from_rows(ring, [[v("a2"), v("b2")], [v("c2"), v("d2")]])
    det1, det2 = g1.det(), g2.det()

    X1, X2, W, y, z = _m8_blocks(ring)
    X1n = g1 * X1 * g1.adjugate()
    X2n = g1 * X2 * g2.adjugate()
    Wn = g2 * W * g2.adjugate()
    yn = det1 * det1 * y
    # z maps to z times det2 over det1; track the cleared numerator and the
    # power of det1 cleared from each generator
    zn = det2 * z

    failures: list[str] = []

    def entry_check(label: str, got: PolyMatrix, want: PolyMatrix) -> None:
        for a, b in zip(got.entries, want.entries):
            if a != b:
                failures.append(f"{label}: transformed block mismatch")
                return

    # y z - det X2, cleared by det1
    got = yn * zn - det1 * (X2n.det())
    want = det1 * det1 * det2 * (y * z - X2.det())
    if got != want:
        failures.append("determinant generator transforms incorrectly")

    # y W - adj(X2) X1 X2 needs no clearing
    got_m = Wn.scale(yn) - X2n.adjugate() * X1n * X2n
    want_m = (g2 * (W.scale(y) - X2.adjugate() * X1 * X2) * g2.adjugate()).scale(det1 * det1)
    entry_check("left matrix generator", got_m, want_m)

    # X2 W - z X1 X2, cleared by det1
    got_m = (X2n * Wn).scale(det1) - (X1n * X2n).scale(zn)
    want_m = (g1 * (X2 * W - (X1 * X2).scale(z)) * g2.adjugate()).scale(det1 * det2)
    entry_check("right matrix generator", got_m, want_m)

    # det W - z^2 det X1, cleared by det1^2
    got = det1 * det1 * Wn.det() - zn * zn * X1n.det()
    want = det1 * det1 * det2 * det2 * (W.det() - z * z * X1.det())
    if got != want:
        failures.append("second determinant generator transforms incorrectly")
    return Report(not failures, {"failures": failures})


def s6_action_certificate() -> Report:
    """Exact transformation law of the nine generators under a symbolic
    3x3 change of frame."""
    names = tuple(f"g{i}{j}" for i in range(1, 4) for j in range(1, 4))
    ring = s6_ring(names)
    g = PolyMatrix.from_rows(ring, [[ring.var(f"g{i}{j}") for j in range(1, 4)]
                                    for i in range(1, 4)])
    S, sigma, t = _s6_blocks(ring)
    gt = g.transpose()
    Sn = g * S * gt
    adj_gt = gt.adjugate()
    sigman = adj_gt.apply(sigma)
    detg = g.det()

    failures: list[str] = []
    got_vec = Sn.apply(sigman)
    want_vec = tuple(detg * comp for comp in (g.apply(S.apply(sigma))))
    for a, b in zip(got_vec, want_vec):
        if a != b:
            failures.append("kernel generator transforms incorrectly")
            break

    diff = Sn.adjugate() - _outer(sigman, sigman, ring).scale(t)
    base = S.adjugate() - _outer(sigma, sigma, ring).scale(t)
    want_m = adj_gt * base * adj_gt.transpose()
    for a, b in zip(diff.entries, want_m.entries):
        if a != b:
            failures.append("adjugate generator transforms incorrectly")
            break
    return Report(not failures, {"failures": failures})


def _outer(u: Sequence[Poly], v: Sequence[Poly], ring: Ring) -> PolyMatrix:
    return PolyMatrix.from_rows(ring, [[a * b for b in v] for a in u])


def m8_trace_consistency() -> bool:
    """The trace of the sandwich block vanishes identically, matching the
    trace-free shape of the left-hand block."""
    ring = m8_ring()
    X1, X2, _, _, _ = _m8_blocks(ring)
    return (X2.adjugate() * X1 * X2).trace().is_zero()
