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
without an external target.

Each dictionary is one row of ``DICTIONARIES``: its target coordinates,
the image of every ambient variable (a target coordinate, its negative,
or an integer) and its target equations, or None.  Each Coughlan-Ducat
cluster-slice embedding is one row of ``EMBEDDINGS``.  A row is the one
home of its case, and the command line iterates the rows.  The cluster
slice pins the integer entries of ``c2`` and inverts its signed ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from . import grading, hvariety
from .coord8 import ALL_VARS
from .exactcore import (Batch, EquationSet, Point, Poly, PolyMatrix, Report, Ring,
                        compile_batch, span_compare)

M8_VARS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "w1", "w2", "w3", "y", "z")
S6_VARS = ("s11", "s12", "s13", "s22", "s23", "s33",
           "sigma1", "sigma2", "sigma3", "t")
C2_VARS = ("th12", "th23", "th31", "th1", "th2", "th3",
           "A12", "A23", "A31", "A1", "A2", "A3", "lam")


def _m8_blocks(ring: Ring) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix, Poly, Poly]:
    v = ring.var
    X1 = PolyMatrix.from_rows(ring, [[v("x1"), v("x2")], [v("x3"), -v("x1")]])
    X2 = PolyMatrix.from_rows(ring, [[v("x4"), v("x5")], [v("x6"), v("x7")]])
    W = PolyMatrix.from_rows(ring, [[v("w1"), v("w2")], [v("w3"), -v("w1")]])
    return X1, X2, W, v("y"), v("z")


def m8_equations() -> EquationSet:
    """Ten generators: one scalar determinant relation, two 2x2 matrix
    relations, and one more scalar determinant relation."""
    ring = Ring(M8_VARS)
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


def s6_equations() -> EquationSet:
    """Nine generators: the kernel condition on the vector and the six
    distinct entries of the adjugate identity."""
    ring = Ring(S6_VARS)
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
    ring = Ring(C2_VARS)
    v = ring.var
    lam = v("lam")
    gens: list[Poly] = []
    labels: list[str] = []
    # in a cyclic triple the pairs (i, j), (j, k), (k, i) are 12, 23, 31 in some order
    for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        gens.append(v(f"th{i}") * v(f"th{j}") - v(f"A{i}{j}") * v(f"th{i}{j}")
                    - v(f"A{j}{k}") * v(f"A{k}") * v(f"A{k}{i}"))
        labels.append(f"ex1-{i}{j}{k}")
        gens.append(v(f"th{k}{i}") * v(f"th{i}{j}") - v(f"A{i}") * v(f"th{i}") ** 2
                    - lam * v(f"A{j}{k}") * v(f"th{i}")
                    - v(f"A{j}") * v(f"A{j}{k}") ** 2 * v(f"A{k}"))
        labels.append(f"ex2-{i}{j}{k}")
        gens.append(v(f"th{i}") * v(f"th{j}{k}") - v(f"A{i}{j}") * v(f"A{j}") * v(f"th{j}")
                    - lam * v(f"A{k}{i}") * v(f"A{i}{j}")
                    - v(f"A{k}") * v(f"A{k}{i}") * v(f"th{k}"))
        labels.append(f"ex3-{i}{j}{k}")
    return EquationSet(ring, tuple(gens), tuple(labels))


# ---------------------------------------------------------------------------
# Coordinate dictionaries into the ambient 17-variable ring
# ---------------------------------------------------------------------------


class Dictionary(NamedTuple):
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


def _freezing(frozen: dict[str, int]) -> tuple[tuple[str, ...], dict[str, str | int], None]:
    """The row of a partial specialization: it keeps every ambient variable
    it does not freeze, under its own name, and has no target equations."""
    return (tuple(n for n in ALL_VARS if n not in frozen),
            {n: frozen.get(n, n) for n in ALL_VARS}, None)


# name: (target coordinates, image of each ambient variable, target equations
# or None), where an image is a target coordinate, "-" and a coordinate for
# its negative, or an integer
DICTIONARIES = {
    "c2": (C2_VARS, {
        "u1": "th12", "u2": "th23", "u3": "th31",
        "x11": "A12", "x21": "th3", "x12": "A23", "x22": "th1", "x13": "A31", "x23": "th2",
        "p212": "-A1", "p221": "-A2", "p122": "-A3", "p222": "lam",
        "p121": 0, "p112": 0, "p211": 0, "p111": 1}, c2_equations),
    "m8": (M8_VARS, {
        "x11": "w1", "x21": "z", "x12": "x5", "x22": "x7", "x13": "x4", "x23": "x6",
        "u1": "-y", "u2": "-w3", "u3": "-w2",
        "p111": "-x2", "p211": 0, "p121": "x1", "p221": -1,
        "p112": "x1", "p212": 1, "p122": "x3", "p222": 0}, m8_equations),
    "s6": (S6_VARS, {
        "u1": "s11", "x13": "s12", "x12": "s13", "u2": "s22", "x11": "s23", "u3": "s33",
        "x21": "sigma1", "x22": "sigma2", "x23": "sigma3", "p111": "-t", "p221": 1, "p212": 1,
        "p122": 1, "p222": 0, "p211": 0, "p121": 0, "p112": 0}, s6_equations),
    "h12": _freezing({"p111": 1}),
    "h11": _freezing({"p111": 1, "p121": 1}),
}


# the frozen entries of the c2 dictionary, and (position in ``C2_VARS``,
# position in ``ALL_VARS``, sign) of each signed coordinate it maps to: on
# the cluster slice the dictionary is linear, and the signs invert it
_C2_FROZEN = {n: v for n, v in DICTIONARIES["c2"][1].items() if isinstance(v, int)}
_C2_SIGNED = tuple(
    (C2_VARS.index(img.lstrip("-")), ALL_VARS.index(amb), -1 if img[0] == "-" else 1)
    for amb, img in DICTIONARIES["c2"][1].items() if isinstance(img, str))


def dictionary(name: str) -> Dictionary:
    coords, images, _ = DICTIONARIES[name]
    ring = Ring(coords)
    return Dictionary(name, ring, {
        amb: ring.const(img) if isinstance(img, int)
        else -ring.var(img[1:]) if img[0] == "-" else ring.var(img)
        for amb, img in images.items()})


def verify_specialization(d: Dictionary) -> Report:
    """Substitute a dictionary into the nine ambient generators and compare
    spans with the target equations of its row: the data is the relation,
    and, when the spans differ, the first specialized generator outside the
    target span (None if there is none).  A name with no target only emits
    the specialized set; its data counts the generators."""
    specialized = d.specialize()
    target = DICTIONARIES[d.name][2]
    if target is None:
        return Report(True, {"generators": len(specialized)})
    span = span_compare(specialized.gens, target().gens)
    data = {"relation": span.relation}
    if not span.equal:
        data["residual"] = next(
            (g for g, w in zip(specialized.gens, span.a_in_b) if w is None), None)
    return Report(span.equal, data)


def composed_specialization_check() -> Report:
    """Freezing the remaining three cluster parameters inside the first
    partial specialization reproduces the cluster system's span; the claim
    reports no data."""
    h12 = dictionary("h12").specialize()
    ring = h12.ring
    narrowed = h12.substitute({n: v for n, v in _C2_FROZEN.items() if n in ring}, ring)
    c2 = dictionary("c2")
    relabel = {n: c2.mapping[n] for n in ring.names}
    via_h12 = narrowed.substitute(relabel, c2.target)
    return Report(span_compare(via_h12.gens, c2_equations().gens).equal, {})


# ---------------------------------------------------------------------------
# Cluster-variety images of the matrix subvarieties
# ---------------------------------------------------------------------------


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


# part: (target dictionary, images of its coordinates in the cluster
# coordinates on the slice, the slice as pinned cube entries, and by label
# the weight relations that make the images homogeneous)
EMBEDDINGS = {
    "I": ("m8", _c2_to_m8_images, {"p122": Fraction(-1)},  # unit third cluster scalar
          {"w(th3)=w(lam)+w(A12)": {"th3": 1, "lam": -1, "A12": -1}}),
    "II": ("s6", _c2_to_s7_images,
           {"p122": Fraction(-1), "p212": Fraction(1)},  # and first scalar = -1
           {"w(th1)=w(lam)+w(A23)": {"th1": 1, "lam": -1, "A23": -1},
            "w(A31)=w(lam)+w(th2)": {"A31": 1, "lam": -1, "th2": -1},
            "w(th3)=w(lam)+w(A12)": {"th3": 1, "lam": -1, "A12": -1},
            "w(A2)=2w(lam)": {"A2": 1, "lam": -2}}),
}


def _cluster_point(rng: random.Random, part: str) -> Point:
    """A sampled variety point on the cluster slice, over ``C2_VARS``."""
    _, _, pins, _ = EMBEDDINGS[part]
    pinned = {n: (v, 1) for n, v in _C2_FROZEN.items()}
    pinned.update((n, v.as_integer_ratio()) for n, v in pins.items())
    nums, den = hvariety._sample(rng, pinned)
    out = [0] * len(C2_VARS)
    for k, amb, sign in _C2_SIGNED:
        out[k] = sign * nums[amb]
    return out, den


@cache
def _embedding_batches(part: str) -> tuple[Batch, tuple[str, ...], Batch]:
    """The compiled images of the target coordinates in the cluster
    coordinates, in the target ring's order, and the labels and compiled
    generators of the target system."""
    name, embedding, _, _ = EMBEDDINGS[part]
    target, images = DICTIONARIES[name][2](), embedding(Ring(C2_VARS))
    return (compile_batch([images[n] for n in target.ring.names]), target.labels,
            compile_batch(target.gens))


def verify_cluster_embedding(part: str, seed: int, samples: int) -> Report:
    """Certify one of the two cluster-slice embeddings: sampled cluster points
    pushed through the embedding dictionary satisfy every target generator
    exactly, and the weight relations that make the dictionary homogeneous
    hold on the solved weight lattice of the exchange relations."""
    images, labels, target = _embedding_batches(part)
    def check(rng: random.Random, k: int) -> str | None:
        for v, lbl in zip(target(*images(*_cluster_point(rng, part)))[0], labels):
            if v != 0:
                return f"part {part}: generator {lbl} fails on sample {k}"

    passed, failure = hvariety.sampled(f"{seed}:embedding:{part}", samples, check)

    # a cluster coordinate the slice pins to a nonzero constant has weight zero
    _, _, pins, relations = EMBEDDINGS[part]
    fixed = {DICTIONARIES["c2"][1][n].lstrip("-"): Fraction(0) for n in pins}
    lattice = grading.solve_weight_constraints(c2_equations(), fixed)
    holds = {label: lattice.relation_holds(rel) for label, rel in relations.items()}
    failures = [failure] if failure else []
    return Report(not failures and all(holds.values()),
                  {"samples": passed, "weight_relations": holds, "failures": failures})


# ---------------------------------------------------------------------------
# Group-action certificates on the matrix subvarieties
# ---------------------------------------------------------------------------


def m8_action_certificate() -> Report:
    """Exact transformation law of the ten generators under the symbolic
    two-factor action.

    The scalar used for the last coordinate carries an inverse determinant;
    clearing it, each transformed block equals a stated matrix combination
    of the original blocks, so the span is preserved."""
    ring = Ring(M8_VARS + ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2"))
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

    # (failure text, transformed generator, its stated image), a matrix
    # generator as its entry list; a law cleared by a power of det1 carries
    # that power on both sides
    laws = (
        ("determinant generator transforms incorrectly",  # y z - det X2, by det1
         yn * zn - det1 * X2n.det(), det1 * det1 * det2 * (y * z - X2.det())),
        ("left matrix generator: transformed block mismatch",  # y W - adj(X2) X1 X2
         (Wn.scale(yn) - X2n.adjugate() * X1n * X2n).entries,
         (g2 * (W.scale(y) - X2.adjugate() * X1 * X2) * g2.adjugate()).scale(det1 * det1).entries),
        ("right matrix generator: transformed block mismatch",  # X2 W - z X1 X2, by det1
         ((X2n * Wn).scale(det1) - (X1n * X2n).scale(zn)).entries,
         (g1 * (X2 * W - (X1 * X2).scale(z)) * g2.adjugate()).scale(det1 * det2).entries),
        ("second determinant generator transforms incorrectly",  # det W - z^2 det X1, by det1^2
         det1 * det1 * Wn.det() - zn * zn * X1n.det(),
         det1 * det1 * det2 * det2 * (W.det() - z * z * X1.det())),
    )
    failures = [text for text, got, want in laws if got != want]
    return Report(not failures, {"failures": failures})


def s6_action_certificate() -> Report:
    """Exact transformation law of the nine generators under a symbolic
    3x3 change of frame."""
    names = tuple(f"g{i}{j}" for i in range(1, 4) for j in range(1, 4))
    ring = Ring(S6_VARS + names)
    g = PolyMatrix.from_rows(ring, [[ring.var(f"g{i}{j}") for j in range(1, 4)]
                                    for i in range(1, 4)])
    S, sigma, t = _s6_blocks(ring)
    gt = g.transpose()
    Sn = g * S * gt
    adj_gt = gt.adjugate()
    sigman = adj_gt.apply(sigma)
    detg = g.det()

    laws = (
        ("kernel generator transforms incorrectly",
         Sn.apply(sigman), tuple(detg * comp for comp in g.apply(S.apply(sigma)))),
        ("adjugate generator transforms incorrectly",
         (Sn.adjugate() - _outer(sigman, sigman, ring).scale(t)).entries,
         (adj_gt * (S.adjugate() - _outer(sigma, sigma, ring).scale(t))
          * adj_gt.transpose()).entries),
    )
    failures = [text for text, got, want in laws if got != want]
    return Report(not failures, {"failures": failures})


def _outer(u: Sequence[Poly], v: Sequence[Poly], ring: Ring) -> PolyMatrix:
    return PolyMatrix.from_rows(ring, [[a * b for b in v] for a in u])


def m8_trace_consistency() -> Report:
    """The trace of the sandwich block vanishes identically, matching the
    trace-free shape of the left-hand block; the claim reports no data."""
    ring = Ring(M8_VARS)
    X1, X2, _, _, _ = _m8_blocks(ring)
    return Report((X2.adjugate() * X1 * X2).trace().is_zero(), {})
