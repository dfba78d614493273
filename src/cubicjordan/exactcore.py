"""Exact sparse multivariate polynomials over the rationals.

Every verification in this package reduces to exact identities between
polynomials with rational coefficients, so this module is the arithmetic
bedrock: no floats anywhere.

Representation
--------------
A ``Ring`` is an ordered tuple of variable names.  A ``Poly`` over a ring
stores a dict mapping dense exponent tuples (one entry per ring variable)
to nonzero coefficients; the zero polynomial is the empty dict.  Rings are
small (at most a few dozen variables), which keeps the dense exponent
tuples cheap.

Storage is integer-first: a coefficient is an ``int`` when it is integral
and a ``Fraction`` only otherwise, and every operation that builds terms
keeps it so.  Most coefficients met here are integers, and ``int``
arithmetic is far cheaper than ``Fraction`` arithmetic.  The API boundary
stays rational: ``constant_value``, ``coefficients``, ``evaluate_all``
and ``rref`` return ``Fraction``.

Work at a rational point runs in integers over one common denominator,
as FLINT's ``fmpq_poly`` keeps an integer polynomial with one denominator
(Hart, ICMS 2010).  A ``Point`` is that form: integer numerators in ring
order over one positive denominator, as ``over_common_denominator`` gives.
``compile_batch`` turns a fixed batch of polynomials into one generated
straight-line function with integer coefficients from a point to the
point of their values, which callers build once and call at every point.
``evaluate_all`` and ``Poly.evaluate`` compile for one use; they are where
a mapping of rationals becomes a point and values become ``Fraction``s.
``rref`` eliminates fraction-free
in integer rows, as in Bareiss's method (Math. Comp. 22, 1968), but keeps
each row small by dividing out its content instead of the previous pivot;
it divides the pivot rows by their pivots only at the end.

Symbolic substitution is batched: ``substitute_all`` applies one ring map
to a batch of polynomials, and ``Poly.substitute`` is its batch of one.
Constant images fold into the integer coefficients with one division at
the end; each non-constant image is raised to its powers once, and each
product of image powers is formed once per batch.  Most products here
have a single term pair, so their cost is their number, not their width.

Canonical display order is graded lexicographic in the registered variable
order.  It affects only printing, never results.

The module also provides polynomial matrices (determinant, adjugate,
Pfaffians of skew matrices), rational linear algebra used to compare
the Q-linear spans of equation sets, and ``Report``, the outcome of each
certificate behind one claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ContextError, ShapeError, SkewError

Rational = Union[int, Fraction]


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def over_common_denominator(values: Collection[Rational]) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator,
    and that denominator."""
    q = lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


class Ring:
    """An ordered variable context.

    Two rings compare equal iff they register the same variable names in
    the same order; polynomials may only be combined within one context.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"variable {name!r} not in {self!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, value: Rational) -> Poly:
        c = _frac(value)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c.numerator if c.denominator == 1 else c})

    def var(self, name: str) -> Poly:
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Poly(self, {tuple(exp): 1})

    def gens(self) -> tuple[Poly, ...]:
        return tuple(self.var(n) for n in self.names)

    def extend(self, extra: Iterable[str]) -> Ring:
        return Ring(self.names + tuple(extra))

    def fresh_names(self, base: str, count: int) -> tuple[str, ...]:
        """Names ``base1..baseN`` avoiding clashes with registered names."""
        out, k = [], 1
        while len(out) < count:
            cand = f"{base}{k}"
            if cand not in self._index:
                out.append(cand)
            k += 1
        return tuple(out)


class Poly:
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient,
    an int when integral and a Fraction otherwise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    @classmethod
    def collect(cls, ring: Ring, acc: dict) -> Poly:
        """The polynomial of the nonzero entries of an accumulated term dict,
        integral coefficients as ints (Fraction arithmetic keeps an integral
        result a Fraction)."""
        return cls(ring, {m: c if c.__class__ is int or c.denominator != 1
                          else c.numerator for m, c in acc.items() if c})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_in(self, names: Iterable[str], degree: int | None = None) -> bool:
        idx = [self.ring.index(n) for n in names]
        degs = {sum(m[i] for i in idx) for m in self.terms}
        if not degs:
            return True
        if degree is not None:
            return degs == {degree}
        return len(degs) == 1

    def variables(self) -> set[str]:
        used: set[str] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ring.names[i])
        return used

    def constant_value(self) -> Fraction:
        """The rational value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return _frac(c)
        raise ValueError(f"not a constant polynomial: {self}")

    def coefficients(self) -> list[Fraction]:
        return [_frac(c) for c in self.terms.values()]

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ContextError("mixed ring contexts")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly.collect(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Poly:
        return self._coerce(other) - self

    def __mul__(self, other) -> Poly:
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly(self.ring, {})
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return Poly.collect(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """Binary powering from the base itself, with no squaring after the
        last bit (Knuth, TAOCP vol. 2, 4.6.3)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not n:
            return self.ring.one()
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> Poly:
        i = self.ring.index(name)
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            mm = m[:i] + (e - 1,) + m[i + 1:]
            out[mm] = out.get(mm, 0) + c * e
        return Poly.collect(self.ring, out)

    def convert(self, ring: Ring) -> Poly:
        """Re-express over another ring, matching variables by name."""
        if ring == self.ring:
            return self
        pos = [ring.index(n) if n in ring else -1 for n in self.ring.names]
        out: dict = {}
        for m, c in self.terms.items():
            exp = [0] * ring.nvars
            for i, e in enumerate(m):
                if e:
                    if pos[i] < 0:
                        raise ContextError(
                            f"variable {self.ring.names[i]!r} absent from target ring")
                    exp[pos[i]] = e
            mm = tuple(exp)
            out[mm] = out.get(mm, 0) + c
        return Poly.collect(ring, out)

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> Poly:
        """Apply the ring map sending each mapped variable to its image; see
        ``substitute_all``, of which this is the batch of one."""
        return substitute_all((self,), mapping, ring)[0]

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """Exact value at a rational point covering every used variable."""
        return evaluate_all((self,), values)[0]

    # -- display ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Rational]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(m) if e
            ]
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __str__ = to_str

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"


Point = tuple[list[int], int]
Batch = Callable[[Sequence[int], int], Point]


def compile_batch(polys: Sequence[Poly]) -> Batch:
    """One function from a point to the values of polynomials over one ring,
    generated once from their terms as straight-line code (Kaltofen, JACM
    35(1), 1988).

    The function takes the integer numerators n_i of a point, one per ring
    variable, and their denominator Q > 0, and forms the powers of each
    used n_i and of Q in locals.  With D the top degree and L the lcm of
    the coefficient denominators of the whole batch, a term c x^a of total
    degree d adds the integer c L n^a Q^(D - d) to its polynomial's sum, and
    the function returns the sums over L Q^D: the values as a point.  A
    value is zero exactly when its sum is.  The source holds only integers,
    indices and fixed local names: no name of a ring becomes code.
    """
    ring = polys[0].ring if polys else Ring(())
    if any(p.ring != ring for p in polys):
        raise ContextError("mixed ring contexts")
    tops = [max(col) for col in zip(*(m for p in polys for m in p.terms))]
    used = [i for i, top in enumerate(tops) if top]
    lines = ["def batch(nums, den):",
             f"    if len(nums) != {ring.nvars} or den.__class__ is not int or den < 1:",
             f"        raise ValueError(f'a point needs {ring.nvars} numerators over a positive "
             "int, not {len(nums)} over {den!r}')",
             "    Q_0, Q_1 = 1, den"]
    for i in used:
        lines.append(f"    n{i}_1 = nums[{i}]")
        lines += [f"    n{i}_{e} = n{i}_{e - 1} * n{i}_1" for e in range(2, tops[i] + 1)]
    top = max((sum(m) for p in polys for m in p.terms), default=0)
    lines += [f"    Q_{e} = Q_{e - 1} * Q_1" for e in range(2, top + 1)]
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    for j, p in enumerate(polys):
        terms = []
        for m, c in p.terms.items():
            c = c.numerator * (scale // c.denominator)
            factors = [str(abs(c))] + [f"n{i}_{e}" for i, e in enumerate(m) if e]
            factors += [f"Q_{top - sum(m)}"] if sum(m) < top else []
            terms.append(("- " if c < 0 else "+ ") + "*".join(factors).removeprefix("1*"))
        for start in range(0, len(terms) or 1, 64):  # 64 terms per statement
            chunk = " ".join(terms[start:start + 64]).removeprefix("+ ") or "0"
            lines.append(f"    s{j} {'+=' if start else '='} {chunk}")
    lines.append(f"    return [{', '.join(f's{j}' for j in range(len(polys)))}], "
                 f"{scale} * Q_{top}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["batch"]


def evaluate_all(polys: Sequence[Poly], values: Mapping[str, Rational]) -> list[Fraction]:
    """Exact values of polynomials over one ring at one rational point, by
    the function ``compile_batch`` generates for them.  The point must
    cover every used variable.  A caller that evaluates one batch at many
    points compiles it once and passes it points."""
    batch = compile_batch(polys)
    names = polys[0].ring.names if polys else ()
    used = {i for p in polys for m in p.terms for i, e in enumerate(m) if e}
    try:
        vals = [_frac(values[n]) if i in used else 0 for i, n in enumerate(names)]
    except KeyError as missing:
        raise ContextError(f"no value supplied for {missing.args[0]!r}") from None
    out, den = batch(*over_common_denominator(vals))
    return [Fraction(v, den) for v in out]


def substitute_all(polys: Sequence[Poly], mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> list[Poly]:
    """Apply one ring map to a batch of polynomials over one ring.

    Unmapped variables pass through by name and must exist in the target
    ring, as must every Poly image.  The target defaults to the ring of the
    first Poly value in the mapping, else to the ring of the batch.

    A constant image p/q (a rational or a constant Poly) of a variable with
    top power E in the batch folds into the coefficients: a term with x^e
    is multiplied by the integer p^e q^(E - e), the integers of all constant
    images first and the coefficient once, and the collected terms are
    divided once by the product of the q^E.  Each non-constant image has
    its powers built once, one multiplication per step, and the product of
    image powers of each term is formed once per batch and reused by every
    term that has the same exponents of the non-constant images.
    """
    if not polys:
        return []
    source = polys[0].ring
    if any(p.ring != source for p in polys):
        raise ContextError("mixed ring contexts")
    target = ring if ring is not None else next(
        (v.ring for v in mapping.values() if isinstance(v, Poly)), source)
    if any(isinstance(v, Poly) and v.ring != target
           for v in map(mapping.get, source.names)):
        raise ContextError("mixed ring contexts")

    tables: list[tuple[int, list[int]]] = []      # constant images
    powers: dict[int, list[Poly]] = {}           # non-constant images
    passthrough: list[tuple[int, int]] = []      # (source, target) index
    den = 1
    for i, top in enumerate(map(max, zip(*(m for p in polys for m in p.terms)))):
        name = source.names[i]
        if not top:
            continue
        if name not in mapping:
            passthrough.append((i, target.index(name)))
            continue
        v = mapping[name]
        if isinstance(v, Poly):
            if any(any(m) for m in v.terms):
                powers[i] = [v]  # v^e at index e - 1
                for _ in range(top - 1):
                    powers[i].append(v * powers[i][-1])
                continue
            v = v.constant_value()
        v = _frac(v)
        tables.append((i, [v.numerator ** e * v.denominator ** (top - e)
                           for e in range(top + 1)]))
        den *= v.denominator ** top

    images = tuple(powers)
    products: dict[tuple[int, ...], Poly | None] = {}  # image exponents -> product
    results = []
    for p in polys:
        out: dict = {}
        for m, c in p.terms.items():
            if tables:
                f = 1
                for i, table in tables:
                    f *= table[m[i]]
                if not f:
                    continue
                c *= f
            exp = [0] * target.nvars
            for i, t in passthrough:
                exp[t] = m[i]
            factor = None
            if images:
                key = tuple(m[i] for i in images)
                if key not in products:
                    for i, e in zip(images, key):
                        if e:
                            factor = powers[i][e - 1] if factor is None else factor * powers[i][e - 1]
                    products[key] = factor
                factor = products[key]
            if factor is None:
                exp = tuple(exp)
                out[exp] = out.get(exp, 0) + c
                continue
            for fm, fc in factor.terms.items():
                mm = tuple(map(add, exp, fm))
                out[mm] = out.get(mm, 0) + c * fc
        if den != 1:
            out = {m: Fraction(c, den) for m, c in out.items()}
        results.append(Poly.collect(target, out))
    return results


def directional_derivative(f: Poly, direction: Mapping[str, "Poly | Rational"]) -> Poly:
    """Sum over variables of (df/dv) times the direction component at v.

    Direction components may be rationals or polynomials over f's ring (or
    a common extension); missing components count as zero.
    """
    target = f.ring
    for v in direction.values():
        if isinstance(v, Poly):
            target = v.ring
            break
    out = target.zero()
    for name in f.variables():
        comp = direction.get(name, 0)
        comp = comp if isinstance(comp, Poly) else target.const(comp)
        if comp.is_zero():
            continue
        out = out + f.derivative(name).convert(target) * comp
    return out


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Dense matrix with Poly entries, row-major."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: Sequence[Poly]):
        if len(entries) != rows * cols:
            raise ShapeError(f"need {rows * cols} entries, got {len(entries)}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence["Poly | Rational"]]) -> PolyMatrix:
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ShapeError("ragged rows")
            for v in r:
                flat.append(v if isinstance(v, Poly) else ring.const(v))
        return cls(ring, nr, nc, flat)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> PolyMatrix:
        return cls.from_rows(ring, [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])

    def get(self, i: int, j: int) -> Poly:
        return self.entries[i * self.cols + j]

    def transpose(self) -> PolyMatrix:
        return PolyMatrix(self.ring, self.cols, self.rows,
                          [self.get(i, j) for j in range(self.cols)
                           for i in range(self.rows)])

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        self._same_shape(other)
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        self._same_shape(other)
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> PolyMatrix:
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [-a for a in self.entries])

    def _same_shape(self, other: PolyMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch")

    def scale(self, c: "Poly | Rational") -> PolyMatrix:
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [e * c for e in self.entries])

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ShapeError("inner dimensions differ")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.ring.zero()
                for k in range(self.cols):
                    acc = acc + self.get(i, k) * other.get(k, j)
                out.append(acc)
        return PolyMatrix(self.ring, self.rows, other.cols, out)

    def apply(self, vec: Sequence[Poly]) -> tuple[Poly, ...]:
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = self.ring.zero()
            for k in range(self.cols):
                acc = acc + self.get(i, k) * vec[k]
            out.append(acc)
        return tuple(out)

    def trace(self) -> Poly:
        if self.rows != self.cols:
            raise ShapeError("trace of non-square matrix")
        acc = self.ring.zero()
        for i in range(self.rows):
            acc = acc + self.get(i, i)
        return acc

    def _minor_det(self, row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Poly:
        n = len(row_idx)
        if n == 1:
            return self.get(row_idx[0], col_idx[0])
        if n == 2:
            a, b = row_idx
            c, d = col_idx
            return self.get(a, c) * self.get(b, d) - self.get(a, d) * self.get(b, c)
        acc = self.ring.zero()
        rest = row_idx[1:]
        for j, col in enumerate(col_idx):
            sub = self._minor_det(rest, col_idx[:j] + col_idx[j + 1:])
            term = self.get(row_idx[0], col) * sub
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def det(self) -> Poly:
        if self.rows != self.cols:
            raise ShapeError("determinant of non-square matrix")
        if self.rows == 0:
            return self.ring.one()
        idx = tuple(range(self.rows))
        return self._minor_det(idx, idx)

    def adjugate(self) -> PolyMatrix:
        """Adjoint matrix: satisfies M * adj(M) = det(M) * I exactly."""
        if self.rows != self.cols:
            raise ShapeError("adjugate of non-square matrix")
        n = self.rows
        if n == 1:
            return PolyMatrix.identity(self.ring, 1)
        out = []
        full = tuple(range(n))
        for i in range(n):
            for j in range(n):
                # adj[i][j] is the (j, i) cofactor
                rows = tuple(r for r in full if r != j)
                cols = tuple(c for c in full if c != i)
                cof = self._minor_det(rows, cols)
                out.append(cof if (i + j) % 2 == 0 else -cof)
        return PolyMatrix(self.ring, n, n, out)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if not self.get(i, i).is_zero():
                return False
            for j in range(i + 1, self.cols):
                if self.get(i, j) != -self.get(j, i):
                    return False
        return True

    def _pf(self, idx: tuple[int, ...]) -> Poly:
        if not idx:
            return self.ring.one()
        i0 = idx[0]
        rest = idx[1:]
        acc = self.ring.zero()
        for pos, j in enumerate(rest):
            sub = self._pf(rest[:pos] + rest[pos + 1:])
            term = self.get(i0, j) * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        return acc

    def sub_pfaffians(self) -> list[Poly]:
        """For odd skew M: Pfaffians of M with row/column i deleted.

        Entry i carries the sign (-1)^i (0-indexed), so that for a 5x5
        skew matrix the five signed 4x4 Pfaffians are returned.
        """
        if self.rows != self.cols or self.rows % 2 != 1:
            raise ShapeError("sub-Pfaffians need an odd square matrix")
        if not self.is_skew():
            raise SkewError("matrix is not skew-symmetric")
        full = tuple(range(self.rows))
        out = []
        for i in full:
            pf = self._pf(tuple(k for k in full if k != i))
            out.append(pf if i % 2 == 0 else -pf)
        return out

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> PolyMatrix:
        entries = substitute_all(self.entries, mapping, ring)
        return PolyMatrix(entries[0].ring if entries else self.ring,
                          self.rows, self.cols, entries)

    def __repr__(self) -> str:
        rows = ["[" + ", ".join(str(self.get(i, j)) for j in range(self.cols)) + "]"
                for i in range(self.rows)]
        return "PolyMatrix(" + "; ".join(rows) + ")"


# ---------------------------------------------------------------------------
# Rational linear algebra and span comparison
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[Rational]], ncols: int
         ) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form, pivoting only in the first ``ncols`` columns.

    Later columns are carried along as right-hand sides.  Returns the
    reduced rows and the pivot columns: row ``i`` has its pivot in
    ``pivots[i]``, and the rows below the last pivot row are zero in the
    first ``ncols`` columns.  This is the package's one elimination loop.

    Elimination runs in integers: each row is scaled by the lcm of its
    denominators, a row is cleared by cross-multiplying it with the pivot
    row, and a changed row is divided by its content.  Only at the end are
    the pivot rows divided by their pivots, into Fractions.  The rows below
    them stay integer multiples of the rational ones, which is all that
    callers need: they test those rows only for zero.
    """
    work = [over_common_denominator(r)[0] for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        pivot_row = work[r]
        pv = pivot_row[c]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                row = [pv * v - f * w for v, w in zip(row, pivot_row)]
                g = gcd(*row)
                work[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
    for r, c in enumerate(pivots):
        pv = work[r][c]
        work[r] = [Fraction(v, pv) for v in work[r]]
    return work, pivots


def rref_solution(reduced: list[list[Fraction]], pivots: list[int], ncols: int,
                  col: int) -> list[Fraction] | None:
    """The solution with free variables zero for carried column ``col`` of
    an ``rref`` result, or None if that column is inconsistent."""
    if any(row[col] != 0 for row in reduced[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[col]
    return x


def rref_kernel(reduced: list[list[Fraction]], pivots: list[int],
                ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the first ``ncols`` columns of an ``rref`` result,
    one vector per free column."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction],
                 n: int) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  ``rows`` is A by rows, m x n; n is
    passed, not read off the rows, so that m may be zero.
    """
    reduced, pivots = rref([[*r, b] for r, b in zip(rows, rhs)], n)
    return rref_solution(reduced, pivots, n, n)


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the solution space of A x = 0 (A given by rows, n columns)."""
    reduced, pivots = rref(rows, n)
    return rref_kernel(reduced, pivots, n)


@dataclass(frozen=True)
class EquationSet:
    """A finite list of polynomial generators over one ring.

    Order matters only for reporting; all comparisons go through
    ``span_compare``.  Generators are expected nonzero.
    """

    ring: Ring
    gens: tuple[Poly, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        for g in self.gens:
            if g.ring != self.ring:
                raise ContextError("generator outside the declared ring")
        if self.labels and len(self.labels) != len(self.gens):
            raise ValueError("one label per generator required")

    def __len__(self) -> int:
        return len(self.gens)

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> EquationSet:
        gens = tuple(substitute_all(self.gens, mapping, ring))
        labels = self.labels or tuple(str(i) for i in range(len(gens)))
        target = gens[0].ring if gens else (ring if ring is not None else self.ring)
        return EquationSet(target, gens, labels)


EQUAL = "equal"
A_CONTAINS_B = "a_contains_b"
B_CONTAINS_A = "b_contains_a"
INCOMPARABLE = "incomparable"


@dataclass
class SpanResult:
    """Outcome of the Q-linear span comparison of two generator lists.

    ``b_in_a[j]`` is the coefficient list expressing b's j-th generator in
    a's generators, or None if it lies outside a's span; likewise
    ``a_in_b``.  The relation is one of equal / a_contains_b /
    b_contains_a / incomparable.
    """

    relation: str
    a_in_b: list[list[Fraction] | None]
    b_in_a: list[list[Fraction] | None]

    @property
    def equal(self) -> bool:
        return self.relation == EQUAL


class Report(NamedTuple):
    """Outcome of a certificate behind one claim: whether the claim holds,
    and exactly the data the claim reports.  A report has no truth value,
    so that ``assert report`` cannot pass by the tuple being nonempty."""

    ok: bool
    data: dict

    def __bool__(self):
        raise TypeError("a Report has no truth value; read its ok")


def span_compare(a: Sequence[Poly], b: Sequence[Poly]) -> SpanResult:
    """Compare the Q-linear spans of two polynomial lists exactly.

    Column j of the stacked matrix holds the coefficients of the j-th
    polynomial of ``a`` then ``b``, so writing b's generators in a's
    generators solves A^T x = B^T: one elimination per direction.
    """
    polys = list(a) + list(b)
    if polys:
        ring = polys[0].ring
        for p in polys:
            if p.ring != ring:
                raise ContextError("span comparison across ring contexts")
    k = len(a)
    stacked = [[p.terms.get(m, 0) for p in polys]
               for m in sorted({m for p in polys for m in p.terms})]
    witnesses = []
    for rows, width in ((stacked, k), ([r[k:] + r[:k] for r in stacked], len(b))):
        reduced, pivots = rref(rows, width)
        witnesses.append([rref_solution(reduced, pivots, width, c)
                          for c in range(width, len(polys))])
    b_in_a, a_in_b = witnesses
    a_holds = all(w is not None for w in b_in_a)
    b_holds = all(w is not None for w in a_in_b)
    if a_holds and b_holds:
        relation = EQUAL
    elif a_holds:
        relation = A_CONTAINS_B
    elif b_holds:
        relation = B_CONTAINS_A
    else:
        relation = INCOMPARABLE
    return SpanResult(relation, a_in_b, b_in_a)


def parse_json(text: str) -> object:
    """``json.loads`` that reads each number from its literal text with
    ``parse_rational``, never through a binary float, and rejects an object
    repeating a key, which it would otherwise read as the last value given."""
    def no_repeats(pairs: list[tuple[str, object]]) -> dict:
        out = {}
        for k, v in pairs:
            if k in out:
                raise ValueError(f"repeated key {k!r}")
            out[k] = v
        return out
    return json.loads(text, object_pairs_hook=no_repeats,
                      parse_int=parse_rational, parse_float=parse_rational)


def json_rational(value: object) -> Fraction:
    """A value of ``parse_json`` as a rational: a number, or a string read
    by ``parse_rational``; true, false, null, lists and objects are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    kind = ("a list" if isinstance(value, list) else "an object" if isinstance(value, dict)
            else json.dumps(value))
    raise ValueError(f"{kind} is not a rational")


def parse_rational(text: str) -> Fraction:
    """An integer, a decimal or ``a/b`` of at most 100 characters.

    Exponent notation is refused: ``Fraction`` would build ten to the
    exponent in full.  The length bound keeps every derived integer
    printable: over the lcm q of a cube's eight denominators each integer
    entry has fewer than 8 x 100 digits and q^4 fewer than 32 x 100, so the
    hyperdeterminant, a degree-4 form in the entries, stays under about
    3,300 digits (``str`` refuses integers over 4,300).
    """
    text = text.strip()
    if len(text) > 100:
        raise ValueError(f"numeral of {len(text)} characters; at most 100 are read")
    if "e" in text.lower():
        raise ValueError(f"{text!r} is not an integer, decimal or a/b "
                         "(exponent notation is refused)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
