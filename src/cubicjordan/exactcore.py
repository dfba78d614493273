"""Exact sparse multivariate polynomials over the rationals.

Every verification in this package reduces to exact identities between
polynomials with rational coefficients, so this module is the arithmetic
bedrock: no floats anywhere.

Representation
--------------
A ``Ring`` is an ordered tuple of variable names.  A ``Poly`` over a ring
stores a dict mapping dense exponent tuples (one entry per ring variable)
to ``Fraction`` coefficients; zero coefficients are never stored, and the
zero polynomial is the empty dict.  Rings are small (at most a few dozen
variables), which keeps the dense exponent tuples cheap.

Canonical display order is graded lexicographic in the registered variable
order.  It affects only printing, never results.

The module also provides polynomial matrices (determinant, adjugate,
Pfaffians of skew matrices) and rational linear algebra used to compare
the Q-linear spans of equation sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextError, ShapeError, SkewError

Rational = Union[int, Fraction]


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


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
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> Poly:
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Poly(self, {tuple(exp): Fraction(1)})

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
    """Sparse polynomial: dict from exponent tuple to nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.ring.index(n) for n in names]
        return max((sum(m[i] for i in idx) for m in self.terms), default=0)

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
                return c
        raise ValueError(f"not a constant polynomial: {self}")

    def coefficients(self) -> list[Fraction]:
        return list(self.terms.values())

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
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

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
                m = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(m, Fraction(0)) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            s = out.get(mm, Fraction(0)) + c * e
            if s:
                out[mm] = s
            else:
                del out[mm]
        return Poly(self.ring, out)

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
            s = out.get(mm, Fraction(0)) + c
            if s:
                out[mm] = s
            else:
                del out[mm]
        return Poly(ring, out)

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> Poly:
        """Apply the ring map sending each mapped variable to its image.

        Unmapped variables pass through by name and must exist in the
        target ring.  The target defaults to the ring of the first Poly
        value in the mapping, else to this polynomial's ring.
        """
        target = ring
        if target is None:
            for v in mapping.values():
                if isinstance(v, Poly):
                    target = v.ring
                    break
        if target is None:
            target = self.ring

        images: list[Poly | None] = []
        for n in self.ring.names:
            if n in mapping:
                v = mapping[n]
                images.append(v if isinstance(v, Poly) else target.const(v))
            else:
                images.append(None)  # pass-through by name

        power_cache: dict[tuple[int, int], Poly] = {}

        def power(i: int, e: int) -> Poly:
            key = (i, e)
            if key not in power_cache:
                base = images[i]
                assert base is not None
                power_cache[key] = base ** e
            return power_cache[key]

        result = target.zero()
        for m, c in self.terms.items():
            passthrough = [0] * target.nvars
            factor = None
            for i, e in enumerate(m):
                if not e:
                    continue
                if images[i] is None:
                    passthrough[target.index(self.ring.names[i])] += e
                else:
                    factor = power(i, e) if factor is None else factor * power(i, e)
            term = Poly(target, {tuple(passthrough): c})
            result = result + (term if factor is None else term * factor)
        return result

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """Exact value at a rational point covering every used variable."""
        vals = {}
        for n in self.variables():
            if n not in values:
                raise ContextError(f"no value supplied for {n!r}")
            vals[self.ring.index(n)] = _frac(values[n])
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term *= vals[i] ** e
            total += term
        return total

    # -- display ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
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

    def row(self, i: int) -> list[Poly]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

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

    def pfaffian(self) -> Poly:
        """Pfaffian of an even skew matrix; Pf([[0,a],[-a,0]]) = a."""
        if self.rows != self.cols or self.rows % 2 != 0:
            raise ShapeError("Pfaffian needs an even square matrix")
        if not self.is_skew():
            raise SkewError("matrix is not skew-symmetric")
        return self._pf(tuple(range(self.rows)))

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
        entries = [e.substitute(mapping, ring) for e in self.entries]
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
    """
    work = [[Fraction(v) for v in r] for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        pv = work[r][c]
        pivot_row = work[r] = [v / pv for v in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f != 0:
                work[i] = [v - f * w for v, w in zip(row, pivot_row)]
        pivots.append(c)
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


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  ``rows`` is A by rows, m x n.
    """
    n = len(rows[0]) if rows else 0
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
        gens = tuple(g.substitute(mapping, ring) for g in self.gens)
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

    def failing_generators(self) -> dict[str, list[int]]:
        return {
            "a_not_in_b": [i for i, w in enumerate(self.a_in_b) if w is None],
            "b_not_in_a": [j for j, w in enumerate(self.b_in_a) if w is None],
        }


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
    stacked = [[p.terms.get(m, Fraction(0)) for p in polys]
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


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None
