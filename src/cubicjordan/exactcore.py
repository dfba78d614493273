"""Exact sparse multivariate polynomials over the rationals.

Every verification in this package reduces to exact identities between
polynomials with rational coefficients, so this module is the arithmetic
bedrock: no floats anywhere.

Representation
--------------
A ``Ring`` is an ordered tuple of variable names.  A ``Poly`` over a ring
stores a dict mapping packed exponent keys to nonzero coefficients; the
zero polynomial is the empty dict.  ``Ring.pack`` packs an exponent vector
into one ``int``, one byte per variable with the first registered variable
most significant (Monagan & Pearce, CASC 2007; Bachmann & Schoenemann,
ISSAC 1998), and ``Ring.unpack`` gives the vector back.  A product adds
keys and a derivative subtracts a unit, and integer order on keys is
lexicographic order on exponent vectors.  No key ever carries between
fields: every exponent stays below 64, so a sum of up to four keys is
exact, and ``Poly.collect`` raises ``OverflowError`` on a result with an
exponent of 64 or more instead of letting a later sum wrap.

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
point of their values: the route for a batch evaluated at many points,
built once and called at each.  ``evaluate_all`` and ``Poly.evaluate``
substitute their one point instead and give the values as ``Fraction``s.
``rref`` eliminates fraction-free
in sparse integer rows, ``{column: value}`` with no zero stored, as in
Bareiss's method (Math. Comp. 22, 1968), but keeps each row small by
dividing out its content instead of the previous pivot; it divides the
pivot rows by their pivots only at the end.  Callers build the rows
straight from their data: ``span_compare`` one row per monomial from
``Poly.terms``.

Symbolic substitution is batched: ``substitute_all`` maps a batch into a
given ring or else the batch's own, ``Poly.substitute`` is its batch of one,
and ``Poly.convert``, a change of ring by name, is the empty-map batch of one.
Constant images fold into the integer coefficients with one division at
the end; each non-constant image is raised to its powers once.

Canonical display order is graded lexicographic in the registered variable
order.  It affects only printing, never results.  ``signed_sum`` writes the
text of every polynomial, the Hilbert numerator of ``grading`` included.

The module also provides polynomial matrices (determinant, adjugate,
Pfaffians of skew matrices), rational linear algebra used to compare
the Q-linear spans of equation sets, and ``Report``, the outcome of each
certificate behind one claim.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ContextError, ShapeError, SkewError

Rational = Union[int, Fraction]
_ZERO = Fraction(0)  # shared: a Fraction is immutable


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def signed_sum(terms: Iterable[tuple[Rational, list[str]]]) -> str:
    """The text of a sum of terms in the given order, each a nonzero
    coefficient and the factor strings of its monomial: the sign of each
    term, then its magnitude unless that is 1 and there are factors."""
    text = " ".join(("- " if c < 0 else "+ ") + "*".join(
        factors if factors and abs(c) == 1 else [str(abs(c)), *factors]) for c, factors in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


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

    __slots__ = ("names", "_index", "_guard")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._guard = int.from_bytes(b"\xc0" * len(names), "big")  # set by an exponent >= 64

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

    def pack(self, exps: Sequence[int]) -> int:
        """The key of an exponent vector, each exponent below 64."""
        key = int.from_bytes(bytes(exps), "big")
        if len(exps) != len(self.names) or key & self._guard:
            raise OverflowError(f"exponents {list(exps)} do not fit one key of {self!r}")
        return key

    def unpack(self, key: int) -> bytes:
        """The exponent vector of a key, as bytes: one int per variable."""
        return key.to_bytes(len(self.names), "big")

    def mask(self, names: Collection[str]) -> int:
        """The bits of a key that hold the exponents of the named variables."""
        return self.pack([63 * (n in names) for n in self.names])

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, value: Rational) -> Poly:
        c = _frac(value)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {0: c.numerator if c.denominator == 1 else c})

    def var(self, name: str) -> Poly:
        return Poly(self, {1 << 8 * (self.nvars - 1 - self.index(name)): 1})

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
    """Sparse polynomial: dict from packed exponent key to nonzero
    coefficient, an int when integral and a Fraction otherwise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    @classmethod
    def collect(cls, ring: Ring, acc: dict) -> Poly:
        """The polynomial of the nonzero entries of an accumulated term dict,
        integral coefficients as ints (Fraction arithmetic keeps an integral
        result a Fraction), refusing an exponent of 64 or more."""
        if reduce(or_, acc, 0) & ring._guard:
            raise OverflowError(f"an exponent of 64 or more in {ring!r}")
        return cls(ring, {m: c if c.__class__ is int or c.denominator != 1
                          else c.numerator for m, c in acc.items() if c})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_in(self, names: Iterable[str], degree: int) -> bool:
        idx = [self.ring.index(n) for n in names]
        degs = {sum(m[i] for i in idx) for m in map(self.ring.unpack, self.terms)}
        return degs <= {degree}

    def variables(self) -> set[str]:
        used = self.ring.unpack(reduce(or_, self.terms, 0))
        return {n for n, e in zip(self.ring.names, used) if e}

    def constant_value(self) -> Fraction:
        """The rational value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not m:
                return _frac(c)
        raise ValueError(f"not a constant polynomial: {self}")

    def coefficients(self) -> list[Fraction]:
        return [_frac(c) for c in self.terms.values()]

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
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

    def __mul__(self, other) -> Poly:
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly(self.ring, {})
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma + mb
                out[m] = out.get(m, 0) + ca * cb
        return Poly.collect(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """Repeated multiplication from the base: every power taken in the
        package is a square, which this makes with one product."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self if n else self.ring.one()
        for _ in range(n - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> Poly:
        shift = 8 * (self.ring.nvars - 1 - self.ring.index(name))
        out: dict = {}
        for m, c in self.terms.items():
            e = m >> shift & 0xFF
            if e == 0:
                continue
            mm = m - (1 << shift)
            out[mm] = out.get(mm, 0) + c * e
        return Poly.collect(self.ring, out)

    def convert(self, ring: Ring) -> Poly:
        """Re-express over another ring, matching variables by name: the
        empty-map ``substitute_all`` of the batch of one."""
        return substitute_all((self,), {}, ring)[0]

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> Poly:
        """Apply the ring map sending each mapped variable to its image; see
        ``substitute_all``, of which this is the batch of one."""
        return substitute_all((self,), mapping, ring)[0]

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """Exact value at a rational point covering every used variable."""
        return evaluate_all((self,), values)[0]

    # -- display ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, Rational]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(self.ring.unpack(kv[0])), kv[0]),
                      reverse=True)

    def to_str(self) -> str:
        return signed_sum((c, [f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                               for i, e in enumerate(self.ring.unpack(m)) if e])
                          for m, c in self.sorted_terms())

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
    exps = [[ring.unpack(m) for m in p.terms] for p in polys]
    tops = [max(col) for col in zip(*(m for p in exps for m in p))]
    used = [i for i, top in enumerate(tops) if top]
    lines = ["def batch(nums, den):",
             f"    if len(nums) != {ring.nvars} or den.__class__ is not int or den < 1:",
             f"        raise ValueError(f'a point needs {ring.nvars} numerators over a positive "
             "int, not {len(nums)} over {den!r}')",
             "    Q_0, Q_1 = 1, den"]
    for i in used:
        lines.append(f"    n{i}_1 = nums[{i}]")
        lines += [f"    n{i}_{e} = n{i}_{e - 1} * n{i}_1" for e in range(2, tops[i] + 1)]
    top = max((sum(m) for p in exps for m in p), default=0)
    lines += [f"    Q_{e} = Q_{e - 1} * Q_1" for e in range(2, top + 1)]
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    for j, p in enumerate(polys):
        terms = []
        for m, c in zip(exps[j], p.terms.values()):
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
    """Exact values of polynomials over one ring at one rational point that
    covers every used variable, by ``substitute_all`` into the ring of no
    variables; ``compile_batch`` is the route for many points."""
    return [p.constant_value() for p in substitute_all(polys, values, Ring(()))]


def substitute_all(polys: Sequence[Poly], mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> list[Poly]:
    """Apply one ring map to a batch of polynomials over one ring.

    Unmapped variables that the batch uses pass through by name and must
    exist in the target ring, as must every Poly image.  The target is
    ``ring``, or the ring of the batch when it is None; the empty map into
    the batch's own ring returns the batch.

    A constant image p/q (a rational or a constant Poly) of a variable with
    top power E in the batch folds into the coefficients: a term with x^e
    is multiplied by the integer p^e q^(E - e), the integers of all constant
    images first and the coefficient once, and the collected terms are
    divided once by the product of the q^E.  Each non-constant image has
    its powers built once, one multiplication per step.
    """
    if not polys:
        return []
    source = polys[0].ring
    if any(p.ring != source for p in polys):
        raise ContextError("mixed ring contexts")
    target = ring if ring is not None else source
    if not mapping and target == source:
        return list(polys)
    if any(isinstance(v, Poly) and v.ring != target
           for v in map(mapping.get, source.names)):
        raise ContextError("mixed ring contexts")

    tables: list[tuple[int, list[int]]] = []      # constant images
    powers: dict[int, list[Poly]] = {}           # non-constant images
    passthrough: list[tuple[int, int]] = []      # (source index, target shift)
    den = 1
    exps = [[source.unpack(m) for m in p.terms] for p in polys]
    for i, top in enumerate(map(max, zip(*(m for p in exps for m in p)))):
        name = source.names[i]
        if not top:
            continue
        if name not in mapping:
            passthrough.append((i, 8 * (target.nvars - 1 - target.index(name))))
            continue
        v = mapping[name]
        if isinstance(v, Poly):
            if any(v.terms):
                powers[i] = [v]  # v^e at index e - 1
                for _ in range(top - 1):
                    powers[i].append(v * powers[i][-1])
                continue
            v = v.constant_value()
        v = _frac(v)
        tables.append((i, [v.numerator ** e * v.denominator ** (top - e)
                           for e in range(top + 1)]))
        den *= v.denominator ** top

    results = []
    for p, p_exps in zip(polys, exps):
        out: dict = {}
        for c, m in zip(p.terms.values(), p_exps):
            if tables:
                f = 1
                for i, table in tables:
                    f *= table[m[i]]
                if not f:
                    continue
                c *= f
            exp = 0
            for i, shift in passthrough:
                exp |= m[i] << shift
            factor = None
            for i in powers:
                if m[i]:
                    power = powers[i][m[i] - 1]
                    factor = power if factor is None else factor * power
            if factor is None:
                out[exp] = out.get(exp, 0) + c
                continue
            for fm, fc in factor.terms.items():
                mm = exp + fm
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
    target = next((v.ring for v in direction.values() if isinstance(v, Poly)), f.ring)
    f, acc, one = f.convert(target), {}, target.one()
    for name in f.variables():
        comp = direction.get(name, 0)
        comp = comp if isinstance(comp, Poly) else target.const(comp)
        if comp.terms:
            add_product(acc, one, f.derivative(name), comp)
    return Poly.collect(target, acc)


def add_product(acc: dict, c: Poly, a: Poly, b: Poly) -> None:
    """Add the terms of the product c a b, three polynomials over one ring,
    into the term dict ``acc`` of a polynomial over that ring."""
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mab, cab = ma + mb, ca * cb
            for mc, cc in c.terms.items():
                m = mab + mc
                acc[m] = acc.get(m, 0) + cab * cc


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

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        self._same_shape(other)
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def _same_shape(self, other: PolyMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch")

    def scale(self, c: "Poly | Rational") -> PolyMatrix:
        return PolyMatrix(self.ring, self.rows, self.cols,
                          [e * c for e in self.entries])

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        if self.cols != other.rows:
            raise ShapeError("inner dimensions differ")
        columns = [[other.get(k, j) for k in range(other.rows)] for j in range(other.cols)]
        return PolyMatrix(self.ring, self.rows, other.cols,
                          [self._row_times(i, col) for i in range(self.rows) for col in columns])

    def apply(self, vec: Sequence[Poly]) -> tuple[Poly, ...]:
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple(self._row_times(i, vec) for i in range(self.rows))

    def _row_times(self, i: int, vec: Sequence[Poly]) -> Poly:
        """Row i times a column over the matrix's ring, into one term dict."""
        ring, acc, row = self.ring, {}, self.entries[i * self.cols:(i + 1) * self.cols]
        if any(p.ring != ring for p in (*row, *vec)):
            raise ContextError("mixed ring contexts")
        for a, b in zip(row, vec):
            add_product(acc, ring.one(), a, b)
        return Poly.collect(ring, acc)

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
        """Square with M[i][j] = -M[j][i] for i <= j: the diagonal is zero."""
        return self.rows == self.cols and all(self.get(i, j) == -self.get(j, i)
                                              for i in range(self.rows)
                                              for j in range(i, self.cols))

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


# ---------------------------------------------------------------------------
# Rational linear algebra and span comparison
# ---------------------------------------------------------------------------


def rref(rows: Iterable[Mapping[int, Rational]], ncols: int
         ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form, pivoting only in the first ``ncols`` columns.

    A row is sparse, ``{column: value}``; an entry it lacks is zero.
    Columns from ``ncols`` on are carried along as right-hand sides.
    Returns the reduced rows, which store no zero, and the pivot columns:
    row ``i`` has its pivot in ``pivots[i]``, and the rows below the last
    pivot row are zero in the first ``ncols`` columns.  This is the
    package's one elimination loop.

    Elimination runs in integers: each row is scaled by the lcm of its
    denominators, a row is cleared by cross-multiplying it with the pivot
    row, and a changed row is divided by its content.  Only at the end are
    the pivot rows divided by their pivots, into Fractions.  The rows below
    them stay integer multiples of the rational ones, which is all that
    callers need: they test those rows only for zero.
    """
    work = [{c: v for c, v in zip(r, over_common_denominator(r.values())[0]) if v}
            for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if c in work[i]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        pivot_row = work[r]
        pv = pivot_row[c]
        for i, row in enumerate(work):
            f = row.get(c)
            if i != r and f:
                row = {k: v for k in row.keys() | pivot_row.keys()
                       if (v := pv * row.get(k, 0) - f * pivot_row.get(k, 0))}
                g = gcd(*row.values())
                work[i] = {k: v // g for k, v in row.items()} if g > 1 else row
        pivots.append(c)
    for r, c in enumerate(pivots):
        pv = work[r][c]
        work[r] = {k: Fraction(v, pv) for k, v in work[r].items()}
    return work, pivots


def rref_solution(reduced: list[dict[int, Fraction]], pivots: list[int], ncols: int,
                  col: int) -> list[Fraction] | None:
    """The solution with free variables zero for carried column ``col`` of
    an ``rref`` result, or None if that column is inconsistent."""
    if any(col in row for row in reduced[len(pivots):]):
        return None
    x = [_ZERO] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row.get(col, _ZERO)
    return x


def rref_kernel(reduced: list[dict[int, Fraction]], pivots: list[int],
                ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the first ``ncols`` columns of an ``rref`` result,
    one vector per free column."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [_ZERO] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row.get(fc, _ZERO)
        basis.append(vec)
    return basis


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction],
                 n: int) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  ``rows`` is A by rows, m x n; n is
    passed, not read off the rows, so that m may be zero.
    """
    reduced, pivots = rref([dict(enumerate([*r, b])) for r, b in zip(rows, rhs)], n)
    return rref_solution(reduced, pivots, n, n)


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref([dict(enumerate(r)) for r in rows], len(rows[0]) if rows else 0)[1])


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the solution space of A x = 0 (A given by rows, n columns)."""
    reduced, pivots = rref([dict(enumerate(r)) for r in rows], n)
    return rref_kernel(reduced, pivots, n)


class EquationSet:
    """A finite list of polynomial generators over one ring.

    Order matters only for reporting; all comparisons go through
    ``span_compare``.  Generators are expected nonzero.  ``len`` is the
    number of generators, which a ``NamedTuple``'s ``_replace`` would misread.
    """

    __slots__ = ("ring", "gens", "labels")

    def __init__(self, ring: Ring, gens: tuple[Poly, ...], labels: tuple[str, ...]):
        for g in gens:
            if g.ring != ring:
                raise ContextError("generator outside the declared ring")
        if len(labels) != len(gens):
            raise ValueError("one label per generator required")
        self.ring, self.gens, self.labels = ring, gens, labels

    def __len__(self) -> int:
        return len(self.gens)

    def substitute(self, mapping: Mapping[str, "Poly | Rational"],
                   ring: Ring | None = None) -> EquationSet:
        gens = tuple(substitute_all(self.gens, mapping, ring))
        target = ring if ring is not None else self.ring
        return EquationSet(target, gens, self.labels)


EQUAL = "equal"
A_CONTAINS_B = "a_contains_b"
B_CONTAINS_A = "b_contains_a"
INCOMPARABLE = "incomparable"


class SpanResult(NamedTuple):
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

    Each monomial gives one sparse row of generator coefficients, with a's
    columns first to write b's generators in a's (solving A^T x = B^T), and
    with b's columns first for the other direction: one elimination each.
    """
    polys = [*a, *b]
    if polys:
        ring = polys[0].ring
        for p in polys:
            if p.ring != ring:
                raise ContextError("span comparison across ring contexts")
    k, n = len(a), len(polys)
    a_first: dict[int, dict[int, Rational]] = {}
    b_first: dict[int, dict[int, Rational]] = {}
    for j, p in enumerate(polys):
        for m, c in p.terms.items():
            a_first.setdefault(m, {})[j] = c
            b_first.setdefault(m, {})[(j - k) % n] = c
    witnesses = []
    for rows, width in ((a_first, k), (b_first, n - k)):
        reduced, pivots = rref([rows[m] for m in sorted(rows)], width)
        witnesses.append([rref_solution(reduced, pivots, width, c) for c in range(width, n)])
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
    repeating a key, which it would otherwise read as the last value given,
    or nesting deeper than the interpreter's recursion limit."""
    def no_repeats(pairs: list[tuple[str, object]]) -> dict:
        out = {}
        for k, v in pairs:
            if k in out:
                raise ValueError(f"repeated key {k!r}")
            out[k] = v
        return out
    try:
        return json.loads(text, object_pairs_hook=no_repeats,
                          parse_int=parse_rational, parse_float=parse_rational)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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
    """An integer, a decimal or ``a/b`` of at most 100 ASCII characters.

    Exponent notation, ``_`` digit separators and non-ASCII digits, which
    ``Fraction`` also reads, are refused: the first would build ten to the
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
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!a} is not an integer, decimal or a/b "
                         "(digit separators and non-ASCII text are refused)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
