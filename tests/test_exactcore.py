"""Arithmetic core: polynomials, matrices, spans."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicjordan.errors import ContextError, ShapeError, SkewError
from cubicjordan.exactcore import (EquationSet, Poly, PolyMatrix, Report, Ring,
                                   compile_batch, directional_derivative, evaluate_all,
                                   nullspace, over_common_denominator, parse_rational, rank,
                                   rref, signed_sum, solve_linear, span_compare,
                                   substitute_all)

R = Ring(("x", "y", "z"))
X, Y, Z = R.gens()

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def poly_strategy(max_terms=4, max_degree=3):
    exponent = st.tuples(*([st.integers(0, max_degree)] * 3))
    term = st.tuples(exponent, rationals)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum((Poly(R, {R.pack(e): Fraction(1)}) * c for e, c in terms),
                          R.zero()))


# -- polynomial arithmetic ---------------------------------------------------


def test_difference_of_squares():
    assert (X + 1) * (X - 1) == X * X - 1


def test_cancellation_gives_zero():
    p = X ** 2 * Y ** 2
    assert (p - p).is_zero()


def test_mixed_context_rejected():
    other = Ring(("a", "b"))
    with pytest.raises(ContextError):
        X + other.var("a")


def test_canonical_string_is_graded_lex():
    p = X * X - 1 + 3 * Y
    assert p.to_str() == "x^2 + 3*y - 1"


@pytest.mark.parametrize("terms,text", [
    ([], "0"),
    ([(Fraction(-3, 2), [])], "-3/2"),
    ([(-1, ["x"])], "-x"),
    ([(Fraction(1, 2), ["x"])], "1/2*x"),
    ([(-2, ["x^2", "y"]), (1, [])], "-2*x^2*y + 1"),
])
def test_signed_sum_writes_signs_and_magnitudes(terms, text):
    assert signed_sum(terms) == text


def test_substitute_and_evaluate():
    p = X ** 2 + Y
    q = p.substitute({"x": Y + 1})
    assert q == Y ** 2 + 3 * Y + 1
    assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 2)}) == Fraction(9, 2)


def test_convert_between_rings():
    big = R.extend(("w",))
    assert (X + Y).convert(big) == big.var("x") + big.var("y")
    assert X.convert(R) is X
    small = Ring(("x",))
    # the target needs only the variables the polynomial uses
    assert X.convert(small) == small.var("x")
    assert R.zero().convert(small) == small.zero()
    with pytest.raises(ContextError):
        (X + Y).convert(small)


def degree_in(p: Poly, names) -> int:
    idx = [p.ring.index(n) for n in names]
    return max((sum(m[i] for i in idx) for m in map(p.ring.unpack, p.terms)), default=0)


def test_homogeneity_queries():
    p = X * Y + Z ** 2
    assert p.is_homogeneous_in(("x", "y", "z"), 2)
    for degree in (1, 2):
        assert not (p + X).is_homogeneous_in(("x", "y", "z"), degree)
    assert degree_in(p, ("x",)) == 1


# -- directional derivative --------------------------------------------------


def test_univariate_power_rule():
    assert directional_derivative(X ** 3, {"x": 1}) == 3 * X ** 2


def test_partial_direction():
    f = X * Y * Z
    assert directional_derivative(f, {"x": 1, "y": 0, "z": 0}) == Y * Z


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_product_rule(f, g):
    direction = {"x": Y, "y": R.one(), "z": X}
    lhs = directional_derivative(f * g, direction)
    rhs = f * directional_derivative(g, direction) \
        + g * directional_derivative(f, direction)
    assert lhs == rhs


@given(poly_strategy())
@settings(max_examples=30, deadline=None)
def test_derivative_linear_in_direction(f):
    d1 = {"x": X, "y": Y, "z": R.zero()}
    d2 = {"x": R.one(), "y": Z, "z": Y}
    combined = {k: d1[k] + d2[k] for k in d1}
    assert directional_derivative(f, combined) == \
        directional_derivative(f, d1) + directional_derivative(f, d2)


def substitute_term_by_term(f, mapping, ring):
    """Reference for ``Poly.substitute``: the image of each term, summed."""
    result = ring.zero()
    for m, c in f.terms.items():
        term = ring.const(c)
        for name, e in zip(f.ring.names, f.ring.unpack(m)):
            image = mapping.get(name, ring.var(name))
            term = term * (image if isinstance(image, Poly) else ring.const(image)) ** e
        result = result + term
    return result


@given(poly_strategy(), poly_strategy(max_terms=3, max_degree=2),
       poly_strategy(max_terms=3, max_degree=2), rationals)
@settings(max_examples=20, deadline=None)
def test_substitute_matches_term_by_term_sum(f, gx, gz, c):
    # y goes to a constant; z, when left out, passes through by name
    wide = R.extend(("w",))
    cases = [({"x": gx, "y": c}, R),
             ({"x": gx, "y": c, "z": gz}, R),
             ({"x": gx.convert(wide) * wide.var("w"), "y": c}, wide)]
    for mapping, ring in cases:
        assert f.substitute(mapping, ring) == substitute_term_by_term(f, mapping, ring)


def test_substitute_rejects_image_from_another_ring():
    wide = R.extend(("w",))
    with pytest.raises(ContextError):
        (X * Y).substitute({"x": wide.var("w")}, R)
    with pytest.raises(ContextError):
        (X * Y).substitute({"x": X, "y": wide.var("w")})


image_kinds = st.sampled_from(("rational", "constant", "poly", "term", "pass"))


@given(st.lists(poly_strategy(), max_size=4), st.tuples(*[image_kinds] * 3),
       st.tuples(*[poly_strategy(max_terms=3, max_degree=2)] * 3),
       st.tuples(*[rationals] * 3), st.tuples(*[st.sampled_from(R.names)] * 3))
@settings(max_examples=60, deadline=None)
def test_substitute_all_matches_term_by_term_sum(batch, kinds, images, consts, targets):
    # each variable goes to a rational, a constant Poly, a polynomial or one
    # term c*v (v a target variable, so renames, negations and halves, and
    # two images may share v), or passes through by name; the extra members
    # share monomials with the others, and a zero polynomial rides along
    batch = [*batch, *(f * X + Y for f in batch[:2]), R.zero()]
    wide = R.extend(("w",))
    for ring, w in ((R, R.one()), (wide, wide.var("w"))):
        mapping = {}
        for name, kind, image, c, v in zip(R.names, kinds, images, consts, targets):
            if kind == "poly":
                mapping[name] = image.convert(ring) * w
            elif kind == "term":
                mapping[name] = c * ring.var(v) * w
            elif kind != "pass":
                mapping[name] = c if kind == "rational" else ring.const(c)
        got = substitute_all(batch, mapping, ring)
        assert got == [substitute_term_by_term(f, mapping, ring) for f in batch]
        assert all(stored_integer_first(p) for p in got)
        assert [f.substitute(mapping, ring) for f in batch] == got


def test_substitute_all_edge_cases():
    assert substitute_all((), {"x": Y}) == []
    assert substitute_all([R.zero()] * 2, {"x": Y}) == [R.zero()] * 2
    # the top power of y is taken over the whole batch
    assert substitute_all([Y ** 3, X + Y], {"y": Fraction(2, 3)}) == \
        [R.const(Fraction(8, 27)), X + Fraction(2, 3)]
    # the target ring is the one named, else the batch's: never that of an image
    wide = R.extend(("w",))
    assert substitute_all([X * Y], {"x": wide.var("w")}, wide)[0].ring == wide
    with pytest.raises(ContextError):
        substitute_all([X * Y], {"x": wide.var("w")})
    assert substitute_all([X * Y], {"x": 2})[0] == 2 * Y
    other = Ring(("a",))
    with pytest.raises(ContextError):
        substitute_all([X, other.var("a")], {"x": 1})
    with pytest.raises(ContextError):
        substitute_all([X, Y], {"x": Y, "y": wide.var("w")})
    with pytest.raises(ContextError):
        substitute_all([X, Y], {"x": wide.var("w")}, R)


@given(poly_strategy(max_terms=3, max_degree=2))
@settings(max_examples=20, deadline=None)
def test_power_matches_repeated_multiplication(p):
    expected = R.one()
    for n in range(7):
        assert p ** n == expected
        expected = expected * p
    assert p ** 1 == p


def test_power_rejects_bad_exponents():
    for n in (-1, 2.0, Fraction(2)):
        with pytest.raises(ValueError):
            X ** n


# -- integer-first storage against a plain-Fraction reference ----------------
#
# The reference keeps a polynomial as a dict from exponent tuple to nonzero
# Fraction, integral or not.


def packed(terms):
    """A reference term dict keyed by ``R.pack``, as ``Poly.terms`` is."""
    return {R.pack(m): c for m, c in terms.items()}


def ref_clean(acc):
    return {m: Fraction(c) for m, c in acc.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_substitute(a, images):
    """images[i] is the reference polynomial replacing variable i."""
    out = {}
    for m, c in a.items():
        term = {(0,) * len(m): Fraction(c)}
        for i, e in enumerate(m):
            for _ in range(e):
                term = ref_mul(term, images[i])
        out = ref_add(out, term)
    return out


def ref_evaluate(a, values):
    total = Fraction(0)
    for m, c in a.items():
        term = Fraction(c)
        for v, e in zip(values, m):
            term *= Fraction(v) ** e
        total += term
    return total


# ints and integral Fractions, so that const and collect normalize both
ref_coefficients = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction),
                             rationals)
ref_polys = st.dictionaries(st.tuples(*([st.integers(0, 3)] * 3)), ref_coefficients,
                            max_size=4).map(ref_clean)
point_values = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def stored_integer_first(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


@given(ref_polys, ref_polys, ref_polys, st.tuples(*[point_values] * 3))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_fraction_reference(a, b, c, values):
    pa, pb, pc = (Poly.collect(R, packed(t)) for t in (a, b, c))
    const = values[1]
    images = {0: b, 1: {(0, 0, 0): const} if const else {}, 2: c}
    products = {
        "mul": (pa * pb, ref_mul(a, b)),
        "add": (pa + pb, ref_add(a, b)),
        "double": (pa + pa, ref_add(a, a)),
        "sub": (pa - pb, ref_add(a, {m: -v for m, v in b.items()})),
        "scale": (pa * const, ref_mul(a, images[1])),
        "substitute": (pa.substitute({"x": pb, "y": const, "z": pc}),
                       ref_substitute(a, images)),
        "derivative": (pa.derivative("x"),
                       ref_clean({(m[0] - 1,) + m[1:]: m[0] * v
                                  for m, v in a.items() if m[0]})),
    }
    for name, (got, want) in products.items():
        assert got.terms == packed(want), name
        assert stored_integer_first(got), name
    point = dict(zip(R.names, values))
    for p, ref in ((pa, a), (pa * pb, ref_mul(a, b))):
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == ref_evaluate(ref, values)


@given(ref_polys, ref_coefficients)
@settings(max_examples=40, deadline=None)
def test_boundary_returns_fractions_and_display_is_unchanged(a, c):
    p = Poly.collect(R, packed(a))
    assert stored_integer_first(p) and stored_integer_first(R.const(c))
    assert all(type(v) is Fraction for v in p.coefficients())
    assert sorted(p.coefficients()) == sorted(a.values())
    assert type(R.const(c).constant_value()) is Fraction
    assert R.const(c).constant_value() == c
    assert type(R.zero().constant_value()) is Fraction
    assert type(p.evaluate({"x": 1, "y": 2, "z": 3})) is Fraction
    # the same terms with every coefficient a Fraction print the same
    assert p.to_str() == Poly(R, packed(a)).to_str()


def test_evaluate_needs_every_used_variable():
    with pytest.raises(ContextError):
        (X * Y + Z).evaluate({"x": 1, "y": 2})
    assert (X * Y).evaluate({"x": Fraction(1, 2), "y": 4}) == 2
    with pytest.raises(ContextError):
        evaluate_all([X, Ring(("x",)).var("x")], {"x": 1})


@given(st.lists(ref_polys, max_size=4), st.tuples(*[point_values] * 3),
       st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_evaluate_all_matches_fraction_reference(refs, values, extra):
    # one table for the whole batch, the zero polynomial among the rest
    refs = refs + [{}]
    polys = [Poly.collect(R, packed(t)) for t in refs]
    point = dict(zip(R.names, values))
    want = [ref_evaluate(t, values) for t in refs]
    got = evaluate_all(polys, point)
    assert got == want
    assert all(type(v) is Fraction for v in got)
    assert [p.evaluate(point) for p in polys] == want
    # the integer point, over the lcm of the denominators and over a multiple
    nums, den = over_common_denominator(values)
    for scale in (1, extra):
        out, q = compile_batch(polys)([n * scale for n in nums], den * scale)
        assert all(type(v) is int for v in out) and type(q) is int and q > 0
        assert [Fraction(v, q) for v in out] == want
    assert evaluate_all(polys[:0], point) == []
    for name in R.names:
        partial = {n: v for n, v in point.items() if n != name}
        if any(name in p.variables() for p in polys):
            with pytest.raises(ContextError):
                evaluate_all(polys, partial)
        else:
            assert evaluate_all(polys, partial) == want


def test_compiled_batch_edge_cases():
    # Fraction coefficients, scaled to integers by the lcm of their denominators
    poly = X * Fraction(1, 2) - Y * Fraction(1, 3) + 1
    polys = [R.zero(), R.const(Fraction(-3, 4)), poly]
    batch = compile_batch(polys)
    got = evaluate_all(polys, {"x": 1, "y": Fraction(3, 2)})
    assert got == [0, Fraction(-3, 4), Fraction(1)]
    assert all(type(v) is Fraction for v in got)
    # the same point in integers, x = 2/2 and y = 3/2: the values are
    # numerators over one denominator, and a zero value has a zero numerator
    out, den = batch([2, 3, 0], 2)
    assert out[0] == 0 and [Fraction(v, den) for v in out] == got
    # z is unused, so a point without it is enough, its numerator is never
    # read, and batches are reusable
    assert evaluate_all(polys, {"x": Fraction(-2, 3), "y": 0}) == \
        [0, Fraction(-3, 4), Fraction(2, 3)]
    out, den = batch([-2, 0, 7 ** 40], 3)
    assert [Fraction(v, den) for v in out] == [0, Fraction(-3, 4), Fraction(2, 3)]
    assert compile_batch([])([], 1) == ([], 1)
    # a sum longer than one generated statement, against substitution
    long = (X + Y * Fraction(2, 3) + Z + 1) ** 6
    point = {"x": Fraction(-1, 2), "y": 5, "z": Fraction(7, 3)}
    assert len(long.terms) > 64
    out, den = compile_batch([long])([-3, 30, 14], 6)
    assert [Fraction(v, den) for v in out] == [long.substitute(point).constant_value()]
    assert evaluate_all([long], point) == [long.substitute(point).constant_value()]
    assert compile_batch([R.const(5), R.zero()])([0, 0, 0], 1) == ([5, 0], 1)
    assert evaluate_all([R.const(5), R.zero()], {}) == [5, 0]
    with pytest.raises(ContextError, match="'y'"):
        evaluate_all(polys, {"x": 1, "z": 2})
    with pytest.raises(TypeError):
        evaluate_all(polys, {"x": 1.5, "y": 2})
    # a point has one numerator per ring variable over a positive int
    for nums, den in [([2, 3, 0], d) for d in (0, -2, Fraction(2), 2.0, True)] + \
            [([2, 3], 2), ([2, 3, 0, 0], 2)]:
        with pytest.raises(ValueError, match="a point needs 3 numerators over a positive int"):
            batch(nums, den)
    with pytest.raises(ContextError):
        compile_batch([X, Ring(("x",)).var("x")])


def test_compiled_batch_keeps_names_out_of_the_source():
    # names that are not identifiers, or that look like code, are only keys
    ring = Ring(("x'1", "a b", "k0", "values[0]"))
    p, q, k, v = ring.gens()
    polys = [p * q - 2 * k ** 2 + v, q ** 3]
    point = {"x'1": Fraction(1, 3), "a b": 3, "k0": Fraction(-1, 2), "values[0]": 7}
    assert evaluate_all(polys, point) == [Fraction(15, 2), 27]
    out, den = compile_batch(polys)([2, 18, -3, 42], 6)
    assert [Fraction(v, den) for v in out] == [Fraction(15, 2), 27]
    with pytest.raises(ContextError, match="'a b'"):
        evaluate_all(polys, {"x'1": 1})


@given(ref_polys, st.tuples(*[st.sampled_from(("rational", "constant", "poly", "term",
                                                 "pass"))] * 3),
       st.tuples(*[ref_polys] * 3), st.tuples(*[point_values] * 3))
@settings(max_examples=60, deadline=None)
def test_substitute_folds_constant_images(a, kinds, polys, consts):
    # images of at most one term (rationals, constant Polys, c*x and
    # pass-through variables) fold into key and coefficient; images of two
    # or more terms are multiplied out
    mapping, images = {}, {}
    for i, (name, kind, poly, c) in enumerate(zip(R.names, kinds, polys, consts)):
        if kind == "pass":
            images[i] = {tuple(int(k == i) for k in range(3)): Fraction(1)}
        elif kind == "poly":
            mapping[name], images[i] = Poly.collect(R, packed(poly)), poly
        elif kind == "term":
            mapping[name], images[i] = c * X, {(1, 0, 0): c} if c else {}
        else:
            mapping[name] = c if kind == "rational" else R.const(c)
            images[i] = {(0, 0, 0): c} if c else {}
    got = Poly.collect(R, packed(a)).substitute(mapping)
    assert got.terms == packed(ref_substitute(a, images))
    assert stored_integer_first(got)


# -- packed exponent keys against a tuple-key reference -------------------------
#
# Keys of a four-variable ring, converted into a ring that registers the
# same names in another order with one more: every byte of a key moves.

W = Ring(("a", "b", "c", "d"))
W_MOVED = Ring(("e", "d", "b", "a", "c"))
wide_polys = st.dictionaries(st.tuples(*[st.integers(0, 15)] * 4), ref_coefficients,
                             max_size=4).map(ref_clean)
wide_images = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), ref_coefficients,
                              max_size=2).map(ref_clean)


def on(ring, terms):
    return Poly.collect(ring, {ring.pack(m): c for m, c in terms.items()})


def as_tuples(p):
    return {tuple(p.ring.unpack(m)): c for m, c in p.terms.items()}


def ref_str(names, terms):
    """``Poly.to_str`` of a tuple-keyed reference: descending total degree,
    then descending lexicographic order of the exponent tuples."""
    parts = []
    for m in sorted(terms, key=lambda m: (sum(m), m), reverse=True):
        c = terms[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        body = "*".join(([] if factors and abs(c) == 1 else [str(abs(c))]) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "+ 0"
    return text[2:] if text.startswith("+") else "-" + text[2:]


@given(wide_polys, wide_polys, wide_images, st.tuples(*[point_values] * 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_packed_keys_match_a_tuple_key_reference(a, b, image, values, k):
    pa, pb = on(W, a), on(W, b)
    assert as_tuples(pa * pb) == ref_mul(a, b)
    assert as_tuples(pa + pb) == ref_add(a, b)
    assert as_tuples(pa - pb) == ref_add(a, {m: -v for m, v in b.items()})
    assert as_tuples(pa.derivative(W.names[k])) == ref_clean(
        {m[:k] + (m[k] - 1,) + m[k + 1:]: m[k] * v for m, v in a.items() if m[k]})
    moved = pa.convert(W_MOVED)
    assert as_tuples(moved) == {tuple(m[W.index(n)] if n in W else 0 for n in W_MOVED.names): v
                                for m, v in a.items()}
    assert moved.convert(W) == pa
    # a goes to a polynomial, b to a rational, c and d pass through
    images = {0: image, 1: {(0,) * 4: values[1]} if values[1] else {},
              2: {(0, 0, 1, 0): 1}, 3: {(0, 0, 0, 1): 1}}
    got = substitute_all([pa, pb], {"a": on(W, image), "b": values[1]})
    assert [as_tuples(p) for p in got] == [ref_substitute(t, images) for t in (a, b)]
    point = dict(zip(W.names, values))
    assert evaluate_all([pa, pa * pb], point) == [ref_evaluate(a, values),
                                                 ref_evaluate(ref_mul(a, b), values)]
    for p, ref in ((pa, a), (pa * pb, ref_mul(a, b)), (moved, as_tuples(moved))):
        assert p.to_str() == ref_str(p.ring.names, ref)
    # integer order on keys is lexicographic order on exponent tuples
    assert [tuple(W.unpack(m)) for m in sorted(pa.terms)] == sorted(a)


def test_a_product_past_the_field_bound_raises():
    # exponents stay below 64, two guard bits under each byte's top, so no
    # sum of keys carries into the next variable; a result that reaches 64
    # raises, and every result below it is exact
    assert as_tuples(X ** 63 * Y ** 63 * Z ** 63) == {(63, 63, 63): 1}
    # five images share x: folding them all could lift its field to 315, so
    # those past the bound are multiplied out, and nothing carries
    five = Ring(("a", "b", "c", "d", "e"))
    got = substitute_all([v ** 63 for v in five.gens()], dict.fromkeys(five.names, X), R)
    assert [as_tuples(p) for p in got] == [{(63, 0, 0): 1}] * 5
    assert as_tuples(X ** 32 * Y * X ** 31) == {(63, 1, 0): 1}
    assert as_tuples(directional_derivative(X ** 63 * Z, {"z": Y})) == {(63, 1, 0): 1}
    square = PolyMatrix.from_rows(R, [[X ** 40, Y], [Z, 1]])
    past = [lambda: X ** 63 * X, lambda: X ** 64, lambda: (X + Y) ** 40 * (X + Y) ** 40,
            lambda: (X ** 63 * Y).substitute({"y": X}),
            lambda: (Y ** 2).substitute({"y": X ** 32}),
            lambda: substitute_all([five.var("a") ** 32 * five.var("b") ** 32],
                                   {"a": X, "b": -X}, R),
            lambda: substitute_all([reduce(mul, five.gens()) ** 63],
                                   dict.fromkeys(five.names, Z), R),
            lambda: directional_derivative(X ** 63 * Z, {"z": X}),
            lambda: square * square, lambda: square.apply([X ** 24, Y]),
            lambda: R.pack((64, 0, 0)), lambda: R.pack((1, 2))]
    for make in past:
        with pytest.raises(OverflowError):
            make()
    with pytest.raises(ValueError):
        R.pack((256, 0, 0))


# -- matrices -----------------------------------------------------------------


def test_two_by_two_adjugate():
    m = PolyMatrix.from_rows(R, [[X, Y], [Z, 1]])
    adj = m.adjugate()
    assert adj.entries == [R.const(1), -Y, -Z, X]


def matrix_strategy(n):
    entry = st.tuples(rationals, rationals, rationals, rationals).map(
        lambda c: c[0] + c[1] * X + c[2] * Y + c[3] * Z)
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: PolyMatrix.from_rows(R, rows))


@given(matrix_strategy(3))
@settings(max_examples=25, deadline=None)
def test_adjugate_identity(m):
    product = m * m.adjugate()
    det = m.det()
    expected = PolyMatrix.identity(R, 3).scale(det)
    assert product.entries == expected.entries


def skew5_strategy():
    upper = st.lists(rationals, min_size=10, max_size=10)

    def build(vals):
        rows = [[R.zero() for _ in range(5)] for _ in range(5)]
        it = iter(vals)
        for i in range(5):
            for j in range(i + 1, 5):
                v = R.const(next(it))
                rows[i][j] = v
                rows[j][i] = -v
        return PolyMatrix.from_rows(R, rows)

    return upper.map(build)


def pfaffian(m: PolyMatrix) -> Poly:
    """Pfaffian of an even skew matrix: the first signed sub-Pfaffian of
    the matrix bordered by a zero first row and column."""
    bordered = [[0] * (m.cols + 1)] + [[0] + m.entries[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
    return PolyMatrix.from_rows(m.ring, bordered).sub_pfaffians()[0]


def test_pfaffian_sign_convention():
    m = PolyMatrix.from_rows(R, [[0, X], [-X, R.zero()]])
    assert pfaffian(m) == X


def test_pfaffian_rejects_non_skew():
    m = PolyMatrix.from_rows(R, [[0, X], [X, 0]])
    with pytest.raises(SkewError):
        pfaffian(m)


def test_det_requires_square():
    m = PolyMatrix.from_rows(R, [[X, Y]])
    with pytest.raises(ShapeError):
        m.det()


@given(skew5_strategy())
@settings(max_examples=25, deadline=None)
def test_sub_pfaffian_squares_are_principal_minors(m):
    pfs = m.sub_pfaffians()
    for i in range(5):
        keep = [k for k in range(5) if k != i]
        sub = PolyMatrix.from_rows(R, [[m.get(a, b) for b in keep] for a in keep])
        assert pfs[i] * pfs[i] == sub.det()


# -- linear algebra and spans --------------------------------------------------


def test_solve_and_rank():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(A) == 1
    assert solve_linear(A, [Fraction(3), Fraction(6)], 2) is not None
    assert solve_linear(A, [Fraction(3), Fraction(7)], 2) is None
    basis = nullspace(A, 2)
    assert len(basis) == 1


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def linear_systems(draw):
    """A small rational matrix A (m x n, possibly m = 0) and a vector b."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    row = st.lists(sparse_rationals, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    # repeat a row now and then so that rank deficiency is common
    if rows and draw(st.booleans()):
        rows.append([2 * v for v in rows[0]])
    rhs = draw(st.lists(sparse_rationals, min_size=len(rows), max_size=len(rows)))
    return rows, n, rhs


def apply(rows, x):
    return [sum((a * v for a, v in zip(r, x)), Fraction(0)) for r in rows]


@given(linear_systems())
@settings(max_examples=50, deadline=None)
def test_elimination_routines_agree(system):
    rows, n, rhs = system
    x = solve_linear(rows, rhs, n)
    augmented = [[*r, b] for r, b in zip(rows, rhs)]
    assert (x is None) == (rank(augmented) > rank(rows))
    if x is not None:
        assert apply(rows, x) == rhs
        assert len(x) == n
    basis = nullspace(rows, n)
    assert rank(rows) + len(basis) == n
    assert rank(basis) == len(basis)
    for v in basis:
        assert apply(rows, v) == [0] * len(rows)


def ref_rref(rows, ncols):
    """Gauss-Jordan elimination in Fractions: reduced rows and pivot columns."""
    work = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c] != 0:
                work[i] = [v - row[c] * w for v, w in zip(row, work[r])]
        pivots.append(c)
    return work, pivots


@st.composite
def rref_inputs(draw):
    """Rows with denominators, some columns all zero, often fewer rows than
    columns, and carried columns after the first ``ncols``."""
    ncols = draw(st.integers(0, 5))
    width = ncols + draw(st.integers(0, 2))
    zero_cols = draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=2))
    entry = st.one_of(sparse_rationals, st.integers(-4, 4))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=5))
    rows = [[0 if j in zero_cols else v for j, v in enumerate(r)] for r in rows]
    if rows and draw(st.booleans()):
        rows.append([Fraction(-3, 2) * v for v in rows[-1]])
    return rows, ncols


def dense(row, width):
    return [row.get(j, 0) for j in range(width)]


@given(rref_inputs())
@settings(max_examples=80, deadline=None)
def test_rref_matches_fraction_reference(system):
    rows, ncols = system
    width = len(rows[0]) if rows else ncols
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    reduced, pivots = rref(sparse, ncols)
    # rows that keep their zero entries reduce to the same rows
    assert rref([dict(enumerate(r)) for r in rows], ncols) == (reduced, pivots)
    assert all(v != 0 for r in reduced for v in r.values())
    want, want_pivots = ref_rref(rows, ncols)
    assert pivots == want_pivots
    assert len(reduced) == len(want)
    # pivot rows are exactly the reference rows, as Fractions
    assert [dense(r, width) for r in reduced[:len(pivots)]] == want[:len(pivots)]
    assert all(type(v) is Fraction for r in reduced[:len(pivots)] for v in r.values())
    # a row below the pivots is a nonzero multiple of the reference row
    for row, ref in zip(reduced[len(pivots):], want[len(pivots):]):
        row = dense(row, width)
        assert not any(row[:ncols])
        k = next((j for j, v in enumerate(ref) if v != 0), None)
        if k is None:
            assert not any(row)
        else:
            ratio = Fraction(row[k]) / ref[k]
            assert ratio and all(v == ratio * w for v, w in zip(row, ref))


def coefficient_rows(polys, support):
    return [[p.terms.get(m, Fraction(0)) for m in support] for p in polys]


@given(st.lists(poly_strategy(max_terms=3, max_degree=1), max_size=3),
       st.lists(poly_strategy(max_terms=3, max_degree=1), max_size=3),
       st.lists(st.lists(sparse_rationals, min_size=3, max_size=3), max_size=2))
@settings(max_examples=50, deadline=None)
def test_span_compare_matches_ranks(a, b, mixes):
    # some of b are combinations of a, so containment is common
    b = b + [sum((c * g for c, g in zip(mix, a)), R.zero()) for mix in mixes]
    result = span_compare(a, b)
    support = sorted({m for p in a + b for m in p.terms})
    rows_a, rows_b = coefficient_rows(a, support), coefficient_rows(b, support)
    for gens, rows, targets, witnesses in ((a, rows_a, b, result.b_in_a),
                                            (b, rows_b, a, result.a_in_b)):
        assert len(witnesses) == len(targets)
        for target, target_row, w in zip(targets, coefficient_rows(targets, support),
                                          witnesses):
            if w is None:
                assert rank(rows + [target_row]) > rank(rows)
            else:
                assert len(w) == len(gens)
                assert sum((c * g for c, g in zip(w, gens)), R.zero()) == target
    both = rank(rows_a + rows_b)
    expected = {(True, True): "equal", (True, False): "a_contains_b",
                (False, True): "b_contains_a", (False, False): "incomparable"}
    assert result.relation == expected[both == rank(rows_a), both == rank(rows_b)]


def test_span_change_of_basis():
    result = span_compare([X + Y, X - Y], [X, Y])
    assert result.relation == "equal"
    assert all(w is not None for w in result.b_in_a)
    # equality is symmetric in the arguments
    assert span_compare([X, Y], [X + Y, X - Y]).relation == "equal"


def test_span_strict_containment():
    result = span_compare([X ** 2], [X ** 2, X * Y])
    assert result.relation == "b_contains_a"
    assert [j for j, w in enumerate(result.b_in_a) if w is None] == [1]


def test_span_incomparable():
    assert span_compare([X], [Y]).relation == "incomparable"


@given(st.lists(poly_strategy(), min_size=1, max_size=3),
       st.fractions(min_value=1, max_value=5, max_denominator=3))
@settings(max_examples=25, deadline=None)
def test_span_reflexive_and_scale_invariant(gens, c):
    assert span_compare(gens, gens).relation == "equal"
    scaled = [g * c for g in gens]
    assert span_compare(gens, scaled).relation == "equal"


def test_span_witness_expresses_generators():
    a = [X + Y, X - Y]
    b = [2 * X, 3 * Y]
    result = span_compare(a, b)
    assert result.relation == "equal"
    # reconstruct each b generator from the witness coefficients
    for coeffs, target in zip(result.b_in_a, b):
        combo = sum((c * g for c, g in zip(coeffs, a)), R.zero())
        assert combo == target


def test_equation_set_validation():
    with pytest.raises(ValueError):
        EquationSet(R, (X,), ("a", "b"))
    with pytest.raises(ValueError):
        EquationSet(R, (X,), ())
    with pytest.raises(TypeError):
        EquationSet(R, (X,))
    other = Ring(("a",))
    with pytest.raises(ContextError):
        EquationSet(R, (other.var("a"),), ("a",))


def test_parse_rational_reads_integers_decimals_and_quotients():
    assert parse_rational(" -12 ") == -12
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e3", "2.5E-7", "-1e1000000000", "inf", "1/2e3", "1_000",
                                  "1/2_0", "\u0661", "\uff11/2", "0.\u0665"])
def test_parse_rational_refuses_exponents_and_infinities(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_report_has_no_truth_value():
    # a failing report is a nonempty tuple: only its ok decides
    for rep in (Report(False, {}), Report(True, {})):
        with pytest.raises(TypeError, match="read its ok"):
            assert rep
