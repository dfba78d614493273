"""Each guard of the package trips on what it guards.

A guard stays where the call would otherwise give a wrong answer
silently: ``zip`` truncating a shorter operand, a polynomial read in
another ring's keys.  Where the lookup itself raises, as a name missing
from a table of named cases does, the guard is gone and its row shows
that the lookup's own error still reaches the caller.
"""

import random
from fractions import Fraction

import pytest

from cubicjordan import coord8, grading, hvariety, relatives
from cubicjordan.errors import ContextError, ShapeError
from cubicjordan.exactcore import PolyMatrix, Ring, span_compare
from cubicjordan.jordan import JordanPresentation

R = Ring(("x", "y", "z"))
X, Y, Z = R.gens()
A = Ring(("a",)).var("a")
M2 = PolyMatrix.from_rows(R, [[X, Y], [Z, 1]])
M23 = PolyMatrix.from_rows(R, [[X, Y, Z], [Z, Y, X]])
LINE = Ring(("t",))
T = LINE.var("t")
ONE = (Fraction(1),)


def _x_pairs():
    ring = coord8.coord_ring(True)
    return coord8.symbolic_cube(ring), tuple(ring.var(n) for n in coord8.X_VARS)


# (call, the exception it raises, a pattern its message contains or None)
GUARDS = {
    "duplicate-ring-names": (lambda: Ring(("x", "x")), ContextError, "duplicate variable"),
    "constant-of-a-variable": (lambda: X.constant_value(), ValueError, "not a constant"),
    "entry-count": (lambda: PolyMatrix(R, 2, 2, [X] * 3), ShapeError, "need 4 entries"),
    "ragged-rows": (lambda: PolyMatrix.from_rows(R, [[X], [Y, Z], []]), ShapeError, "ragged"),
    "difference-shapes": (lambda: M2 - PolyMatrix.identity(R, 3), ShapeError, "shape mismatch"),
    "product-shapes": (lambda: M2 * M23.transpose(), ShapeError, "inner dimensions"),
    "vector-length": (lambda: M2.apply((X,)), ShapeError, "vector length"),
    "vector-ring": (lambda: M2.apply((A, A)), ContextError, "mixed ring"),
    "trace-shape": (lambda: M23.trace(), ShapeError, "trace of non-square"),
    "adjugate-shape": (lambda: M23.adjugate(), ShapeError, "adjugate of non-square"),
    "even-pfaffians": (lambda: PolyMatrix(R, 4, 4, [R.zero()] * 16).sub_pfaffians(),
                       ShapeError, "sub-Pfaffians need an odd"),
    "span-rings": (lambda: span_compare([X], [A]), ContextError, "span comparison across"),
    "unit-length": (lambda: JordanPresentation(LINE, ("t",), ONE * 2, T ** 3, (T * T,)),
                    ValueError, "unit and sharp"),
    "sharp-degree": (lambda: JordanPresentation(LINE, ("t",), ONE, T ** 3, (T ** 3,)),
                     ValueError, "sharp components"),
    "element-length": (lambda: JordanPresentation(LINE, ("t",), ONE, T ** 3, (T * T,))
                       .element([1, 2]), ValueError, "wrong number"),
    # no guard of their own: the lookup raises
    "representative": (lambda: hvariety.representative("p5"), KeyError, "'p5'"),
    "fiber-component": (lambda: hvariety.fiber_component_sampling("p5", 0, 1),
                        KeyError, "'p5'"),
    "radical-point": (lambda: hvariety.radical_locus_check("p5", 0, 1), KeyError, "'p5'"),
    "radical-locus": (lambda: hvariety.off_radical_point("p5", random.Random(0)),
                      KeyError, "'p5'"),
    "difference-factor": (lambda: coord8.d_entry(*_x_pairs(), 4, 1, 1),
                          UnboundLocalError, None),
    "weight-matrix": (lambda: grading.toric_weight_matrix("tilted"), KeyError, "'tilted'"),
    "embedding-part": (lambda: relatives.verify_cluster_embedding("III", 0, 1),
                       KeyError, "'III'"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_each_guard_raises(case):
    call, error, pattern = GUARDS[case]
    with pytest.raises(error, match=pattern):
        call()


def test_matrix_and_polynomial_edge_cases():
    # a 0x0 determinant is one, and a 1x1 adjugate the identity
    assert PolyMatrix(R, 0, 0, []).det() == 1
    assert PolyMatrix.from_rows(R, [[X]]).adjugate().entries == [R.one()]
    assert not M23.is_skew()
    assert not PolyMatrix.from_rows(R, [[X, 0], [0, 0]]).is_skew()
    assert PolyMatrix.from_rows(R, [[0, X], [-X, 0]]).is_skew()
    # a polynomial equals no string, either way round
    assert (X == "x") is False and (X != "x") is True
