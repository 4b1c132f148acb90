"""Property tests for the structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ellcert import ThetaContext, theta1, theta_odd
from ellcert import expr as ex
from ellcert.shiftops import ShiftOp, make_Bpn, shift_mul

CTX = ThetaContext()
ID_TOL = 1e-8

box_z = st.builds(complex,
                  st.floats(min_value=0.0, max_value=0.999),
                  st.floats(min_value=0.0, max_value=0.999).map(lambda t: t * CTX.tau.imag))
small_int = st.integers(min_value=-2, max_value=2)


@settings(max_examples=40, deadline=None)
@given(z=box_z, a=small_int, b=small_int)
def test_theta1_quasi_periodicity_everywhere(z, a, b):
    v = theta1(z, CTX)
    shifted = theta1(z + a + b * CTX.tau, CTX)
    # multiplier accumulated step by step, independently of the kernel's form
    mult = 1.0 + 0j
    w = z
    for _ in range(abs(b)):
        if b > 0:
            mult *= -np.exp(-2j * np.pi * w)
            w += CTX.tau
        else:
            w -= CTX.tau
            mult /= -np.exp(-2j * np.pi * w)
    assert abs(shifted - mult * v) <= ID_TOL * max(1.0, abs(mult * v))


@settings(max_examples=40, deadline=None)
@given(z=box_z)
def test_theta_odd_is_odd(z):
    assert abs(theta_odd(-z, CTX) + theta_odd(z, CTX)) <= ID_TOL * max(1, abs(theta_odd(z, CTX)))


@settings(max_examples=30, deadline=None)
@given(c1=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
       c2=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
       z=box_z, w=box_z)
def test_substitution_composes(c1, c2, z, w):
    # subst(subst(e, m1), m2) == subst(e, m1 after m2) on evaluation
    e = ex.theta1_of(ex.aff("x", const=0.1)) + ex.var("x") * ex.var("y")
    m1 = {"x": ex.aff("y", const=c1)}
    m2 = {"y": ex.aff("x", const=c2)}
    once = ex.substitute(ex.substitute(e, m1), m2)
    composed = ex.substitute(e, {"x": ex.aff("x", const=c1 + c2), "y": ex.aff("x", const=c2)})
    env = {"x": z, "y": w}
    a = ex.evaluate(once, env, CTX)
    b = ex.evaluate(composed, env, CTX)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@settings(max_examples=30, deadline=None)
@given(m1=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       m2=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_product_grading_is_additive(m1, m2):
    alg = make_Bpn(2, 3, CTX)
    a = ShiftOp.monomial(alg, m1, ex.var("u1"))
    b = ShiftOp.monomial(alg, m2, ex.exp2pii("u2"))
    prod = shift_mul(a, b)
    assert set(prod.terms) == {tuple(x + y for x, y in zip(m1, m2))}
