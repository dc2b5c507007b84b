import inspect
import math
import struct
import sys
import traceback
from operator import truediv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (CANCEL, EDGE_FLOATS, NoNumpy, Recorder, cofactor_adj,
                      cofactor_det, floats, kernel_examples, numpy_adjugate,
                      numpy_determinant, numpy_ieee_div, numpy_ieee_pow,
                      ordinary, ref_axpy, ref_rk4, same_bytes, square,
                      value_kinds, vectors)
from pbident.sim import ExcitationRecord
from pbident.smallmat import (adjugate, cofactors, correction_rk4,
                              determinant, dist_k, dot, exp_step, finite_k,
                              gram_step, gram_trapezoid, ieee_div, ieee_pow,
                              lag_rk4, min_eig_symmetric, mix_pair, outer_add,
                              pbep_inputs, pbep_sample, plant_mid, plant_rk4,
                              power_residuals, std_inputs, std_sample,
                              symmetric_eigen, trace_row)


def test_determinant_examples():
    assert determinant(np.diag([2.0, 3.0])) == 6.0
    assert determinant(np.eye(3)) == 1.0
    assert determinant([[1.0, 2.0], [3.0, 4.0]]) == -2.0


def test_determinant_identity_all_dims():
    for n in range(1, 9):
        assert determinant(np.eye(n)) == 1.0


def test_determinant_matches_numpy_larger_dims():
    rng = np.random.default_rng(5)
    for n in (4, 5, 6, 7, 8):
        for _ in range(20):
            m = rng.uniform(-1, 1, (n, n))
            ref = np.linalg.det(m)
            assert determinant(m) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_adjugate_examples():
    assert np.array_equal(adjugate(np.eye(3)), np.eye(3))
    a, b, c, d = 2.0, -3.0, 5.0, 7.0
    assert np.array_equal(adjugate([[a, b], [c, d]]),
                          [[d, -b], [-c, a]])
    assert np.allclose(adjugate(np.diag([2.0, 3.0, 4.0])),
                       np.diag([12.0, 8.0, 6.0]))
    # 1x1 convention: adj(M) M = det(M) I forces adj = [[1]]
    assert np.array_equal(adjugate([[7.0]]), [[1.0]])


def test_adjugate_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (n, n))
        lhs = adjugate(m) @ m
        scale = max(1.0, float(np.max(np.abs(m))) ** n)
        assert np.max(np.abs(lhs - determinant(m) * np.eye(n))) <= 1e-9 * scale


def test_adjugate_singular_matrix():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert determinant(m) == 0.0
    assert np.allclose(adjugate(m) @ m, np.zeros((2, 2)), atol=1e-14)


def test_adjugate_agrees_with_det_times_inverse():
    rng = np.random.default_rng(1)
    count = 0
    while count < 200:
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (n, n))
        d = determinant(m)
        if abs(d) <= 1e-6:
            continue
        count += 1
        ref = d * np.linalg.solve(m, np.eye(n))
        assert np.max(np.abs(adjugate(m) - ref)) <= 1e-8 * max(1.0, abs(d))


def test_min_eig_examples():
    assert min_eig_symmetric(np.diag([1.0, 5.0])) == pytest.approx(1.0, abs=1e-12)
    assert min_eig_symmetric(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-15)
    assert min_eig_symmetric([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_recovers_constructed_spectrum():
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        for _ in range(20):
            lam = np.sort(rng.uniform(-2, 2, n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = q @ np.diag(lam) @ q.T
            assert min_eig_symmetric(m) == pytest.approx(lam[0], abs=1e-9)


def test_min_eig_matches_eigvalsh_of_the_symmetrized_array():
    # symmetrizing on floats takes the same operations as the array
    # expression, so eigvalsh sees the same matrix
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for _ in range(50):
            m = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 8)
            want = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
            assert min_eig_symmetric(m.tolist()) == want
            assert min_eig_symmetric(m) == want


def test_symmetric_eigen_reconstructs():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        w, v = map(np.asarray, symmetric_eigen(m))
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) <= 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        assert np.all(np.diff(w) >= 0)


def test_min_eig_rejects_nonfinite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            min_eig_symmetric([[bad]])
    with pytest.raises(ValueError):
        min_eig_symmetric([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        min_eig_symmetric([[np.inf, 0.0], [0.0, 1.0]])
    # an exactly symmetric list of floats, the excitation record's Gram, at
    # each entry
    for at in ((0, 0), (0, 1), (1, 1)):
        for bad in (np.nan, np.inf, -np.inf):
            m = [[1.0, 0.5], [0.5, 2.0]]
            m[at[0]][at[1]] = m[at[1]][at[0]] = bad
            with pytest.raises(ValueError):
                min_eig_symmetric(m)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        adjugate(np.zeros(3))


def test_dot_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so left-to-right addition gives 0.0;
    # compensated summation (the builtin sum() from Python 3.12) gives 1.0
    assert dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    # right-to-left addition would keep the 1.0 here
    assert dot([1.0, 1e16, -1e16], [1.0, 1.0, 1.0]) == 0.0
    assert dot([2.0, 3.0], [0.5, 4.0]) == 13.0
    assert dot([], []) == 0.0


def test_ieee_helpers_give_numpy_values_instead_of_raising():
    assert ieee_div(1.0, 0.0) == np.inf and ieee_div(-1.0, 0.0) == -np.inf
    assert np.isnan(ieee_div(0.0, 0.0))
    assert ieee_div(3.0, 4.0) == 0.75
    assert ieee_pow(1e200, 2.0) == np.inf
    assert ieee_pow(0.0, -1.0) == np.inf
    assert np.isnan(ieee_pow(-2.0, 0.5))
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.01, 10.0, 1000):
        assert ieee_pow(float(x), 2.0) == np.float64(x) ** 2
        assert ieee_pow(float(x), 1.7) == np.float64(x) ** 1.7


def raw_bytes(v: float) -> bytes:
    """The float's IEEE double bytes, a nan's sign and payload included."""
    return struct.pack("<d", v)


def raises(op, a: float, b: float) -> bool:
    try:
        op(a, b)
    except (ZeroDivisionError, OverflowError, ValueError):
        return True
    return False


# signed zeros, infs, nans (a signaling one too), subnormals, the ends of
# the range, and odd, even, non-integer and huge exponents
SNAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
IEEE_GRID = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, SNAN,
             5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
             1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0, 2.0, -2.0,
             3.0, -3.0, 0.5, -0.5, 1.5, -1.5, 7.0, -7.0, 1023.0, 1025.0,
             -1075.0, 2.0 ** 53, 2.0 ** 53 + 2.0, -(2.0 ** 53 + 2.0), 1e20,
             -1e20]


@pytest.mark.parametrize("a", IEEE_GRID)
def test_ieee_helpers_match_numpy_where_python_raises_on_a_grid(a):
    # wherever `/` or math.pow raises, the float rules give numpy's bytes,
    # a nan's sign included; elsewhere they are `/` and math.pow
    cases = 0
    for b in IEEE_GRID:
        for op, got, want in ((truediv, ieee_div, numpy_ieee_div),
                              (math.pow, ieee_pow, numpy_ieee_pow)):
            cases += raises(op, a, b)
            assert raw_bytes(got(a, b)) == raw_bytes(want(a, b)), (op, a, b)
    assert cases >= 2   # every a divides by +-0.0


finite_exponents = st.one_of(st.integers(-1100, 1100).map(float),
                             st.floats(-1100.0, 1100.0), floats)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(a=floats, b=finite_exponents, zero=st.sampled_from([0.0, -0.0]))
def test_ieee_helpers_match_numpy_where_python_raises(a, b, zero):
    assert raw_bytes(ieee_div(a, zero)) == raw_bytes(numpy_ieee_div(a, zero))
    if raises(math.pow, a, b):
        assert raw_bytes(ieee_pow(a, b)) == raw_bytes(numpy_ieee_pow(a, b))


def test_closed_forms_take_nested_lists():
    m = [[2.0, -1.0, 0.5], [0.25, 3.0, 1.0], [1.5, 0.0, -2.0]]
    assert determinant(m) == determinant(np.array(m))
    adj = adjugate(m)
    assert isinstance(adj, list)
    assert np.array_equal(adj, adjugate(np.array(m)))
    with pytest.raises(ValueError):
        determinant([[1.0, 2.0], [3.0]])


def test_matrix_functions_give_floats_and_lists_for_any_input(monkeypatch):
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        m = rng.normal(size=(n, n))
        w, v = symmetric_eigen(m)
        assert type(w) is list and all(type(x) is float for x in w)
        assert type(v) is list and all(type(r) is list for r in v)
        # the determinant and adjugate above 3x3 run on floats alone
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "numpy", NoNumpy())
            adj = adjugate(m)
            assert type(determinant(m)) is float
        assert type(adj) is list and all(type(r) is list for r in adj)
        assert all(type(x) is float for r in adj for x in r)


# mostly moderate entries and some edge values, so that an elimination
# runs through several pivots before an inf or a nan spreads
mixed = st.one_of(ordinary, ordinary, ordinary, st.sampled_from(EDGE_FLOATS))


@kernel_examples
@given(data=st.data(), n=st.integers(4, 8),
       values=st.sampled_from([floats, ordinary, mixed]))
def test_elimination_matches_the_numpy_oracle_bit_for_bit(data, n, values):
    # the former array code (conftest): pivots, zero pivots, row updates
    # and signed minors in the same operations
    m = data.draw(square(n, values))
    zero = data.draw(st.none() | st.integers(0, n - 1))
    if zero is not None:
        for row in m:
            row[zero] = 0.0
    want = numpy_determinant(m)
    assert same_bytes([determinant(m)], [want])
    assert same_bytes([determinant(np.array(m))], [want])
    assert same_bytes(adjugate(m), numpy_adjugate(m))


# -- closed-form symmetric_eigen on 1x1 and 2x2 nested lists ------------------

EPS = np.finfo(float).eps
TINY = 5e-324   # the smallest subnormal


def closed_form_cases():
    """Symmetric 1x1 and 2x2 matrices as nested lists."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, d = rng.normal(size=3)
        yield [[a, b], [b, d]]
        yield [[a]]
    for a, d in ((1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (-1.0, 0.0), (0.0, 0.0)):
        yield [[a, 0.0], [0.0, d]]                # b = 0
    for b in (1e-300, 1e-8, 1.0, 1e8, 1e300, -2.0):
        yield [[0.5, b], [b, 0.5]]                # equal diagonals
    for e in range(-300, 301, 20):                # magnitude ratios 1e-300..1e300
        yield [[1.0, 10.0 ** e], [10.0 ** e, 2.0]]
        yield [[10.0 ** e, 1.0], [1.0, 10.0 ** -e]]
        yield [[10.0 ** e, 0.5 * 10.0 ** e], [0.5 * 10.0 ** e, -(10.0 ** e)]]
    for m in ([[1e-310, 3e-311], [3e-311, -2e-310]],    # subnormals
              [[TINY, TINY], [TINY, 0.0]], [[2e-320, 0.0], [0.0, 1e-320]],
              [[1e300, 1e-300], [1e-300, 1e-300]],
              [[-1e308, 1e308], [1e308, 1e308]]):     # d - a, 2b overflow
        yield m
    for _ in range(100):                          # indefinite and negative
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        lam = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-5, 5, 2)
        yield (q @ np.diag(lam) @ q.T).tolist()
        yield (-(q @ np.diag(np.abs(lam)) @ q.T)).tolist()


def test_symmetric_eigen_closed_form_against_eigh():
    for m in closed_form_cases():
        w, v = symmetric_eigen(m)
        assert isinstance(w, list) and isinstance(v, list)
        n = len(m)
        ma, wa, va = np.array(m), np.array(w), np.array(v)
        norm = np.max(np.abs(ma))
        assert all(x <= y for x, y in zip(w, w[1:])), m
        assert np.max(np.abs(va.T @ va - np.eye(n))) <= 4 * EPS, m
        # relative to |M|, plus a few units of the smallest subnormal, the
        # spacing of the floats that hold w and V diag(w) V' for subnormal M
        bound = 8 * EPS * norm + 4 * TINY
        assert np.max(np.abs(va @ np.diag(wa) @ va.T - ma)) <= bound, m
        assert np.max(np.abs(wa - np.linalg.eigvalsh(ma))) <= bound, m


def test_symmetric_eigen_symmetrizes():
    w, v = symmetric_eigen([[1.0, 0.5], [1.5, 3.0]])
    ref_w, _ = np.linalg.eigh([[1.0, 1.0], [1.0, 3.0]])
    assert np.allclose(w, ref_w, rtol=0, atol=4 * EPS * 3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetric_eigen_non_finite_gives_nan(bad):
    for m in ([[bad]], [[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]],
              [[1.0, 0.0], [0.0, bad]], [[1.0, bad], [0.0, 1.0]],
              [[bad, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
        w, v = symmetric_eigen(m)
        assert isinstance(w, list) and isinstance(v, list)
        assert np.all(np.isnan(w)) and np.all(np.isnan(v)), m


def test_symmetric_eigen_larger_lists_come_back_as_lists():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    w, v = symmetric_eigen(m.tolist())
    assert isinstance(w, list) and isinstance(v, list)
    ref_w, ref_v = symmetric_eigen(m)
    assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)


# -- unrolled element-wise kernels against their comprehension forms ---------

def _kernel_lines(factory, *lengths):
    """The expression of each line a kernel factory writes for these
    lengths, by the name it assigns ("return" for the returned one), from
    the kernel's template."""
    _, body = inspect.unwrap(factory)(*lengths)
    exprs = {}
    for line in [f"return {body}"] if isinstance(body, str) else body:
        name, *_, expr = line.replace("return ", "return = ", 1).split(" = ")
        exprs[name] = expr
    return exprs


def _named(prefix, values):
    """{prefix0: values[0], prefix1: values[1], ...}, a kernel's locals."""
    return {f"{prefix}{i}": v for i, v in enumerate(values)}


def _eval_line(expr, **names):
    return eval(expr, {"__builtins__": {}, **names})


def _draw_case(draw, kernel, n):
    """(kernel's output, its comprehension form's output) on drawn values,
    all of one kind (value_kinds)."""
    values = draw(value_kinds)

    def vec(k):
        return vectors(k, values)

    s, lam = draw(values), draw(values)
    x, y, k2, k3, k4 = (draw(vec(n)) for _ in range(5))
    # exp_step writes the lines of the former kernels axpy (its g update)
    # and dot_k (its sums, here v0 = om1'Phi's first column)
    if kernel == "axpy":
        return _eval_line(_kernel_lines(exp_step, n, False)["g"], g=x, ce=s,
                          om1=y), [a + s * b for a, b in zip(x, y)]
    # lag_rk4 writes the lines of the former kernels lag_rate (its first
    # stage), lag_rate_at (the other three) and rk4_sum (its combine)
    if kernel == "lag_rate":
        return _eval_line(_kernel_lines(lag_rk4, n)["k1"], lam=lam, u0=x,
                          z=y), [lam * (u - z) for u, z in zip(x, y)]
    if kernel == "lag_rate_at":
        line = _kernel_lines(lag_rk4, n)
        got = [*_eval_line(line["k2"], lam=lam, um=x, z=y, half=s, c=k2),
               *_eval_line(line["k3"], lam=lam, um=x, z=y, half=s, c=k2),
               *_eval_line(line["k4"], lam=lam, u1=x, z=y, h=s, c=k2)]
        return got, 3 * [lam * (u - (z + s * c)) for u, z, c in zip(x, y, k2)]
    if kernel == "rk4_sum":
        return _eval_line(_kernel_lines(lag_rk4, n)["return"], z=x, s=s,
                          k1=y, k2=k2, k3=k3, k4=k4), \
            [a + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, y, k2, k3, k4)]
    # the former one-expression kernels, now lines of the stage kernels
    # that absorbed them: v_minus_mg of mix_pair, v_plus_mg, scaled_mv and
    # scaled_mtv of gram_step (the lines of sample 1, the last of each
    # name), sub_at and block_columns of std_sample, midpoint and
    # hermite_mid of plant_mid
    if kernel == "v_minus_mg":
        p = draw(st.integers(1, 3))
        g, g0, phi = draw(vec(p)), draw(vec(p)), draw(square(p, values))
        return _eval_line(_kernel_lines(mix_pair, p, True)["r"], g=g, Phi=phi,
                          g0=g0), [a - dot(row, g0) for a, row in zip(g, phi)]
    if kernel == "v_plus_mg":
        m = draw(st.integers(1, 5))
        v, mat = draw(vec(m)), draw(st.lists(vec(n), min_size=m, max_size=m))
        return _eval_line(_kernel_lines(gram_step, m, n)["theta"],
                          theta=v, om1=mat, **_named("s", x)), \
            [a + dot(row, x) for a, row in zip(v, mat)]
    if kernel == "residual_gram":
        # gram_step's residual and the Gram it hands to eig, here the
        # identity
        m = draw(st.integers(1, 5))
        mat, v = draw(st.lists(vec(n), min_size=m, max_size=m)), \
            draw(vec(m))
        line = _kernel_lines(gram_step, m, n)
        r = _eval_line(line["r"], y1=y, om1=mat, theta=v)
        gram = _eval_line(line["w, V"], eig=lambda rows: rows, g=s, om1=mat)
        cols = list(zip(*mat))
        return [*r, *sum(gram, [])], \
            [b - dot(c, v) for b, c in zip(y, cols)] \
            + [s * dot(ci, cj) for ci in cols for cj in cols]
    if kernel == "scaled_mtv":
        mat, line = draw(square(n, values)), _kernel_lines(gram_step, 1, n)
        return [_eval_line(line[f"c{k}"], V=mat, r=y, **_named("f", x))
                for k in range(n)], \
            [c * dot(col, y) for c, col in zip(x, zip(*mat))]
    if kernel == "eigen_gain":
        # the gains phi(w) that the estimator took in a comprehension, at a
        # step's tau >= 0
        tau, line = abs(s), _kernel_lines(gram_step, 1, n)
        return [_eval_line(line[f"f{k}"], expm1=math.expm1, w=x, tau=tau)
                for k in range(n)], \
            [-math.expm1(-(lam * tau)) / lam if lam > 1e-300 else tau
             for lam in x]
    if kernel == "sub_at":
        # Y with the b channels: the first n DERIVATIVE taps lam*(u - z)
        # minus the next n PLAIN taps z
        w = draw(st.integers(1, 5))
        u, z = draw(vec(2 * n + n * w)), draw(vec(2 * n + n * w))
        taps = [lam * (a - b) for a, b in zip(u[:n], z[:n])]
        return list(std_sample(n, True, w)(lam, u, z)[0]), \
            [a - b for a, b in zip(taps, z[n:2 * n])]
    if kernel == "block_columns":
        # Omega is the columns of the n x w block of PLAIN taps after Y's
        # channels, and Y without the b channels the first n DERIVATIVE taps
        has_b, w = draw(st.booleans()), draw(st.integers(1, 5))
        k = 2 * n if has_b else n
        u, z = draw(vec(k + n * w)), draw(vec(k + n * w))
        y_got, omega = std_sample(n, has_b, w)(lam, u, z)
        return [*(() if has_b else y_got), *sum(omega, [])], \
            [*(() if has_b else [lam * (a - b) for a, b in zip(u[:n], z)]),
             *sum((z[k:][j::w] for j in range(w)), [])]
    if kernel == "dot_k":
        return [_eval_line(_kernel_lines(exp_step, n, True)["v0"], om1=x,
                           Phi=[[b] for b in y])], [dot(x, y)]
    if kernel == "scaled_mv":
        mat, line = draw(square(n, values)), _kernel_lines(gram_step, 1, n)
        return [_eval_line(line[f"s{i}"], g=s, V=mat, **_named("c", x))
                for i in range(n)], [s * dot(row, x) for row in mat]
    if kernel == "midpoint":
        return _eval_line(_kernel_lines(plant_mid, n, 3)["return"], a=x,
                          b=y), [0.5 * (a + b) for a, b in zip(x, y)]
    if kernel == "hermite_mid":
        return _eval_line(_kernel_lines(plant_mid, n, 1)["return"], x=x, y=y,
                          s=s, r=k2, w=k3), \
            [0.5 * (a + b) + s * (c - d) for a, b, c, d in zip(x, y, k2, k3)]
    flat = sum(draw(square(n, values)), [])
    ends = sum(draw(square(n, values)), [])
    if kernel == "outer_add":
        return outer_add(n)(flat, x), ref_outer_add(flat, [x])
    # p rows of m columns, one outer product per column, as the excitation
    # record added them from the columns of the rows (or a vector at m = 0)
    m = draw(st.integers(0 if kernel == "gram_trapezoid" else 1, 4))
    rows = draw(vec(n)) if m == 0 else \
        draw(st.lists(vec(m), min_size=n, max_size=n))
    cols = [rows] if m == 0 else [list(c) for c in zip(*rows)]
    if kernel == "outer_add_columns":
        return outer_add(n, m)(flat, rows), ref_outer_add(flat, cols)
    assert kernel == "gram_trapezoid"
    # the former ends (first + the latest outers) and trapezoid a*s - b*e
    want = [s * a - lam * e
            for a, e in zip(flat, ref_outer_add(ends, cols))]
    return gram_trapezoid(n, m)(s, flat, lam, ends, rows), \
        [want[i:i + n] for i in range(0, n * n, n)]


def ref_outer_add(s, cols):
    """s + c c' for each column c in turn, row-major."""
    p = len(cols[0])
    for c in cols:
        s = [v + c[k // p] * c[k % p] for k, v in enumerate(s)]
    return s


KERNELS = ["axpy", "rk4_sum", "v_minus_mg", "v_plus_mg", "residual_gram",
           "scaled_mtv", "eigen_gain", "sub_at", "outer_add_columns",
           "block_columns", "dot_k", "scaled_mv", "lag_rate", "lag_rate_at",
           "midpoint", "hermite_mid", "outer_add", "gram_trapezoid"]


@pytest.mark.parametrize("kernel", KERNELS)
@kernel_examples
@given(data=st.data(), n=st.integers(1, 5))
def test_kernel_matches_its_comprehension_bit_for_bit(kernel, data, n):
    got, want = _draw_case(data.draw, kernel, n)
    assert same_bytes(got, want)


@pytest.mark.parametrize("factory", [
    outer_add, gram_trapezoid, lag_rk4,
    pytest.param(lambda n: exp_step(n, True), id="exp_step"),
    pytest.param(lambda n: exp_step(n, False), id="exp_step_vector")])
def test_kernel_factory_compiles_once_per_length(factory):
    for n in range(1, 6):
        assert factory(n) is factory(n)
    assert factory(2) is not factory(3)
    for two_lengths in (gram_step, outer_add, plant_rk4, plant_mid):
        assert two_lengths(2, 3) is two_lengths(2, 3) is not two_lengths(3, 2)
    assert std_sample(2, True, 3) is std_sample(2, True, 3) \
        is not std_sample(2, False, 3)
    terms = ((0, 0), (0, 1), (1, 0))
    assert std_inputs(2, 3, True, terms, False, None) \
        is std_inputs(2, 3, True, terms, False, None) \
        is not std_inputs(2, 3, True, terms, False, ())
    assert pbep_inputs(True, False, True, 0, 2, 1) \
        is pbep_inputs(True, False, True, 0, 2, 1) \
        is not pbep_inputs(False, True, True, 0, 2, 1)
    assert correction_rk4(2, 3) is correction_rk4(2, 3) \
        is not correction_rk4(2, 2)
    assert mix_pair(3, False) is mix_pair(3, False) is not mix_pair(2, False)
    assert mix_pair(3, True) is not mix_pair(3, False)
    assert exp_step(2, True) is exp_step(2, True) is not exp_step(2, False)
    assert pbep_sample(True, False, 0, 2, 1) \
        is pbep_sample(True, False, 0, 2, 1) \
        is not pbep_sample(False, True, 2, 0, 0)


def test_kernels_keep_signed_zero_and_read_exactly_n_components():
    # a row product starts from 0.0 as dot does, so a sum of -0.0
    # products is +0.0: g - Phi g0 in mix_pair, gamma V c in gram_step
    r = _kernel_lines(mix_pair, 2, True)["r"]
    assert same_bytes(_eval_line(r, g=[-0.0, -0.0], Phi=[[-0.0, -0.0]] * 2,
                                 g0=[1.0, 1.0]), [-0.0, -0.0])
    s0 = _kernel_lines(gram_step, 1, 2)["s0"]
    assert same_bytes([_eval_line(s0, g=1.0, V=[[-0.0, -0.0]] * 2, c0=1.0,
                                  c1=1.0)], [0.0])
    v0 = _kernel_lines(exp_step, 3, True)["v0"]
    assert same_bytes([_eval_line(v0, om1=[-0.0, -0.0, -0.0],
                                  Phi=[[1.0]] * 3)], [0.0])
    # left to right: 1e16 + 1.0 rounds back to 1e16 before -1e16 comes in
    assert _eval_line(v0, om1=[1e16, 1.0, -1e16], Phi=[[1.0]] * 3) == 0.0
    # a zero om0 leaves g and Phi as they are; at a rate whose exp(-gt*n1)
    # underflows, the gain is 1/n1 and Phi loses its om1 part: om1 = (2, 0)
    # and om1'Phi = (2, 4), so Phi - outer((0.5, 0), (2, 4))
    assert exp_step(2, True)(1e300, 0.0, [0.0, 0.0], 0.0, [2.0, 0.0],
                             [0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]]) \
        == (0.0, 4.0, [0.0, 0.0], [[0.0, 0.0], [3.0, 4.0]])
    # I - Phi at Phi = I is +0.0 throughout (1.0 - 1.0, 0.0 - 0.0)
    assert same_bytes([mix_pair(2, False)([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0],
                                          None)[0]], [0.0])
    with pytest.raises(IndexError):
        exp_step(3, False)(1.0, 0.0, [1.0] * 3, 0.0, [1.0] * 3, [1.0, 2.0])
    assert exp_step(2, False)(1e300, 1.0, [0.0] * 3, 1.0, [0.0] * 3,
                              [1.0, 2.0, 3.0]) == [1.0, 2.0]
    with pytest.raises(IndexError):
        lag_rk4(3)(1.0, [1.0] * 3, [1.0] * 3, [1.0] * 3, [1.0, 2.0], 0.1)


def test_kernel_tracebacks_show_the_generated_line():
    # each kernel's source is in linecache under its own file name
    try:
        lag_rk4(3)(1.0, [1.0] * 3, [1.0] * 3, [1.0] * 3, [1.0, 2.0], 0.1)
    except IndexError:
        tb = traceback.format_exc()
    assert 'File "<smallmat lag_rk4(3)>", line 3, in lag_rk4' in tb
    assert "k1 = c = [lam * (u0[0] - z[0]), lam * (u0[1] - z[1])" in tb


# -- the step's stage kernels against the expressions they fuse --------------
#
# Each reference composes the former one-expression kernels' comprehension
# forms in the order the step called them, so a stage kernel that reorders
# a sum or an operand, or passes its callee other arguments, differs in the
# bytes.  tools/diffmatrix.py cannot see every reordering on the shipped
# plants, so these tests guard the order.

SUBSTEPS = [1, 2, 3, 4, 5, 8]


def ref_plant(rate, x, ths, t, dts, h, nsub):
    """The plant's nsub RK4 substeps, one expression at a time."""
    hs = h / nsub
    hh, h6 = 0.5 * hs, hs / 6.0
    xc, xs = x, []
    for j in range(nsub):
        a = 2 * j
        k1 = rate(xc, ths[a], t + dts[a])
        k2 = rate(ref_axpy(xc, hh, k1), ths[a + 1], t + dts[a + 1])
        k3 = rate(ref_axpy(xc, hh, k2), ths[a + 1], t + dts[a + 1])
        k4 = rate(ref_axpy(xc, hs, k3), ths[a + 2], t + dts[a + 2])
        xc = ref_rk4(xc, h6, k1, k2, k3, k4)
        xs.append(xc)
    return xs


@pytest.mark.parametrize("nsub", SUBSTEPS)
@kernel_examples
@given(data=st.data(), n=st.integers(1, 3), values=value_kinds)
def test_plant_rk4_matches_the_composed_stages_bit_for_bit(nsub, data, n,
                                                           values):
    draw = data.draw
    x, t, h = draw(vectors(n, values)), draw(values), draw(values)
    ths = draw(st.lists(vectors(2, values), min_size=2 * nsub + 1,
                        max_size=2 * nsub + 1))
    dts = draw(vectors(2 * nsub + 1, values))
    rates = draw(st.lists(vectors(n, values), min_size=4 * nsub,
                          max_size=4 * nsub))
    rate, ref = Recorder(rates), Recorder(rates)
    got = plant_rk4(n, nsub)(rate, x, ths, t, dts, h)
    assert same_bytes(got, ref_plant(ref, x, ths, t, dts, h, nsub))
    assert same_bytes(rate.floats(), ref.floats())
    # the estimate rows go through as they are, and each substep starts
    # from x itself or the list of the substep before
    assert all(c[1] is r[1] for c, r in zip(rate.calls, ref.calls))
    assert all(c[0] is s for c, s in zip(rate.calls[::4], [x, *got]))


def test_stage_kernels_do_not_grow_with_the_substep_count():
    # the substeps and the interpolated estimates run in loops: unrolled,
    # a user-set count of 10**6 substeps would compile gigabytes of code
    sizes = {len(plant_rk4(2, nsub).__code__.co_code)
             for nsub in (1, 8, 10**6)}
    assert len(sizes) == 1


@pytest.mark.parametrize("nsub", SUBSTEPS)
@kernel_examples
@given(data=st.data(), n=st.integers(1, 4), values=value_kinds)
def test_plant_mid_matches_the_step_s_former_branches(nsub, data, n, values):
    # at one substep the cubic Hermite midpoint from the rates at the
    # step's ends, r0 taken first; at an even count the sub-grid state
    # itself; else the average of the two sub-grid states about the midpoint
    draw = data.draw
    x, xs = draw(vectors(n, values)), [draw(vectors(n, values))
                                       for _ in range(nsub)]
    th, th1 = draw(vectors(2, values)), draw(vectors(2, values))
    t, h = draw(values), draw(values)
    rate = Recorder([draw(vectors(n, values)), draw(vectors(n, values))])
    got = plant_mid(n, nsub)(rate, x, xs, th, th1, t, h)
    k = nsub // 2 - 1
    if nsub == 1:
        (x0, th0, t0), (x1, th_1, t1) = rate.calls
        assert x0 is x and th0 is th and t0 is t
        assert x1 is xs[0] and th_1 is th1 and same_bytes([t1], [t + h])
        r0, r1 = rate.values
        assert same_bytes(got, [0.5 * (a + b) + (h / 8.0) * (c - d)
                                for a, b, c, d in zip(x, xs[0], r0, r1)])
        return
    assert rate.calls == []
    if nsub % 2 == 0:
        assert got is xs[k]
    else:
        assert same_bytes(got, [0.5 * (a + b)
                                for a, b in zip(xs[k], xs[k + 1])])


def ref_correction(G, PT, gamma, delta, ycal, th, h, nsub):
    """The correction flow's RK4 step and the interpolated estimates, one
    expression at a time."""
    gd = gamma * delta
    gdd = gd * delta
    vec = [gd * dot(row, ycal) for row in PT]
    mat = [[gdd * v for v in row] for row in PT]

    def rate(theta):
        g = G(theta)
        return [a - dot(row, g) for a, row in zip(vec, mat)]

    half = 0.5 * h
    a1 = rate(th)
    a2 = rate(ref_axpy(th, half, a1))
    a3 = rate(ref_axpy(th, half, a2))
    a4 = rate(ref_axpy(th, h, a3))
    th_new = ref_rk4(th, h / 6.0, a1, a2, a3, a4)
    d = [a - b for a, b in zip(th_new, th)]
    return [ref_axpy(th, k / (2.0 * nsub), d) for k in range(2 * nsub)] \
        + [th_new]


@pytest.mark.parametrize("nsub", SUBSTEPS)
@kernel_examples
@given(data=st.data(), q=st.integers(1, 3), p=st.integers(1, 3),
       values=value_kinds)
def test_correction_rk4_matches_the_composed_flow_bit_for_bit(nsub, data,
                                                              q, p, values):
    draw = data.draw
    pt = draw(st.lists(vectors(p, values), min_size=q, max_size=q))
    gamma, delta, h = draw(values), draw(values), draw(values)
    ycal, th = tuple(draw(vectors(p, values))), draw(vectors(q, values))
    gs = draw(st.lists(vectors(p, values), min_size=4, max_size=4))
    _assert_correction(nsub, pt, gamma, delta, ycal, th, h, gs)


def _assert_correction(nsub, pt, gamma, delta, ycal, th, h, gs):
    g_map, ref = Recorder(gs), Recorder(gs)
    fracs = [k / (2.0 * nsub) for k in range(2 * nsub)]
    got = correction_rk4(len(th), len(ycal))(g_map, pt, gamma, delta, ycal,
                                             th, h, fracs)
    want = ref_correction(ref, pt, gamma, delta, ycal, th, h, nsub)
    assert len(got) == 2 * nsub + 1
    assert same_bytes(got, want)
    assert same_bytes(g_map.floats(), ref.floats())
    assert g_map.calls[0][0] is th


def test_correction_rk4_keeps_left_to_right_sums_at_cancelling_entries():
    # P T ycal and M G(theta) each sum CANCEL's products at ycal = G = 1
    _assert_correction(2, [list(CANCEL), [0.5, 1.0, 2.0]], 1.0, 1.0,
                       (1.0, 1.0, 1.0), [0.5, 0.25], 1e-3, [(1.0,) * 3] * 4)


def test_gradient_kernels_keep_left_to_right_sums_at_cancelling_entries():
    # gram_step's lines of sample 1: om1's first column is CANCEL, its
    # second ones, so the residual at theta = 1 and Gram entry (0, 1) sum
    # CANCEL; V's first column at r = 1, V's first row at c = 1 and om1's
    # first row at s = 1 sum it
    m = [[CANCEL[k], 1.0] for k in range(3)]
    y, ones = [0.5, 0.25], [1.0] * 3
    line = _kernel_lines(gram_step, 3, 2)
    r = _eval_line(line["r"], y1=y, om1=m, theta=ones)
    gram = _eval_line(line["w, V"], eig=lambda rows: rows, g=1.0, om1=m)
    cols = list(zip(*m))
    assert same_bytes([*r, *sum(gram, [])],
                      [b - dot(c, ones) for b, c in zip(y, cols)]
                      + [dot(ci, cj) for ci in cols for cj in cols])
    v = [list(CANCEL), [1.0, 0.0, 0.0], [CANCEL[2], 0.0, 0.0]]
    line = _kernel_lines(gram_step, 3, 3)
    unit = {**_named("f", ones), **_named("c", ones), **_named("s", ones)}
    got = [_eval_line(line[f"c{k}"], V=v, r=ones, **unit) for k in range(3)]
    got += [_eval_line(line[f"s{i}"], V=v, g=1.0, **unit) for i in range(3)]
    got += _eval_line(line["theta"], theta=[0.0] * 3, om1=v, **unit)
    assert same_bytes(got, [dot(col, ones) for col in zip(*v)]
                      + [dot(row, ones) for row in v] * 2)


@kernel_examples
@given(data=st.data(), n=st.integers(1, 11), values=value_kinds)
def test_lag_rk4_matches_the_composed_stages_bit_for_bit(data, n, values):
    draw = data.draw
    lam, h = draw(values), draw(values)
    u0, um, u1, z = (draw(vectors(n, values)) for _ in range(4))
    half = 0.5 * h
    c1 = [lam * (u - w) for u, w in zip(u0, z)]
    c2 = [lam * (u - (w + half * c)) for u, w, c in zip(um, z, c1)]
    c3 = [lam * (u - (w + half * c)) for u, w, c in zip(um, z, c2)]
    c4 = [lam * (u - (w + h * c)) for u, w, c in zip(u1, z, c3)]
    assert same_bytes(lag_rk4(n)(lam, u0, um, u1, z, h),
                      ref_rk4(z, h / 6.0, c1, c2, c3, c4))


@kernel_examples
@given(data=st.data(), n=st.integers(1, 3), values=value_kinds)
def test_cofactor_forms_match_the_written_formulas_bit_for_bit(data, n,
                                                               values):
    m = data.draw(square(n, values))
    assert same_bytes([determinant(m)], [cofactor_det(m)])
    assert same_bytes(adjugate(m), cofactor_adj(m))


# -- the run loop's kernels against the loop code they replace ---------------
#
# Each reference is the code sim.run ran inline before the kernel, one
# statement at a time, so a kernel that reorders an operation, or passes
# energy or control other arguments, differs in the bytes.

def ref_residuals(energy, control, steps, h, nsub, uses_u, gd, span_sub,
                  span_outer, s_now, flow_now):
    """The run loop's storage residuals over steps of (xs, th_prev, th_new,
    tk), as run wrote them: (res_sub, max_sub, max_outer) after each."""
    s_back = outer_back = None
    outer_now, outer_flow = s_now, flow_now
    res_sub = max_sub = max_outer = 0.0
    out = []
    for xs, th_prev, th_new, tk in steps:
        if uses_u and gd:
            dth = [a - b for a, b in zip(th_new, th_prev)]
        for j, xsub in enumerate(xs):
            if uses_u:
                frac = (j + 1) / nsub
                th_sub = ref_axpy(th_prev, frac, dth) if gd else th_prev
                usub = control(xsub, th_sub, tk - h + frac * h)
            else:
                usub = 0.0
            s_new, flow_new = energy(xsub, usub)
            if s_back is not None:
                res_sub = abs(ieee_div(s_new - s_back, span_sub) - flow_now)
                if res_sub > max_sub or res_sub != res_sub:
                    max_sub = res_sub
            s_back, s_now, flow_now = s_now, s_new, flow_new
        if outer_back is not None:
            res = abs((s_now - outer_back) / span_outer - outer_flow)
            if res > max_outer or res != res:
                max_outer = res
        outer_back, outer_now, outer_flow = outer_now, s_now, flow_now
        out.append((res_sub, max_sub, max_outer))
    return out


@pytest.mark.parametrize("nsub", [1, 2, 3])
@pytest.mark.parametrize("uses_u, gd", [(False, False), (True, False),
                                        (True, True)])
@kernel_examples
@given(data=st.data(), n=st.integers(1, 3), q=st.integers(1, 3),
       n_steps=st.integers(1, 4), values=value_kinds)
def test_power_residuals_match_the_loop_they_replace(nsub, uses_u, gd, data,
                                                     n, q, n_steps, values):
    draw = data.draw
    steps = [(draw(st.lists(vectors(n, values), min_size=nsub,
                            max_size=nsub)),
              draw(vectors(q, values)), draw(vectors(q, values)), draw(values))
             for _ in range(n_steps)]
    h, s0, f0 = draw(values), draw(values), draw(values)
    span_outer = draw(values.filter(lambda v: v != 0.0))   # 2h, never 0
    # a zero span is the subnormal step's, which keeps ieee_div
    span = draw(st.one_of(values, st.just(0.0)))
    flows = draw(st.lists(vectors(2, values), min_size=nsub * n_steps,
                          max_size=nsub * n_steps))
    us = draw(vectors(nsub * n_steps, values))
    for plain in {False, span != 0.0}:
        energy, ref_energy = Recorder(flows), Recorder(flows)
        control, ref_control = Recorder(us), Recorder(us)
        residuals = power_residuals(nsub, uses_u, q if uses_u and gd else 0,
                                    plain)(energy, control, h, span,
                                           span_outer, s0, f0)
        got = [residuals(*step) for step in steps]
        want = ref_residuals(ref_energy, ref_control, steps, h, nsub, uses_u,
                             gd, span, span_outer, s0, f0)
        assert same_bytes(got, want)
        for rec, ref in ((energy, ref_energy), (control, ref_control)):
            assert len(rec.calls) == len(ref.calls)
            assert same_bytes(rec.floats(), ref.floats())
        assert len(control.calls) == (nsub * n_steps if uses_u else 0)


@kernel_examples
@given(data=st.data(), n=st.integers(1, 3), values=value_kinds)
def test_dist_k_is_the_norm_of_the_difference(data, n, values):
    # run's former param_dist: sqrt(dot(a - b, a - b))
    a, b = data.draw(vectors(n, values)), data.draw(vectors(n, values))
    d = [u - v for u, v in zip(a, b)]
    assert same_bytes([dist_k(n)(a, b)], [math.sqrt(dot(d, d))])


@kernel_examples
@given(data=st.data(), sizes=st.lists(st.integers(0, 4), min_size=1,
                                      max_size=3), values=value_kinds)
def test_finite_k_is_all_finite_over_each_argument(data, sizes, values):
    # World.check_finite's all(map(math.isfinite, part)) over each part
    parts = [data.draw(vectors(n, values)) for n in sizes]
    assert finite_k(*sizes)(*parts) is \
        all(all(map(math.isfinite, part)) for part in parts)
    assert finite_k(0, 2)(None, [1.0, math.inf]) is False


class _Est:
    """An estimator's trace-row reads: Theta, phi and mix()."""

    def __init__(self, theta, phi, delta):
        self.Theta, self.phi, self.delta, self.mixes = theta, phi, delta, 0

    def mix(self):
        self.mixes += 1
        return self.delta, ()


@pytest.mark.parametrize("gd, w", [(True, 0), (False, 0), (False, 2),
                                   (False, 3)])
@kernel_examples
@given(data=st.data(), n=st.integers(1, 3), n_p=st.integers(1, 2),
       q=st.integers(1, 3), p=st.integers(1, 3), values=value_kinds)
def test_trace_row_matches_the_row_it_replaces(gd, w, data, n, n_p, q, p,
                                               values):
    draw = data.draw
    t, mineig, res, u, delta = (draw(values) for _ in range(5))
    x, th, yp = (draw(vectors(k, values)) for k in (n, q, n_p))
    est = _Est(draw(vectors(w, values)), draw(square(p, values)), delta)
    control, ports = Recorder([u]), Recorder([((u,), tuple(yp))])
    got = trace_row(n, n_p, q, w, gd)(control, ports, est, cofactors(p, False))(
        t, x, th, mineig, res)
    # run's former emit_row
    want = [t, *x, u, *yp, *th] + est.Theta
    want += [delta, determinant(est.phi)] if gd else [0.0, 1.0]
    want += [mineig, res]
    assert type(got) is tuple and same_bytes(got, want)
    assert control.calls == [(x, th, t)] and ports.calls == [(x, u, t)]
    assert est.mixes == gd


@pytest.mark.parametrize("gd, w", [(True, 0), (False, 0), (False, 3)])
def test_trace_row_names_its_columns(gd, w):
    # run's former header list, column for column
    n, n_p, q = 2, 1, 3
    want = (["t"] + [f"x{i + 1}" for i in range(n)] + ["u"]
            + [f"yp{i + 1}" for i in range(n_p)]
            + [f"theta_hat{i + 1}" for i in range(q)]
            + [f"overparam_hat{i + 1}" for i in range(w)]
            + ["delta", "det_phi", "gram_min_eig", "power_residual"])
    row = trace_row(n, n_p, q, w, gd)(None, None, None, None)
    assert row.columns == want
    # every row function has its own list
    assert trace_row(n, n_p, q, w, gd)(None, None, None, None).columns \
        is not row.columns


# -- the 2x2 minimum eigenvalue in LAPACK's operations, against eigvalsh ------

# the bounds on the largest |entry| between which neither dsyevd nor dsterf
# rescales a matrix, each with its neighbours one ulp to either side
THRESHOLDS = [v for t in (2.0 ** -405, 2.0 ** 485)
              for v in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))]
EIG_EDGES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300,
             1.0, *THRESHOLDS]
# bounded so that symmetrizing and the Gram's squares stay finite
eig_entries = st.one_of(
    st.sampled_from(EIG_EDGES).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e300, 1e300), st.floats(-1e3, 1e3))
eig_examples = settings(derandomize=True, database=None, deadline=None,
                        max_examples=1000)


@st.composite
def two_by_two(draw):
    """A 2x2 nested list of finite floats, mostly symmetric, drawn toward
    dsterf's split tests and the rescaling thresholds."""
    a, b, c = draw(eig_entries), draw(eig_entries), draw(eig_entries)
    shape = draw(st.sampled_from(["plain", "equal_diagonal", "tiny_off",
                                  "underflow_off", "zero_off", "gram",
                                  "at_threshold", "asymmetric"]))
    if shape == "equal_diagonal":
        c = a
    elif shape == "tiny_off":
        # near |b| = sqrt|a| sqrt|c| eps, where both split tests decide
        c = a if draw(st.booleans()) else c
        b = (math.sqrt(abs(a)) * math.sqrt(abs(c))
             * 2.0 ** -draw(st.integers(50, 56)) * draw(st.floats(0.5, 2.0)))
    elif shape == "underflow_off":
        # b*b underflows to a subnormal, so sqrt(b*b) is not |b|
        a = draw(st.sampled_from([0.0, -0.0]))
        b = draw(st.floats(1e-165, 1e-154))
    elif shape == "zero_off":
        b = draw(st.sampled_from([0.0, -0.0]))
    elif shape == "gram":
        u = [draw(st.floats(-1e150, 1e150)) for _ in range(4)]
        a, b, c = (u[0] * u[0] + u[2] * u[2], u[0] * u[1] + u[2] * u[3],
                   u[1] * u[1] + u[3] * u[3])
    elif shape == "at_threshold":
        t = draw(st.sampled_from(THRESHOLDS)) * draw(st.sampled_from([1, -1]))
        a, b, c = draw(st.permutations(
            [t, t * draw(st.floats(-1.0, 1.0)), t * draw(st.floats(-1.0, 1.0))]))
    b10 = draw(eig_entries) if shape == "asymmetric" else b
    return [[a, b], [b10, c]]


@eig_examples
@given(m=two_by_two())
@example(m=[[-0.0, 0.0], [0.0, 0.0]])
@example(m=[[0.0, -0.0], [-0.0, -0.0]])
@example(m=[[1.0, 1.0], [1.0, -1.0]])       # a + c = 0
@example(m=[[1.0, 0.5], [0.5, 1.0]])        # |a - c| < |2b|
@example(m=[[3.0, 1.0], [1.0, 1.0]])        # |a - c| = |2b|
@example(m=[[1e-300, 1e-300], [1e-300, 0.0]])
# only dsterf's second split test, on b*b, splits this one
@example(m=[[0.2576611551787722, 2.860613470309883e-17],
            [2.860613470309883e-17, 0.2576611551787722]])
# sqrt(b*b) is not |b| where b*b is subnormal
@example(m=[[-0.0, 2.36137087598986e-155], [2.36137087598986e-155, 1.325]])
# symmetric lists outside [2**-405, 2**485], which eigvalsh rescales; a + a
# overflows in the first
@example(m=[[1.7976931348623157e308, 1.0], [1.0, 2.0]])
@example(m=[[1e-200, 1e-300], [1e-300, -1e-250]])
def test_min_eig_2x2_is_eigvalsh_bit_for_bit(m):
    arr = np.array(m)
    with np.errstate(over="ignore"):
        want = float(np.linalg.eigvalsh(0.5 * (arr + arr.T))[0])
    assert same_bytes(min_eig_symmetric(m), want)
    assert same_bytes(min_eig_symmetric(arr), want)


# entries at the ends of the float range: signed zeros, subnormals, the
# largest finite magnitude, and magnitudes whose a + a overflows to inf
ONE_BY_ONE_EDGES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                    1.7976931348623157e308, 8.98846567431158e307,
                    math.nextafter(8.98846567431158e307, 0.0), 1e308]


@eig_examples
@given(a=st.one_of(
    st.sampled_from(ONE_BY_ONE_EDGES).flatmap(
        lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3)))
@example(a=-0.0)
@example(a=1.7976931348623157e308)
@example(a=-1.7976931348623157e308)
def test_min_eig_1x1_is_eigvalsh_bit_for_bit(a):
    # dsyevd returns the symmetrized entry itself at n = 1
    arr = np.array([[a]])
    with np.errstate(over="ignore"):
        want = float(np.linalg.eigvalsh(0.5 * (arr + arr.T))[0])
    assert same_bytes(min_eig_symmetric([[a]]), want)
    assert same_bytes(min_eig_symmetric(arr), want)
    assert type(min_eig_symmetric([[a]])) is float


def test_min_eig_of_int_entries_is_a_float():
    for m in ([[3]], [[2, 1], [1, 2]], [[0, 0], [0, 0]], [[1, 3], [0, -4]],
              [[1, 2, 0], [2, 1, 0], [0, 0, 5]]):
        got = min_eig_symmetric(m)
        arr = np.array(m, dtype=float)
        assert type(got) is float
        assert got == float(np.linalg.eigvalsh(0.5 * (arr + arr.T))[0])


def test_excitation_record_at_p2_calls_no_numpy(monkeypatch):
    rec = ExcitationRecord(2, 1e-3, threshold=1e-4)
    got = []
    for k in range(40):
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "numpy", NoNumpy())
            rec.push((math.cos(0.3 * k), 0.5 * math.sin(0.2 * k)))
            got.append(rec.record(k * 1e-3))
        gram = np.array(rec.gram_rows())
        assert same_bytes(got[-1], float(np.linalg.eigvalsh(gram)[0]))
    assert rec.t_c is not None and got[-1] > 1e-4
