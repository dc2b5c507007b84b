"""Small dense matrix kernels for the estimator and excitation monitor.

Everything here targets tiny matrices (dimension <= ~8).  The adjugate is
computed by cofactor expansion because the identity adj(M) @ M = det(M) * I
must hold even when M is singular -- the mixing step of the interlaced
estimator evaluates it at det = 0 every run (the extension matrix starts at
the identity).  Inverse-based shortcuts break exactly there.

For the simulator's step on Python floats, `dot` is a left-to-right
reduction, `determinant`/`adjugate` take up to 3x3 nested lists of floats
directly, and `ieee_div`/`ieee_pow` give numpy's inf/nan where Python
float arithmetic would raise (`ieee_pow` serves only the circuit's
non-integer power theta1 ** alpha; squares are written x * x).

The step's element-wise expressions are kernels unrolled to a vector
length: a factory such as `axpy(n)` returns the function
`lambda x, s, y: [x[0] + s * y[0], ..., x[n-1] + s * y[n-1]]`, compiled
on the first call with that length and cached (`_kernel`), so a second
call with the same length returns the same function.  The sources come
only from the fixed templates here and integer lengths.  On CPython 3.11
a comprehension such as `[a + s * b for a, b in zip(x, y)]` builds a
function, a frame and a zip on every call, which on 2- and 3-element
states costs several times the arithmetic; comprehensions are inlined
from 3.12 on (PEP 709), so the gain is smaller there.  Each kernel keeps
the per-element operation order of the comprehension it replaces (its
docstring gives the expression; sums of products start from 0.0 and go
left to right, as `dot` does), so results are bit-identical to it.  The
estimator's dot products are kernels of the same kind: `dot_k(n)` (the
float `dot` returns), `vec_mat(p)` (v'M), `mat_vec(m, n)` (M v) and, for
the gradient flow's matrix update, `residual_gram(m, n)` (y - M'v and
s M'M, read from the rows of M), `scaled_mtv(n)` (c * M'v), `scaled_mv`
and `v_plus_mg` (v + M g).  Their fixed order makes a run's numbers
independent of the BLAS build, whose small dot products round differently
from one CPU kernel to the next.  `sub_at` and `block_columns` split the
state-equation channel outputs into Y and Omega, and `columns` transposes
a matrix regressor for the excitation record.  A kernel reads exactly n
components: it raises IndexError on a shorter argument and ignores the
rest of a longer one, so callers bind kernels to lengths they have
checked.

The symmetric eigenproblems are posed on the symmetrized matrix
(M + M')/2.  `symmetric_eigen` solves it in closed form up to 2x2 (one
Jacobi rotation on Python floats, nested lists in and out) and with
numpy's eigh above.  `min_eig_symmetric` checks and symmetrizes on floats.
A 1x1 matrix is its own eigenvalue, as dsyevd returns it.  On a 2x2
matrix it takes, on Python floats, the operations that numpy's eigvalsh
runs in LAPACK (dsyevd, dsytd2, dsterf, dlae2, dlasrt), so its result is
bit-identical to eigvalsh's without the cost of the call; a 2x2 matrix
that dsyevd or dsterf would rescale, and any larger one, goes to eigvalsh
itself.  The excitation monitor hands over its Gram as nested float rows,
so ph's 2x2 Gram eigenvalue is a trace column that depends on no BLAS
build; the circuit's 3x3 one still comes from LAPACK.

numpy is imported only inside the functions that hand a matrix to it:
eigvalsh and eigh above 2x2, the determinant and adjugate above 3x3 or of
an array, and the inf/nan fallbacks of `ieee_div` and `ieee_pow`.
`flat_floats`, `float_rows` and `all_finite` read scalars, nested
sequences and arrays on floats, as np.ravel, np.asarray and np.isfinite
would.
"""

from __future__ import annotations

import functools
import math


def dot(a, b) -> float:
    """Sum of the products of two equal-length float sequences, added left
    to right.

    The fixed order keeps results independent of BLAS and of the
    interpreter (the builtin sum() compensates from Python 3.12 on).
    """
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def flat_floats(value) -> tuple:
    """The numbers of a scalar, a nested sequence or an array, in row-major
    order, as a tuple of floats: the values of np.ravel(value)."""
    if hasattr(value, "tolist"):   # an ndarray or a numpy scalar
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return (float(value),)
    out = []
    for v in value:
        out.extend(flat_floats(v))
    return tuple(out)


def float_rows(m) -> list:
    """A matrix (nested sequence or 2-D array) as a list of equal-length
    lists of floats; ValueError for anything else."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    try:
        out = [[float(v) for v in row] for row in rows]
    except TypeError:
        out = None
    if not out or any(len(row) != len(out[0]) for row in out):
        raise ValueError(f"expected a matrix of equal-length rows of "
                         f"numbers, got {m!r}")
    return out


def all_finite(x) -> bool:
    """Whether a number, or every number of a nested sequence or an array,
    is finite."""
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return all(map(all_finite, x))
    return math.isfinite(x)


def _kernel(source):
    """Turn `source`, lengths -> (params, body), into a kernel factory:
    lengths -> the function `lambda params: body`, compiled on the first
    call with those lengths and cached.

    Sources come only from the templates below and integer lengths.
    """
    @functools.cache
    @functools.wraps(source)
    def factory(*lengths):
        params, body = source(*lengths)
        return eval(f"lambda {params}: {body}", {"__builtins__": {}})
    return factory


def _list(items) -> str:
    return "[" + ", ".join(items) + "]"


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


@_kernel
def axpy(n: int):
    """f(x, s, y) = x + s*y on length-n sequences, as a list."""
    return "x, s, y", _list(f"x[{i}] + s * y[{i}]" for i in range(n))


@_kernel
def axpy_rows(n: int, m: int):
    """f(x, s, y) = [x + s[k]*y for each of the m scalars s[k]], length-n
    rows."""
    return "x, s, y", _list(_list(f"x[{i}] + s[{k}] * y[{i}]" for i in range(n))
                            for k in range(m))


@_kernel
def sub(n: int):
    """f(x, y) = x - y on length-n sequences, as a list."""
    return "x, y", _list(f"x[{i}] - y[{i}]" for i in range(n))


@_kernel
def sub_at(n: int, k: int):
    """f(v) = v[:n] - v[k:k + n], as a tuple."""
    return "v", _tuple(f"v[{i}] - v[{k + i}]" for i in range(n))


@_kernel
def columns(m: int, n: int):
    """f(M) = the n columns of m rows M of length n, as a tuple of lists."""
    return "M", _tuple(_list(f"M[{i}][{j}]" for i in range(m))
                       for j in range(n))


@_kernel
def block_columns(k: int, m: int, n: int):
    """f(v) = the n columns of the m x n row-major block that starts at
    v[k], as a tuple of lists."""
    return "v", _tuple(_list(f"v[{k + i * n + j}]" for i in range(m))
                       for j in range(n))


@_kernel
def rk4_sum(n: int):
    """f(x, s, k1, k2, k3, k4) = x + s*(k1 + 2.0*k2 + 2.0*k3 + k4), the
    combine of a classical RK4 step, on length-n sequences."""
    return "x, s, k1, k2, k3, k4", _list(
        f"x[{i}] + s * (k1[{i}] + 2.0 * k2[{i}] + 2.0 * k3[{i}] + k4[{i}])"
        for i in range(n))


def _sum_of(products) -> str:
    """The products summed left to right from 0.0, as `dot` sums them."""
    return " + ".join(["0.0", *products])


def _row_product(i: int, n: int, vec: str) -> str:
    """Row i of M times `vec`, summed left to right from 0.0 as `dot` sums
    it."""
    return _sum_of(f"M[{i}][{j}] * {vec}[{j}]" for j in range(n))


@_kernel
def dot_k(n: int):
    """f(a, b) = a'b for length-n sequences, the float `dot` returns."""
    return "a, b", _sum_of(f"a[{i}] * b[{i}]" for i in range(n))


@_kernel
def vec_mat(p: int):
    """f(v, M) = v'M for a p-vector v and p x p nested rows M, as a list;
    entry j sums v_i M_ij over i."""
    return "v, M", _list(_sum_of(f"v[{i}] * M[{i}][{j}]" for i in range(p))
                         for j in range(p))


@_kernel
def mat_vec(m: int, n: int):
    """f(M, v) = M v for m rows M of length n and an n-vector v."""
    return "M, v", _list(_row_product(i, n, "v") for i in range(m))


@_kernel
def v_plus_mg(m: int, n: int):
    """f(v, M, g) = v + M g for an m-vector v, m rows M of length n and an
    n-vector g."""
    return "v, M, g", _list(f"v[{i}] + ({_row_product(i, n, 'g')})"
                            for i in range(m))


@_kernel
def v_minus_mg(m: int, n: int):
    """f(v, M, g) = v - M g for an m-vector v, m rows M of length n and an
    n-vector g."""
    return "v, M, g", _list(f"v[{i}] - ({_row_product(i, n, 'g')})"
                            for i in range(m))


@_kernel
def scaled_mv(m: int, n: int):
    """f(s, M, y) = s*(M y) for m rows M of length n and an n-vector y."""
    return "s, M, y", _list(f"s * ({_row_product(i, n, 'y')})"
                            for i in range(m))


@_kernel
def residual_gram(m: int, n: int):
    """f(M, y, v, s) = (y - M'v, s*M'M) for m rows M of length n, an
    n-vector y and an m-vector v: entry j of the residual is y_j - c_j'v
    and Gram entry (i, j) is s*(c_i'c_j), c_j being column j of M."""
    residual = _list(
        f"y[{j}] - ({_sum_of(f'M[{k}][{j}] * v[{k}]' for k in range(m))})"
        for j in range(n))
    gram = _list(_list(
        f"s * ({_sum_of(f'M[{k}][{i}] * M[{k}][{j}]' for k in range(m))})"
        for j in range(n)) for i in range(n))
    return "M, y, v, s", f"({residual}, {gram})"


@_kernel
def scaled_mtv(n: int):
    """f(c, M, v) = c * (M'v) element-wise for n x n rows M and n-vectors
    c and v; entry k is c_k times the sum of M_ik v_i over i."""
    return "c, M, v", _list(
        f"c[{k}] * ({_sum_of(f'M[{i}][{k}] * v[{i}]' for i in range(n))})"
        for k in range(n))


@_kernel
def scale_rows(m: int, n: int):
    """f(s, M) = s*M for m rows M of length n, as nested rows."""
    return "s, M", _list(_list(f"s * M[{i}][{j}]" for j in range(n))
                         for i in range(m))


@_kernel
def lag_rate(n: int):
    """f(lam, u, z) = lam*(u - z), the rate of n first-order lags."""
    return "lam, u, z", _list(f"lam * (u[{i}] - z[{i}])" for i in range(n))


@_kernel
def lag_rate_at(n: int):
    """f(lam, u, z, s, c) = lam*(u - (z + s*c)), the lag rate at the
    state z + s*c."""
    return "lam, u, z, s, c", _list(f"lam * (u[{i}] - (z[{i}] + s * c[{i}]))"
                                    for i in range(n))


@_kernel
def midpoint(n: int):
    """f(x, y) = 0.5*(x + y) on length-n sequences."""
    return "x, y", _list(f"0.5 * (x[{i}] + y[{i}])" for i in range(n))


@_kernel
def hermite_mid(n: int):
    """f(x, y, s, r, w) = 0.5*(x + y) + s*(r - w) on length-n sequences."""
    return "x, y, s, r, w", _list(
        f"0.5 * (x[{i}] + y[{i}]) + s * (r[{i}] - w[{i}])" for i in range(n))


@_kernel
def rank1_update(p: int):
    """f(Phi, c, om, v) = Phi - outer(c*om, v) for p x p nested rows Phi,
    each entry Phi_ij - (c*om_i)*v_j."""
    return "Phi, c, om, v", _list(
        _list(f"Phi[{i}][{j}] - (c * om[{i}]) * v[{j}]" for j in range(p))
        for i in range(p))


@_kernel
def eye_minus(p: int):
    """f(Phi) = I - Phi for p x p nested rows, each entry 1.0 or 0.0
    minus Phi_ij (0.0 - 0.0 is +0.0, where -Phi_ij would be -0.0)."""
    return "Phi", _list(
        _list(f"{1.0 if i == j else 0.0!r} - Phi[{i}][{j}]" for j in range(p))
        for i in range(p))


@_kernel
def outer_add(p: int):
    """f(s, c) = s + c c' for a row-major p*p list s and a p-vector c."""
    return "s, c", _list(f"s[{i * p + j}] + c[{i}] * c[{j}]"
                         for i in range(p) for j in range(p))


@_kernel
def scaled_diff_rows(p: int):
    """f(a, s, b, e) = a*s - b*e for row-major p*p lists s and e, as p
    rows."""
    return "a, s, b, e", _list(
        _list(f"a * s[{i * p + j}] - b * e[{i * p + j}]" for j in range(p))
        for i in range(p))


def ieee_div(a: float, b: float) -> float:
    """a / b, with numpy's signed inf or nan for a zero divisor."""
    try:
        return a / b
    except ZeroDivisionError:
        import numpy as np
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / b)


def ieee_pow(a: float, b: float) -> float:
    """a ** b as C pow computes it, with numpy's inf or nan where Python
    raises (overflow, a zero base to a negative power) or goes complex (a
    negative base to a fractional power)."""
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        import numpy as np
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float(np.power(np.float64(a), b))


def _as_square(m):
    """m as a square float ndarray."""
    import numpy as np
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _det_closed(r) -> float:
    """Cofactor determinant of a 1x1 to 3x3 nested list."""
    n = len(r)
    if n == 1:
        ((a11,),) = r
        return a11
    if n == 2:
        (a11, a12), (a21, a22) = r
        return a11 * a22 - a12 * a21
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = r
    return (a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31))


def determinant(m) -> float:
    """Determinant; exact cofactor formulas up to 3x3, pivoted elimination above."""
    if type(m) is list and 0 < len(m) <= 3:
        return _det_closed(m)
    a = _as_square(m)
    n = a.shape[0]
    if n <= 3:
        return _det_closed(a.tolist())
    import numpy as np
    a = a.copy()
    det = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            return 0.0
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det *= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return float(det * a[n - 1, n - 1])


def _adj_closed(r) -> list:
    """Cofactor adjugate of a 1x1 to 3x3 nested list, as a nested list."""
    n = len(r)
    if n == 1:
        ((_,),) = r
        return [[1.0]]
    if n == 2:
        (a11, a12), (a21, a22) = r
        return [[a22, -a12], [-a21, a11]]
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = r
    return [
        [a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22],
        [a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23],
        [a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21],
    ]


def adjugate(m):
    """Transpose of the cofactor matrix; adj(M) @ M = det(M) * I for any M.

    A nested list of up to 3x3 gives a nested list, any other input an
    ndarray.
    """
    if type(m) is list and 0 < len(m) <= 3:
        return _adj_closed(m)
    import numpy as np
    a = _as_square(m)
    n = a.shape[0]
    if n <= 3:
        return np.array(_adj_closed(a.tolist()))
    out = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        ri = rows[rows != i]
        for j in range(n):
            minor = a[np.ix_(ri, rows[rows != j])]
            out[j, i] = (-1.0) ** (i + j) * determinant(minor)
    return out


def _eigen_closed(r) -> tuple[list, list]:
    """Closed-form symmetric eigen-decomposition of a 1x1 or 2x2 nested
    list: one Jacobi rotation of (M + M')/2, eigenvalues ascending.

    The rotation is the one of Golub & Van Loan's sym.schur2, with
    zeta = (d - a) / 2b and tangent t = sign(zeta) / (|zeta| + sqrt(1 +
    zeta^2)).  No finite entries make it raise, and non-finite entries
    give nan throughout.
    """
    if len(r) == 1:
        ((a,),) = r
        if not math.isfinite(a):
            return [math.nan], [[math.nan]]
        return [a], [[1.0]]
    (a, b01), (b10, d) = r
    # a symmetric pair is kept as it is, where b01 + b10 could overflow
    b = b01 if b01 == b10 else 0.5 * (b01 + b10)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        nan = math.nan
        return [nan, nan], [[nan, nan], [nan, nan]]
    if b == 0.0:
        return ([a, d], [[1.0, 0.0], [0.0, 1.0]]) if a <= d else \
            ([d, a], [[0.0, 1.0], [1.0, 0.0]])
    # halving first keeps d - a and 2b finite near the overflow limit
    zeta = (0.5 * d - 0.5 * a) / b
    # past |zeta| ~ 1e154, zeta^2 (or zeta itself) overflows to inf and t
    # to 0; the exact t, about 1 / 2zeta, moves neither eigenvalue by eps
    # of the diagonal there
    t = math.copysign(1.0 / (abs(zeta) + math.sqrt(1.0 + zeta * zeta)), zeta)
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    lo, hi = a - t * b, d + t * b
    if lo <= hi:
        return [lo, hi], [[c, s], [-s, c]]
    return [hi, lo], [[s, c], [c, -s]]


def symmetric_eigen(m):
    """Eigenvalues and eigenvectors of the symmetrized matrix (M + M')/2.

    Returns (w, V) with m ~ V @ diag(w) @ V.T, eigenvalues ascending: lists
    (V as a nested list of rows) for a nested-list input, ndarrays for any
    other.  Up to 2x2 the decomposition is closed-form (one Jacobi
    rotation), above it numpy's eigh.  A non-finite matrix, or one on
    which eigh does not converge, gives all-nan w and V instead of raising.
    """
    if type(m) is list and 0 < len(m) <= 2:
        return _eigen_closed(m)
    import numpy as np
    a = _as_square(m)
    n = a.shape[0]
    if n <= 2:
        w, v = _eigen_closed(a.tolist())
        return np.array(w), np.array(v)
    w = v = None
    if np.isfinite(a).all():
        try:
            w, v = np.linalg.eigh(0.5 * (a + a.T))
        except np.linalg.LinAlgError:
            pass
    if w is None:
        w, v = np.full(n, np.nan), np.full((n, n), np.nan)
    return (w.tolist(), v.tolist()) if type(m) is list else (w, v)


# LAPACK's machine constants (DLAMCH) in the routines eigvalsh runs: dsterf's
# unit roundoff 'E' and safe minimum 'S', and dsyevd's SMLNUM, 'S' over the
# precision 'P'
_EPS = 2.0 ** -53
_EPS2 = _EPS * _EPS
_SAFMIN = 2.0 ** -1022
_SMLNUM = _SAFMIN / 2.0 ** -52
# the range of the largest |entry| in which neither dsyevd nor dsterf
# rescales the matrix: 2**-405 to 2**485
_UNSCALED_MIN = max(math.sqrt(_SMLNUM), math.sqrt(_SAFMIN) / _EPS2)
_UNSCALED_MAX = min(math.sqrt(1.0 / _SMLNUM), math.sqrt(1.0 / _SAFMIN) / 3.0)


def _is_square_list(m) -> bool:
    """Whether m is a nonempty list of len(m) lists of len(m) entries.

    A loop, as on CPython 3.11 all() over a generator costs several times
    as much on a 2x2 matrix.
    """
    if type(m) is not list or not m:
        return False
    n = len(m)
    for r in m:
        if type(r) is not list or len(r) != n:
            return False
    return True


def _min_eig_2x2(a: float, b: float, c: float) -> float:
    """Smallest eigenvalue of [[a, b], [b, c]] in the operations of LAPACK's
    dsyevd, for a matrix that it does not rescale.

    dsytd2 leaves a 2x2 matrix as it is (d = (a, c), e = b, tau = 0), and
    dsterf either splits it at one of its two tests on b or squares b and
    hands (a, sqrt(b*b), c) to dlae2, whose two roots dlasrt sorts.  When
    |c| < |a| dsterf runs QR instead of QL and calls dlae2 on (c, ., a);
    that changes none of dlae2's operations, which take the diagonal by
    magnitude.
    """
    if abs(b) <= math.sqrt(abs(a)) * math.sqrt(abs(c)) * _EPS:
        return c if c < a else a
    e2 = b * b
    if e2 <= _EPS2 * abs(a * c):
        return c if c < a else a
    # dlae2(A = a, B = rte, C = c): rt1, the root of larger magnitude, and
    # rt2 = det / rt1 in the order of operations that dlae2 keeps
    rte = math.sqrt(e2)
    sm = a + c
    adf = abs(a - c)
    ab = rte + rte
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        t = ab / adf
        rt = adf * math.sqrt(1.0 + t * t)
    elif adf < ab:
        t = adf / ab
        rt = ab * math.sqrt(1.0 + t * t)
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1 = 0.5 * (sm - rt)
    elif sm > 0.0:
        rt1 = 0.5 * (sm + rt)
    else:
        return -0.5 * rt   # rt2 of the pair (0.5 rt, -0.5 rt)
    rt2 = (acmx / rt1) * acmn - (rte / rt1) * rte
    return rt2 if rt2 < rt1 else rt1


def min_eig_symmetric(m) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetrized as (M+M')/2),
    bit-identical to numpy's eigvalsh of the symmetrized matrix.

    A square nested list is taken as it is, anything else is read as a
    square array first; the matrix is checked and symmetrized on floats,
    and non-finite entries raise ValueError.  A 1x1 matrix gives its
    symmetrized entry, which dsyevd returns before any scaling.  A 2x2
    matrix whose largest symmetrized |entry| is 0 or lies in [2**-405,
    2**485] is solved on floats in LAPACK's own operations
    (`_min_eig_2x2`); any other matrix goes to eigvalsh, which rescales
    such a 2x2 matrix first.
    """
    if not _is_square_list(m):
        m = _as_square(m).tolist()
    n = len(m)
    if n == 1:
        ((a,),) = m
        if not math.isfinite(a):
            raise ValueError("matrix entries must be finite")
        return float(0.5 * (a + a))
    if n == 2:
        (a, b01), (b10, c) = m
        if not (math.isfinite(a) and math.isfinite(b01)
                and math.isfinite(b10) and math.isfinite(c)):
            raise ValueError("matrix entries must be finite")
        a, b, c = 0.5 * (a + a), 0.5 * (b01 + b10), 0.5 * (c + c)
        big = max(abs(a), abs(b), abs(c))
        if big <= _UNSCALED_MAX and (big >= _UNSCALED_MIN or big == 0.0):
            return float(_min_eig_2x2(a, b, c))
        sym = [[a, b], [b, c]]
    else:
        if not all(math.isfinite(v) for r in m for v in r):
            raise ValueError("matrix entries must be finite")
        sym = [[0.5 * (a + b) for a, b in zip(r, c)]
               for r, c in zip(m, zip(*m))]
    import numpy as np
    return float(np.linalg.eigvalsh(sym)[0])
