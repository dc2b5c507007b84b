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

The step's arithmetic runs in kernels unrolled to the run's lengths: a
factory such as `axpy(n)` returns the function `def axpy(x, s, y): return
[x[0] + s * y[0], ..., x[n-1] + s * y[n-1]]`, compiled from a template on
the first call with those lengths and cached (`_kernel`); the sources come
only from the templates here and integer lengths.  Each stage of
`sim.step` is one kernel (`plant_rk4`, `correction_rk4`, `lag_rk4`,
`pbep_sample`, `mix_pair`, `half_update`), and so is each piece of
`sim.run`'s bookkeeping, as on CPython 3.11 a call and a list between
stages cost several times the arithmetic on 2- and 3-element states.  A
kernel keeps the operation order of the expressions it fuses, which its
docstring gives (`lag_rk4` inlines `lag_rate`, `lag_rate_at` and
`rk4_sum` through `body`): sums of products start from 0.0 and go left
to right, as `dot` does, and the cofactor forms are those of
`_COFACTORS`, so results are bit-identical to the unfused expressions
and independent of the BLAS build.  A kernel reads exactly the
components of its lengths (IndexError on a shorter argument, the rest of
a longer one ignored), so callers bind kernels to lengths they checked.

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
    lengths -> the function of `params` that returns `body`, an
    expression, or runs `body`, a list of statement lines; compiled on the
    first call with those lengths and cached.  `factory.body(*lengths)` is
    the expression, for a stage kernel to inline under the same names (a
    local per parameter, bound before the expression).

    Sources come only from the templates below and integer lengths; a
    kernel sees abs, enumerate, isfinite, sqrt and `ieee_div` as builtins.
    """
    @functools.cache
    @functools.wraps(source)
    def factory(*lengths):
        params, body = source(*lengths)
        lines = [f"return {body}"] if isinstance(body, str) else body
        scope = {"__builtins__": {}, "abs": abs, "enumerate": enumerate,
                 "isfinite": math.isfinite, "sqrt": math.sqrt,
                 "ieee_div": ieee_div}
        exec("\n    ".join([f"def {source.__name__}({params}):", *lines]),
             scope)
        return scope[source.__name__]
    factory.body = lambda *lengths: source(*lengths)[1]
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
def sub(n: int):
    """f(x, y) = x - y on length-n sequences, as a list."""
    return "x, y", _list(f"x[{i}] - y[{i}]" for i in range(n))


@_kernel
def sub_at(n: int, k: int):
    """f(v) = v[:n] - v[k:k + n], as a tuple."""
    return "v", _tuple(f"v[{i}] - v[{k + i}]" for i in range(n))


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


def _outers(p: int, m: int, base: str) -> list:
    """Entry (i, j) of base + c c', row-major, for a p*p list `base` and
    c a p-vector (m = 0) or p rows of m, whose m column products are added
    one column after another."""
    cols = [f"[{k}]" for k in range(m)] or [""]
    return [" + ".join([f"{base}[{i * p + j}]"]
                       + [f"c[{i}]{k} * c[{j}]{k}" for k in cols])
            for i in range(p) for j in range(p)]


@_kernel
def outer_add(p: int, m: int = 0):
    """f(s, c) = s + c c' for a row-major p*p list s and a p-vector c, or
    s plus the outer products of the m columns of p rows c (`_outers`)."""
    return "s, c", _list(_outers(p, m, "s"))


@_kernel
def gram_trapezoid(p: int, m: int = 0):
    """f(a, s, b, e, c) = a*s - b*(e + c c') as p rows, for row-major p*p
    lists s and e and c as in `outer_add`."""
    ends = _outers(p, m, "e")
    return "a, s, b, e, c", _list(
        _list(f"a * s[{k}] - b * ({ends[k]})" for k in range(i * p, i * p + p))
        for i in range(p))


# -- one kernel per stage of the simulator's step --------------------------

@_kernel
def plant_rk4(n: int, nsub: int):
    """f(rate, x, th, t, dt, h) = the states after each of nsub classical
    RK4 substeps of size hs = h/nsub of x' = rate(x, th[k], t + dt[k]) from
    the length-n state x, as a list of lists; th and dt hold the estimate
    and the time offset at the 2*nsub + 1 half-substep grid points.  Stage
    states x + s*k, combine x + (hs/6.0)*(k1 + 2.0*k2 + 2.0*k3 + k4); the
    substeps loop, as unrolled code would grow with nsub, a user's count."""
    idx = range(n)
    lines = [f"hs = h / {nsub}", "hh = 0.5 * hs", "h6 = hs / 6.0",
             *(f"x{i} = x[{i}]" for i in idx), "s = x", "out = []", "a = 0",
             f"while a < {2 * nsub}:", "    tm = t + dt[a + 1]"]
    stages = (("s", "a", "t + dt[a]"),
              (_list(f"x{i} + hh * p{i}" for i in idx), "a + 1", "tm"),
              (_list(f"x{i} + hh * q{i}" for i in idx), "a + 1", "tm"),
              (_list(f"x{i} + hs * r{i}" for i in idx), "a + 2", "t + dt[a + 2]"))
    # the rates k1, k2 and k3 are kept as p, q and r; k4 is used once
    for name, (arg, at, time) in zip("pqr ", stages):
        lines.append(f"    k = rate({arg}, th[{at}], {time})")
        if name != " ":
            lines += [f"    {name}{i} = k[{i}]" for i in idx]
    lines += [f"    x{i} = x{i} + h6 * (p{i} + 2.0 * q{i} + 2.0 * r{i} + k[{i}])"
              for i in idx]
    lines += ["    s = " + _list(f"x{i}" for i in idx), "    out.append(s)",
              "    a += 2"]
    return "rate, x, th, t, dt, h", lines + ["return out"]


@_kernel
def correction_rk4(q: int, p: int):
    """f(G, PT, gamma, delta, ycal, th, h, fracs) = one classical RK4 step
    of size h of the correction flow th' = v - M G(th) from the length-q
    estimate th, as the estimates th + f*(th_new - th) at each fraction f
    of the step in fracs, then th_new itself: a list of lists.

    v = (gamma*delta)*(PT ycal) and M = ((gamma*delta)*delta)*PT for q rows
    PT of length p; stage states th + s*a, combine th + (h/6.0)*(a1 +
    2.0*a2 + 2.0*a3 + a4).
    """
    iq, ip = range(q), range(p)
    lines = ["gd = gamma * delta", "gdd = gd * delta", "half = 0.5 * h"]
    lines += [f"v{i} = gd * ({_sum_of(f'PT[{i}][{j}] * ycal[{j}]' for j in ip)})"
              for i in iq]
    lines += [f"m{i}_{j} = gdd * PT[{i}][{j}]" for i in iq for j in ip]
    lines += [f"t{i} = th[{i}]" for i in iq]
    for a, arg in (("a", "th"), ("b", "t{i} + half * a{i}"),
                   ("c", "t{i} + half * b{i}"), ("e", "t{i} + h * c{i}")):
        if a != "a":
            arg = _list(arg.format(i=i) for i in iq)
        lines += [f"g = G({arg})", *(
            f"{a}{i} = v{i} - ({_sum_of(f'm{i}_{j} * g[{j}]' for j in ip)})"
            for i in iq)]
    lines += ["sixth = h / 6.0"]
    lines += [f"n{i} = t{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})"
              for i in iq]
    lines += [f"d{i} = n{i} - t{i}" for i in iq]
    lines += [f"rows = [{_list(f't{i} + f * d{i}' for i in iq)} "
              f"for f in fracs]", f"rows.append({_list(f'n{i}' for i in iq)})"]
    return "G, PT, gamma, delta, ycal, th, h, fracs", lines + ["return rows"]


@_kernel
def lag_rk4(n: int):
    """f(lam, u0, um, u1, z, h) = one classical RK4 step of size h of n
    first-order lags z' = lam*(u - z) driven by the inputs u0, um and u1
    at the step's start, midpoint and end, as a list: stages `lag_rate`
    and `lag_rate_at`, combine `rk4_sum` with s = h/6.0."""
    rate, at, combine = (k.body(n) for k in (lag_rate, lag_rate_at, rk4_sum))
    return "lam, u0, um, u1, z, h", [
        "u = u0", f"k1 = c = {rate}", "u, s = um, 0.5 * h", f"k2 = c = {at}",
        f"k3 = c = {at}", "u, s = u1, h", f"k4 = {at}", "x, s = z, h / 6.0",
        f"return {combine}"]


@_kernel
def pbep_sample(y_plain: bool, y_deriv: bool, p_s: int, p_S: int, p_d: int):
    """f(lam, u, z) = (Y, Omega) of power-balance channels with inputs u
    and states z, tapping z (PLAIN) or lam*(u - z) (DERIVATIVE): Y = 0.0 +
    the PLAIN Y tap - the DERIVATIVE Y tap, each when set, and Omega =
    (-phi_s taps, phi_S taps, phi_d taps)."""
    y, k = "0.0", 0
    if y_plain:
        y, k = f"{y} + z[{k}]", k + 1
    if y_deriv:
        y, k = f"{y} - lam * (u[{k}] - z[{k}])", k + 1
    omega = [f"-z[{k + i}]" for i in range(p_s)]
    omega += [f"lam * (u[{i}] - z[{i}])" for i in range(k + p_s, k + p_s + p_S)]
    omega += [f"z[{i}]" for i in range(k + p_s + p_S, k + p_s + p_S + p_d)]
    return "lam, u, z", f"({y}, {_tuple(omega)})"


@_kernel
def half_update(p: int):
    """f(c, y, om, g, Phi) = (g + ce*om, Phi - outer(c*om, om'Phi)), ce =
    c*(y - om'g), for p-vectors om and g and p x p nested rows Phi: each
    entry Phi_ij - (c*om_i)*v_j, v = om'Phi, sums from 0.0 left to right."""
    ip = range(p)
    lines = [f"ce = c * (y - ({_sum_of(f'om[{i}] * g[{i}]' for i in ip)}))"]
    lines += [f"v{j} = {_sum_of(f'om[{i}] * Phi[{i}][{j}]' for i in ip)}"
              for j in ip]
    lines += [f"co{i} = c * om[{i}]" for i in ip]
    theta_g = _list(f"g[{i}] + ce * om[{i}]" for i in ip)
    phi = _list(_list(f"Phi[{i}][{j}] - co{i} * v{j}" for j in ip) for i in ip)
    return "c, y, om, g, Phi", lines + [f"return {theta_g}, {phi}"]


@_kernel
def mix_pair(p: int):
    """f(Phi, r) = (det(I - Phi), adj(I - Phi) r as a tuple) for 1x1 to 3x3
    nested rows Phi and a p-vector r: I - Phi entry by entry as 1.0 or 0.0
    minus Phi_ij (+0.0 where -Phi_ij would be -0.0), the cofactor forms of
    `_COFACTORS` and adj's row products summed as `dot` sums them."""
    det, adj = _COFACTORS[p]
    lines = [f"a{i + 1}{j + 1} = {1.0 if i == j else 0.0!r} - Phi[{i}][{j}]"
             for i in range(p) for j in range(p)]
    ycal = _tuple(_sum_of(f"({e}) * r[{j}]" for j, e in enumerate(row))
                  for row in adj)
    return "Phi, r", lines + [f"return {det}, {ycal}"]


# -- the run loop's kernels (sim.run) ---------------------------------------

_RESIDUALS = """\
sb = so = None
res = top = top_outer = 0.0
def residuals(xs, th0, th1, t1):
    nonlocal sb, sn, fl, so, res, top, top_outer
    s0, f0 = sn, fl{diffs}
    for j, x in enumerate(xs, 1):
        c = j / {nsub}
        S, f = energy(x, {u})
        if sb is not None:
            res = abs({div} - fl)
            if res > top or res != res:
                top = res
        sb, sn, fl = sn, S, f
    if so is not None:
        r = abs((sn - so) / span_outer - f0)
        if r > top_outer or r != r:
            top_outer = r
    so = s0
    return res, top, top_outer
return residuals"""


@_kernel
def power_residuals(nsub: int, uses_u: bool, q: int, plain: bool):
    """f(energy, control, h, span, span_outer, sn, fl) = `residuals`, the
    running power-balance residuals from the start's storage sn and net
    flow fl.  residuals(xs, th0, th1, t1) adds a step's nsub states x, S,
    f = energy(x, u), u = control(x, th0 + c*(th1 - th0), t1 - h + c*h) at
    c = j/nsub (th0 at q = 0, 0.0 without uses_u), and returns the latest
    |(S - sb)/span - fl| (sb: S two points back; `ieee_div` unless plain)
    and the maxima of those and of the outer |(sn - so)/span_outer - fl|
    (so: S two steps back, fl: at the step's start), nan once one is nan."""
    th = _list(f"th0[{i}] + c * d{i}" for i in range(q)) if q else "th0"
    return "energy, control, h, span, span_outer, sn, fl", _RESIDUALS.format(
        diffs="".join(f"; d{i} = th1[{i}] - th0[{i}]" for i in range(q)),
        nsub=nsub, u=f"control(x, {th}, t1 - h + c * h)" if uses_u else "0.0",
        div="(S - sb) / span" if plain else "ieee_div(S - sb, span)",
    ).splitlines()


@_kernel
def dist_k(n: int):
    """f(a, b) = |a - b| for length-n sequences: the square root of the
    differences' squares summed from 0.0 left to right, as `dot` sums."""
    return "a, b", [*(f"d{i} = a[{i}] - b[{i}]" for i in range(n)),
                    f"return sqrt({_sum_of(f'd{i} * d{i}' for i in range(n))})"]


@_kernel
def finite_k(*sizes: int):
    """f(*vs) = whether the first sizes[k] entries of each vs[k] are finite."""
    return ", ".join(f"v{k}" for k in range(len(sizes))), " and ".join(
        [f"isfinite(v{k}[{i}])" for k, n in enumerate(sizes)
         for i in range(n)] or ["True"])


@_kernel
def trace_row(n: int, n_p: int, q: int, w: int, gd: bool):
    """f(control, ports, est, det) = the function of (t, x, th, mineig,
    res) that returns the trace row (t, x, u, y_p, th, est.Theta, Delta,
    det(est.phi), mineig, res) as a tuple, with u = control(x, th, t), y_p
    = ports(x, u, t)[1] and Delta = est.mix()[0] (Delta and det 0.0 and
    1.0 unless gd), for n states, n_p outputs, q estimates and w Theta."""
    vals = ["t", *(f"x[{i}]" for i in range(n)), "u",
            *(f"yp[{i}]" for i in range(n_p)), *(f"th[{i}]" for i in range(q)),
            *(f"v[{i}]" for i in range(w)), *(("est.mix()[0]", "det(est.phi)")
                                              if gd else ("0.0", "1.0")),
            "mineig", "res"]
    return "control, ports, est, det", [
        "def row(t, x, th, mineig, res):", "    u = control(x, th, t)",
        "    yp = ports(x, u, t)[1]", *(["    v = est.Theta"] if w else []),
        f"    return {_tuple(vals)}", "return row"]


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


# the cofactor determinant and adjugate of a 1x1 to 3x3 matrix of entries
# a11 .. ann, as expressions for `cofactors` and `mix_pair`
_COFACTORS = {
    1: ("a11", [["1.0"]]),
    2: ("a11 * a22 - a12 * a21", [["a22", "-a12"], ["-a21", "a11"]]),
    3: ("a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)"
        " + a13 * (a21 * a32 - a22 * a31)",
        [["a22 * a33 - a23 * a32", "a13 * a32 - a12 * a33",
          "a12 * a23 - a13 * a22"],
         ["a23 * a31 - a21 * a33", "a11 * a33 - a13 * a31",
          "a13 * a21 - a11 * a23"],
         ["a21 * a32 - a22 * a31", "a12 * a31 - a11 * a32",
          "a11 * a22 - a12 * a21"]]),
}


@_kernel
def cofactors(n: int, adj: bool):
    """f(r) = the cofactor adjugate (adj) or determinant of 1x1 to 3x3
    nested rows r, unpacked into a11 .. ann (or ValueError)."""
    det, rows = _COFACTORS[n]
    idx = range(1, n + 1)
    unpack = _tuple(_tuple(f"a{i}{j}" for j in idx) for i in idx) + " = r"
    return "r", [unpack, f"return {_list(map(_list, rows)) if adj else det}"]


def determinant(m) -> float:
    """Determinant; exact cofactor formulas up to 3x3, pivoted elimination above."""
    if type(m) is list and 0 < len(m) <= 3:
        return cofactors(len(m), False)(m)
    a = _as_square(m)
    n = a.shape[0]
    if n <= 3:
        return cofactors(n, False)(a.tolist())
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


def adjugate(m):
    """Transpose of the cofactor matrix; adj(M) @ M = det(M) * I for any M.

    A nested list of up to 3x3 gives a nested list, any other input an
    ndarray.
    """
    if type(m) is list and 0 < len(m) <= 3:
        return cofactors(len(m), True)(m)
    import numpy as np
    a = _as_square(m)
    n = a.shape[0]
    if n <= 3:
        return np.array(cofactors(n, True)(a.tolist()))
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
