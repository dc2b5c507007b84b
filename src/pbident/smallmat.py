"""Small dense matrix kernels for the estimator and excitation monitor.

Everything here targets tiny matrices (dimension <= ~8).  The adjugate is
computed by cofactor expansion because the identity adj(M) @ M = det(M) * I
must hold even when M is singular -- the mixing step of the interlaced
estimator evaluates it at det = 0 every run (the extension matrix starts at
the identity).  Inverse-based shortcuts break exactly there.  The matrix
functions read nested sequences or 2-D arrays and return floats and nested
lists of floats at every size; above 3x3 `determinant` is a partial-pivot
elimination on floats, and `adjugate` takes its signed minors.

For the simulator's step, `dot` is a left-to-right reduction, and
`ieee_div`/`ieee_pow` give IEEE 754's inf or nan, on floats, where Python
float arithmetic would raise (`ieee_pow` serves only the circuit's
non-integer power theta1 ** alpha; squares are written x * x).

The step's arithmetic runs in kernels unrolled to the run's lengths: a
factory such as `outer_add(p)` returns the function `def outer_add(s, c):
return [s[0] + c[0] * c[0], ..., s[p*p-1] + c[p-1] * c[p-1]]`, compiled
from a template on the first call with those lengths and cached
(`_kernel`) under a file name such as `<smallmat outer_add(2)>`, whose
source linecache holds for tracebacks.  Each stage of `sim.step` is one
kernel (`plant_rk4`, `plant_mid`, `correction_rk4`, `pbep_inputs` or
`std_inputs`, `lag_rk4`, `pbep_sample` or `std_sample`, `mix_pair`, and
both half steps of the estimator's exact update: `exp_step` on a vector
regressor, `gram_step` on a matrix one, which calls the eigensolver it
is handed on each half step's Gram), and so is each piece of `sim.run`'s
bookkeeping, as on CPython 3.11 a call and a list between stages cost
several times the arithmetic on 2- and 3-element states.  A kernel keeps
the operation order of the expressions it fuses, which its docstring
gives: sums of products start from 0.0 and go left to right, as `dot`
does, and the cofactor forms are those of `_COFACTORS`, so results are
bit-identical to the unfused expressions and independent of the BLAS
build.  A kernel reads exactly the components of its lengths (IndexError
on a shorter argument, the rest of a longer one ignored), so callers
check the lengths first (`check_lengths`).

The symmetric eigenproblems are posed on the symmetrized matrix
(M + M')/2.  `symmetric_eigen` solves it in closed form up to 2x2 (one
Jacobi rotation on Python floats) and with numpy's eigh above.
`min_eig_symmetric` checks and symmetrizes on floats.  A 1x1 matrix is
its own eigenvalue, as dsyevd returns it.  On a 2x2 matrix it takes, on
Python floats, the operations that numpy's eigvalsh runs in LAPACK
(dsyevd, dsytd2, dsterf, dlae2, dlasrt), so its result is bit-identical
to eigvalsh's without the cost of the call; a 2x2 matrix that dsyevd or
dsterf would rescale, and any larger one, goes to eigvalsh itself.  The
excitation monitor hands over its Gram as nested float rows, so ph's 2x2
Gram eigenvalue depends on no BLAS build; the circuit's 3x3 one still
comes from LAPACK.  These two are the only places here that import numpy.
"""

from __future__ import annotations

import functools
import linecache
import math
from itertools import chain


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


def check_lengths(checks):
    """ValueError "name returns k units, but dim = size" for the first
    (name, value, units, dim, size) whose value has k != size values, as a
    kernel bound to a length reads exactly that many."""
    for name, value, unit, dim, want in checks:
        if len(value) != want:
            raise ValueError(f"{name} returns {len(value)} {unit}, but "
                             f"{dim} = {want}")


def _kernel(source):
    """Turn `source`, lengths -> (params, body), into a kernel factory:
    lengths -> the function of `params` that returns `body`, an
    expression, or runs `body`, a list of statement lines; compiled on the
    first call with those lengths and cached.

    Sources come only from the templates below and integer lengths; a
    kernel sees abs, enumerate, expm1, isfinite, sqrt and `ieee_div` as
    builtins.  Its file name, `<smallmat name(lengths)>`, keys its source
    in linecache for tracebacks.
    """
    name = source.__name__

    @functools.cache
    @functools.wraps(source)
    def factory(*lengths):
        params, body = source(*lengths)
        lines = [f"return {body}"] if isinstance(body, str) else body
        text = "\n    ".join([f"def {name}({params}):", *lines]) + "\n"
        filename = f"<smallmat {name}({', '.join(map(repr, lengths))})>"
        linecache.cache[filename] = (len(text), None,
                                     text.splitlines(True), filename)
        scope = {"__builtins__": {}, "abs": abs, "enumerate": enumerate,
                 "expm1": math.expm1, "isfinite": math.isfinite,
                 "sqrt": math.sqrt, "ieee_div": ieee_div}
        exec(compile(text, filename, "exec"), scope)
        return scope[name]
    return factory


def _list(items) -> str:
    return "[" + ", ".join(items) + "]"


def _tuple(items) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _sum_of(products) -> str:
    """The products summed left to right from 0.0, as `dot` sums them."""
    return " + ".join(["0.0", *products])


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
def plant_mid(n: int, nsub: int):
    """f(rate, x, xs, th, th1, t, h) = the length-n plant state at the
    step's midpoint from its start state x and its nsub sub-grid states xs:
    at nsub = 1 the cubic Hermite 0.5*(x + y) + (h/8.0)*(r - w) of the end
    state y = xs[0] and the rates r = rate(x, th, t), then w = rate(y, th1,
    t + h); at an even nsub the sub-grid state xs[nsub/2 - 1] itself; else
    0.5*(a + b) of the two sub-grid states a and b about the midpoint."""
    k, idx = nsub // 2 - 1, range(n)
    if nsub == 1:
        body = ["y = xs[0]", "r = rate(x, th, t)", "w = rate(y, th1, t + h)",
                "s = h / 8.0", "return " + _list(
                    f"0.5 * (x[{i}] + y[{i}]) + s * (r[{i}] - w[{i}])"
                    for i in idx)]
    elif nsub % 2 == 0:
        body = f"xs[{k}]"
    else:
        body = [f"a = xs[{k}]", f"b = xs[{k + 1}]",
                "return " + _list(f"0.5 * (a[{i}] + b[{i}])" for i in idx)]
    return "rate, x, xs, th, th1, t, h", body


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
    at the step's start, midpoint and end, as a list: stage rates k1 =
    lam*(u0 - z), then lam*(u - (z + s*c)) at the previous rate c with (u,
    s) = (um, 0.5*h), (um, 0.5*h) and (u1, h); combine z + (h/6.0)*(k1 +
    2.0*k2 + 2.0*k3 + k4)."""
    idx = range(n)

    def rate_at(u, s):
        return _list(f"lam * ({u}[{i}] - (z[{i}] + {s} * c[{i}]))" for i in idx)
    return "lam, u0, um, u1, z, h", [
        "half = 0.5 * h",
        "k1 = c = " + _list(f"lam * (u0[{i}] - z[{i}])" for i in idx),
        f"k2 = c = {rate_at('um', 'half')}", f"k3 = c = {rate_at('um', 'half')}",
        f"k4 = {rate_at('u1', 'h')}", "s = h / 6.0",
        "return " + _list(f"z[{i}] + s * (k1[{i}] + 2.0 * k2[{i}] + 2.0 * "
                          f"k3[{i}] + k4[{i}])" for i in idx)]


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
def pbep_inputs(b_s: bool, b_d: bool, b_S: bool, p_s: int, p_S: int, p_d: int):
    """f(b_s, b_d, b_S, phi_s, phi_S, phi_d) = inputs(x, u_p, y_p), the
    power-balance channel inputs bs - bd (0.0 for the one not set), b_S(x),
    phi_s(x, u_p, y_p), phi_S(x), phi_d(x) of the maps set (phi: count >
    0), each called once, in that order."""
    calls = (("bs", "b_s(x, u_p, y_p)", b_s), ("bd", "b_d(x)", b_d),
             ("bS", "b_S(x)", b_S), ("s", "phi_s(x, u_p, y_p)", p_s),
             ("S", "phi_S(x)", p_S), ("d", "phi_d(x)", p_d))
    out = [f"{'bs' if b_s else '0.0'} - {'bd' if b_d else '0.0'}"] * (b_s or b_d)
    out += ["bS"] * b_S + [f"{v}[{i}]" for v, _, k in calls[3:] for i in range(k)]
    return "b_s, b_d, b_S, phi_s, phi_S, phi_d", [
        "def inputs(x, u_p, y_p):", *(f"    {v} = {c}" for v, c, on in calls if on),
        f"    return {_list(out)}", "return inputs"]


@_kernel
def std_inputs(n: int, n_w: int, has_wf: bool, terms: tuple, has_bf: bool,
               bterms: tuple | None):
    """f(w_f, b_f, phi, bg) = inputs(x, u_p, y_p), the state-equation
    channel inputs x[:n], b (when has_bf or bterms is not None) and w's n
    rows of n_w: b_i = b_f(x)[i] (or 0.0) + u_p[j]*bg[m](x) for each m-th
    (i, j) of bterms in turn, w_ik = w_f(x)[i][k] (or 0.0) +
    u_p[j]*phi[m](x)[k] for each m-th (i, j) of terms in turn, added
    left to right; b_f, bg, w_f, phi called once each, in that order."""
    has_b, bterms = has_bf or bterms is not None, bterms or ()

    def entry(base, added, name, i, at):
        return base + "".join(f" + u{j} * {name}{m}{at}"
                              for m, (r, j) in enumerate(added) if r == i)
    b = [entry(f"b[{i}]" if has_bf else "0.0", bterms, "c", i, "")
         for i in range(n)] * has_b
    w = [entry(f"w[{i}][{k}]" if has_wf else "0.0", terms, "e", i, f"[{k}]")
         for i in range(n) for k in range(n_w)]
    return "w_f, b_f, phi, bg", [
        "def inputs(x, u_p, y_p):",
        *(f"    u{j} = u_p[{j}]" for j in sorted({j for _, j in terms + bterms})),
        *["    b = b_f(x)"] * has_bf,
        *(f"    c{m} = bg[{m}](x)" for m in range(len(bterms))),
        *["    w = w_f(x)"] * has_wf,
        *(f"    e{m} = phi[{m}](x)" for m in range(len(terms))),
        "    return " + _list([*(f"x[{i}]" for i in range(n)), *b, *w]),
        "return inputs"]


@_kernel
def std_sample(n: int, has_b: bool, n_w: int):
    """f(lam, u, z) = (Y, Omega) of state-equation channels with inputs u
    and states z: Y = the DERIVATIVE taps lam*(u[:n] - z[:n]), minus the
    PLAIN taps z[n:2n] if has_b, as a tuple, and Omega the n_w columns of
    the n x n_w row-major block of PLAIN taps after them, as a tuple."""
    k = 2 * n if has_b else n
    y = _tuple(f"lam * (u[{i}] - z[{i}])" + (f" - z[{n + i}]" if has_b else "")
               for i in range(n))
    omega = _tuple(_list(f"z[{k + i * n_w + j}]" for i in range(n))
                   for j in range(n_w))
    return "lam, u, z", f"({y}, {omega})"


@_kernel
def exp_step(p: int, phi: bool):
    """f(gt, y0, om0, y1, om1, g[, Phi]) = both exact half steps of the
    rank-1 flow g' = om*(y - om'g) (with phi, Phi' = -om om'Phi) at rate
    gt, for sample 0 and then sample 1: n = om'om, c = gt if n < 1e-300
    else -expm1(-(gt*n))/n, ce = c*(y - om'g), g_i + ce*om_i and Phi_ij -
    (c*om_i)*v_j, v = om'Phi of the Phi before the half step, for p-vectors
    om and g and p x p nested rows Phi; sums from 0.0 left to right.
    Returns g, or with phi (n0, n1, g, Phi)."""
    ip, lines = range(p), []
    for k in "01":
        om = f"om{k}"
        lines += [f"n{k} = {_sum_of(f'{om}[{i}] * {om}[{i}]' for i in ip)}",
                  f"c = gt if n{k} < 1e-300 else -expm1(-(gt * n{k})) / n{k}",
                  f"ce = c * (y{k} - "
                  f"({_sum_of(f'{om}[{i}] * g[{i}]' for i in ip)}))"]
        if phi:
            lines += [f"v{j} = "
                      f"{_sum_of(f'{om}[{i}] * Phi[{i}][{j}]' for i in ip)}"
                      for j in ip]
            lines += [f"co{i} = c * {om}[{i}]" for i in ip]
            lines += ["Phi = " + _list(_list(f"Phi[{i}][{j}] - co{i} * v{j}"
                                             for j in ip) for i in ip)]
        lines += ["g = " + _list(f"g[{i}] + ce * {om}[{i}]" for i in ip)]
    params = "gt, y0, om0, y1, om1, g" + ", Phi" * phi
    return params, lines + ["return " + ("n0, n1, g, Phi" if phi else "g")]


@_kernel
def gram_step(m: int, n: int):
    """f(eig, g, tau, y0, om0, y1, om1, theta) = both half steps of the
    matrix gradient flow's exact update for an m-vector theta and m rows om
    of length n, sample 0 then sample 1: r = y - om'theta, (w, V) =
    eig(g*om'om) as nested rows, c_k = phi(w_k)*(V'r)_k, phi(lam) =
    -expm1(-(lam*tau)) / lam, or tau unless lam > 1e-300, and theta + om
    (g*(V c)); every product sums from 0.0 left to right.  Returns theta."""
    im, ik, lines = range(m), range(n), []
    for y, om in (("y0", "om0"), ("y1", "om1")):
        lines += ["r = " + _list(
            f"{y}[{j}] - ({_sum_of(f'{om}[{i}][{j}] * theta[{i}]' for i in im)})"
            for j in ik)]
        lines += ["w, V = eig(" + _list(_list(
            f"g * ({_sum_of(f'{om}[{k}][{i}] * {om}[{k}][{j}]' for k in im)})"
            for j in ik) for i in ik) + ")"]
        lines += [f"f{k} = -expm1(-(w[{k}] * tau)) / w[{k}] "
                  f"if w[{k}] > 1e-300 else tau" for k in ik]
        lines += [f"c{k} = f{k} * ({_sum_of(f'V[{i}][{k}] * r[{i}]' for i in ik)})"
                  for k in ik]
        lines += [f"s{i} = g * ({_sum_of(f'V[{i}][{k}] * c{k}' for k in ik)})"
                  for i in ik]
        lines += ["theta = " + _list(
            f"theta[{i}] + ({_sum_of(f'{om}[{i}][{j}] * s{j}' for j in ik)})"
            for i in im)]
    return "eig, g, tau, y0, om0, y1, om1, theta", lines + ["return theta"]


@_kernel
def mix_pair(p: int, shifted: bool):
    """f(Phi, g, g0) = (det(I - Phi), adj(I - Phi) r as a tuple) for 1x1 to
    3x3 nested rows Phi and p-vectors g and g0, r = g - Phi g0 if shifted,
    else g (g0 unread): I - Phi entry by entry as 1.0 or 0.0 minus Phi_ij
    (+0.0 where -Phi_ij would be -0.0), the cofactor forms of `_COFACTORS`
    and the row products of Phi and of adj summed as `dot` sums them."""
    det, adj = _COFACTORS[p]
    ip = range(p)
    lines = ["r = " + (_list(
        f"g[{i}] - ({_sum_of(f'Phi[{i}][{j}] * g0[{j}]' for j in ip)})"
        for i in ip) if shifted else "g")]
    lines += [f"a{i + 1}{j + 1} = {1.0 if i == j else 0.0!r} - Phi[{i}][{j}]"
              for i in ip for j in ip]
    ycal = _tuple(_sum_of(f"({e}) * r[{j}]" for j, e in enumerate(row))
                  for row in adj)
    return "Phi, g, g0", lines + [f"return {det}, {ycal}"]


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
    """f(control, ports, est, det) = row(t, x, th, mineig, res), which
    returns the trace row `cols` as a tuple, with u = control(x, th, t), yp
    = ports(x, u, t)[1] and v = est.Theta (Delta and det(Phi) 0.0 and 1.0
    unless gd), for n states, n_p outputs, q estimates and w Theta; the
    list `row.columns` holds the columns' names."""
    def named(name, value, count):
        return [(f"{name}{i + 1}", f"{value}[{i}]") for i in range(count)]
    cols = [("t", "t"), *named("x", "x", n), ("u", "u"),
            *named("yp", "yp", n_p), *named("theta_hat", "th", q),
            *named("overparam_hat", "v", w),
            ("delta", "est.mix()[0]" if gd else "0.0"),
            ("det_phi", "det(est.phi)" if gd else "1.0"),
            ("gram_min_eig", "mineig"), ("power_residual", "res")]
    return "control, ports, est, det", [
        "def row(t, x, th, mineig, res):", "    u = control(x, th, t)",
        "    yp = ports(x, u, t)[1]", *(["    v = est.Theta"] if w else []),
        f"    return {_tuple(value for _, value in cols)}",
        f"row.columns = {_list(repr(name) for name, _ in cols)}", "return row"]


def ieee_div(a: float, b: float) -> float:
    """a / b, with IEEE 754's value where Python raises for a zero divisor:
    a nan dividend, quieted as a division quiets it; the default NaN for
    0/0; else an inf signed by the signs of a and b."""
    try:
        return a / b
    except ZeroDivisionError:
        pass
    if a != a:
        return a / 1.0
    if a == 0.0:
        return math.inf - math.inf   # the hardware's default NaN
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def ieee_pow(a: float, b: float) -> float:
    """a ** b as C pow computes it, with C99 Annex F's value where Python
    raises: the default NaN for a negative base to a non-integer power,
    else inf (a zero base to a negative power, or an overflow), negative
    for a negative base (-0.0 included) to an odd integer power."""
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        pass
    if a < 0.0 and b != math.floor(b):
        return math.inf - math.inf   # the hardware's default NaN
    return math.copysign(math.inf, a) if b % 2.0 == 1.0 else math.inf


def _square_rows(m) -> list:
    """m as n fresh rows of n floats (`float_rows`); ValueError if it is
    not square."""
    rows = float_rows(m)
    if len(rows) != len(rows[0]):
        raise ValueError(f"expected a square matrix, got {len(rows)} rows "
                         f"of {len(rows[0])}")
    return rows


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
    """Determinant: the cofactor forms up to 3x3; above, an elimination
    whose pivot is its column's first largest |entry| (or first nan, as
    np.argmax picks), 0.0 at a zero pivot, rows a_ij - (a_ik/a_kk) a_kj."""
    a = m if type(m) is list and 0 < len(m) <= 3 else _square_rows(m)
    n = len(a)
    if n <= 3:
        return cofactors(n, False)(a)
    det = 1.0
    for k in range(n - 1):
        col = [abs(r[k]) for r in a[k:]]
        nans = [i for i, v in enumerate(col) if v != v]
        piv = k + (nans[0] if nans else col.index(max(col)))
        if a[piv][k] == 0.0:
            return 0.0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        top = a[k]
        det *= top[k]
        for row in a[k + 1:]:
            f = row[k] / top[k]
            for j in range(k + 1, n):
                row[j] -= f * top[j]
    return det * a[n - 1][n - 1]


def adjugate(m) -> list:
    """Transpose of the cofactor matrix, as nested lists; adj(M) @ M =
    det(M) * I for any M.  Above 3x3, entry (j, i) is (-1)^(i+j) times the
    determinant of M without row i and column j."""
    a = m if type(m) is list and 0 < len(m) <= 3 else _square_rows(m)
    n = len(a)
    if n <= 3:
        return cofactors(n, True)(a)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows = a[:i] + a[i + 1:]
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows]
            out[j][i] = (-1.0) ** (i + j) * determinant(minor)
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


def _symmetrized(rows) -> list:
    """(M + M')/2 of square rows of floats, entry by entry."""
    return [[0.5 * (a + b) for a, b in zip(row, col)]
            for row, col in zip(rows, zip(*rows))]


def symmetric_eigen(m) -> tuple[list, list]:
    """Eigenvalues and eigenvectors of the symmetrized matrix (M + M')/2,
    as lists (w, V), V nested rows, m ~ V @ diag(w) @ V.T, w ascending.

    Up to 2x2 the decomposition is closed-form (one Jacobi rotation),
    above it numpy's eigh.  A non-finite matrix, or one on which eigh does
    not converge, gives all-nan w and V instead of raising.
    """
    if type(m) is list and 0 < len(m) <= 2:
        return _eigen_closed(m)
    r = _square_rows(m)
    n = len(r)
    if n <= 2:
        return _eigen_closed(r)
    if all_finite(r):
        import numpy as np
        try:
            w, v = np.linalg.eigh(_symmetrized(r))
            return w.tolist(), v.tolist()
        except np.linalg.LinAlgError:
            pass
    return [math.nan] * n, [[math.nan] * n for _ in range(n)]


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

    A list of lists [a, b], [b, c] of floats (the excitation record's
    Gram) is its own symmetrization; anything else is read as square float
    rows, checked and symmetrized, and non-finite entries raise ValueError.
    A 1x1 matrix gives its symmetrized entry, which dsyevd returns before
    any scaling.  A 2x2 matrix whose largest symmetrized |entry| is 0 or
    lies in [2**-405, 2**485] is solved on floats in LAPACK's own
    operations (`_min_eig_2x2`); any other goes to eigvalsh, which
    rescales such a 2x2 matrix first.
    """
    if type(m) is list and len(m) == 2 and type(m[0]) is list \
            and type(m[1]) is list and len(m[0]) == 2 == len(m[1]):
        (a, b), (b10, c) = m
        # the range test above on the entries themselves; inf and nan fail it
        lo, hi = _UNSCALED_MIN, _UNSCALED_MAX
        if b == b10 and type(a) is type(b) is type(c) is float \
                and -hi <= a <= hi and -hi <= b <= hi and -hi <= c <= hi \
                and (not (-lo < a < lo and -lo < b < lo and -lo < c < lo)
                     or a == b == c == 0.0):
            return _min_eig_2x2(a, b, c)
    rows = _square_rows(m)
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix entries must be finite")
    sym = _symmetrized(rows)
    if len(sym) == 1:
        return sym[0][0]
    if len(sym) == 2:
        (a, b), (_, c) = sym
        big = max(abs(a), abs(b), abs(c))
        if big <= _UNSCALED_MAX and (big >= _UNSCALED_MIN or big == 0.0):
            return _min_eig_2x2(a, b, c)
    import numpy as np
    return float(np.linalg.eigvalsh(sym)[0])
