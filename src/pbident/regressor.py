"""Regression-equation generators driven by plant measurements.

Two causal constructions are provided, both built from first-order filter
banks integrated in lockstep with the plant:

* PbepGenerator -- the power-balance regression.  Filtering the balance
  Sdot = -d + s and splitting each of s, S, d into a known-signal part and
  a parameter part gives the scalar regression

      Y = F[b_s - b_d] - sF[b_S]
      Omega = col(-F[phi_s], sF[phi_S], F[phi_d])
      Y = Omega' G(theta)

  with G the stacked nonlinear parameter map.  Each dimension is declared
  once: NlpreData carries the block split p_s, p_S, p_d of Omega, and
  ParamMap gives G as one map whose p and parameter count q are the shape
  of its selector T; the generator checks that the two p agree.

* StdLreGenerator -- the conventional state-equation regression obtained by
  filtering xdot = (w_f + w_g) Theta + b_f + B_g u_p, yielding the vector
  regression Y = pF[x] - F[b_f + B_g u_p], Omega' = F[w_f + w_g], and
  Y = Omega' Theta with the enlarged (overparameterized) vector
  Theta = C(theta).  The number n of state equations is the length of the
  plant state the generator starts from.

Structurally-zero signal maps are declared as None; the generators then
skip the corresponding filter channels entirely and substitute exact zeros
in the assembled outputs.

Samples are produced at every integrator step and consumed synchronously
by the estimators.  The generators expose their filter bank `bank`, the
channel `inputs(x, u_p, y_p)` at a plant sample and `sample_from` those
inputs; the simulator owns all time stepping.  Channel inputs, filter
states (the bank's `state`) and samples are Python floats: a power-balance
sample carries a float Y and a p-tuple Omega, a state-equation sample an
n-tuple Y and Omega as n_w rows of n floats, which the matrix estimator
reads as they are.  A generator's channel inputs are one smallmat kernel
bound to its signal maps (`input_kernel`: `pbep_inputs`, `std_inputs`),
and its sample one that reads the filter taps (`pbep_sample`,
`std_sample`), both bound to the lengths of the maps' returns, which the
generator checks at the start state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .filters import ChannelMode, FirstOrderFilterBank
from .smallmat import (check_lengths, dot, float_rows, min_eig_symmetric,
                       pbep_inputs, pbep_sample, std_inputs, std_sample)


@dataclass
class ParamMap:
    """Nonlinear parameterization of a scenario.

    G_direct is the stacked map G from the q unknown parameters to the
    coefficients of the supply, storage and dissipation regressions, one
    block after another as NlpreData splits them, a p-tuple of floats; T is
    the designer-chosen (q, p) selector, whose shape fixes q and p, and P
    the symmetric positive-definite metric used by the monotone correction
    flow.  T and P may be given as nested sequences or arrays and are kept
    as tuples of rows of floats; jacobian_G returns the (p, q) Jacobian of
    G as rows.  The field keeps the name G_direct because the benchmark's
    tracer wraps it by that name.
    """

    G_direct: Callable
    T: tuple
    P: tuple
    jacobian_G: Callable

    def __post_init__(self):
        self.T = tuple(map(tuple, float_rows(self.T)))
        q, p = self.q, self.p
        if p < q:
            raise ValueError(f"need p >= q, got p={p} q={q}")
        rows = float_rows(self.P)
        if (len(rows), len(rows[0])) != (q, q):
            raise ValueError(f"P has shape {(len(rows), len(rows[0]))}, "
                             f"expected {(q, q)}")
        if any(abs(rows[i][j] - rows[j][i]) > 1e-9
               for i in range(q) for j in range(q)):
            raise ValueError("P must be symmetric")
        if min_eig_symmetric(rows) <= 0.0:
            raise ValueError("P must be positive definite")
        self.P = tuple(map(tuple, rows))

    @property
    def q(self) -> int:
        return len(self.T)

    @property
    def p(self) -> int:
        return len(self.T[0])

    def G(self, theta) -> tuple:
        """Stacked map G evaluated at theta."""
        return self.G_direct(theta)

    def W(self, theta) -> tuple:
        """Selected map T G(theta), each row's product summed left to
        right."""
        g = self.G(theta)
        return tuple(dot(row, g) for row in self.T)


@dataclass
class NlpreData:
    """Separable regression data for the supply, storage and dissipation maps.

    phi_s and b_s may use the state alongside the port variables: the port
    output alone does not always expose the signal products the supply-rate
    regression needs.  The vector maps return tuples of floats.
    """

    p_s: int
    p_S: int
    p_d: int
    phi_s: Optional[Callable] = None   # (x, u_p, y_p) -> p_s-tuple
    phi_S: Optional[Callable] = None   # (x,) -> p_S-tuple
    phi_d: Optional[Callable] = None   # (x,) -> p_d-tuple
    b_s: Optional[Callable] = None     # (x, u_p, y_p) -> float
    b_S: Optional[Callable] = None     # (x,) -> float
    b_d: Optional[Callable] = None     # (x,) -> float


@dataclass
class StdLreData:
    """Linear-in-Theta data for the state-equation regression.

    phi_g[i][j] parameterizes entry (i, j) of the input matrix; b_g holds
    the parameter-free parts.  C maps the physical parameters to the
    overparameterized vector Theta; theta_from_C is the scenario's
    (approximate) inverse used by certainty-equivalent control when the
    estimator works in Theta coordinates.  The maps return tuples of floats
    (rows of tuples for w_f); n is the plant's state dimension.
    """

    n_w: int
    C: Callable
    w_f: Optional[Callable] = None     # (x,) -> n rows of n_w
    b_f: Optional[Callable] = None     # (x,) -> n-tuple
    phi_g: Optional[Sequence[Sequence[Optional[Callable]]]] = None  # (x,) -> n_w-tuple
    b_g: Optional[Sequence[Sequence[Optional[Callable]]]] = None    # (x,) -> float
    theta_from_C: Optional[Callable] = None


@dataclass(slots=True)
class RegressorSample:
    """One time-stamped regression sample.

    For the power-balance regression Y is a float and Omega a p-tuple; for
    the state-equation regression Y is an n-tuple and Omega a tuple of n_w
    rows, each a list of n floats, so that Y = Omega' Theta in both
    conventions.  Both read as arrays of those shapes through np.asarray.
    """

    t: float
    Y: float | tuple
    Omega: tuple


# both generators' methods, bound in each class, where the benchmark's
# tracer wraps them by name
def _inputs(self, x, u_p, y_p) -> list:
    """Channel inputs at a plant sample (`input_kernel`)."""
    return self.input_kernel(x, u_p, y_p)


def _sample_from(self, t: float, inputs) -> RegressorSample:
    """Build the sample from already-assembled channel inputs."""
    bank = self.bank
    y, omega = self._sample(bank.lam, inputs, bank.state)
    return RegressorSample(t, y, omega)


_n_channels = property(lambda self: self.bank.n_channels)


class PbepGenerator:
    """Causal generator of the power-balance regression (Y, Omega).

    Channel layout: one PLAIN channel on (b_s - b_d) and one DERIVATIVE
    channel on b_S feed Y; the Omega block takes PLAIN channels on each
    phi_s and phi_d component (the phi_s block enters negated) and
    DERIVATIVE channels on each phi_S component.  Channels whose signal
    maps are all None are skipped.
    """

    inputs, sample_from, n_channels = _inputs, _sample_from, _n_channels

    def __init__(self, nlpre: NlpreData, param_map: ParamMap, lam: float,
                 x0, up0, yp0):
        p = nlpre.p_s + nlpre.p_S + nlpre.p_d
        if p != param_map.p:
            raise ValueError(
                f"p mismatch: regression data has p_s + p_S + p_d = {p}, "
                f"parameter map has p = {param_map.p}")
        self.nlpre = d = nlpre
        self.p = param_map.p
        maps = [(k, phi, args, count) for k, phi, args, count in (
            ("s", d.phi_s, (x0, up0, yp0), d.p_s),
            ("S", d.phi_S, (x0,), d.p_S), ("d", d.phi_d, (x0,), d.p_d)) if count]
        for k, phi, _, count in maps:
            if phi is None:
                raise ValueError(f"phi_{k} is None, but p_{k} = {count}")
        check_lengths([(f"phi_{k}", phi(*args), "values", f"p_{k}", count)
                       for k, phi, args, count in maps])
        flags = (d.b_s is not None, d.b_d is not None, d.b_S is not None)
        self.input_kernel = pbep_inputs(*flags, d.p_s, d.p_S, d.p_d)(
            d.b_s, d.b_d, d.b_S, d.phi_s, d.phi_S, d.phi_d)
        y_plain = flags[0] or flags[1]
        plain, deriv = ChannelMode.PLAIN, ChannelMode.DERIVATIVE
        modes = ([plain] * y_plain + [deriv] * flags[2] + [plain] * d.p_s
                 + [deriv] * d.p_S + [plain] * d.p_d)
        self.bank = FirstOrderFilterBank(lam, modes, self.inputs(x0, up0, yp0))
        self._sample = pbep_sample(y_plain, flags[2], d.p_s, d.p_S, d.p_d)


class StdLreGenerator:
    """Causal generator of the state-equation regression (Y, Omega).

    Channel layout: DERIVATIVE channels on each state component (the
    pF[x] block of Y), PLAIN channels on the components of b_f + B_g u_p
    when any are declared, and PLAIN channels on every entry of the
    assembled input matrix w_f + w_g.
    """

    inputs, sample_from, n_channels = _inputs, _sample_from, _n_channels

    def __init__(self, std: StdLreData, lam: float, x0, up0):
        self.std = std
        self.n = n = len(x0)
        self.n_w = n_w = std.n_w
        # the declared entries (i, j, map) of phi_g and b_g, in the order
        # they are added, up to the len(up0) input components
        terms, bterms = ([(i, j, entry) for i, entries in enumerate(g or ())
                          for j, entry in zip(range(len(up0)), entries)
                          if entry is not None] for g in (std.phi_g, std.b_g))
        for name, rows in (("phi_g", std.phi_g), ("b_g", std.b_g)):
            if rows is not None and len(rows) > n:
                raise ValueError(f"{name} has {len(rows)} rows, but n = {n}")
        checks = [(f"phi_g[{i}][{j}]", entry(x0), "values", "n_w", n_w)
                  for i, j, entry in terms]
        if std.w_f is not None:
            w = std.w_f(x0)
            checks += [("w_f", w, "rows", "n", n), *((f"w_f row {i}", row,
                        "values", "n_w", n_w) for i, row in enumerate(w))]
        if std.b_f is not None:
            checks.append(("b_f", std.b_f(x0), "values", "n", n))
        check_lengths(checks)
        has_b = std.b_f is not None or std.b_g is not None
        self.input_kernel = std_inputs(
            n, n_w, std.w_f is not None, tuple((i, j) for i, j, _ in terms),
            std.b_f is not None,
            None if std.b_g is None else tuple((i, j) for i, j, _ in bterms))(
            std.w_f, std.b_f, [e for *_, e in terms], [e for *_, e in bterms])
        # the channels are pF[x], then F[b_f + B_g u_p] when declared, then
        # the n rows of F[w_f + w_g]: Y = pF[x] - F[b_f + B_g u_p], and
        # Omega row j is column j of that n x n_w block
        self._sample = std_sample(n, has_b, n_w)
        modes = [ChannelMode.DERIVATIVE] * n \
            + [ChannelMode.PLAIN] * (n * (has_b + n_w))
        self.bank = FirstOrderFilterBank(lam, modes, self.inputs(x0, up0, None))
