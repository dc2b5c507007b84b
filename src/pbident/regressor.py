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
by the estimators.  The generators expose their filter `state`, the channel
`inputs` at a plant sample and `sample_from` those inputs; the simulator
owns all time stepping.  Channel inputs, filter states and samples are
Python floats: a power-balance sample carries a float Y and a p-tuple
Omega, a state-equation sample an n-tuple Y and Omega as n_w rows of n
floats, which the matrix estimator reads as they are.  A power-balance
sample is one smallmat kernel (`pbep_sample`) over the channel layout.
The state-equation generator adds the declared phi_g terms to the rows of
its input matrix with `axpy` and splits the channel outputs into Y and
Omega with `sub_at` and `block_columns`.  All are bound to the
generator's lengths when it is built.  `state` reads the filter state as
an ndarray, built on access with numpy imported there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .filters import ChannelMode, FirstOrderFilterBank
from .smallmat import (axpy, block_columns, dot, flat_floats, float_rows,
                       min_eig_symmetric, pbep_sample, sub_at)


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


class PbepGenerator:
    """Causal generator of the power-balance regression (Y, Omega).

    Channel layout: one PLAIN channel on (b_s - b_d) and one DERIVATIVE
    channel on b_S feed Y; the Omega block takes PLAIN channels on each
    phi_s and phi_d component (the phi_s block enters negated) and
    DERIVATIVE channels on each phi_S component.  Channels whose signal
    maps are all None are skipped.
    """

    def __init__(self, nlpre: NlpreData, param_map: ParamMap, lam: float,
                 x0, up0, yp0):
        p = nlpre.p_s + nlpre.p_S + nlpre.p_d
        if p != param_map.p:
            raise ValueError(
                f"p mismatch: regression data has p_s + p_S + p_d = {p}, "
                f"parameter map has p = {param_map.p}")
        self.nlpre = nlpre
        self.param_map = param_map
        self.p = param_map.p
        self._has_yplain = nlpre.b_s is not None or nlpre.b_d is not None
        self._has_yderiv = nlpre.b_S is not None
        modes = []
        if self._has_yplain:
            modes.append(ChannelMode.PLAIN)
        if self._has_yderiv:
            modes.append(ChannelMode.DERIVATIVE)
        modes += [ChannelMode.PLAIN] * nlpre.p_s
        modes += [ChannelMode.DERIVATIVE] * nlpre.p_S
        modes += [ChannelMode.PLAIN] * nlpre.p_d
        self.bank = FirstOrderFilterBank(lam, modes, self.inputs(x0, up0, yp0))
        self._sample = pbep_sample(self._has_yplain, self._has_yderiv,
                                   nlpre.p_s, nlpre.p_S, nlpre.p_d)

    @property
    def n_channels(self) -> int:
        return self.bank.n_channels

    @property
    def state(self):
        """The filter state as an ndarray (the bank keeps a list of floats)."""
        import numpy as np
        return np.array(self.bank.state)

    @state.setter
    def state(self, value):
        self.bank.state = list(flat_floats(value))

    def inputs(self, x, u_p, y_p) -> list:
        d = self.nlpre
        out = []
        if self._has_yplain:
            bs = d.b_s(x, u_p, y_p) if d.b_s is not None else 0.0
            bd = d.b_d(x) if d.b_d is not None else 0.0
            out.append(bs - bd)
        if self._has_yderiv:
            out.append(d.b_S(x))
        if d.p_s:
            out.extend(d.phi_s(x, u_p, y_p))
        if d.p_S:
            out.extend(d.phi_S(x))
        if d.p_d:
            out.extend(d.phi_d(x))
        return out

    def sample_from(self, t: float, inputs) -> RegressorSample:
        """Build the sample from already-assembled channel inputs."""
        bank = self.bank
        y, omega = self._sample(bank.lam, inputs, bank.state)
        return RegressorSample(t=t, Y=y, Omega=omega)


class StdLreGenerator:
    """Causal generator of the state-equation regression (Y, Omega).

    Channel layout: DERIVATIVE channels on each state component (the
    pF[x] block of Y), PLAIN channels on the components of b_f + B_g u_p
    when any are declared, and PLAIN channels on every entry of the
    assembled input matrix w_f + w_g.
    """

    def __init__(self, std: StdLreData, lam: float, x0, up0):
        self.std = std
        self.n = n = len(x0)
        self.n_w = std.n_w
        self._has_b = std.b_f is not None or std.b_g is not None
        # the declared terms (i, j, phi_g[i][j]) of the input matrix, in
        # the order they are added, up to the len(up0) input components
        self._terms = [(i, j, entry)
                       for i, entries in enumerate(std.phi_g or ())
                       for j, entry in zip(range(len(up0)), entries)
                       if entry is not None]
        self._zero_row = (0.0,) * std.n_w
        self._axpy_w = axpy(std.n_w)
        # the channel outputs are pF[x], then F[b_f + B_g u_p] when declared,
        # then the n rows of F[w_f + w_g]: Y = pF[x] - F[b_f + B_g u_p], and
        # Omega row j is column j of that n x n_w block
        self._y = sub_at(n, n)
        self._omega = block_columns(2 * n if self._has_b else n, n, std.n_w)
        modes = [ChannelMode.DERIVATIVE] * n
        if self._has_b:
            modes += [ChannelMode.PLAIN] * n
        modes += [ChannelMode.PLAIN] * (n * std.n_w)
        self.bank = FirstOrderFilterBank(lam, modes, self.inputs(x0, up0))

    @property
    def n_channels(self) -> int:
        return self.bank.n_channels

    @property
    def state(self):
        """The filter state as an ndarray (the bank keeps a list of floats)."""
        import numpy as np
        return np.array(self.bank.state)

    @state.setter
    def state(self, value):
        self.bank.state = list(flat_floats(value))

    def _w_rows(self, x, u_p) -> list:
        """Rows of the input matrix w_f + sum_j u_p[j] phi_g[i][j]."""
        w_f = self.std.w_f
        # a fresh list of rows on every call: the terms replace its rows
        w = list(w_f(x)) if w_f is not None else [self._zero_row] * self.n
        axpy_w = self._axpy_w
        for i, j, entry in self._terms:
            w[i] = axpy_w(w[i], u_p[j], entry(x))
        return w

    def _b_vector(self, x, u_p) -> list:
        std = self.std
        b = list(std.b_f(x)) if std.b_f is not None else [0.0] * self.n
        if std.b_g is not None:
            for i, entries in enumerate(std.b_g):
                for u, entry in zip(u_p, entries):
                    if entry is not None:
                        b[i] += u * entry(x)
        return b

    def inputs(self, x, u_p) -> list:
        out = list(x)
        if self._has_b:
            out.extend(self._b_vector(x, u_p))
        for row in self._w_rows(x, u_p):
            out.extend(row)
        return out

    def sample_from(self, t: float, inputs) -> RegressorSample:
        """Build the sample from already-assembled channel inputs."""
        out = self.bank.output(inputs)
        y = self._y(out) if self._has_b else tuple(out[:self.n])
        return RegressorSample(t=t, Y=y, Omega=self._omega(out))
