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
floats, which the matrix estimator reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .filters import ChannelMode, FirstOrderFilterBank
from .smallmat import min_eig_symmetric


@dataclass
class ParamMap:
    """Nonlinear parameterization of a scenario.

    G_direct is the stacked map G from the q unknown parameters to the
    coefficients of the supply, storage and dissipation regressions, one
    block after another as NlpreData splits them, a p-tuple of floats; T is
    the designer-chosen (q, p) selector, whose shape fixes q and p, and P
    the symmetric positive-definite metric used by the monotone correction
    flow.  The field keeps the name G_direct because the benchmark's tracer
    wraps it by that name.
    """

    G_direct: Callable
    T: np.ndarray
    P: np.ndarray
    jacobian_G: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self.T = np.asarray(self.T, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.T.ndim != 2:
            raise ValueError(f"T must be a (q, p) matrix, got shape {self.T.shape}")
        q, p = self.T.shape
        if p < q:
            raise ValueError(f"need p >= q, got p={p} q={q}")
        if self.P.shape != (q, q):
            raise ValueError(f"P has shape {self.P.shape}, expected {(q, q)}")
        if np.max(np.abs(self.P - self.P.T)) > 1e-9:
            raise ValueError("P must be symmetric")
        if min_eig_symmetric(self.P) <= 0.0:
            raise ValueError("P must be positive definite")

    @property
    def q(self) -> int:
        return self.T.shape[0]

    @property
    def p(self) -> int:
        return self.T.shape[1]

    def G(self, theta) -> tuple:
        """Stacked map G evaluated at theta."""
        return self.G_direct(theta)

    def W(self, theta) -> np.ndarray:
        """Selected map T @ G(theta)."""
        return self.T @ self.G(theta)


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

    @property
    def n_channels(self) -> int:
        return self.bank.n_channels

    @property
    def state(self) -> np.ndarray:
        """The filter state as an array (the bank keeps a list of floats)."""
        return np.array(self.bank.state)

    @state.setter
    def state(self, value):
        self.bank.state = np.asarray(value, dtype=float).tolist()

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
        out = self.bank.output(inputs)
        k = 0
        y = 0.0
        if self._has_yplain:
            y += out[k]
            k += 1
        if self._has_yderiv:
            y -= out[k]
            k += 1
        p_s = self.nlpre.p_s
        omega = tuple(-v for v in out[k:k + p_s]) + tuple(out[k + p_s:])
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
        modes = [ChannelMode.DERIVATIVE] * n
        if self._has_b:
            modes += [ChannelMode.PLAIN] * n
        modes += [ChannelMode.PLAIN] * (n * std.n_w)
        self.bank = FirstOrderFilterBank(lam, modes, self.inputs(x0, up0))

    @property
    def n_channels(self) -> int:
        return self.bank.n_channels

    @property
    def state(self) -> np.ndarray:
        """The filter state as an array (the bank keeps a list of floats)."""
        return np.array(self.bank.state)

    @state.setter
    def state(self, value):
        self.bank.state = np.asarray(value, dtype=float).tolist()

    def _w_rows(self, x, u_p) -> list:
        """Rows of the input matrix w_f + sum_j u_p[j] phi_g[i][j]."""
        std = self.std
        if std.w_f is not None:
            w = [list(row) for row in std.w_f(x)]
        else:
            w = [[0.0] * std.n_w for _ in range(self.n)]
        if std.phi_g is not None:
            for i, entries in enumerate(std.phi_g):
                for u, entry in zip(u_p, entries):
                    if entry is not None:
                        w[i] = [a + u * b for a, b in zip(w[i], entry(x))]
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
        n, n_w = self.n, self.n_w
        y = out[:n]
        k = n
        if self._has_b:
            y = [a - b for a, b in zip(y, out[k:k + n])]
            k += n
        # out[k:] holds the n rows of w_f + w_g one after another; Omega
        # row j is their column j, every n_w-th entry from j
        w = out[k:]
        omega = tuple(w[j::n_w] for j in range(n_w))
        return RegressorSample(t=t, Y=tuple(y), Omega=omega)
