"""First-order low-pass filter banks.

Each channel realizes the stable filter F = lam / (s + lam) on its input u.
Every channel state z obeys the same ODE

    zdot = lam * (u - z)

and the two channel modes are just different output taps of that state:
PLAIN outputs z = F[u]; DERIVATIVE outputs lam * (u - z), which equals the
filtered derivative s F[u].

The bank never integrates itself: the simulator owns time stepping and
advances `state`, a list of Python floats, with its own RK4.  `output` is
a pure read: a per-channel tap over the inputs and the state.

Initialization policy: PLAIN channels start at zero state; DERIVATIVE
channels start with state equal to the initial input, so their output
starts at 0 instead of kicking with lam * u(0).  Filtering with nonzero
initial signal values therefore matches the ideal zero-initial-condition
regression identity only up to a transient that decays like exp(-lam * t).
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class ChannelMode(Enum):
    PLAIN = "plain"
    DERIVATIVE = "derivative"


class FirstOrderFilterBank:
    """Bank of independent first-order channels sharing one cutoff lam."""

    def __init__(self, lam: float, modes, initial_inputs):
        if not np.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"filter constant must be positive, got {lam}")
        self.lam = float(lam)
        self.modes = tuple(modes)
        self._deriv = [m is ChannelMode.DERIVATIVE for m in self.modes]
        u0 = np.asarray(initial_inputs, dtype=float)
        if u0.shape != (len(self.modes),):
            raise ValueError(
                f"initial_inputs has shape {u0.shape}, expected ({len(self.modes)},)")
        self.state = [u if d else 0.0 for d, u in zip(self._deriv, u0.tolist())]

    @property
    def n_channels(self) -> int:
        return len(self.modes)

    def output(self, inputs) -> list:
        """Instantaneous channel outputs; does not advance state."""
        lam = self.lam
        return [lam * (u - z) if d else z
                for d, u, z in zip(self._deriv, inputs, self.state)]

    def rate(self, inputs) -> list:
        """d(state)/dt of the channel ODE."""
        lam = self.lam
        return [lam * (u - z) for u, z in zip(inputs, self.state)]
