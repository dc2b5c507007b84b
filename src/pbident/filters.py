"""First-order low-pass filter banks.

Each channel realizes the stable filter F = lam / (s + lam) on its input u.
Every channel state z obeys the same ODE

    zdot = lam * (u - z)

and the two channel modes are just different output taps of that state:
PLAIN outputs z = F[u]; DERIVATIVE outputs lam * (u - z), which equals the
filtered derivative s F[u].

The bank never integrates itself: the simulator owns time stepping and
advances `state`, a list of Python floats, with its own RK4, and the
generators' sample kernels read the taps from the inputs and `state`.

Initialization policy: PLAIN channels start at zero state; DERIVATIVE
channels start with state equal to the initial input, so their output
starts at 0 instead of kicking with lam * u(0).  Filtering with nonzero
initial signal values therefore matches the ideal zero-initial-condition
regression identity only up to a transient that decays like exp(-lam * t).
"""

from __future__ import annotations

import math
from enum import Enum

from .smallmat import flat_floats


class ChannelMode(Enum):
    PLAIN = "plain"
    DERIVATIVE = "derivative"


class FirstOrderFilterBank:
    """Bank of independent first-order channels sharing one cutoff lam."""

    def __init__(self, lam: float, modes, initial_inputs):
        if not math.isfinite(lam) or lam <= 0.0:
            raise ValueError(f"filter constant must be positive, got {lam}")
        self.lam = float(lam)
        self.modes = tuple(modes)
        self._deriv = [m is ChannelMode.DERIVATIVE for m in self.modes]
        u0 = flat_floats(initial_inputs)
        if len(u0) != len(self.modes):
            raise ValueError(f"initial_inputs has {len(u0)} values, "
                             f"expected {len(self.modes)}")
        self.state = [u if d else 0.0 for d, u in zip(self._deriv, u0)]

    @property
    def n_channels(self) -> int:
        return len(self.modes)

    def output(self, inputs) -> list:
        """Instantaneous channel outputs.  No code in the package calls it;
        it stays because the benchmark's tracer wraps it by name."""
        lam = self.lam
        return [lam * (u - z) if d else z
                for d, u, z in zip(self._deriv, inputs, self.state)]

    def rate(self, inputs) -> list:
        """d(state)/dt of the channel ODE.  No code in the package calls it
        (the step inlines it in `smallmat.lag_rk4`); it stays because the
        benchmark's tracer wraps it by name."""
        lam = self.lam
        return [lam * (u - z) for u, z in zip(inputs, self.state)]
