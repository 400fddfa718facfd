"""Host-speed calibration for a shared, noisy host.

On a shared machine the speed available to one process drifts by 10-30%
over seconds to minutes, and every hwsynth timing drifts with it. The
benchmark therefore times a fixed kernel that does not import hwsynth but
has the same instruction mix as its hot loop today: a 16-step
H-LSTM-shaped recurrence at batch 16, d=128, with masked weights,
concatenation, sign-split sigmoid and per-gate Python calls. It runs
before each timed operation and, inside train epochs, validation passes
and flows, between batch windows about every 0.3 s. Each stretch of an
operation is scaled by `REF_MS` over the kernel time taken last before
it, i.e. reported as it would read on a host where the kernel takes
`REF_MS`. A change to hwsynth does not change the kernel, so its effect
is kept in full.
"""

import statistics
import time

import numpy as np

REF_MS = 10.0
_B, _T, _D_X, _D = 16, 16, 32, 128


class HostClock:
    """The calibration kernel and every time it was run in this process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        z_dim = _D_X + _D
        self._x = rng.standard_normal((_B, _D_X))
        self._gates = [
            tuple((rng.standard_normal(shape) * 0.1, (rng.random(shape) < 0.5) * 1.0,
                   np.zeros(shape[0])) for shape in ((_D, z_dim), (_D, _D)))
            for _ in range(4)]
        self.samples_ms: list[float] = []

    @staticmethod
    def _linear(x, layer):
        w, mask, b = layer
        return x @ (w * mask).T + b

    @staticmethod
    def _sigmoid(v):
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    def _kernel(self):
        h = c = np.zeros((_B, _D))
        for _ in range(_T):
            z = np.concatenate([self._x, h], axis=-1)
            g = [self._sigmoid(self._linear(np.maximum(self._linear(z, hid), 0.0), out))
                 for hid, out in self._gates]
            c = g[0] * c + g[1] * np.tanh(g[3])
            h = g[2] * np.tanh(c)
        return h

    def sample(self, repeats: int = 1) -> list[float]:
        """Kernel times of `repeats` runs, in ms, after one untimed run: the
        op timed before it has evicted the kernel's data from the caches,
        and a cold run reads that instead of the host's speed."""
        self._kernel()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            self._kernel()
            times.append((time.perf_counter_ns() - t0) / 1e6)
        self.samples_ms.extend(times)
        return times

    def scale(self, repeats: int = 1) -> float:
        """Factor that brings a time measured now to the reference host."""
        return REF_MS / statistics.median(self.sample(repeats))
