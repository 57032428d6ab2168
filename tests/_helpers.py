"""Shared constructions used across the test modules."""

import numpy as np

from mechrom import newmark


def random_spd(rng, n, eigmin=0.5, eigmax=None):
    """Random symmetric matrix with spectrum inside [eigmin, eigmax]."""
    if eigmax is None:
        eigmax = eigmin + 2.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(eigmin, eigmax, size=n)
    A = (Q * w) @ Q.T
    return 0.5 * (A + A.T)


def banded_calls(monkeypatch):
    """Record the step count of every banded replay that ``simulate``
    runs, by wrapping ``newmark._integrate_banded``."""
    calls = []
    solve = newmark._integrate_banded

    def counting(A, states):
        calls.append(states.shape[0] - 1)
        return solve(A, states)

    monkeypatch.setattr(newmark, "_integrate_banded", counting)
    return calls
