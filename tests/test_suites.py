"""Identity-suite helpers: the off-shell configuration screen."""

import numpy as np
import pytest

from tllab.core import omega
from tllab.suites import _admissible_config


def _admissible_scalar(values, probe, q) -> bool:
    """The screen as a plain loop over points and pairs (reference)."""
    pts = list(values) + [probe]
    for i, a in enumerate(pts):
        if abs(omega(a * a * q)) < 1e-2 or abs(omega(a * a * q * q)) < 1e-2:
            return False
        for b in pts[i + 1 :]:
            if abs(omega(a / b)) < 1e-2 or abs(omega(b / a)) < 1e-2:
                return False
            if abs(omega(a * b * q)) < 1e-2:
                return False
            if abs(omega(a * b)) < 1e-2 or abs(omega(a * b * q * q)) < 1e-2:
                return False
    return True


def _near_pole(pts, family, q, x):
    """Move points so that one of ``family``'s arguments equals x."""
    pts = list(pts)
    a = pts[0]
    if family == "a^2 q":
        pts[0] = np.sqrt(x / q)
    elif family == "a^2 q^2":
        pts[0] = np.sqrt(x) / q
    elif family == "a/b":
        pts[-1] = a / x
    elif family == "b/a":
        pts[-1] = a * x
    elif family == "a b q":
        pts[-1] = x / (a * q)
    elif family == "a b":
        pts[-1] = x / a
    elif family == "a b q^2":
        pts[-1] = x / (a * q * q)
    return pts


FAMILIES = ("a^2 q", "a^2 q^2", "a/b", "b/a", "a b q", "a b", "a b q^2")


@pytest.mark.parametrize("q", [0.5, 1.5, 0.4 + 0.3j])
def test_admissible_config_matches_scalar_loop(q):
    rng = np.random.default_rng(58)
    decisions = set()
    for trial in range(500):
        m = 1 + trial % 3
        mods = np.exp(rng.uniform(np.log(0.7), np.log(1.5), m + 1))
        pts = [complex(v) for v in mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m + 1))]
        if trial % 2:
            # |omega(x)| is about 2 |x - (+-1)| here: within 1e-2 of the
            # threshold on either side
            sign = 1.0 if trial % 4 == 1 else -1.0
            x = sign * (1.0 + rng.uniform(0.0, 1e-2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            pts = [complex(v) for v in _near_pole(pts, FAMILIES[(trial // 2) % 7], q, x)]
        probe, values = pts[0], tuple(pts[1:])
        want = _admissible_scalar(values, probe, q)
        assert _admissible_config(values, probe, q) == want, (values, probe)
        decisions.add(want)
    assert decisions == {False, True}
