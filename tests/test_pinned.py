"""gamma and psi pinned to values recorded from the difference-based form
of the explicit scheme.  The per-offset weight form computes the same
stencil in another floating-point order, so both may move only by roundoff.

``PYTHONPATH=src python tests/test_pinned.py NAME...`` rewrites the named
systems' ``data/pinned_<name>_psi.fld`` from the current code and prints
each new ``gamma``, for ``PINNED_GAMMA``, and psi's max |delta|.  Do that
only for a deliberate change of outputs.
"""

from pathlib import Path

import numpy as np
import pytest

from scbf.grid import read_field
from scbf.semigroup import PolicyTable, PropagationConfig
from scbf.spectral import initial_field, power_iteration, power_policy_iteration
from scbf.systems import make_benchmark

DATA = Path(__file__).parent / "data"

PINNED_GAMMA = {
    "brownian_1d": 1.2337322725394004,
    "di_omni": 1.3206784172194213,
    "di_input_noise": 0.3253914411200074,
}


def _run(name):
    cfg = PropagationConfig(horizon=0.5)
    if name == "brownian_1d":
        sys = make_benchmark(name)
        return power_iteration(sys, PolicyTable.zero(sys), cfg,
                               initial_field(sys, "bump"), tol=1e-5)
    counts = {"di_omni": (41, 81), "di_input_noise": (21, 41)}[name]
    return power_policy_iteration(make_benchmark(name, grid_counts=counts), cfg, tol=1e-4)


@pytest.mark.parametrize("name", sorted(PINNED_GAMMA))
def test_pinned_gamma_and_psi(name):
    res = _run(name)
    pinned_psi = read_field(DATA / f"pinned_{name}_psi.fld")
    assert res.converged
    assert abs(res.gamma - PINNED_GAMMA[name]) <= 1e-10 * PINNED_GAMMA[name]
    assert np.max(np.abs(res.psi.values - pinned_psi.values)) <= 1e-10


if __name__ == "__main__":
    import sys

    from scbf.grid import write_field

    for name in sys.argv[1:]:
        res, path = _run(name), DATA / f"pinned_{name}_psi.fld"
        delta = np.max(np.abs(res.psi.values - read_field(path).values))
        write_field(res.psi, path)
        print(f"{name}: gamma = {res.gamma!r} (pinned {PINNED_GAMMA[name]!r}), "
              f"psi max |delta| = {delta:.3g}")
