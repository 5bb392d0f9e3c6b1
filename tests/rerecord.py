"""Re-record named keys of a pinned ``.npz`` file from freshly computed values.

The recorders of ``test_pinned_optimal.py`` and ``test_pinned_sim.py`` call
:func:`main` when run as scripts, with the key names on the command line::

    PYTHONPATH=src python tests/test_pinned_optimal.py di_input_noise_field

Each named key is rewritten and its max |delta| printed.  Every key that is
not named must reproduce its pinned bytes; if one would change, nothing is
written and the exit status is 1.  Keys the file holds and the recorder does
not compute are kept as they are.
"""

import sys

import numpy as np


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _delta(new: np.ndarray, old: np.ndarray | None) -> str:
    if old is None:
        return "new key"
    if new.shape != old.shape:
        return f"shape {old.shape} -> {new.shape}"
    if new.size == 0:
        return "0"
    return f"{np.max(np.abs(new.astype(float) - old.astype(float))):.3g}"


def main(path, fresh: dict, names: list, save) -> int:
    """Rewrite the keys ``names`` of the file at ``path`` with their values
    in ``fresh`` (key to array), through ``save(path, **arrays)``; return
    the exit status."""
    unknown = sorted(set(names) - set(fresh))
    if not names or unknown:
        print(f"name the keys to re-record, from: {', '.join(sorted(fresh))}"
              + (f" (unknown: {', '.join(unknown)})" if unknown else ""), file=sys.stderr)
        return 2
    with np.load(path) as data:
        old = dict(data)
    fresh = {key: np.asarray(value) for key, value in fresh.items()}
    for key in names:
        print(f"{key}: max |delta| = {_delta(fresh[key], old.get(key))}")
    moved = [key for key in fresh
             if key not in names and not (key in old and _same_bytes(fresh[key], old[key]))]
    if moved:
        for key in moved:
            print(f"refused: {key} is not named and would change "
                  f"(max |delta| = {_delta(fresh[key], old.get(key))})", file=sys.stderr)
        return 1
    old.update({key: fresh[key] for key in names})
    save(path, **old)
    print(f"wrote {path}")
    return 0
