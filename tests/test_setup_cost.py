"""Set-up cost bound: the Python calls a cold world's set-up makes into `ruta`.

cProfile counts every call of a function defined in `src/ruta` while a
benchmark world is built and converged, except functions named `<...>`
(lambdas, and comprehensions, which Python 3.12 inlines into their caller).
The count is taken on the second set-up of the world in the process, as
the benchmark's median set-up is: the first fills the module-level memos.
The simulated outcome is fixed by the seed, so the count is the same on
Python 3.10 to 3.13.  Only `nat_echo`'s moves, by a few calls, with
PYTHONHASHSEED: its convergence check walks a set of names.

The bounds sit above the counts of a store that hands a change to a
healthy follower without an extra frame and decodes each entry once:
246,627 for `mesh_4x32`, 5,033 to 5,037 for `nat_echo` and 1,874 for
`steer_2x2`.  Before that the set-ups made 387,252, 5,810 or 5,812, and
2,162.
"""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

import ruta

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worlds  # noqa: E402  (bench/ is not a package)

RUTA = Path(ruta.__file__).resolve().parent

BOUNDS = {"mesh_4x32": 250_000, "nat_echo": 5_814, "steer_2x2": 2_162}


def setup_calls(build, seed: int) -> int:
    wl = build(seed)
    wl.converge()
    wl = None
    profile = cProfile.Profile()
    profile.enable()
    try:
        wl = build(seed)
        wl.converge()
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    return sum(calls for (path, _, name), (_, calls, *_) in stats.items()
               if not name.startswith("<") and Path(path).resolve().parent == RUTA)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_a_cold_set_up_stays_under_its_call_bound(name):
    calls = setup_calls(worlds.WORKLOADS[name], 1)
    assert 0 < calls <= BOUNDS[name], calls
