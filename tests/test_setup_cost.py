"""Call-cost bounds: the Python calls `ruta` makes to set a world up, and
per frame it carries.

cProfile counts every call of a function defined in `src/ruta`, except
functions named `<...>` (lambdas, and comprehensions, which Python 3.12
inlines into their caller).  The simulated outcome is fixed by the seed, so
the counts are the same on Python 3.10 to 3.13.

Set-up is a benchmark world built and converged.  Its count is taken on the
second set-up of the world in the process, as the benchmark's median set-up
is: the first fills the module-level memos.  Only `nat_echo`'s moves, by a
few calls, with PYTHONHASHSEED: its convergence check walks a set of names.
The bounds sit above the counts of a store that hands a change to a
healthy follower without an extra frame and decodes each entry once:
246,627 for `mesh_4x32`, 5,033 to 5,037 for `nat_echo` and 1,874 for
`steer_2x2` when they were set.  Before that the set-ups made 387,252,
5,810 or 5,812, and 2,162.  With a private link-state mirror per follower
they made 240,722, 4,982 or 4,984, and 1,837, under PYTHONHASHSEED 0 to 10
and 12345.  Today, with followers that share link-state snapshots, they
make 244,201, 5,021 and 1,857 under PYTHONHASHSEED 0 and 12345: each
distinct link-state step costs three calls once, where each follower
applied it in its own call before, which it still makes.

Per frame is the calls of a 2-simulated-s timed phase of a converged world
at seed 1, over the frames offered in it: 68.56 for `mesh_4x32`, 52.04 for
`nat_echo` and 28.43 for `steer_2x2`, under any PYTHONHASHSEED.  That is the
count with the module-level frame memos cold; warm ones lower it a little.
`mesh_4x32` made 77.17 when each of its linecards costed each link-state
put for itself.  Each bound is under the count plus one, so one more call
per offered frame fails it.
"""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

import ruta
from ruta.netsim import seconds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worlds  # noqa: E402  (bench/ is not a package)

RUTA = Path(ruta.__file__).resolve().parent

BOUNDS = {"mesh_4x32": 250_000, "nat_echo": 5_814, "steer_2x2": 2_162}
PER_FRAME_BOUNDS = {"mesh_4x32": 69.0, "nat_echo": 53.0, "steer_2x2": 29.0}


def ruta_calls(profile: cProfile.Profile) -> int:
    stats = pstats.Stats(profile).stats
    return sum(calls for (path, _, name), (_, calls, *_) in stats.items()
               if not name.startswith("<") and Path(path).resolve().parent == RUTA)


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
    return ruta_calls(profile)


def calls_per_frame(build, seed: int, duration_ns: int) -> float:
    wl = build(seed)
    wl.converge()
    offered = wl.ledger.offered
    _, stop = wl.schedule(duration_ns)
    profile = cProfile.Profile()
    profile.enable()
    try:
        wl.run_until(stop)
    finally:
        profile.disable()
    return ruta_calls(profile) / (wl.ledger.offered - offered)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_a_cold_set_up_stays_under_its_call_bound(name):
    calls = setup_calls(worlds.WORKLOADS[name], 1)
    assert 0 < calls <= BOUNDS[name], calls


@pytest.mark.parametrize("name", sorted(PER_FRAME_BOUNDS))
def test_a_timed_phase_stays_under_its_calls_per_frame_bound(name):
    per_frame = calls_per_frame(worlds.WORKLOADS[name], 1, seconds(2))
    assert 0 < per_frame <= PER_FRAME_BOUNDS[name], per_frame
