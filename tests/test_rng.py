import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from tabletamp._rng import default_rng
from tabletamp.harness import _subgoal_seed, run_episode
from tabletamp.scenarios import SCENARIO_IDS, build_scenario

# the seeds the package passes: a sub-goal seed, or an episode seed, a
# scenario's crc32 and a stream; plus ints of more than one uint32 word
_INT_SEEDS = [0, 1, 2, 7, 12345, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5,
              *(_subgoal_seed(s, r, i) for s in (0, 1, 9, 239) for r in range(4)
                for i in range(3))]
_LIST_SEEDS = [[seed, zlib.crc32(sid.encode()) & 0x7FFFFFFF, stream]
               for sid in SCENARIO_IDS for seed in (0, 1, 9, 2**33) for stream in (0, 7)]


@pytest.mark.parametrize("seed", _INT_SEEDS + _LIST_SEEDS, ids=repr)
def test_draws_equal_numpy_bit_for_bit(seed):
    np = pytest.importorskip("numpy")
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        x = ours.uniform(-0.3, 0.7)
        assert type(x) is float and x == theirs.uniform(-0.3, 0.7)
        x = ours.uniform()
        assert type(x) is float and x == theirs.uniform()
        pair = ours.uniform(-1.5, 2.5, size=2)
        assert all(type(v) is float for v in pair)
        assert list(pair) == theirs.uniform(-1.5, 2.5, size=2).tolist()


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), ([3, -1, 0], ValueError), (0.5, TypeError), ([3, 0.5, 0], TypeError),
])
def test_bad_seed_raises_as_numpy_does(seed, error):
    np = pytest.importorskip("numpy")
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        default_rng(seed)


def test_known_answer():
    rng = default_rng([0, zlib.crc32(b"box") & 0x7FFFFFFF, 0])
    assert [rng.uniform().hex() for _ in range(3)] == [
        "0x1.f27c5adaebf30p-1", "0x1.41311d52251a0p-1", "0x1.85266ec2acc08p-4"]


def test_episodes_run_without_numpy():
    # numpy is only the tests' reference: a None entry in sys.modules makes
    # any import of it fail, so the episodes must run and trace as here
    import tabletamp

    src = str(Path(tabletamp.__file__).resolve().parent.parent)
    code = ("import json, sys; sys.modules['numpy'] = None; import tabletamp.cli; "
            "from tabletamp.harness import run_episode; "
            "from tabletamp.scenarios import build_scenario; "
            "print(json.dumps([run_episode(build_scenario('box'), 0, ablation=a).to_dict() "
            "for a in ('full', 'no_pose')])); "
            "print(sys.modules['numpy'])")
    env = {**os.environ, "PYTHONPATH": src}
    traces, numpy_entry = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert numpy_entry == "None"
    here = [run_episode(build_scenario("box"), 0, ablation=a).to_dict()
            for a in ("full", "no_pose")]
    assert [{**t, "wall_ms": 0} for t in json.loads(traces)] == [
        {**t, "wall_ms": 0} for t in json.loads(json.dumps(here))]
