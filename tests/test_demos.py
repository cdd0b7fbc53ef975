"""Smoke test: every narrative script under demos/ runs to exit code 0; the cache walk-through prints its pinned transcript."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


CACHE_WALK = """\
cache capacity 2, start [empty]

scan A: miss after 0 comparison(s), inserted at the bottom
         state [A(hits=1)]
scan B: miss after 1 comparison(s), inserted at the bottom
         state [A(hits=1), B(hits=1)]
scan A: HIT in slot 1 (1 comparison(s))
         state [A(hits=2), B(hits=1)]
scan C: miss after 2 comparison(s), inserted at the bottom, evicted B
         state [A(hits=2), C(hits=1)]
scan A: HIT in slot 1 (1 comparison(s))
         state [A(hits=3), C(hits=1)]

holding-area snapshot (barcode, hits), top of cache first:
  slot 1  A  10000000000001  3
  slot 2  C  10000000000003  1

totals: 5 scans, 2 hits, 3 knowledge-base trips, 5 cache comparisons
"""


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_to_completion(demo):
    assert run_demo(demo)


def test_the_cache_walk_through_prints_its_pinned_transcript():
    assert run_demo(ROOT / "demos" / "01_hit_ordered_cache.py") == CACHE_WALK
