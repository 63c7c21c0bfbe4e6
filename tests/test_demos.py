"""Each narrated demo runs to its closing line.

The demos check their own claims with asserts (``streaming_colours.py``
checks properness after every update of a churn), so each runs in its
own interpreter with asserts on, against this checkout's sources.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLOSING = {
    "flip_race.py": "the orientation stayed acyclic with forest partitions",
    "orientation_tour.py": "repair pairs",
    "streaming_colours.py": "every edge stayed properly coloured in both "
                            "styles",
}


@pytest.mark.parametrize("demo", sorted(CLOSING))
def test_demo_runs_to_its_closing_line(demo):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1].endswith(CLOSING[demo])


def test_every_demo_is_covered():
    demos = {f for f in os.listdir(os.path.join(ROOT, "demos"))
             if f.endswith(".py")}
    assert demos == set(CLOSING)
