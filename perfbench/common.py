"""Locate the package under test in the checkout holding the benchmark.

The benchmark always measures the source tree next to it (``src/``),
never an installed copy, so a checkout without that tree fails loudly.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class MissingSource(RuntimeError):
    pass


def load_package():
    """Import ``dynorient`` from ``<root>/src`` and return the module."""
    init = os.path.join(SRC, "dynorient", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSource(f"package source not found at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dynorient
    found = os.path.abspath(dynorient.__file__)
    if os.path.dirname(found) != os.path.dirname(init):
        raise MissingSource(f"imported dynorient from {dynorient.__file__}, "
                            f"expected {init}")
    return dynorient
