"""Locate the checkout and import mecnet from its ``src`` tree.

The benchmark runs from the root of a source checkout with nothing
installed, so it puts ``<root>/src`` first on ``sys.path`` and refuses a
``mecnet`` imported from anywhere else.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


class MissingProgram(RuntimeError):
    """The checkout holds no importable mecnet source tree."""


def import_mecnet():
    if not os.path.isfile(os.path.join(SRC, "mecnet", "__init__.py")):
        raise MissingProgram(f"no mecnet package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mecnet

    where = os.path.dirname(os.path.abspath(mecnet.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise MissingProgram(f"mecnet was imported from {where}, not from {SRC}")
    return mecnet
