"""Built-in demonstration target sets.

* ``constant``  -- the graph of the zero function (a horizontal segment);
* ``square``    -- the full unit square;
* ``hyperbola`` -- the graph of 1/x over (0, 1];
* ``sect6``     -- the tent-pole set: above each x outside the pole set
  P = {0} u {1/k : k <= depth} the slice is the single value -1/d(x, P),
  built from two hyperbola arcs per gap between consecutive pole points.
  Every pole carries divergence to minus infinity only, which makes the
  signed and unsigned enumerations on the empty-slice set behave
  differently and exercises the divergence-direction check.

The tent-pole set is a depth truncation of an infinite construction; the
CLI prints a notice saying so.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .geometry import Box, Hyper, PLine, TargetSet

DEMO_NAMES = ("constant", "square", "hyperbola", "sect6")


class UnknownDemoError(Exception):
    pass


def demo_set(name: str, depth: int = 10) -> TargetSet:
    if name == "constant":
        return TargetSet((PLine(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))),))
    if name == "square":
        return TargetSet((Box(Fraction(0), Fraction(1), Fraction(0), Fraction(1)),))
    if name == "hyperbola":
        return TargetSet((Hyper(Fraction(0), Fraction(0), Fraction(1), Fraction(1)),))
    if name == "sect6":
        return _tent_pole_set(depth)
    raise UnknownDemoError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")


def _tent_pole_set(depth: int) -> TargetSet:
    if depth < 1:
        raise ValueError("tent-pole depth must be at least 1")
    poles = sect6_pole_points(depth)
    pieces: List[Hyper] = []
    for a, b in zip(poles, poles[1:]):
        mid = (a + b) / 2
        # On (a, mid] the distance to the pole set is x - a, so the value
        # -1/(x - a) is the arc with pole a and coefficient -1; on [mid, b)
        # it is -1/(b - x) = 1/(x - b).
        pieces.append(Hyper(a, a, mid, Fraction(-1)))
        pieces.append(Hyper(b, mid, b, Fraction(1)))
    return TargetSet(tuple(pieces))


def sect6_pole_points(depth: int) -> List[Fraction]:
    return sorted({Fraction(0)} | {Fraction(1, k) for k in range(1, depth + 1)})


def sect6_c_order(depth: int) -> List[Fraction]:
    """The classical enumeration of the tent-pole empty-slice set:
    c_1 = 0 and c_k = 1/(k - 1) afterwards."""
    return [Fraction(0)] + [Fraction(1, k) for k in range(1, depth + 1)]


def demo_c_order(name: str, depth: int) -> Optional[List[Fraction]]:
    if name == "sect6":
        return sect6_c_order(depth)
    return None


def truncation_notice(name: str, depth: int) -> Optional[str]:
    if name == "sect6":
        return (
            f"notice: sect6 is truncated at depth {depth}; the untruncated set "
            f"has poles at every 1/k and regime verdicts refer to the "
            f"truncated set only"
        )
    return None
