"""Pinned nets: the points of every net, as (numerator, denominator) ints.

The digests cover the four demos at depths 6, 10 and 20 in each regime
they pass, and 20 seeded random graph targets at depth 6 in each regime
they pass: ten with any poles, ten with poles at span ends only. A net
coordinate is read as either a Fraction or a reduced (numerator,
denominator) pair, so the pins hold whichever form the net carries.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from accumgraph.conditions import Regime, check_regime
from accumgraph.demos import demo_c_order, demo_set
from accumgraph.synthesis import synthesize

from test_strips import _graph_target


def _ints(v):
    """(numerator, denominator) of a coordinate, a Fraction or a pair."""
    return (v.numerator, v.denominator) if isinstance(v, F) else tuple(v)


def _net_digest(net):
    h = hashlib.sha256()
    for level in net.levels:
        for x, y in level.points:
            h.update(("%d %d %d %d %d\n" % (level.n, *_ints(x), *_ints(y))).encode())
    return h.hexdigest()[:16]


def _regime_digests(target, depth, c_order=None):
    return {regime.value: _net_digest(synthesize(target, regime, depth, c_order=c_order).approx)
            for regime in Regime if check_regime(target, regime).passed}


NET_DIGESTS = {
    "constant@6": {"b2-bounded": "898c32830f379495", "b2": "898c32830f379495",
                   "b1-bounded": "898c32830f379495", "b1": "898c32830f379495"},
    "constant@10": {"b2-bounded": "3ae5b2929d18c1b3", "b2": "3ae5b2929d18c1b3",
                    "b1-bounded": "3ae5b2929d18c1b3", "b1": "3ae5b2929d18c1b3"},
    "constant@20": {"b2-bounded": "1e2310116b94f6b2", "b2": "1e2310116b94f6b2",
                    "b1-bounded": "1e2310116b94f6b2", "b1": "1e2310116b94f6b2"},
    "square@6": {"b2-bounded": "931885c746ec70df", "b2": "931885c746ec70df"},
    "square@10": {"b2-bounded": "a33bfa268aa5893d", "b2": "a33bfa268aa5893d"},
    "square@20": {"b2-bounded": "28c213d533472f3f", "b2": "28c213d533472f3f"},
    "hyperbola@6": {"b2": "a983e3f67d9d6cd2", "b1": "a983e3f67d9d6cd2"},
    "hyperbola@10": {"b2": "f2d1f5000fb3ae4f", "b1": "f2d1f5000fb3ae4f"},
    "hyperbola@20": {"b2": "755016bd98e0efd9", "b1": "755016bd98e0efd9"},
    "sect6@6": {"b2": "69bdd8e4c4b1c64b", "b1": "69bdd8e4c4b1c64b"},
    "sect6@10": {"b2": "f41b593cd7eac8dc", "b1": "f41b593cd7eac8dc"},
    "sect6@20": {"b2": "966c213c65f28bed", "b1": "966c213c65f28bed"},
    "random": [
        {"b2": "e615a73c18363990", "b1": "f5988bfe7752abd8"},
        {"b2": "016686f215309d1d", "b1": "02efa39be6d56d1b"},
        {"b2-bounded": "aa59b67ce71a9eff", "b2": "aa59b67ce71a9eff",
         "b1-bounded": "5c6246350bf8f165", "b1": "5c6246350bf8f165"},
        {"b2": "77812a00ed70140d", "b1": "e9ca47b5a04037b0"},
        {"b2": "acff0d791318f04d", "b1": "37ac6a262e7b9501"},
        {"b2": "01d1a7694fe15245", "b1": "625aa19b865e010c"},
        {"b2-bounded": "c5c66b5aece96120", "b2": "c5c66b5aece96120",
         "b1-bounded": "f503c7f3f2fe4b43", "b1": "f503c7f3f2fe4b43"},
        {"b2-bounded": "fc5ce7197551fb91", "b2": "fc5ce7197551fb91",
         "b1-bounded": "fc5ce7197551fb91", "b1": "fc5ce7197551fb91"},
        {"b2": "0bbf135c915d283f", "b1": "1b68b25745da89d0"},
        {"b2": "8708ea3cd05563b9", "b1": "a8c8560d79d8ca95"},
        {"b2-bounded": "45ed7b6b0d233b91", "b2": "45ed7b6b0d233b91",
         "b1-bounded": "7f135f0e23b8b02d", "b1": "7f135f0e23b8b02d"},
        {"b2-bounded": "142f9ffdb73d7112", "b2": "142f9ffdb73d7112",
         "b1-bounded": "0c01a95d79a251bf", "b1": "0c01a95d79a251bf"},
        {"b2-bounded": "b32adbfd0c3608f0", "b2": "b32adbfd0c3608f0",
         "b1-bounded": "99e5d2dd95046d86", "b1": "99e5d2dd95046d86"},
        {"b2": "85e091b449c037b1", "b1": "85e091b449c037b1"},
        {"b2": "00321711bc2f6e4e", "b1": "64e635d9d005a0aa"},
        {"b2": "76211400e42a292e", "b1": "f3291d9d1a096e26"},
        {"b2": "adbc97f145fed6e5", "b1": "1b933c1fa1c9ca43"},
        {"b2": "3f652e318ff65b43", "b1": "dd15d1459a363911"},
        {"b2": "48e6270fff4e80db", "b1": "3cbebcf9722dcea0"},
        {"b2-bounded": "8d23e743e85d5504", "b2": "8d23e743e85d5504",
         "b1-bounded": "3f9a9ca4809c0c79", "b1": "3f9a9ca4809c0c79"},
    ],
}


@pytest.mark.parametrize("depth", [6, 10, 20])
@pytest.mark.parametrize("demo", ["constant", "square", "hyperbola", "sect6"])
def test_demo_nets_are_pinned(demo, depth):
    got = _regime_digests(demo_set(demo, depth), depth, demo_c_order(demo, depth))
    assert got and got == NET_DIGESTS[f"{demo}@{depth}"]


def test_random_target_nets_are_pinned():
    got = []
    for seed, poles_at_ends in ((20260607, False), (20261018, True)):
        rng = random.Random(seed)
        got += [_regime_digests(_graph_target(rng, poles_at_ends), 6) for _ in range(10)]
    assert got == NET_DIGESTS["random"]
