"""Graph accumulation sets: decide, synthesize, certify, verify.

Given a closed subset T of [0,1] x R represented as a finite union of
primitive pieces, this package decides which synthesis regime T satisfies
(bounded/unbounded, strip-certifiable or not), builds a function whose
graph accumulates exactly on T, wraps the graph in nested open-strip
certificates, and verifies the accumulation set numerically.
"""

from .conditions import CheckResult, Regime, TargetAnalysis, Verdict, check_regime
from .demos import DEMO_NAMES, UnknownDemoError, demo_set, sect6_c_order
from .fileio import ParseError, parse_target_file, parse_target_text, serialize_target
from .geometry import (
    Box,
    EmptySliceError,
    Hyper,
    Piece,
    PLine,
    Point,
    TargetSet,
)
from .intervals import Span, XSet, rat
from .strips import (
    EpsilonSchedule,
    ScheduleInfeasibleError,
    StripFamily,
    StripReport,
    build_strip,
    build_strip_family,
    epsilon_schedule,
    verify_strips,
)
from .synthesis import (
    CountableApprox,
    NetPlacementError,
    RegimeUnsatisfiedError,
    SynthFunction,
    backbone,
    f_on_c,
    lemma31_net,
    synthesize,
)
from .verification import (
    AccumulationEstimate,
    ClosureDirectionReport,
    FarPointResult,
    GraphSample,
    accumulation_estimate,
    closure_direction_check,
    hausdorff_to_target,
    remark31_check,
    sample_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulationEstimate",
    "Box",
    "CheckResult",
    "ClosureDirectionReport",
    "CountableApprox",
    "DEMO_NAMES",
    "EmptySliceError",
    "EpsilonSchedule",
    "FarPointResult",
    "GraphSample",
    "Hyper",
    "NetPlacementError",
    "ParseError",
    "PLine",
    "Piece",
    "Point",
    "Regime",
    "RegimeUnsatisfiedError",
    "ScheduleInfeasibleError",
    "Span",
    "StripFamily",
    "StripReport",
    "SynthFunction",
    "TargetAnalysis",
    "TargetSet",
    "UnknownDemoError",
    "Verdict",
    "XSet",
    "accumulation_estimate",
    "backbone",
    "build_strip",
    "build_strip_family",
    "check_regime",
    "closure_direction_check",
    "demo_set",
    "epsilon_schedule",
    "f_on_c",
    "hausdorff_to_target",
    "lemma31_net",
    "parse_target_file",
    "parse_target_text",
    "rat",
    "remark31_check",
    "sample_graph",
    "sect6_c_order",
    "serialize_target",
    "synthesize",
    "verify_strips",
]
