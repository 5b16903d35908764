"""Line-oriented target-set files.

Grammar (UTF-8 text, '#' starts a comment, numbers are decimals or p/q):

    point <x> <y>
    box <x0> <x1> <y0> <y1>
    pline <x0>:<y0> <x1>:<y1> [...]
    hyper <pole> <x0> <x1> <coef>

Rejects x coordinates outside [0, 1], non-increasing polyline x's, and a
pole strictly inside its arc's x-range.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple, Union

from .geometry import Box, Hyper, Piece, PLine, Point, TargetSet

_TOKEN = re.compile(r"\S+")


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _parse_number(token: str, line: int, column: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed number {token!r}", line, column) from None


def parse_target_text(text: str) -> TargetSet:
    pieces: List[Piece] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        args = tokens[1:]
        try:
            pieces.append(_parse_piece(keyword, args, line_no, col))
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from None
    return TargetSet(tuple(pieces))


def _parse_piece(keyword: str, args: List[Tuple[str, int]], line: int, col: int) -> Piece:
    if keyword == "point":
        if len(args) != 2:
            raise ParseError("point needs <x> <y>", line, col)
        x = _parse_number(args[0][0], line, args[0][1])
        y = _parse_number(args[1][0], line, args[1][1])
        return Point(x, y)
    if keyword == "box":
        if len(args) != 4:
            raise ParseError("box needs <x0> <x1> <y0> <y1>", line, col)
        vals = [_parse_number(t, line, c) for t, c in args]
        return Box(*vals)
    if keyword == "pline":
        if len(args) < 2:
            raise ParseError("pline needs at least two <x>:<y> pairs", line, col)
        vertices = []
        for token, c in args:
            if ":" not in token:
                raise ParseError(f"expected <x>:<y>, got {token!r}", line, c)
            xs, ys = token.split(":", 1)
            vertices.append((_parse_number(xs, line, c),
                             _parse_number(ys, line, c + len(xs) + 1)))
        return PLine(tuple(vertices))
    if keyword == "hyper":
        if len(args) != 4:
            raise ParseError("hyper needs <pole> <x0> <x1> <coef>", line, col)
        vals = [_parse_number(t, line, c) for t, c in args]
        return Hyper(*vals)
    raise ParseError(f"unknown piece kind {keyword!r}", line, col)


def parse_target_file(path: Union[str, Path]) -> TargetSet:
    return parse_target_text(Path(path).read_text(encoding="utf-8"))


def serialize_target(target: TargetSet, comments: Tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments] + [str(piece) for piece in target.pieces]
    return "\n".join(lines) + "\n"
