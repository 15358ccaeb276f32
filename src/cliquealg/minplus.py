"""Shared min-plus value conventions: the infinity sentinel and file formats,
and the line reader behind every text input file (pair, graph, matrix)."""

from __future__ import annotations

import math

import numpy as np

# Sentinel for +infinity.  Finite values stay far below INF/2, so a single
# addition can never wrap and any sum >= INF_THRESHOLD is normalized back.
INF = 1 << 60
INF_THRESHOLD = 1 << 59


def clamp(arr: np.ndarray) -> np.ndarray:
    """Normalize any value that has absorbed infinity back to the sentinel."""
    out = np.asarray(arr, dtype=np.int64).copy()
    out[out >= INF_THRESHOLD] = INF
    return out


def entry_bits(bound_m: int) -> int:
    """Bits needed for a signed entry with |value| <= bound plus the inf flag."""
    return max(1, math.ceil(math.log2(2 * max(1, bound_m) + 2)))


def format_entry(value: int) -> str:
    return "inf" if value >= INF_THRESHOLD else str(int(value))


def parse_entry(token: str) -> int:
    return INF if token.strip().lower() == "inf" else int(token)


def read_records(path, header: str):
    """The header line and the later lines of a text file as (line number,
    fields) pairs, blank lines skipped.  A missing header, or one with another
    number of fields than `header` names, raises ValueError naming path:line."""
    with open(path) as fh:
        lines = [(num, ln.split()) for num, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or len(lines[0][1]) != len(header.split()):
        raise ValueError(f"{path}:{lines[0][0] if lines else 1}: expected header {header!r}")
    return lines[0], lines[1:]


def parse_fields(path, num: int, fields: list[str], parse=int) -> list[int]:
    """The fields of line `num` through `parse`; ValueError naming path:num if one fails."""
    try:
        return [parse(x) for x in fields]
    except ValueError:
        raise ValueError(f"{path}:{num}: expected integers, got {' '.join(fields)!r}") from None


def read_pair_file(path) -> tuple[np.ndarray, np.ndarray, int]:
    """'n m M' header, the n rows of A, then the m rows of B: entries in
    [-M, M] or 'inf'."""
    (head, fields), body = read_records(path, "n m M")
    n, m, bound_m = parse_fields(path, head, fields)
    if n < 1 or m < 1 or bound_m < 0:
        raise ValueError(f"{path}:{head}: need n, m >= 1 and M >= 0")
    if len(body) != n + m:
        raise ValueError(f"{path}: expected {n + m} matrix rows, found {len(body)}")
    rows = []
    for i, (num, fields) in enumerate(body):
        width = m if i < n else n
        if len(fields) != width:
            raise ValueError(f"{path}:{num}: expected {width} entries")
        row = parse_fields(path, num, fields, parse_entry)
        if any(abs(x) > bound_m for x in row if x != INF):
            raise ValueError(f"{path}:{num}: entries must be inf or lie in [-{bound_m}, {bound_m}]")
        rows.append(row)
    return np.array(rows[:n], dtype=np.int64), np.array(rows[n:], dtype=np.int64), bound_m
