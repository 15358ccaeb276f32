"""Shared min-plus value conventions: the infinity sentinel and file formats."""

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


def write_pair_file(path, a: np.ndarray, b: np.ndarray, bound_m: int) -> None:
    """'n m M' header, then the n rows of A followed by the m rows of B."""
    n, m = a.shape
    assert b.shape == (m, n)
    with open(path, "w") as fh:
        fh.write(f"{n} {m} {bound_m}\n")
        for row in a:
            fh.write(" ".join(format_entry(v) for v in row) + "\n")
        for row in b:
            fh.write(" ".join(format_entry(v) for v in row) + "\n")


def read_pair_file(path) -> tuple[np.ndarray, np.ndarray, int]:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    header = tokens[0].split()
    if len(header) != 3:
        raise ValueError(f"{path}: expected 'n m M' header")
    n, m, bound_m = (int(x) for x in header)
    rows = [line.split() for line in tokens[1:] if line.strip()]
    if len(rows) != n + m:
        raise ValueError(f"{path}: expected {n + m} matrix rows, found {len(rows)}")
    a = np.array([[parse_entry(t) for t in rows[i]] for i in range(n)], dtype=np.int64)
    b = np.array([[parse_entry(t) for t in rows[n + i]] for i in range(m)], dtype=np.int64)
    if a.shape != (n, m) or b.shape != (m, n):
        raise ValueError(f"{path}: row lengths do not match the header")
    return a, b, bound_m
