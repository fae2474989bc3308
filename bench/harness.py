"""Pure helpers of the lapgap benchmark: op tallies, tail rule, spans, goldens.

Nothing here imports lapgap or numpy, so ``test_harness.py`` checks this
logic on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Tail percentiles, in tenths of a percent.  A run quotes the highest one
# that leaves at least TAIL_BEYOND samples above it.  A fixed ladder keeps
# the quoted percentile the same from run to run while the op count moves
# inside one band.
TAIL_LADDER = (500, 750, 900, 950, 990, 995, 999)
TAIL_BEYOND = 10

# Floats in goldens match within the library's own zero / bound tolerance
# (lapgap.spectral.ZERO_EIG_TOL, lapgap.bounds.BOUND_TOL).
FLOAT_TOL = 1e-7


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest ladder percentile with at least
    TAIL_BEYOND samples strictly beyond it, by nearest rank; None when the
    run holds too few samples for any ladder step."""
    n = len(samples)
    best = None
    for q in TAIL_LADDER:
        if n * (1000 - q) >= TAIL_BEYOND * 1000:
            best = q
    if best is None:
        return None
    ordered = sorted(samples)
    rank = -(-best * n // 1000)  # ceil(best * n / 1000), exact in integers
    return best / 10, ordered[rank - 1]


def another_rotation(elapsed: float, rotations: int, seconds: float) -> bool:
    """Whether a run that has done ``rotations`` whole rotations in
    ``elapsed`` seconds should do one more: only if, at the mean rotation
    time so far, that ends closer to ``seconds`` than stopping now.  A run
    thus holds the whole number of rotations nearest to ``seconds``, and
    its length strays from ``seconds`` by at most half a rotation, however
    long a rotation is."""
    if elapsed >= seconds:
        return False
    next_end = elapsed + elapsed / rotations
    return next_end - seconds < seconds - elapsed


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the steadiness check takes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(med) if med else math.inf
    return med, q1, q3, rel


@dataclass
class Tally:
    """Per-op wall times and failures of one run, grouped by op kind."""

    durations: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    def record(self, kind: str, seconds: float, error: str | None) -> None:
        self.durations.append(seconds)
        self.kinds.append(kind)
        if error is not None:
            self.errors.append((kind, error))

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def per_kind_median(self) -> dict[str, float]:
        groups: dict[str, list[float]] = defaultdict(list)
        for k, d in zip(self.kinds, self.durations):
            groups[k].append(d)
        return {k: statistics.median(v) for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# spans: (sid, name, start, end, parent) with parent None at a root


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children[sid])
        for sid, _name, start, end, _parent in spans
    }


def outermost(spans: Sequence[tuple]) -> list[tuple]:
    """Spans with no ancestor of the same name (a recursive or nested call of
    the same layer is part of its outer call)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        parent = s[4]
        nested = False
        while parent is not None:
            p = by_id[parent]
            if p[1] == s[1]:
                nested = True
                break
            parent = p[4]
        if not nested:
            out.append(s)
    return out


def busy_by_name(spans: Sequence[tuple]) -> dict[str, tuple[float, int]]:
    """name -> (busy seconds, calls), counting outermost spans only."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for _sid, name, start, end, _parent in outermost(spans):
        out[name][0] += end - start
        out[name][1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def stage_coverage(spans: Sequence[tuple], root: int) -> tuple[float, float]:
    """(op wall, sum of its stages' self times) for the tree under ``root``."""
    selfs = self_times(spans)
    by_parent: dict[int, list[int]] = defaultdict(list)
    wall = 0.0
    for sid, _name, start, end, parent in spans:
        if sid == root:
            wall = end - start
        if parent is not None:
            by_parent[parent].append(sid)
    total = 0.0
    todo = list(by_parent[root])
    while todo:
        sid = todo.pop()
        total += selfs[sid]
        todo.extend(by_parent[sid])
    return wall, total


def redundancy(composite_s: float, stages_s: float) -> float:
    """Composite busy time over the sum of its stages each run once; 0 with no base."""
    return composite_s / stages_s if stages_s > 0 else 0.0


# ---------------------------------------------------------------------------
# goldens


def digest(obj) -> str:
    """Short stable hash of a JSON-able value; equal hashes mean equal values."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def compare(expected, got, path: str = "$") -> str | None:
    """First difference between a golden and a result, or None.

    Booleans, integers and strings match exactly; floats within FLOAT_TOL
    (absolute, plus the same share of the magnitude); containers by
    structure.
    """
    if isinstance(expected, bool) or isinstance(got, bool):
        return None if expected is got else f"{path}: expected {expected!r}, got {got!r}"
    if isinstance(expected, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(expected, (int, float)):
            return f"{path}: expected {expected!r}, got {got!r}"
        if abs(got - expected) <= FLOAT_TOL * (1 + abs(expected)):
            return None
        return f"{path}: expected {expected!r}, got {got!r}"
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return f"{path}: expected keys {sorted(expected)}, got {got!r}"
        for key in sorted(expected):
            diff = compare(expected[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(expected) != len(got):
            return f"{path}: expected {len(expected)} items, got {got!r}"
        for i, (e, g) in enumerate(zip(expected, got)):
            diff = compare(e, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(expected) is not type(got) or expected != got:
        return f"{path}: expected {expected!r}, got {got!r}"
    return None


def check_golden(goldens: dict, key: str, got) -> str | None:
    """Compare ``got`` with the golden recorded under ``key``."""
    if key not in goldens:
        return f"no golden recorded for {key!r}"
    return compare(goldens[key], got)
