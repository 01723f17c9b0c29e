"""Full-answer digest: SHA-256 over every sorted ``(s, t, u, v, value)`` entry.

A replacement-path answer is a set of entries ``(source, target, failed
edge (u, v), length)``.  Lengths are integers (the graph is unweighted)
or "unreachable", which has the single canonical encoding ``inf``.  The
digest therefore changes whenever any entry changes — including a swap
of two entries' values, which the older ``(count, finite sum, inf
count)`` fingerprint cannot see (:func:`self_test` shows both).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Mapping, Tuple

Entry = Tuple[int, int, Tuple[int, int], float]

#: The one encoding of an unreachable pair.
UNREACHABLE = "inf"


def encode_value(value: float) -> str:
    if value == math.inf:
        return UNREACHABLE
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def answer_digest(entries: Iterable[Entry]) -> str:
    """Hex SHA-256 of the canonical, sorted entry list."""
    rows = sorted(
        (int(s), int(t), min(int(u), int(v)), max(int(u), int(v)), value)
        for s, t, (u, v), value in entries
    )
    h = hashlib.sha256()
    for s, t, u, v, value in rows:
        h.update(f"{s} {t} {u} {v} {encode_value(value)}\n".encode("ascii"))
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of a :class:`~repro.core.result.ReplacementPathResult`."""
    return answer_digest(result.iter_entries())


def nested_digest(answer: Mapping[int, Mapping[int, Mapping[Tuple[int, int], float]]]) -> str:
    """Digest of a nested ``{s: {t: {edge: value}}}`` answer (brute force)."""
    return answer_digest(
        (s, t, e, value)
        for s, per_source in answer.items()
        for t, per_target in per_source.items()
        for e, value in per_target.items()
    )


def sum_fingerprint(entries: Iterable[Entry]) -> Tuple[int, float, int]:
    """The older ``(count, finite sum, inf count)`` fingerprint."""
    count, total, infinite = 0, 0.0, 0
    for _s, _t, _e, value in entries:
        count += 1
        if value == math.inf:
            infinite += 1
        else:
            total += value
    return count, total, infinite


def self_test() -> Tuple[bool, str]:
    """Swap two entries' values of a real answer; the digest must change.

    Returns ``(passed, message)``.  The message also records whether the
    sum fingerprint noticed the swap (it cannot: a swap keeps the count,
    the sum and the number of infinities).
    """
    from repro.core.msrp import MSRPSolver
    from repro.core.params import AlgorithmParams
    from repro.graph.generators import random_connected_graph, random_sources

    graph = random_connected_graph(40, extra_edges=80, seed=5)
    result = MSRPSolver(
        graph, random_sources(graph, 2, seed=5), params=AlgorithmParams(seed=5)
    ).solve()
    entries = list(result.iter_entries())
    first = entries[0]
    second = next(e for e in entries if e[3] != first[3])
    i, j = entries.index(first), entries.index(second)
    swapped = list(entries)
    swapped[i] = first[:3] + (second[3],)
    swapped[j] = second[:3] + (first[3],)
    digest_caught = answer_digest(swapped) != answer_digest(entries)
    sum_caught = sum_fingerprint(swapped) != sum_fingerprint(entries)
    message = (
        f"swap of entries {first[:3]} and {second[:3]}: digest "
        f"{'caught it' if digest_caught else 'MISSED it'}, sum fingerprint "
        f"{'caught it' if sum_caught else 'missed it'}"
    )
    return digest_caught, message
