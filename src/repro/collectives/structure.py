"""Payload-free schedule structures, built once and instantiated per payload.

Which node sends to which, with which op, and which chunk boundaries
delimit each transfer depends on N and a builder's knobs only (Table 1's
step structure depends on N, m and w; Swing's peers and SCRing's arcs on N
alone). The payload ``d`` enters only through the boundaries' values. So a
builder describes its schedule once as a :class:`Structure`:

- per step, read-only arrays of ``src``, ``dst`` and the op code, plus two
  index arrays (``lo_ref``, ``hi_ref``) into a small vector of element
  offsets, the :class:`PointLayout`: ``0``, ``d``, the ``n + 1`` edges of
  ``n`` balanced chunks (:func:`~repro.collectives.ring.chunk_bounds`) and
  uniform profile chunks ``min(k·min(⌈d/n⌉, d), d)``;
- the materialized step list and the timing profile as step indices.

:func:`instantiate` turns a structure into a schedule's steps for one
payload with array arithmetic only: evaluate the offsets, gather ``lo`` and
``hi`` for every transfer in one indexing pass, and wrap each step's slices
in a :class:`~repro.collectives.base.CommStep` that shares the structure's
read-only arrays. No :class:`~repro.collectives.base.Transfer` is created.

Structures live in a bounded LRU memo (:func:`memoized`, :data:`MEMO_SIZE`
entries) keyed by (algorithm, N, resolved ``materialize``, builder knobs).
Only read-only arrays and frozen objects are shared between builds: every
build gets its own ``CommStep`` objects, lists and ``meta`` dict.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.collectives.base import CommStep, compress_steps, read_only

#: Point indices every :class:`PointLayout` starts with: ``0`` and ``d``.
ZERO, TOTAL = 0, 1

#: Structures the memo keeps (oldest dropped first). Every paper workload
#: needs at most a few dozen.
MEMO_SIZE = 64


class PointLayout:
    """The payload-dependent element offsets a structure's refs index.

    Each ``edges``/``chunk`` call registers its term once and returns the
    term's first index; :func:`evaluate_points` computes the values for a
    payload in registration order.
    """

    def __init__(self) -> None:
        self.terms: list[tuple] = []
        self._offsets: dict[tuple, int] = {}
        self.size = 2

    def _add(self, term: tuple, width: int) -> int:
        offset = self._offsets.get(term)
        if offset is None:
            offset = self._offsets[term] = self.size
            self.terms.append(term)
            self.size += width
        return offset

    def edges(self, n_chunks: int) -> int:
        """Index of edge 0 of ``n_chunks`` balanced chunks (``n + 1`` edges)."""
        return self._add(("edges", n_chunks), n_chunks + 1)

    def chunk(self, n_chunks: int, mult: int = 1) -> int:
        """Index of the uniform size ``min(mult·min(⌈d/n⌉, d), d)``."""
        return self._add(("chunk", n_chunks, mult), 1)


def evaluate_points(terms: Sequence[tuple], total: int) -> np.ndarray:
    """The layout's offsets for payload ``total``, as int64.

    Edges equal :func:`~repro.collectives.ring.chunk_bounds`' (the first
    ``d mod n`` chunks get one extra element); chunk sizes use the same
    ``math.ceil(d / n)`` the uniform profiles always used.
    """
    parts = [np.array([0, total], dtype=np.int64)]
    for term in terms:
        if term[0] == "edges":
            n = term[1]
            base, extra = divmod(total, n)
            idx = np.arange(n + 1, dtype=np.int64)
            parts.append(idx * base + np.minimum(idx, extra))
        else:
            _, n, mult = term
            chunk = min(math.ceil(total / n), total)
            parts.append(np.array([min(mult * chunk, total)], dtype=np.int64))
    return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class StepShape:
    """One step without its payload: endpoints, op codes and labels."""

    src: np.ndarray
    dst: np.ndarray
    op: np.ndarray
    stage: str
    level: int


@dataclass(frozen=True, eq=False)
class Structure:
    """A schedule's payload-free structure (see the module docstring).

    Attributes:
        terms: The :class:`PointLayout` terms the refs index.
        shapes: Every step shape the schedule may instantiate.
        lo_ref, hi_ref: Point indices of every shape's transfers,
            concatenated in shape order.
        bounds: ``shapes[i]``'s transfers are ``lo_ref[bounds[i]:bounds[i+1]]``.
        steps: Shape indices of the full step list, or ``None``.
        profile: ``(shape index, count)`` runs, or ``None`` to run-length
            encode the instantiated ``steps`` by pattern key per payload.
        keep_steps: Whether a schedule carries ``steps`` (materialized).
        extras: Frozen builder data shared by every build (e.g. a plan).
    """

    terms: tuple
    shapes: tuple[StepShape, ...]
    lo_ref: np.ndarray
    hi_ref: np.ndarray
    bounds: tuple[int, ...]
    steps: tuple[int, ...] | None
    profile: tuple[tuple[int, int], ...] | None
    keep_steps: bool
    extras: Any = None


class Draft:
    """Collects step shapes while a builder describes its structure."""

    def __init__(self) -> None:
        self.layout = PointLayout()
        self._shapes: list[tuple] = []
        self._lo: list[np.ndarray] = []
        self._hi: list[np.ndarray] = []

    def add(self, src, dst, lo_ref, hi_ref, op: int, stage: str, level: int = 0) -> int:
        """Add one step; ``lo_ref``/``hi_ref`` are point indices (arrays
        or scalars). Pass the same ``src``/``dst`` array objects to share
        them between steps. Returns the step's shape index."""
        src = read_only(np.asarray(src, dtype=np.int64))
        dst = read_only(np.asarray(dst, dtype=np.int64))
        size = src.shape
        self._lo.append(np.broadcast_to(np.asarray(lo_ref, dtype=np.int32), size))
        self._hi.append(np.broadcast_to(np.asarray(hi_ref, dtype=np.int32), size))
        self._shapes.append((src, dst, op, stage, level))
        return len(self._shapes) - 1

    def finish(
        self,
        steps: Sequence[int] | None,
        profile: Sequence[tuple[int, int]] | None,
        keep_steps: bool,
        extras: Any = None,
    ) -> Structure:
        """Check the endpoints and drop the shapes no build can reach.

        ``profile=None`` run-length encodes ``steps`` per payload (see
        :func:`instantiate`).

        Raises:
            ValueError: A self-transfer, with ``Transfer``'s message.
        """
        for src, dst, *_ in self._shapes:
            same = src == dst
            if same.any():
                raise ValueError(f"self-transfer at node {int(src[np.argmax(same)])}")
        # Shapes the schedule can reach: the step list when it is kept or
        # compressed per payload, and the profile representatives.
        use_steps = steps is not None and (keep_steps or profile is None)
        ordered = sorted(
            set(steps if use_steps else ()) | {index for index, _ in profile or ()}
        )
        remap = {old: new for new, old in enumerate(ordered)}
        shapes = []
        for old in ordered:
            src, dst, op, stage, level = self._shapes[old]
            op_codes = np.broadcast_to(np.int8(op), src.shape)
            shapes.append(StepShape(src, dst, op_codes, stage, level))
        lengths = [len(shape.src) for shape in shapes]
        return Structure(
            terms=tuple(self.layout.terms),
            shapes=tuple(shapes),
            lo_ref=read_only(np.concatenate([self._lo[i] for i in ordered])),
            hi_ref=read_only(np.concatenate([self._hi[i] for i in ordered])),
            bounds=(0, *np.cumsum(lengths).tolist()),
            steps=tuple(remap[i] for i in steps) if use_steps else None,
            profile=(
                tuple((remap[i], count) for i, count in profile)
                if profile is not None else None
            ),
            keep_steps=keep_steps,
            extras=extras,
        )


def instantiate(
    structure: Structure, total: int
) -> tuple[list[CommStep] | None, list[tuple[CommStep, int]]]:
    """``(steps, timing_profile)`` of ``structure`` for payload ``total``.

    Raises:
        ValueError: A transfer range ``Transfer`` would reject, with its
            message (the builders never produce one).
    """
    points = evaluate_points(structure.terms, total)
    lo = points[structure.lo_ref]
    hi = points[structure.hi_ref]
    bad = (lo < 0) | (lo > hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"bad element range [{int(lo[i])}, {int(hi[i])})")
    read_only(lo)
    read_only(hi)
    bounds = structure.bounds
    made = [
        CommStep._of(
            shape.src, shape.dst, lo[bounds[i]:bounds[i + 1]],
            hi[bounds[i]:bounds[i + 1]], shape.op, shape.stage, shape.level,
        )
        for i, shape in enumerate(structure.shapes)
    ]
    steps = None
    if structure.steps is not None:
        steps = [made[i] for i in structure.steps]
    if structure.profile is None:
        profile = compress_steps(steps)
    else:
        profile = [(made[i], count) for i, count in structure.profile]
    return (steps if structure.keep_steps else None), profile


_memo: OrderedDict[Hashable, Structure] = OrderedDict()
_memo_lock = threading.Lock()


def memoized(key: Hashable, build: Callable[[], Structure]) -> Structure:
    """The memo's structure for ``key``, built by ``build()`` on a miss.

    A build that raises is not kept, so the next call raises again.
    """
    with _memo_lock:
        structure = _memo.get(key)
        if structure is not None:
            _memo.move_to_end(key)
            return structure
    structure = build()
    with _memo_lock:
        _memo[key] = structure
        while len(_memo) > MEMO_SIZE:
            _memo.popitem(last=False)
    return structure


def clear_memo() -> None:
    """Drop every memoized structure (for measurements and tests)."""
    with _memo_lock:
        _memo.clear()
