"""Schedule data model shared by all All-reduce builders and executors.

Semantics
---------

A :class:`Schedule` is executed step by step; steps are bulk-synchronous
barriers (the paper's model: MRRs reconfigure between steps, and a step
completes when its slowest transfer completes). Within one step every
:class:`Transfer` reads the *pre-step* contents of its source buffer, so
symmetric exchanges (recursive doubling, all-to-all) are well-defined.

A transfer moves the element range ``[lo, hi)`` of the source node's vector
to the destination, where it is combined according to ``op``:

- ``"sum"``  — destination accumulates (``dst[lo:hi] += src[lo:hi]``),
- ``"copy"`` — destination overwrites (``dst[lo:hi] = src[lo:hi]``).

Steps as arrays
---------------

A :class:`CommStep` holds its transfers as five parallel int64/int8 arrays
(``src``, ``dst``, ``lo``, ``hi``, ``op`` codes into :data:`OPS`). The
registered builders other than DBTree (:mod:`repro.collectives.structure`)
build each (algorithm, N, knobs) step structure once and instantiate it per
payload by array arithmetic, so a schedule that is only priced never creates a
:class:`Transfer`: the ``transfers`` tuple is a view built from the arrays
on first read and then kept. A step can still be constructed from a
``Transfer`` tuple (``CommStep(transfers, stage, level)``); its arrays are
then derived on first use. Either way, equality and hashing are defined by
(transfers, stage, level).

Timing profiles
---------------

Materializing every step of Ring All-reduce at N=4096 would allocate ~33M
transfer objects. Since timing depends only on each step's communication
*pattern* (who sends how many bytes to whom), builders also expose
``timing_profile``: a list of ``(CommStep, repeat_count)`` pairs with one
representative step per run of identical-pattern steps. Executors consume
the profile; the numerical verifier consumes the exact materialized steps
(built only for sizes where that is cheap).

The pattern key (:meth:`CommStep.pattern_key`) is the bytes of the step's
(src, dst, n_elems, op) rows as int64 in lexicographic order, computed once
per step. Two keys are equal exactly when the steps move the same multiset
of (src, dst, size, op) transfers.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator, Literal, Sequence

import numpy as np

from repro.check.intervals import Claim
from repro.util.validation import check_positive_int

Op = Literal["sum", "copy"]

#: Op names by code: a step's ``op`` array holds indices into this tuple.
OPS: tuple[Op, ...] = ("sum", "copy")
SUM, COPY = 0, 1


@dataclass(frozen=True)
class Transfer:
    """One point-to-point transfer of an element range.

    Attributes:
        src: Sending node id.
        dst: Receiving node id.
        lo: First element index (inclusive).
        hi: Last element index (exclusive).
        op: How the destination combines the payload (``sum``/``copy``).
    """

    src: int
    dst: int
    lo: int
    hi: int
    op: Op = "sum"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-transfer at node {self.src}")
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"bad element range [{self.lo}, {self.hi})")
        if self.op not in ("sum", "copy"):
            raise ValueError(f"op must be 'sum' or 'copy', got {self.op!r}")

    @property
    def n_elems(self) -> int:
        """Number of vector elements moved."""
        return self.hi - self.lo

    def write_claim(self) -> Claim:
        """This transfer's destination write as an interval claim.

        The claim resource is the destination node; ``sum`` writes are
        combinable (they commute), ``copy`` writes are exclusive. The
        shared interval engine (:mod:`repro.check.intervals`) consumes
        these for conflict detection in the numerical executor and the
        static plan verifier alike.
        """
        return Claim(
            resource=self.dst,
            lo=self.lo,
            hi=self.hi,
            owner=self,
            combinable=self.op == "sum",
        )


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with its writeable flag cleared (returned for chaining)."""
    array.flags.writeable = False
    return array


def check_rows(src, dst, lo, hi, op) -> None:
    """Raise what ``Transfer.__post_init__`` would for the first bad row."""
    bad = (src == dst) | (lo < 0) | (lo > hi) | (op < 0) | (op >= len(OPS))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if src[i] == dst[i]:
        raise ValueError(f"self-transfer at node {int(src[i])}")
    if not 0 <= lo[i] <= hi[i]:
        raise ValueError(f"bad element range [{int(lo[i])}, {int(hi[i])})")
    raise ValueError(f"op must be 'sum' or 'copy', got {int(op[i])!r}")


class CommStep:
    """One bulk-synchronous step of concurrent transfers.

    Attributes:
        transfers: Concurrent transfers; a destination may receive multiple
            ``sum`` transfers in one step (WRHT group collect), but at most
            one ``copy`` per overlapping range (checked by the verifier).
            On an array-built step this is a view made on first read.
        stage: ``"reduce"``, ``"broadcast"`` or ``"exchange"`` — used for
            reporting and assertions, not semantics.
        level: Hierarchy level (1-based) for tree/WRHT steps, 0 otherwise.
        src, dst, lo, hi: The transfers' fields as read-only int64 arrays.
        op: Read-only int8 op codes (indices into :data:`OPS`).
    """

    __slots__ = (
        "stage", "level", "_transfers", "_src", "_dst", "_lo", "_hi", "_op", "_key",
    )

    def __init__(
        self, transfers: Sequence[Transfer], stage: str = "reduce", level: int = 0
    ) -> None:
        transfers = tuple(transfers)
        if not transfers:
            raise ValueError("a CommStep needs at least one transfer")
        self._init(stage, level, transfers, None, None, None, None, None)

    def _init(self, stage, level, transfers, src, dst, lo, hi, op) -> None:
        setter = object.__setattr__
        setter(self, "stage", stage)
        setter(self, "level", level)
        setter(self, "_transfers", transfers)
        setter(self, "_src", src)
        setter(self, "_dst", dst)
        setter(self, "_lo", lo)
        setter(self, "_hi", hi)
        setter(self, "_op", op)
        setter(self, "_key", None)

    @classmethod
    def from_arrays(
        cls, src, dst, lo, hi, op, stage: str = "reduce", level: int = 0
    ) -> "CommStep":
        """A step from parallel transfer arrays (``op`` as :data:`OPS` codes).

        Raises:
            ValueError: No transfers, mismatched lengths, or a row that
                :class:`Transfer` would reject (same message).
        """
        src, dst, lo, hi = (
            read_only(np.array(a, dtype=np.int64)) for a in (src, dst, lo, hi)
        )
        op = read_only(np.array(op, dtype=np.int8))
        if src.ndim != 1 or not all(a.shape == src.shape for a in (dst, lo, hi, op)):
            raise ValueError("transfer arrays must be 1-D and equally long")
        if not len(src):
            raise ValueError("a CommStep needs at least one transfer")
        check_rows(src, dst, lo, hi, op)
        return cls._of(src, dst, lo, hi, op, stage, level)

    @classmethod
    def _of(cls, src, dst, lo, hi, op, stage, level) -> "CommStep":
        """An array step from already-checked read-only arrays."""
        step = cls.__new__(cls)
        step._init(stage, level, None, src, dst, lo, hi, op)
        return step

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (
            CommStep.from_arrays,
            (self.src, self.dst, self.lo, self.hi, self.op, self.stage, self.level),
        )

    def __repr__(self) -> str:
        return (
            f"CommStep(transfers={self.transfers!r}, stage={self.stage!r}, "
            f"level={self.level!r})"
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        return (
            self.stage == other.stage
            and self.level == other.level
            and self.n_transfers == other.n_transfers
            and all(
                np.array_equal(a, b)
                for a, b in zip(self._arrays(), other._arrays())
            )
        )

    def __hash__(self) -> int:
        rows = np.stack(self._arrays()[:4], axis=1)
        return hash((rows.tobytes(), self.op.tobytes(), self.stage, self.level))

    # -- the two views ------------------------------------------------------
    @property
    def transfers(self) -> tuple[Transfer, ...]:
        """The transfers as objects (built from the arrays on first read)."""
        transfers = self._transfers
        if transfers is None:
            transfers = tuple(map(
                Transfer,
                self._src.tolist(), self._dst.tolist(),
                self._lo.tolist(), self._hi.tolist(),
                [OPS[code] for code in self._op.tolist()],
            ))
            object.__setattr__(self, "_transfers", transfers)
        return transfers

    def _arrays(self) -> tuple[np.ndarray, ...]:
        """``(src, dst, lo, hi, op)``, derived from the transfers once."""
        if self._src is None:
            transfers = self._transfers
            rows = read_only(np.array(
                [(t.src, t.dst, t.lo, t.hi) for t in transfers], dtype=np.int64
            ))
            ops = read_only(np.array(
                [OPS.index(t.op) for t in transfers], dtype=np.int8
            ))
            for name, column in zip(("_src", "_dst", "_lo", "_hi"), rows.T):
                object.__setattr__(self, name, column)
            object.__setattr__(self, "_op", ops)
        return self._src, self._dst, self._lo, self._hi, self._op

    @property
    def src(self) -> np.ndarray:
        """Sending node ids."""
        return self._arrays()[0]

    @property
    def dst(self) -> np.ndarray:
        """Receiving node ids."""
        return self._arrays()[1]

    @property
    def lo(self) -> np.ndarray:
        """First element indices (inclusive)."""
        return self._arrays()[2]

    @property
    def hi(self) -> np.ndarray:
        """Last element indices (exclusive)."""
        return self._arrays()[3]

    @property
    def op(self) -> np.ndarray:
        """Op codes (indices into :data:`OPS`)."""
        return self._arrays()[4]

    @property
    def n_elems(self) -> np.ndarray:
        """Elements each transfer moves, as an int64 array."""
        _, _, lo, hi, _ = self._arrays()
        return hi - lo

    @property
    def n_transfers(self) -> int:
        """Number of concurrent transfers."""
        if self._src is not None:
            return len(self._src)
        return len(self._transfers)

    def total_elems(self) -> int:
        """Sum of element counts across transfers (for byte accounting)."""
        return int(self.n_elems.sum())

    def pattern_key(self) -> bytes:
        """Hashable key identifying the step's timing-relevant pattern.

        Two steps with the same key take exactly the same time on any of the
        substrates: same (src, dst, size, op) multiset. Element *positions*
        are deliberately excluded — a Ring reduce-scatter step moving chunk
        ``c`` costs the same as one moving chunk ``c+1``. The key is the
        bytes of the int64 (src, dst, n_elems, op) rows in lexicographic
        order, computed once per step.
        """
        key = self._key
        if key is None:
            src, dst, lo, hi, op = self._arrays()
            rows = np.stack((src, dst, hi - lo, op.astype(np.int64)), axis=1)
            key = rows[np.lexsort(rows.T[::-1])].tobytes()
            object.__setattr__(self, "_key", key)
        return key

    def write_claims(self) -> list[Claim]:
        """Dataflow metadata: every non-empty transfer's destination claim.

        The static verifier's conflict and conservation rules consume this
        instead of re-deriving write sets from raw transfers.
        """
        return [t.write_claim() for t in self.transfers if t.n_elems > 0]

    def reads_by_node(self) -> dict[int, list[Transfer]]:
        """Dataflow metadata: transfers grouped by the node they read from.

        All reads observe pre-step state (bulk-synchronous semantics), so
        this grouping fully describes what a step consumes.
        """
        by_src: dict[int, list[Transfer]] = {}
        for t in self.transfers:
            if t.n_elems > 0:
                by_src.setdefault(t.src, []).append(t)
        return by_src


@dataclass
class Schedule:
    """A complete All-reduce schedule plus its compressed timing profile.

    Attributes:
        algorithm: Builder name (``"ring"``, ``"wrht"``, ...).
        n_nodes: Number of participating nodes.
        total_elems: Length of the gradient vector being reduced.
        steps: Materialized steps (may be ``None`` at large scale).
        timing_profile: ``(representative_step, count)`` pairs covering the
            whole schedule in order.
        meta: Builder-specific extras (e.g. the :class:`WrhtPlan`).
    """

    algorithm: str
    n_nodes: int
    total_elems: int
    steps: list[CommStep] | None
    timing_profile: list[tuple[CommStep, int]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int("n_nodes", self.n_nodes)
        check_positive_int("total_elems", self.total_elems)
        if not self.timing_profile and self.n_nodes > 1:
            raise ValueError("schedule must have a timing profile")

    @property
    def n_steps(self) -> int:
        """Total communication steps."""
        return sum(count for _, count in self.timing_profile)

    def lowering_profile(self) -> Iterator[tuple[CommStep, int, bytes]]:
        """The stable lowering entry point backends consume.

        Yields ``(representative_step, count, pattern_key)`` triples in
        schedule order — the timing profile with each entry's pattern key
        precomputed, so every backend deduplicates identically. Only this
        module knows the key's form; backends use it as an opaque hashable.
        """
        for step, count in self.timing_profile:
            yield step, count, step.pattern_key()

    def iter_steps(self) -> Iterator[CommStep]:
        """Iterate materialized steps (requires ``steps`` to be present)."""
        if self.steps is None:
            raise RuntimeError(
                f"{self.algorithm} schedule was built without materialized "
                "steps (pass materialize=True to the builder)"
            )
        return iter(self.steps)

    def validate_against_profile(self) -> None:
        """Check that materialized steps and timing profile agree.

        Called by tests: step count must match, and each materialized step's
        pattern key must equal its profile representative's.
        """
        if self.steps is None:
            return
        if len(self.steps) != self.n_steps:
            raise AssertionError(
                f"{self.algorithm}: {len(self.steps)} materialized steps vs "
                f"profile total {self.n_steps}"
            )
        idx = 0
        for rep, count in self.timing_profile:
            key = rep.pattern_key()
            for _ in range(count):
                actual = self.steps[idx].pattern_key()
                if actual != key:
                    raise AssertionError(
                        f"{self.algorithm}: step {idx} pattern differs from "
                        "its profile representative"
                    )
                idx += 1


def compress_steps(steps: Sequence[CommStep]) -> list[tuple[CommStep, int]]:
    """Run-length encode consecutive steps with identical pattern keys."""
    profile: list[tuple[CommStep, int]] = []
    prev_key = None
    for step in steps:
        key = step.pattern_key()
        if profile and key == prev_key:
            rep, count = profile[-1]
            profile[-1] = (rep, count + 1)
        else:
            profile.append((step, 1))
            prev_key = key
    return profile


def singleton_schedule(algorithm: str, total_elems: int) -> Schedule:
    """The degenerate 1-node schedule: nothing to communicate."""
    return Schedule(
        algorithm=algorithm,
        n_nodes=1,
        total_elems=total_elems,
        steps=[],
        timing_profile=[],
    )
