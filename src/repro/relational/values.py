"""Value domain for data exchange instances.

Data exchange distinguishes three kinds of values:

* :class:`Constant` — an ordinary database value ("Alice", 42, ...).
  Constants are the values the certain-answer semantics may report and the
  only values homomorphisms must preserve.
* :class:`LabeledNull` — the paper's ``⊥ᵢ``: a placeholder invented by the
  chase for an existentially quantified position.  Two labelled nulls are
  interchangeable under homomorphism; a null may be mapped to any value.
* :class:`SkolemValue` — the deterministic interpretation of a second-order
  function term ``f(a, b)`` used when chasing SO-tgds (the output of the
  composition algorithm).  A Skolem value behaves like a labelled null whose
  identity is *keyed* by the function symbol and its arguments, so that the
  SO-tgd chase is deterministic: chasing ``f(x)`` twice with the same
  argument yields the same value.

All values are immutable and hashable so that tuples, relations and
instances can be set-valued.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Hashable, Iterable, Union


@dataclass(frozen=True, slots=True)
class Constant:
    """An ordinary (non-null) database value.

    The wrapped ``value`` may be any hashable Python scalar; strings and
    integers are typical.  Equality and hashing delegate to the wrapped
    value, tagged by class so a constant never collides with a null.
    """

    value: Hashable

    def __repr__(self) -> str:
        return f"{self.value!r}"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class LabeledNull:
    """A labelled null ``⊥ᵢ`` invented for an existential position.

    ``label`` identifies the null within an instance.  Labels carry no
    semantics beyond identity: a homomorphism may map a labelled null to any
    other value, which is exactly what makes instances with nulls "general".
    """

    label: int

    def __repr__(self) -> str:
        return f"⊥{self.label}"

    def __str__(self) -> str:
        return f"⊥{self.label}"


@dataclass(frozen=True, slots=True)
class SkolemValue:
    """The value of a Skolem function term ``f(a₁, …, aₙ)``.

    Used by the SO-tgd chase: interpreting every function symbol ``f`` as
    the free term algebra makes the chase deterministic and canonical.
    Like a labelled null, a Skolem value is not a constant; homomorphisms
    may map it anywhere.
    """

    function: str
    arguments: tuple["Value", ...]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.arguments)
        return f"{self.function}({args})"

    def __str__(self) -> str:
        return repr(self)


Value = Union[Constant, LabeledNull, SkolemValue]


def is_constant(value: Value) -> bool:
    """Return ``True`` iff *value* is an ordinary constant."""
    return isinstance(value, Constant)


def is_null(value: Value) -> bool:
    """Return ``True`` iff *value* is null-like (labelled null or Skolem).

    This is the complement of :func:`is_constant`; both labelled nulls and
    Skolem values may be freely re-mapped by a homomorphism.
    """
    return isinstance(value, (LabeledNull, SkolemValue))


# Interning cache for Constant wrappers.  Hot paths (row coercion, the
# indexed evaluator's probe keys) hash and compare constants constantly;
# sharing one wrapper per distinct scalar turns most of those equality
# checks into pointer comparisons and stops re-allocating duplicates.
# Keys carry the scalar's type so 1, 1.0 and True keep distinct wrappers
# (they compare equal as dict keys but sort differently).  The cache is
# bounded: past the cap new scalars get fresh, uncached wrappers, so an
# adversarial stream of distinct values cannot grow memory without bound.
_INTERN_CAP = 1 << 16
_interned_constants: dict[tuple[type, Hashable], Constant] = {}


def intern_info() -> tuple[int, int]:
    """``(cached_constants, cap)`` — introspection for tests and benchmarks."""
    return len(_interned_constants), _INTERN_CAP


def constant(value: Hashable) -> Constant:
    """Wrap a raw Python scalar as a :class:`Constant` (interned).

    Idempotent on values that are already :class:`Constant`, and rejects
    nulls so callers cannot accidentally "constantify" a null.  Repeated
    calls with the same scalar return the *same* wrapper object (up to a
    bounded cache size), so hot-path equality and hashing in the indexed
    evaluator stop allocating duplicate constants.
    """
    if isinstance(value, Constant):
        return value
    if isinstance(value, (LabeledNull, SkolemValue)):
        raise TypeError(f"cannot convert null-like value {value!r} to a constant")
    try:
        return _interned_constants[(type(value), value)]
    except KeyError:
        wrapped = Constant(value)
        # 0.0 and -0.0 are one key but print differently: share neither.
        if len(_interned_constants) < _INTERN_CAP and not (
            type(value) is float and value == 0.0
        ):
            _interned_constants[(type(value), value)] = wrapped
        return wrapped
    except TypeError:
        # Unhashable scalars cannot be cache keys (they would fail later
        # anyway when the row lands in a set); preserve the old behaviour.
        return Constant(value)


def constants(values: Iterable[Hashable]) -> tuple[Constant, ...]:
    """Wrap each raw scalar in *values* as a :class:`Constant`."""
    return tuple(constant(v) for v in values)


class NullFactory:
    """A thread-safe supplier of fresh labelled nulls.

    Each factory owns a monotone counter.  The chase uses one factory per
    run so the nulls it invents are fresh with respect to each other; when
    chasing *into* an existing instance, seed the factory past the largest
    label already in use with :meth:`reserve_through`.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def fresh(self) -> LabeledNull:
        """Return a labelled null never produced by this factory before."""
        with self._lock:
            return LabeledNull(next(self._counter))

    def fresh_many(self, count: int) -> tuple[LabeledNull, ...]:
        """Return *count* distinct fresh labelled nulls."""
        return tuple(self.fresh() for _ in range(count))

    def fresh_block(self, count: int) -> int:
        """Reserve *count* consecutive labels; returns the first label.

        One lock acquisition instead of *count* — the SQL backends mint
        nulls in blocks of one per firing × existential, so per-null
        locking would dominate the extract phase at scale.
        """
        with self._lock:
            first = next(self._counter)
            self._counter = itertools.count(first + count)
            return first

    def reserve_through(self, label: int) -> None:
        """Ensure all future nulls have labels strictly greater than *label*."""
        with self._lock:
            current = next(self._counter)
            self._counter = itertools.count(max(current, label + 1))


# Scalar types whose values order natively among themselves; every other
# constant orders by ``repr`` within its type name.
ORDERABLE_SCALARS = (str, int, float, bytes)


def value_sort_key(value: Value) -> tuple:
    """A cheap deterministic sort key over values (no ``repr`` building).

    Constants order before labelled nulls before Skolem values; constants
    order by ``(type name, value)`` so mixed-type domains never compare raw
    values of different types, and non-orderable scalars fall back to their
    ``repr``.  This is the canonical ordering the chase uses for
    deterministic firing — much cheaper than the old sort-by-``repr`` hack
    because the common scalar kinds never stringify.
    """
    if isinstance(value, Constant):
        raw = value.value
        if not isinstance(raw, ORDERABLE_SCALARS):
            raw = repr(raw)
        return (0, type(value.value).__name__, raw)
    if isinstance(value, LabeledNull):
        return (1, "", value.label)
    return (2, value.function, tuple(value_sort_key(a) for a in value.arguments))


def max_null_label(values: Iterable[Value]) -> int:
    """Largest labelled-null label in *values*, or ``-1`` when none occur."""
    best = -1
    for value in values:
        if isinstance(value, LabeledNull) and value.label > best:
            best = value.label
    return best
