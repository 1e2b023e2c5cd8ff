"""Ternary strings over the alphabet {0, 1, *}.

A string of length d encodes an axis-aligned box in R^d built from the
three intervals [-1,0], [0,1], [-1,1], or equivalently a subcube of the
binary cube {0,1}^d: the joker symbol ``*`` leaves a coordinate free.

Strings are stored as two disjoint coordinate bit-sets (zeros and ones);
joker positions are implicit.  With that layout the distance between two
strings -- the number of coordinates where one has 0 and the other 1 --
is two mask intersections and a popcount, which is the hot path of the
exact search.  Masks are plain Python integers, so any length works and
all counts stay exact.

Coordinates are 1-based in every public interface (bit i-1 of a mask
corresponds to coordinate i).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

SYMBOLS = "01*"


def _mask_from_coords(length: int, coords) -> int:
    mask = 0
    for i in coords:
        if not 1 <= i <= length:
            raise ValueError(f"coordinate {i} out of range 1..{length}")
        mask |= 1 << (i - 1)
    return mask


def _drop(mask: int, c: int) -> int:
    """Delete bit c of a mask, shifting the higher bits down by one."""
    low = (1 << c) - 1
    return (mask & low) | ((mask >> 1) & ~low)


_set = object.__setattr__


class _Record:
    """Base of nbx's immutable records.  A record names its fields in
    ``__slots__`` and writes them in ``__init__`` with ``_init``.  ``repr``
    and pickling read every field in that order; ``==`` and ``hash`` read
    the ``compare`` fields given to the class, by default all of them."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        cls._fields = attrgetter(*cls.__slots__)
        cls._key = attrgetter(*(compare or cls.__slots__))

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class TernaryString(_Record):
    """An immutable word over {0, 1, *} of a fixed length.

    ``zero_mask`` and ``one_mask`` are disjoint bit-sets of coordinates
    carrying 0 and 1; every other coordinate carries the joker.
    """

    __slots__ = ("length", "zero_mask", "one_mask")

    def __init__(self, length: int, zero_mask: int, one_mask: int):
        # written out, not by _init: a word is built per candidate and per parse
        _set(self, "length", length)
        _set(self, "zero_mask", zero_mask)
        _set(self, "one_mask", one_mask)
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        full = (1 << self.length) - 1
        if self.zero_mask & ~full or self.one_mask & ~full:
            raise ValueError("mask bits outside 1..length")
        if self.zero_mask & self.one_mask:
            raise ValueError("zeros and ones must be disjoint")

    # -- construction ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "TernaryString":
        """Parse a word like ``"01*"``; inverse of ``str``."""
        if not text:
            raise ValueError("empty string")
        zeros = ones = 0
        for pos, ch in enumerate(text):
            if ch == "0":
                zeros |= 1 << pos
            elif ch == "1":
                ones |= 1 << pos
            elif ch != "*":
                raise ValueError(f"illegal character {ch!r} at position {pos + 1}")
        return cls(len(text), zeros, ones)

    @classmethod
    def from_coords(cls, length: int, zeros=(), ones=()) -> "TernaryString":
        """Build from 1-based coordinate collections."""
        return cls(length, _mask_from_coords(length, zeros), _mask_from_coords(length, ones))

    # -- presentation ------------------------------------------------

    def __str__(self) -> str:
        out = []
        for pos in range(self.length):
            bit = 1 << pos
            if self.zero_mask & bit:
                out.append("0")
            elif self.one_mask & bit:
                out.append("1")
            else:
                out.append("*")
        return "".join(out)

    def __repr__(self) -> str:
        return f"TernaryString({str(self)!r})"

    # -- basic structure ----------------------------------------------

    @property
    def prop_mask(self) -> int:
        """Bit-set of non-joker coordinates."""
        return self.zero_mask | self.one_mask

    @property
    def joker_mask(self) -> int:
        return ~self.prop_mask & ((1 << self.length) - 1)

    @property
    def jokers(self) -> int:
        """Number of joker coordinates; dimension of the subcube."""
        return self.length - self.prop_mask.bit_count()

    @property
    def is_binary(self) -> bool:
        return self.prop_mask == (1 << self.length) - 1

    @property
    def sign(self) -> int:
        """-1 if the number of 1 coordinates is odd, else +1."""
        return -1 if self.one_mask.bit_count() & 1 else 1

    def zeros(self) -> frozenset[int]:
        """1-based coordinates carrying 0."""
        return frozenset(i + 1 for i in range(self.length) if self.zero_mask >> i & 1)

    def ones(self) -> frozenset[int]:
        """1-based coordinates carrying 1."""
        return frozenset(i + 1 for i in range(self.length) if self.one_mask >> i & 1)

    def prop_set(self) -> frozenset[int]:
        """1-based non-joker coordinates."""
        return self.zeros() | self.ones()

    def symbol(self, i: int) -> str:
        """Symbol at 1-based coordinate i."""
        if not 1 <= i <= self.length:
            raise ValueError(f"coordinate {i} out of range 1..{self.length}")
        bit = 1 << (i - 1)
        if self.zero_mask & bit:
            return "0"
        if self.one_mask & bit:
            return "1"
        return "*"

    # -- distances ----------------------------------------------------

    def distance(self, other: "TernaryString") -> int:
        """Count coordinates where one string has 0 and the other 1."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        conflict = (self.zero_mask & other.one_mask) | (self.one_mask & other.zero_mask)
        return conflict.bit_count()

    def hamming(self, other: "TernaryString") -> int:
        """Hamming distance; both strings must be joker-free."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        if not (self.is_binary and other.is_binary):
            raise ValueError("hamming distance requires joker-free strings")
        return (self.one_mask ^ other.one_mask).bit_count()

    # -- twins ----------------------------------------------------------

    def is_twin(self, other: "TernaryString") -> bool:
        """True iff the strings conflict at exactly one coordinate and agree
        (jokers included) everywhere else."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        if self.prop_mask != other.prop_mask:
            return False
        conflict = (self.zero_mask & other.one_mask) | (self.one_mask & other.zero_mask)
        return conflict.bit_count() == 1

    def twin_union(self, other: "TernaryString") -> "TernaryString":
        """Replace the single conflicting coordinate of a twin pair by a joker."""
        if not self.is_twin(other):
            raise ValueError(f"{self} and {other} are not a twin pair")
        conflict = (self.zero_mask & other.one_mask) | (self.one_mask & other.zero_mask)
        return TernaryString(self.length, self.zero_mask & ~conflict, self.one_mask & ~conflict)

    # -- structural edits ------------------------------------------------

    def concat(self, *others: "TernaryString") -> "TernaryString":
        """This word, then each of ``others`` in turn, from the lowest coordinate."""
        length, zeros, ones = self.length, self.zero_mask, self.one_mask
        for w in others:
            zeros |= w.zero_mask << length
            ones |= w.one_mask << length
            length += w.length
        return TernaryString(length, zeros, ones)

    def __add__(self, other: "TernaryString") -> "TernaryString":
        return self.concat(other)

    def delete(self, i: int) -> "TernaryString":
        """Drop 1-based coordinate i, shifting later coordinates down."""
        if not 1 <= i <= self.length:
            raise ValueError(f"coordinate {i} out of range 1..{self.length}")
        c = i - 1
        return TernaryString(self.length - 1, _drop(self.zero_mask, c), _drop(self.one_mask, c))

    # -- subcube view ------------------------------------------------------

    def contains(self, v: "TernaryString") -> bool:
        """True iff binary string v lies in this string's subcube."""
        if self.length != v.length:
            raise ValueError("length mismatch")
        if not v.is_binary:
            raise ValueError("membership is defined for joker-free strings")
        return not ((v.one_mask & self.zero_mask) | (v.zero_mask & self.one_mask))

    def subcube(self) -> Iterator["TernaryString"]:
        """Yield the binary strings of the subcube (jokers expanded)."""
        full = (1 << self.length) - 1
        jm = self.joker_mask
        # iterate all submasks of the joker mask, including 0
        sub = jm
        while True:
            ones = self.one_mask | sub
            yield TernaryString(self.length, full & ~ones, ones)
            if sub == 0:
                break
            sub = (sub - 1) & jm


def parse(text: str) -> TernaryString:
    """Module-level alias for :meth:`TernaryString.parse`."""
    return TernaryString.parse(text)


def all_jokers(d: int) -> TernaryString:
    return TernaryString(d, 0, 0)


def all_binary(d: int) -> Iterator[TernaryString]:
    """All 2^d joker-free strings, in increasing order of their 1-sets."""
    full = (1 << d) - 1
    for ones in range(1 << d):
        yield TernaryString(d, full & ~ones, ones)


def all_strings(d: int) -> Iterator[TernaryString]:
    """All 3^d strings of length d (beware the growth)."""
    for prop in range(1 << d):
        # ones must be a submask of the non-joker set
        sub = prop
        while True:
            yield TernaryString(d, prop & ~sub, sub)
            if sub == 0:
                break
            sub = (sub - 1) & prop
