"""Exact half-integer values, stored as a doubled integer."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True, order=True)
class HalfInt:
    """Value ``doubled / 2`` with exact integer arithmetic."""

    doubled: int

    def __post_init__(self):
        if not isinstance(self.doubled, (int,)):
            raise ParameterError("HalfInt requires an integer 'doubled' field")

    @staticmethod
    def from_int(k: int) -> "HalfInt":
        return HalfInt(2 * int(k))

    @staticmethod
    def from_float(x: float, guard: float = 0.1) -> "HalfInt":
        doubled = round(2 * x)
        if abs(2 * x - doubled) > 2 * guard:
            raise ParameterError(f"{x} is not a half-integer within guard {guard}")
        return HalfInt(int(doubled))

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_float(self) -> float:
        return self.doubled / 2.0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ParameterError(f"{self} is not an integer")
        return self.doubled // 2

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.doubled + other.doubled)
        if isinstance(other, int):
            return HalfInt(self.doubled + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.doubled - other.doubled)
        if isinstance(other, int):
            return HalfInt(self.doubled - 2 * other)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __mul__(self, k):
        if isinstance(k, int):
            return HalfInt(self.doubled * k)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.doubled == other.doubled
        if isinstance(other, int):
            return self.doubled == 2 * other
        if isinstance(other, float):
            return self.doubled == 2 * other
        return NotImplemented

    def __hash__(self):
        # as the int, or the float (where doubled / 2 is exact), it equals
        return hash(self.doubled // 2 if self.is_integer else self.doubled / 2)

    def __str__(self):
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self):
        return f"HalfInt({self.doubled})"
