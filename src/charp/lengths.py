"""Hilbert-Kunz style length tables of bracket powers, and the corner
length identity.

Lengths in quotient contexts are colengths of lifts (the lift carries the
relation, so a single staircase-counting path suffices).  The leading
coefficient estimate colength/q^d is reported, never asserted against
outside values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import AlgebraError
from .frobenius import bracket_power, frobenius_q
from .rings import Ideal, find_parameter_ideal


class NotMPrimary(AlgebraError):
    """Length tables need finite colengths at every level."""


@dataclass(frozen=True)
class LengthRow:
    e: int
    q: int
    colength_bracket: int


@dataclass(frozen=True)
class LengthTable:
    ideal: Ideal
    rows: tuple
    leading_coefficient_estimate: Fraction


def hk_table(I: Ideal, e_max: int) -> LengthTable:
    """Colengths of I^[q] for e = 0..e_max."""
    if not I.is_m_primary():
        raise NotMPrimary("length table needs an m-primary ideal")
    rows = [LengthRow(e, frobenius_q(I.ring, e), bracket_power(I, e).colength())
            for e in range(e_max + 1)]
    d = I.ring.dim
    top = rows[-1]
    estimate = Fraction(top.colength_bracket, top.q ** d)
    return LengthTable(I, tuple(rows), estimate)


@dataclass(frozen=True)
class CornerLengthIdentity:
    equal: bool
    lhs: int
    rhs: int
    linking: Ideal
    linked: Ideal


def corner_length_identity(J: Ideal, e: int, rng: random.Random) -> CornerLengthIdentity:
    """l(R/J^<q>) versus l(R/a^[q]) - l(R/I^[q]) for a sampled parameter
    ideal a inside J and I = a : J.  Both sides and the verdict are returned.
    """
    if not J.is_m_primary():
        raise NotMPrimary("corner length identity needs an m-primary ideal")
    a = find_parameter_ideal(J, rng)
    I = a.colon(J)
    corner = bracket_power(a, e).colon(bracket_power(I, e))
    lhs = corner.colength()
    ra = bracket_power(a, e).colength()
    ri = bracket_power(I, e).colength()
    rhs = ra - ri
    return CornerLengthIdentity(lhs == rhs, lhs, rhs, a, I)
