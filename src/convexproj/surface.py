"""Coordinates for a general surface built from a pants decomposition.

A decomposition cuts a genus-g surface with n boundary components along
3g+n-3 disjoint simple closed curves into 2g+n-2 pairs of pants.  Each
pants has three ordered slots; an internal curve glues two distinct slots
(possibly of the same pants), every remaining slot is a boundary curve.
``build_decomposition`` records the curve and role (plus, minus or
boundary) of every slot in ``PantsDecomposition.slots``; everything below
reads slot ownership from there.

Two coordinate bundles live on top of this combinatorics:

* ``SurfaceGoldman``: (lambda, tau) per curve (stored for the plus-slot
  orientation), (s, t) per pants, and a twist/bulge pair (u, v) per
  internal curve, for a total of 16g+8n-16 numbers.
* ``SurfaceBD``: a full shear/triangle tuple per pants and a shear pair
  (sigma1_C, sigma2_C) per internal curve, 22g+10n-22 raw numbers subject
  to two closure equalities per internal curve.

The (u, v) pair is only canonical up to translation; this module fixes the
gauge u = (sigma1_C + sigma2_C)/2, v = (-sigma1_C + sigma2_C)/6, i.e. the
offsets are chosen to vanish.  Twisting along a curve adds (+u, +u) to its
shear pair and bulging adds (-3v, +3v), so both flows are translations in
either coordinate system and commute with all conversions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import (
    BoundaryCurve,
    ClosureViolation,
    CountMismatch,
    DomainViolation,
    NonNegativeEuler,
    SlotReuse,
    UnknownCurve,
    located,
)
from .pants import FGPants, GoldmanPants, boundary_lengths, fg_to_goldman, goldman_to_fg
from .spectral import BoundaryInvariant, LengthPair, _new, reverse_orientation

# Residual accepted when validating closure of externally produced data;
# internally converted data stays far below this.
CLOSURE_TOL = 1e-9
_UV_KEYS = "uv values must cover exactly the internal curves"
_SHEAR_KEYS = "curve shears must cover exactly the internal curves"

Slot = tuple[str, int]


@dataclass(frozen=True)
class ArcData:
    """Transverse-arc datum of an internal curve.

    Selects the spiraling leaf hitting the curve's positive endpoint from
    the left and its negative endpoint from the right, as leaf indices
    (1..3) inside the plus-side and minus-side pants.  The pair is carried
    through serialization but the conversions consume only the curve's
    shear pair.
    """

    left: int
    right: int

    def __post_init__(self):
        for name in ("left", "right"):
            value = getattr(self, name)
            if type(value) is not int or value not in (1, 2, 3):
                raise ValueError(f"arc leaf index {name} must be 1, 2 or 3, got {value!r}")


@dataclass(frozen=True)
class Gluing:
    curve: str
    plus: Slot
    minus: Slot
    arc: ArcData = field(default=ArcData(1, 1))


@dataclass(frozen=True)
class BoundarySlot:
    curve: str
    slot: Slot


@dataclass(frozen=True)
class PantsDecomposition:
    pants: tuple[str, ...]
    gluings: tuple[Gluing, ...]
    boundaries: tuple[BoundarySlot, ...]
    genus: int
    boundary_count: int
    # derived: slot -> (curve key, role), in gluing (plus, minus) then boundary
    # order, which bd_to_goldman keeps as the curve order of its output
    slots: dict[Slot, tuple[str, str]] = field(compare=False, repr=False)

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count

    def internal_curves(self) -> tuple[str, ...]:
        return tuple(g.curve for g in self.gluings)

    def curve_names(self) -> tuple[str, ...]:
        return self.internal_curves() + tuple(b.curve for b in self.boundaries)

    def slot_assignment(self, pants_key: str) -> list[tuple[str, str]]:
        """For each slot of a pants: (curve key, role), role in plus/minus/boundary."""
        return [self.slots[(pants_key, k)] for k in range(3)]


def _claims(gluings, boundaries):
    """(slot, curve, role, owner kind) in claiming order: each gluing's plus
    then minus slot, then the boundary slots.  A gluing that pairs a slot
    with itself is refused when it is reached."""
    for g in gluings:
        if g.plus == g.minus:
            raise SlotReuse(f"gluing {g.curve!r} pairs slot {g.plus!r} with itself")
        yield g.plus, g.curve, "plus", "gluing"
        yield g.minus, g.curve, "minus", "gluing"
    for b in boundaries:
        yield b.slot, b.curve, "boundary", "boundary"


def _unhashable(kind: str, keys) -> CountMismatch:
    """The error naming the first of ``keys`` that cannot be hashed."""
    for key in keys:
        try:
            hash(key)
        except TypeError:
            return CountMismatch(f"{kind} key {key!r} is not hashable")


def build_decomposition(pants, gluings, boundaries) -> PantsDecomposition:
    """Validate the combinatorics and derive (genus, boundary count).

    A slot claims the unclaimed (pants key, 0..2) pair it equals, as ('P0', 1.0)
    and tuple subclasses do; one equal to a claimed pair raises SlotReuse, any
    other CountMismatch.  Every pair must be claimed, and the gluings must
    connect all pants.  The unglued slots determine n and g = (2 - n + #pants)
    / 2.  Once every slot is used, 3 #pants = 2 #gluings + n, so g is an
    integer and the Euler characteristic is -#pants < 0; connectivity gives
    #gluings >= #pants - 1, so n <= #pants + 2 and g is not negative.
    """
    pants = tuple(pants)
    gluings = tuple(gluings)
    boundaries = tuple(boundaries)
    try:
        free = set(itertools.product(pants, (0, 1, 2)))
    except TypeError:
        raise _unhashable("pants", pants) from None
    if len(free) != 3 * len(pants):
        raise CountMismatch("pants keys must be unique")
    if not pants:
        raise NonNegativeEuler("a decomposition needs at least one pair of pants")
    names = [g.curve for g in gluings] + [b.curve for b in boundaries]
    try:
        if len(set(names)) != len(names):
            raise CountMismatch("curve keys must be unique")
    except TypeError:
        raise _unhashable("curve", names) from None
    slots: dict[Slot, tuple[str, str]] = {}
    for slot, curve, role, owner in _claims(gluings, boundaries):
        try:
            free.remove(slot)
        except (KeyError, TypeError) as err:
            owner = f"{owner} {curve!r}"
            if isinstance(err, KeyError) and slot in slots:  # only a slot that hashed
                raise SlotReuse(f"slot {slot!r} is used more than once ({owner})") from None
            raise CountMismatch(f"{owner} references unknown slot {slot!r}") from None
        slots[slot] = (curve, role)
    if free:
        raise CountMismatch(f"unused slots: {sorted(free)!r}")
    neighbours: dict[str, list[str]] = {p: [] for p in pants}
    for g in gluings:
        neighbours[g.plus[0]].append(g.minus[0])
        neighbours[g.minus[0]].append(g.plus[0])
    reached, frontier = {pants[0]}, [pants[0]]
    while frontier:
        for p in neighbours[frontier.pop()]:
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    if len(reached) != len(pants):
        unreached = [p for p in pants if p not in reached]
        raise CountMismatch(f"the surface is not connected: no gluings lead from "
                            f"{pants[0]!r} to pants {unreached!r}")
    n = len(boundaries)
    return PantsDecomposition(pants, gluings, boundaries, (2 - n + len(pants)) // 2, n, slots)


@dataclass(frozen=True)
class SurfaceGoldman:
    """Goldman coordinates on a decomposed surface.

    ``curves`` maps every curve (internal and boundary) to its invariant in
    the plus-slot orientation, ``uv`` maps internal curves to their
    twist/bulge pair, ``pants`` maps each pants to (s, t).
    """

    curves: dict[str, BoundaryInvariant]
    uv: dict[str, tuple[float, float]]
    pants: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class SurfaceBD:
    """Bonahon-Dreyer coordinates: per-pants shear/triangle tuples plus a
    shear pair per internal curve."""

    pants: dict[str, FGPants]
    curve_shears: dict[str, tuple[float, float]]


def _check_goldman_keys(d: PantsDecomposition, g: SurfaceGoldman):
    if set(g.curves) != set(d.curve_names()):
        raise CountMismatch("curve values do not match the decomposition")
    if set(g.uv) != set(d.internal_curves()):
        raise CountMismatch(_UV_KEYS)
    if set(g.pants) != set(d.pants):
        raise CountMismatch("pants values do not match the decomposition")


def _check_bd_keys(d: PantsDecomposition, b: SurfaceBD):
    if set(b.pants) != set(d.pants):
        raise CountMismatch("pants values do not match the decomposition")
    if set(b.curve_shears) != set(d.internal_curves()):
        raise CountMismatch(_SHEAR_KEYS)


def pants_goldman(d: PantsDecomposition, g: SurfaceGoldman, pants_key: str) -> GoldmanPants:
    """Assemble one pants' Goldman tuple, reversing minus-slot orientations.

    Non-positive internal parameters (s, t) raise DomainViolation.
    """
    invariants = []
    for curve, role in d.slot_assignment(pants_key):
        inv = g.curves[curve]
        if role == "minus":
            inv = reverse_orientation(inv)
        invariants.append(inv)
    s, t = g.pants[pants_key]
    try:
        return GoldmanPants(tuple(invariants), s, t)
    except ValueError as err:
        raise DomainViolation(str(err)) from err


def goldman_to_bd(d: PantsDecomposition, g: SurfaceGoldman) -> SurfaceBD:
    """Convert every pants and apply the twist/bulge gauge to every curve."""
    _check_goldman_keys(d, g)
    fg = {}
    for pants_key in d.pants:
        with located(f"pants {pants_key!r}"):
            fg[pants_key] = goldman_to_fg(pants_goldman(d, g, pants_key))
    shears = {
        curve: (u - 3.0 * v, u + 3.0 * v) for curve, (u, v) in g.uv.items()
    }
    return SurfaceBD(fg, shears)


class CurveClosure(NamedTuple):
    """Length comparison across one internal curve.

    Reversing orientation swaps the two length functions, so the plus-side
    ell1 must match the minus-side ell2 and vice versa; ``residuals`` holds
    the two differences.
    """

    plus_lengths: LengthPair
    minus_lengths: LengthPair
    residuals: tuple[float, float]

    @property
    def ok(self) -> bool:
        """Whether the curve closes: both residuals within CLOSURE_TOL."""
        return max(self.residuals) <= CLOSURE_TOL


class ClosureReport(NamedTuple):
    curves: dict[str, CurveClosure]

    @property
    def max_residual(self) -> float:
        worst = 0.0
        for closure in self.curves.values():
            worst = max(worst, *closure.residuals)
        return worst

    @property
    def failures(self) -> dict[str, CurveClosure]:
        """The curves that do not close."""
        return {key: closure for key, closure in self.curves.items() if not closure.ok}


def validate_closure(d: PantsDecomposition, b: SurfaceBD) -> ClosureReport:
    """Per-curve closure residuals (total: never raises on finite data)."""
    _check_bd_keys(d, b)
    return closure_from_lengths(d, {key: boundary_lengths(f) for key, f in b.pants.items()})


def closure_from_lengths(d: PantsDecomposition, lengths: dict[str, tuple]) -> ClosureReport:
    """``validate_closure`` from the three ``boundary_lengths`` pairs of each pants key."""
    sides = [(g.curve, lengths[g.plus[0]][g.plus[1]], lengths[g.minus[0]][g.minus[1]])
             for g in d.gluings]
    return ClosureReport({
        curve: _new(CurveClosure, (p, m, (abs(p.ell1 - m.ell2), abs(p.ell2 - m.ell1))))
        for curve, p, m in sides})


def bd_to_goldman(d: PantsDecomposition, b: SurfaceBD) -> SurfaceGoldman:
    """Convert back, reading each internal curve off its plus-side pants."""
    report = validate_closure(d, b)
    bad = {key: closure.residuals for key, closure in report.failures.items()}
    if bad:
        raise ClosureViolation(f"closure fails for curves {bad!r}", report)
    goldman = {}
    for pants_key in d.pants:
        with located(f"pants {pants_key!r}"):
            goldman[pants_key] = fg_to_goldman(b.pants[pants_key])
    curves = {
        curve: goldman[pants_key].boundary[k]
        for (pants_key, k), (curve, role) in d.slots.items()
        if role != "minus"
    }
    uv = {
        curve: (0.5 * (s1 + s2), (-s1 + s2) / 6.0)
        for curve, (s1, s2) in b.curve_shears.items()
    }
    pants = {key: (gp.s, gp.t) for key, gp in goldman.items()}
    return SurfaceGoldman(curves, uv, pants)


def _flow_pair(d: PantsDecomposition, coords, curve: str) -> tuple[float, float]:
    if curve not in d.curve_names():
        raise UnknownCurve(f"no curve {curve!r} in these coordinates")
    if curve not in d.internal_curves():
        raise BoundaryCurve(f"curve {curve!r} is a boundary component, flows need an internal curve")
    goldman = isinstance(coords, SurfaceGoldman)
    try:
        return coords.uv[curve] if goldman else coords.curve_shears[curve]
    except KeyError:
        raise CountMismatch(_UV_KEYS if goldman else _SHEAR_KEYS) from None


def twist_flow(d: PantsDecomposition, coords, curve: str, u: float):
    """Translate the coordinates by a twist of size u along an internal curve.

    Acts on the curve's shear pair by (+u, +u), equivalently on the Goldman
    pair by (u, v) -> (u + u0, v); everything else is untouched.
    """
    a, b = _flow_pair(d, coords, curve)
    if isinstance(coords, SurfaceGoldman):
        return replace(coords, uv={**coords.uv, curve: (a + u, b)})
    return replace(coords, curve_shears={**coords.curve_shears, curve: (a + u, b + u)})


def bulge_flow(d: PantsDecomposition, coords, curve: str, v: float):
    """Translate by a bulge of size v: shear pair moves by (-3v, +3v)."""
    a, b = _flow_pair(d, coords, curve)
    if isinstance(coords, SurfaceGoldman):
        return replace(coords, uv={**coords.uv, curve: (a, b + v)})
    return replace(coords, curve_shears={**coords.curve_shears, curve: (a - 3.0 * v, b + 3.0 * v)})


class CoordinateCount(NamedTuple):
    goldman_total: int
    bd_raw: int
    closure_constraints: int


def coordinate_count(genus: int, boundary_count: int) -> CoordinateCount:
    """Coordinate tallies for a surface of the given type.

    goldman_total = 16g + 8n - 16 = 8|chi|, and the raw shear count exceeds
    it by exactly two closure constraints per internal curve.
    """
    if not all(type(k) is int and k >= 0 for k in (genus, boundary_count)):
        raise CountMismatch(f"no surface has genus {genus} and {boundary_count} boundary components")
    chi = 2 - 2 * genus - boundary_count
    if chi >= 0:
        raise NonNegativeEuler(f"Euler characteristic {chi} is not negative")
    return CoordinateCount(
        goldman_total=16 * genus + 8 * boundary_count - 16,
        bd_raw=22 * genus + 10 * boundary_count - 22,
        closure_constraints=2 * (3 * genus + boundary_count - 3),
    )
