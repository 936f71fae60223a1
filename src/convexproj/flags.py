"""Independent recomputation of the shear and triangle invariants from flags.

The conversions in `pants` are closed-form, so a bug there would silently
produce self-consistent garbage.  This module provides the cross-check: it
realizes a shear/triangle tuple as an explicit configuration of flags in
homogeneous coordinates, then recomputes every invariant from first
principles with wedge products, and can also rebuild the three boundary
holonomy matrices from the triangle dynamics.

The configuration is normalized so that the inner ideal triangle is the
coordinate triangle [1,0,0], [0,1,0], [0,0,1] and the flag planes of the
first and third vertex meet in the point [1,-1,1].  The planes of vertices
1/2 and 2/3 then meet in [x,1,-1] and [-x,x,1] for a single scale x > 0,
and the outer triangle vertices are [-1,b1,c1], [a2,-1,c2], [a3,b3,-1].
The seven scalars (x, a2, a3, b1, b3, c1, c2) are equivalent to the shear
dictionary

    sigma1(B_1) = log(b1 - 1)        sigma2(B_1) = -log(x*c1 - 1)
    sigma1(B_2) = log(c2 - 1)        sigma2(B_2) = -log(a2 - 1)
    sigma1(B_3) = log(a3/x - 1)      sigma2(B_3) = -log(b3 - 1)
    tau_111(upper triangle) = log x
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateConfiguration, NonPositiveRatio, NoValidBranch
from .pants import FGPants, fg_to_goldman
from .spectral import EigenTriple, eigen_from_boundary

# Coordinates below this fraction of a point's largest one are not used as
# the pivot of its canonical representative.
DEGENERACY_TOL = 1e-12


def _cross(u, v) -> tuple[float, float, float]:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _floats(v) -> tuple[np.ndarray, tuple[float, float, float]]:
    """A 3-vector as the stored ndarray and as the float triple the kernel pairs."""
    arr = np.asarray(v, dtype=float).reshape(3)
    return arr, tuple(arr.tolist())


def wedge2(u, v) -> np.ndarray:
    """Covector of the plane spanned by u and v: their cross product, written out."""
    return np.array(_cross(_floats(u)[1], _floats(v)[1]))


def wedge3(u, v, w) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w."""
    return _dot(_cross(_floats(u)[1], _floats(v)[1]), _floats(w)[1])


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Point of the projective plane, stored as homogeneous coordinates.

    Two points are equal when their canonical representatives agree; the
    canonical representative rescales so the first coordinate of nonsmall
    magnitude becomes +1.
    """

    coords: np.ndarray

    def __init__(self, coords):
        arr, triple = _floats(coords)
        if not all(map(math.isfinite, triple)) or not any(triple):
            raise ValueError(f"homogeneous coordinates must be finite and not all zero: {coords!r}")
        object.__setattr__(self, "coords", arr)
        object.__setattr__(self, "_triple", triple)

    def canonical(self) -> np.ndarray:
        scale_floor = DEGENERACY_TOL * max(map(abs, self._triple))
        for value in self._triple:
            if abs(value) > scale_floor:
                return self.coords / value
        raise ValueError("no usable pivot coordinate")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return bool(np.allclose(self.canonical(), other.canonical(), rtol=1e-8, atol=1e-8))


@dataclass(frozen=True, eq=False)
class Flag:
    """A point together with a line through it.

    The point carries the 1-dimensional part, the line covector the
    2-dimensional part; incidence, relative to the two norms, is required at
    construction.  Both are stored as given: every invariant below is
    unchanged when either is rescaled.
    """

    point: np.ndarray
    line: np.ndarray

    def __init__(self, point, line):
        pt, p = _floats(point)
        ln, ell = _floats(line)
        p_norm, l_norm = math.hypot(*p), math.hypot(*ell)
        if p_norm == 0.0 or l_norm == 0.0:
            raise ValueError("zero vector has no direction")
        if abs(_dot(ell, p)) > 1e-12 * l_norm * p_norm:
            raise ValueError("flag line does not pass through the flag point")
        object.__setattr__(self, "point", pt)
        object.__setattr__(self, "line", ln)
        object.__setattr__(self, "_point", p)
        object.__setattr__(self, "_line", ell)


def _pairing(line, point, what: str) -> float:
    value = _dot(line, point)
    if value == 0.0:
        raise DegenerateConfiguration(f"pairing {what} is zero")
    if not math.isfinite(value):
        raise DegenerateConfiguration(f"pairing {what} overflows a float")
    return value


def triple_ratio_log(f1: Flag, f2: Flag, f3: Flag) -> float:
    """Logarithm of the triple ratio of three flags.

    The ratio is the product of the three line/point pairings taken one way
    around the triangle divided by the product taken the other way; it is
    invariant under rescaling each flag and under volume-preserving linear
    changes of coordinates, and is cyclically invariant.
    """
    ratio = (
        _pairing(f1._line, f2._point, "l1.p2")
        / _pairing(f3._line, f2._point, "l3.p2")
        * _pairing(f3._line, f1._point, "l3.p1")
        / _pairing(f2._line, f1._point, "l2.p1")
        * _pairing(f2._line, f3._point, "l2.p3")
        / _pairing(f1._line, f3._point, "l1.p3")
    )
    if not ratio > 0.0:
        raise NonPositiveRatio(f"triple ratio must be positive, got {ratio!r}")
    if ratio == math.inf:
        raise DegenerateConfiguration("triple ratio overflows a float")
    return math.log(ratio)


def shear_logs(fpos: Flag, fneg: Flag, fup: Flag, fdown_point: ProjPoint) -> tuple[float, float]:
    """Both shear invariants of one oriented line shared by two triangles.

    `fpos` and `fneg` are the flags at the positive and negative endpoint of
    the line, `fup` is the flag at the third vertex of the upper triangle,
    and `fdown_point` is the third vertex of the lower triangle (only its
    point enters).  Returns (sigma1, sigma2).
    """
    down = fdown_point._triple
    shared = _cross(fpos._point, fneg._point)
    d_up = _pairing(shared, fup._point, "pos^neg^up")
    d_down = _pairing(shared, down, "pos^neg^down")
    ratio1 = -(d_up / d_down) * (
        _pairing(fneg._line, down, "lneg.down") / _pairing(fneg._line, fup._point, "lneg.up")
    )
    ratio2 = -(d_down / d_up) * (
        _pairing(fpos._line, fup._point, "lpos.up") / _pairing(fpos._line, down, "lpos.down")
    )
    if not ratio1 > 0.0 or not ratio2 > 0.0:
        raise NonPositiveRatio(
            f"shear ratios must be positive, got ({ratio1!r}, {ratio2!r})"
        )
    for name, ratio in (("sigma1", ratio1), ("sigma2", ratio2)):
        if ratio == math.inf:
            raise DegenerateConfiguration(f"shear ratio {name} overflows a float")
    return (math.log(ratio1), math.log(ratio2))


@dataclass(frozen=True)
class PantsFlagConfig:
    """The normalized flag configuration of a pair of pants.

    Positivity constraints keep every logarithm of the shear dictionary
    defined: b1, c2, b3, a2 > 1, a3 > x and x*c1 > 1.
    """

    x: float
    a2: float
    a3: float
    b1: float
    b3: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("x", "a2", "a3", "b1", "b3", "c1", "c2"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
        for name, value, bound in (
            ("b1", self.b1, 1.0),
            ("c2", self.c2, 1.0),
            ("b3", self.b3, 1.0),
            ("a2", self.a2, 1.0),
            ("a3", self.a3, self.x),
            ("x*c1", self.x * self.c1, 1.0),
        ):
            if not value > bound:
                raise ValueError(f"{name} = {value!r} must exceed {bound!r}")

    @cached_property
    def inner_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    @cached_property
    def intersection_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairwise meets of the inner flag planes: (1&3, 1&2, 2&3)."""
        return (
            np.array([1.0, -1.0, 1.0]),
            np.array([self.x, 1.0, -1.0]),
            np.array([-self.x, self.x, 1.0]),
        )

    @cached_property
    def inner_flags(self) -> tuple[Flag, Flag, Flag]:
        meet13, meet12, _ = (m.tolist() for m in self.intersection_points)
        p1, p2, p3 = (p.tolist() for p in self.inner_points)
        return (
            Flag(p1, _cross(p1, meet13)),
            Flag(p2, _cross(p2, meet12)),
            Flag(p3, _cross(p3, meet13)),
        )

    @cached_property
    def outer_points(self) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
        return (
            ProjPoint([-1.0, self.b1, self.c1]),
            ProjPoint([self.a2, -1.0, self.c2]),
            ProjPoint([self.a3, self.b3, -1.0]),
        )


def config_from_fg(sigma1, sigma2, tau_plus: float) -> PantsFlagConfig:
    """Build the normalized configuration realizing the given invariants.

    Raises DegenerateConfiguration when a coordinate overflows or rounds
    onto its positivity bound (e^-45 + 1 == 1.0), which valid data can do.
    """
    s1 = tuple(float(v) for v in sigma1)
    s2 = tuple(float(v) for v in sigma2)
    try:
        return PantsFlagConfig(
            x=math.exp(tau_plus),
            a2=math.exp(-s2[1]) + 1.0,
            a3=math.exp(tau_plus) * (math.exp(s1[2]) + 1.0),
            b1=math.exp(s1[0]) + 1.0,
            b3=math.exp(-s2[2]) + 1.0,
            c1=math.exp(-tau_plus) * (math.exp(-s2[0]) + 1.0),
            c2=math.exp(s1[1]) + 1.0,
        )
    except (OverflowError, ValueError) as err:
        raise DegenerateConfiguration(f"flag configuration is not representable: {err}") from err


def fg_from_config(c: PantsFlagConfig) -> tuple[tuple[float, float, float],
                                                tuple[float, float, float], float]:
    """Read the shear dictionary off a configuration (inverse of config_from_fg)."""
    sigma1 = (math.log(c.b1 - 1.0), math.log(c.c2 - 1.0), math.log(c.a3 / c.x - 1.0))
    sigma2 = (-math.log(c.x * c.c1 - 1.0), -math.log(c.a2 - 1.0), -math.log(c.b3 - 1.0))
    return (sigma1, sigma2, math.log(c.x))


@dataclass(frozen=True)
class OracleReport:
    """Residuals of the wedge-product recomputation against the input tuple,
    with the configuration and boundary spectra they were computed from."""

    sigma1_residuals: tuple[float, float, float]
    sigma2_residuals: tuple[float, float, float]
    tau_plus_residual: float
    tau_sum_residual: float
    max_residual: float
    config: PantsFlagConfig
    eigen: tuple[EigenTriple, EigenTriple, EigenTriple]


def oracle_check(f: FGPants) -> OracleReport:
    """Certify a shear/triangle tuple against the flag geometry.

    Rebuilds the normalized configuration, recomputes all six shears and the
    upper triangle invariant with wedge products (not the dictionary), and
    checks tau_plus + tau_minus against -sum(log mu_i) computed from the
    boundary spectra.  Raises DomainViolation, as fg_to_goldman does, when a
    boundary length is not positive.
    """
    g = fg_to_goldman(f)
    c = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
    flags = c.inner_flags
    outer = c.outer_points
    res1 = []
    res2 = []
    for i in range(3):
        # Line B_{i+1}: its positive endpoint carries flag i+1, its negative
        # endpoint flag i-1, the third vertex of the upper triangle is flag i,
        # and the lower third vertex is outer point i.
        s1, s2 = shear_logs(flags[(i + 1) % 3], flags[(i - 1) % 3], flags[i], outer[i])
        res1.append(abs(s1 - f.sigma1[i]))
        res2.append(abs(s2 - f.sigma2[i]))
    tau_res = abs(triple_ratio_log(*flags) - f.tau_plus)
    eigen = tuple(eigen_from_boundary(b) for b in g.boundary)
    tau_sum_res = abs(f.tau_plus + f.tau_minus + sum(math.log(e.mu) for e in eigen))
    all_res = (*res1, *res2, tau_res, tau_sum_res)
    return OracleReport(tuple(res1), tuple(res2), tau_res, tau_sum_res, max(all_res), c, eigen)


@dataclass(frozen=True)
class MonodromyBranch:
    """One real solution of the scaling equations, with its flag residual."""

    matrix: np.ndarray
    flag_residual: float


@dataclass(frozen=True)
class MonodromyResult:
    """Reconstructed holonomies and, per matrix, every real scaling branch
    ordered by flag residual; the primary matrix is the first branch's."""

    matrices: tuple[np.ndarray, np.ndarray, np.ndarray]
    branches: tuple[tuple[MonodromyBranch, ...], ...]


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    return roots


def reconstruct_monodromy(c: PantsFlagConfig, eigen) -> MonodromyResult:
    """Rebuild the three boundary holonomies from the triangle dynamics.

    The matrix attached to inner vertex i fixes that vertex with its
    smallest eigenvalue (repelling fixed point) and carries the adjacent
    lower triangle across the inner one: vertex i+2 of the inner triangle
    goes out to outer vertex i+2 and outer vertex i+1 comes in to inner
    vertex i+1.  Those image points are only projective, so two scalings
    remain free; they are pinned down by det = 1 together with
    trace = lam + mu + nu, which reduces to one quadratic.  Each nonzero
    real root is a branch with the spectrum (lam, mu, nu) by construction.
    The unstable-flag condition selects the holonomy among them: the lam-
    and mu-eigenvectors span the flag plane of vertex i.  The flag line l
    annihilates the lam-eigenvector p_i, so this holds exactly when
    l M = nu l, and the flag residual is |l M - nu l| / (nu |l|).

    Returns all branches, the smallest flag residual first.  Raises
    NoValidBranch when a vertex has no real scaling branch.
    """
    eigen = tuple(eigen)
    if len(eigen) != 3:
        raise ValueError("exactly three eigenvalue triples are required")
    flags = c.inner_flags
    points = [f._point for f in flags]
    outer = [p._triple for p in c.outer_points]
    matrices = []
    all_branches = []
    for i in range(3):
        lam, nu = eigen[i].lam, eigen[i].nu
        trace = lam + eigen[i].mu + nu
        line = flags[i]._line
        sources = [points[i], points[(i + 2) % 3], outer[(i + 1) % 3]]
        images = [points[i], outer[(i + 2) % 3], points[(i + 1) % 3]]
        # Cofactor rows invert the matrix with columns `sources`; both determinants are +-1.
        # Row 2 is sources[0] ^ sources[1], so its pairing with sources[2] is wedge3(*sources).
        cofactors = [_cross(sources[(j + 1) % 3], sources[(j + 2) % 3]) for j in range(3)]
        det_sources = _dot(cofactors[2], sources[2])
        rows = [tuple(v / det_sources for v in row) for row in cofactors]
        columns = list(zip(*rows))
        traces = [_dot(images[j], rows[j]) for j in range(3)]
        det_ratio = _dot(_cross(images[0], images[1]), images[2]) / det_sources
        # det M = lam * beta * gamma * det_ratio = 1, so beta*gamma is fixed;
        # substituting gamma into the trace condition gives the quadratic.
        product = 1.0 / (lam * det_ratio)
        roots = _quadratic_roots(traces[1], lam * traces[0] - trace, product * traces[2])
        branches = []
        for beta in roots:
            if beta == 0.0:
                continue
            gamma = product / beta
            # M = sum_j scale_j * images[j] (x) rows[j], assembled row by row.
            scaled = ([s * v for v in image] for s, image in zip((lam, beta, gamma), images))
            m = [[a * r0 + b * r1 + g * r2 for r0, r1, r2 in columns] for a, b, g in zip(*scaled)]
            drift = [_dot(line, column) - nu * ell for column, ell in zip(zip(*m), line)]
            flag_residual = math.hypot(*drift) / (nu * math.hypot(*line))
            branches.append(MonodromyBranch(np.array(m), flag_residual))
        if not branches:
            raise NoValidBranch(f"no real scaling branch for vertex {i + 1}")
        branches.sort(key=lambda br: br.flag_residual)
        matrices.append(branches[0].matrix)
        all_branches.append(tuple(branches))
    return MonodromyResult(tuple(matrices), tuple(all_branches))
