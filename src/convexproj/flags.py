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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfiguration, NonPositiveRatio
from .pants import FGPants, fg_to_goldman
from .spectral import _REAL, EigenTriple, _new, _Record, _set, eigen_from_boundary


def _cross(u, v) -> tuple[float, float, float]:
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _floats(v) -> tuple[float, float, float]:
    """A 3-vector as the float triple the kernel pairs: any three reals.

    A list or tuple of three floats is read directly; any other sequence is
    read coordinate by coordinate with float().
    """
    if (type(v) is tuple or type(v) is list) and len(v) == 3:
        x, y, z = v
        if type(x) is type(y) is type(z) is float:
            return (x, y, z)
    triple = tuple(map(float, v))
    if len(triple) != 3:
        raise ValueError(f"a 3-vector has three coordinates, got {len(triple)}")
    return triple


def wedge2(u, v) -> np.ndarray:
    """Covector of the plane spanned by u and v: their cross product, written out."""
    return np.array(_cross(_floats(u), _floats(v)))


def wedge3(u, v, w) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w."""
    return _dot(_cross(_floats(u), _floats(v)), _floats(w))


class Flag(_Record):
    """A point together with a line through it.

    The point carries the 1-dimensional part, the line covector the
    2-dimensional part; finite coordinates and incidence, relative to the
    two norms, are required at construction.  Both are stored as given, as
    float triples: every invariant below is unchanged when either is
    rescaled.  A flag is equal only to itself.
    """

    __slots__ = _fields = ("point", "line")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, point, line):
        p = _floats(point)
        ell = _floats(line)
        if not all(map(math.isfinite, p + ell)):
            raise ValueError(f"flag coordinates must be finite: {point!r}, {line!r}")
        (p0, p1, p2), (l0, l1, l2) = p, ell
        p_max, l_max = max(abs(p0), abs(p1), abs(p2)), max(abs(l0), abs(l1), abs(l2))
        if p_max == 0.0 or l_max == 0.0:
            raise ValueError("zero vector has no direction")
        # scaled to a largest |coordinate| of 1, neither side can overflow or underflow
        p_unit = (p0 / p_max, p1 / p_max, p2 / p_max)
        l_unit = (l0 / l_max, l1 / l_max, l2 / l_max)
        if abs(_dot(l_unit, p_unit)) > 1e-12 * math.hypot(*l_unit) * math.hypot(*p_unit):
            raise ValueError("flag line does not pass through the flag point")
        _set(self, "point", p)
        _set(self, "line", ell)


def _check_pairings(pairings, names) -> None:
    """Raise DegenerateConfiguration naming the first pairing that is zero
    or overflows a float.  Their product is nonzero and finite only if every
    pairing is, so the kernels call this only when the product is not."""
    for value, what in zip(pairings, names):
        if value == 0.0:
            raise DegenerateConfiguration(f"pairing {what} is zero")
        if not math.isfinite(value):
            raise DegenerateConfiguration(f"pairing {what} overflows a float")


def _underflowed(ratio: float) -> bool:
    """A ratio of nonzero finite pairings that reads +0.0 is positive but
    below the float range; -0.0 is a negative ratio that underflowed."""
    return ratio == 0.0 and math.copysign(1.0, ratio) > 0.0


# The pairings of each kernel, in the order they are checked.
_TRIPLE_PAIRINGS = ("l1.p2", "l3.p2", "l3.p1", "l2.p1", "l2.p3", "l1.p3")
_SHEAR_PAIRINGS = ("pos^neg^up", "pos^neg^down", "lneg.down", "lneg.up", "lpos.up", "lpos.down")


def triple_ratio_log(f1: Flag, f2: Flag, f3: Flag) -> float:
    """Logarithm of the triple ratio of three flags.

    The ratio is the product of the three line/point pairings taken one way
    around the triangle divided by the product taken the other way; it is
    invariant under rescaling each flag and under volume-preserving linear
    changes of coordinates, and is cyclically invariant.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = f1.line, f2.line, f3.line
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = f1.point, f2.point, f3.point
    l1p2 = a0 * q0 + a1 * q1 + a2 * q2
    l3p2 = c0 * q0 + c1 * q1 + c2 * q2
    l3p1 = c0 * p0 + c1 * p1 + c2 * p2
    l2p1 = b0 * p0 + b1 * p1 + b2 * p2
    l2p3 = b0 * r0 + b1 * r1 + b2 * r2
    l1p3 = a0 * r0 + a1 * r1 + a2 * r2
    if not 0.0 < abs(l1p2 * l3p2 * l3p1 * l2p1 * l2p3 * l1p3) < math.inf:
        _check_pairings((l1p2, l3p2, l3p1, l2p1, l2p3, l1p3), _TRIPLE_PAIRINGS)
    ratio = l1p2 / l3p2 * l3p1 / l2p1 * l2p3 / l1p3
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    if _underflowed(ratio):
        raise DegenerateConfiguration("triple ratio underflows a float")
    if not ratio > 0.0:
        raise NonPositiveRatio(f"triple ratio must be positive, got {ratio!r}")
    raise DegenerateConfiguration("triple ratio overflows a float")


def shear_logs(fpos: Flag, fneg: Flag, fup: Flag, down) -> tuple[float, float]:
    """Both shear invariants of one oriented line shared by two triangles.

    `fpos` and `fneg` are the flags at the positive and negative endpoint of
    the line, `fup` is the flag at the third vertex of the upper triangle,
    and `down` is the point at the third vertex of the lower triangle, as
    any three reals.  Returns (sigma1, sigma2).
    """
    up = fup.point
    shared = _cross(fpos.point, fneg.point)
    (w0, w1, w2), (u0, u1, u2), (d0, d1, d2) = shared, up, _floats(down)
    (n0, n1, n2), (m0, m1, m2) = fneg.line, fpos.line
    d_up = w0 * u0 + w1 * u1 + w2 * u2
    d_down = w0 * d0 + w1 * d1 + w2 * d2
    neg_down = n0 * d0 + n1 * d1 + n2 * d2
    neg_up = n0 * u0 + n1 * u1 + n2 * u2
    pos_up = m0 * u0 + m1 * u1 + m2 * u2
    pos_down = m0 * d0 + m1 * d1 + m2 * d2
    if not 0.0 < abs(d_up * d_down * neg_down * neg_up * pos_up * pos_down) < math.inf:
        # the flag lines are finite and nonzero, so a non-finite or zero `down`
        # makes lneg.down non-finite or zero and is caught here
        if not all(map(math.isfinite, (d0, d1, d2))) or not (d0 or d1 or d2):
            raise ValueError(f"homogeneous coordinates must be finite and not all zero: {down!r}")
        _check_pairings((d_up, d_down, neg_down, neg_up, pos_up, pos_down), _SHEAR_PAIRINGS)
    ratio1 = -(d_up / d_down) * (neg_down / neg_up)
    ratio2 = -(d_down / d_up) * (pos_up / pos_down)
    if 0.0 < ratio1 < math.inf and 0.0 < ratio2 < math.inf:
        return (math.log(ratio1), math.log(ratio2))
    if not (ratio1 > 0.0 or _underflowed(ratio1)) or not (ratio2 > 0.0 or _underflowed(ratio2)):
        raise NonPositiveRatio(
            f"shear ratios must be positive, got ({ratio1!r}, {ratio2!r})"
        )
    for name, ratio in (("sigma1", ratio1), ("sigma2", ratio2)):
        if ratio == 0.0:
            raise DegenerateConfiguration(f"shear ratio {name} underflows a float")
        if ratio == math.inf:
            raise DegenerateConfiguration(f"shear ratio {name} overflows a float")


# The inner ideal triangle: the coordinate points [1,0,0], [0,1,0], [0,0,1].
# The flag planes of vertices 1 and 3 both pass through [1,-1,1], so those two
# flags are the same in every configuration; only vertex 2's depends on x.
_INNER_POINTS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_MEET13 = (1.0, -1.0, 1.0)
_INNER_FLAG1 = Flag(_INNER_POINTS[0], _cross(_INNER_POINTS[0], _MEET13))
_INNER_FLAG3 = Flag(_INNER_POINTS[2], _cross(_INNER_POINTS[2], _MEET13))
_CONFIG_FIELDS = ("x", "a2", "a3", "b1", "b3", "c1", "c2")


class PantsFlagConfig(_Record):
    """The normalized flag configuration of a pair of pants.

    Positivity constraints keep every logarithm of the shear dictionary
    defined: b1, c2, b3, a2 > 1, a3 > x and x*c1 > 1.  Construction also
    builds `inner_flags` and `outer_points`, which the oracle reads, and
    `meets`, the pairwise meets of the inner flag planes (1&3, 1&2, 2&3);
    the outer points and the meets are float triples.
    """

    _fields = _CONFIG_FIELDS
    __slots__ = _CONFIG_FIELDS + ("meets", "inner_flags", "outer_points")

    def __init__(self, x: float, a2: float, a3: float, b1: float, b3: float, c1: float,
                 c2: float):
        fields = (x, a2, a3, b1, b3, c1, c2)
        for name, value in zip(_CONFIG_FIELDS, fields):
            if not (isinstance(value, _REAL) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
        for name, value, bound in (("b1", b1, 1.0), ("c2", c2, 1.0), ("b3", b3, 1.0),
                                   ("a2", a2, 1.0), ("a3", a3, x), ("x*c1", x * c1, 1.0)):
            if not value > bound:
                raise ValueError(f"{name} = {value!r} must exceed {bound!r}")
        for name, value in zip(_CONFIG_FIELDS, fields):
            _set(self, name, value)
        x, a2, a3, b1, b3, c1, c2 = map(float, fields)
        meet12 = (x, 1.0, -1.0)
        p2 = _INNER_POINTS[1]
        _set(self, "meets", (_MEET13, meet12, (-x, x, 1.0)))
        _set(self, "inner_flags", (_INNER_FLAG1, Flag(p2, _cross(p2, meet12)), _INNER_FLAG3))
        _set(self, "outer_points", ((-1.0, b1, c1), (a2, -1.0, c2), (a3, b3, -1.0)))


def config_from_fg(sigma1, sigma2, tau_plus: float) -> PantsFlagConfig:
    """Build the normalized configuration realizing the given invariants.

    Raises DegenerateConfiguration when a coordinate overflows or rounds
    onto its positivity bound (e^-45 + 1 == 1.0), which valid data can do.
    """
    s1 = tuple(map(float, sigma1))
    s2 = tuple(map(float, sigma2))
    try:
        x = math.exp(tau_plus)
        return PantsFlagConfig(
            x=x,
            a2=math.exp(-s2[1]) + 1.0,
            a3=x * (math.exp(s1[2]) + 1.0),
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


class OracleReport(NamedTuple):
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
    eigen = tuple(map(eigen_from_boundary, g.boundary))
    e1, e2, e3 = eigen
    tau_sum_res = abs(f.tau_plus + f.tau_minus
                      + sum((math.log(e1.mu), math.log(e2.mu), math.log(e3.mu))))
    worst = max(*res1, *res2, tau_res, tau_sum_res)
    return _new(OracleReport, (tuple(res1), tuple(res2), tau_res, tau_sum_res, worst, c, eigen))


class MonodromyBranch(NamedTuple):
    """One boundary holonomy, from the positive scaling root, as three float
    rows, and its flag residual."""

    rows: tuple[tuple[float, float, float], ...]
    flag_residual: float


class MonodromyResult(NamedTuple):
    """Each holonomy as a one-entry tuple: its branch that keeps the cone."""

    branches: tuple[tuple[MonodromyBranch], ...]


def reconstruct_monodromy(c: PantsFlagConfig, eigen) -> MonodromyResult:
    """Rebuild the three boundary holonomies from the triangle dynamics.

    The matrix attached to inner vertex i fixes that vertex with its
    smallest eigenvalue (repelling fixed point) and carries the adjacent
    lower triangle across the inner one: vertex i+2 of the inner triangle
    goes out to outer vertex i+2 and outer vertex i+1 comes in to inner
    vertex i+1.  Those image points are only projective, so two scalings
    remain free; they are pinned down by det = 1 together with
    trace = lam + mu + nu, which leaves one quadratic with roots of opposite
    sign.  The holonomy, with positive eigenvalues, preserves a properly
    convex domain (Goldman 1990) and so the cone over it that holds e1, e2,
    e3, (-1, b1, c1), (a2, -1, c2) and (a3, b3, -1) (-M would preserve that
    cone with only negative eigenvalues, which Perron-Frobenius excludes):
    M maps p_{i+2} to a positive multiple of o_{i+2}, the positive root.  The
    flag residual |l M - nu l| / (nu |l|) is zero exactly when the lam- and
    mu-eigenvectors span the flag plane of vertex i, whose line l annihilates
    the lam-eigenvector p_i.

    Takes the triples ``eigen_from_boundary`` returns, the only ones the CLI
    passes, so 0 < lam < mu < nu.  Returns one branch per holonomy;
    DegenerateConfiguration if the quadratic overflows.
    """
    eigen = tuple(eigen)
    if len(eigen) != 3:
        raise ValueError("exactly three eigenvalue triples are required")
    flags = c.inner_flags
    points = [f.point for f in flags]
    outer = c.outer_points
    holonomies = []
    for i in range(3):
        lam, nu = eigen[i].lam, eigen[i].nu
        trace = lam + eigen[i].mu + nu
        l0, l1, l2 = line = flags[i].line
        norm = nu * math.hypot(*line)
        # M fixes sources[0] and maps sources[1] -> images[1], sources[2] -> images[2].
        sources = (points[i], points[(i + 2) % 3], outer[(i + 1) % 3])
        images = (points[i], outer[(i + 2) % 3], points[(i + 1) % 3])
        r0, r1, r2 = _cross(sources[1], sources[2])
        s0, s1, s2 = _cross(sources[2], sources[0])
        t0, t1, t2 = _cross(sources[0], sources[1])
        x0, x1, x2 = images[0]
        y0, y1, y2 = images[1]
        z0, z1, z2 = images[2]
        # p_i ^ p_{i+2} = -p_{i+1}, so the determinants of `sources` and `images` are
        # each minus the -1 coordinate of an outer point, exactly 1.0 in floats, and
        # the cofactor rows r, s, t invert `sources` as they stand.  M = lam x(x)r +
        # beta y(x)s + gamma z(x)t has det lam*beta*gamma = 1; putting gamma into the
        # trace gives qa beta^2 + qb beta + qc = 0 with qa = y.s = rho_{i+1} - 1 > 0
        # (PantsFlagConfig's bounds keep each crossratio above 1 in floats),
        # qb = -(mu + nu) < 0 and qc = -1/lam < 0: roots of opposite sign, and the
        # positive one q/qa has no cancellation.  Only an overflow can fail.
        product = 1.0 / lam
        qa = y0 * s0 + y1 * s1 + y2 * s2
        qb = lam * (x0 * r0 + x1 * r1 + x2 * r2) - trace
        qc = product * (z0 * t0 + z1 * t1 + z2 * t2)
        q = -0.5 * (qb - math.sqrt(qb * qb - 4.0 * qa * qc))
        if not q < math.inf:
            raise DegenerateConfiguration(f"holonomy {i + 1}: scaling quadratic overflows a float")
        beta = q / qa
        gamma = product / beta
        u0, u1, u2 = lam * x0, lam * x1, lam * x2
        v0, v1, v2 = beta * y0, beta * y1, beta * y2
        w0, w1, w2 = gamma * z0, gamma * z1, gamma * z2
        m00 = u0 * r0 + v0 * s0 + w0 * t0
        m01 = u0 * r1 + v0 * s1 + w0 * t1
        m02 = u0 * r2 + v0 * s2 + w0 * t2
        m10 = u1 * r0 + v1 * s0 + w1 * t0
        m11 = u1 * r1 + v1 * s1 + w1 * t1
        m12 = u1 * r2 + v1 * s2 + w1 * t2
        m20 = u2 * r0 + v2 * s0 + w2 * t0
        m21 = u2 * r1 + v2 * s1 + w2 * t1
        m22 = u2 * r2 + v2 * s2 + w2 * t2
        drift = math.hypot(
            l0 * m00 + l1 * m10 + l2 * m20 - nu * l0,
            l0 * m01 + l1 * m11 + l2 * m21 - nu * l1,
            l0 * m02 + l1 * m12 + l2 * m22 - nu * l2,
        )
        rows = ((m00, m01, m02), (m10, m11, m12), (m20, m21, m22))
        holonomies.append((_new(MonodromyBranch, (rows, drift / norm)),))
    return MonodromyResult(tuple(holonomies))
