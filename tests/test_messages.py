"""Exception class and text of every check on the value classes and kernels.

The value classes and kernels of `spectral`, `pants` and `flags` each call
one check: `check_window`, `validate_fg_domain`, their own field check or
the pairing check.  That check computes its bounds, lengths or pairings
once and words a failure from those values.  `EXPECTED` was recorded from
the earlier field-by-field checks, so each failure keeps its class and its
text; a case that passes records the repr of its result.  Ratios that
underflow are worded in tests/test_flags.py instead.
"""

import math

import numpy as np
import pytest

import convexproj.pants as pants
import convexproj.spectral as spectral
from convexproj.errors import ClosureViolation, SchemaError, WindowViolation, located
from convexproj.flags import Flag, PantsFlagConfig, _floats, shear_logs, triple_ratio_log
from convexproj.pants import FGPants, GoldmanPants, fg_to_goldman
from convexproj.spectral import BoundaryInvariant

ONES = (-1.0, -1.0, -1.0)
INNER = BoundaryInvariant(0.25, 5.0)
CONFIG = {"x": 1.0, "a2": 2.0, "a3": 2.0, "b1": 2.0, "b3": 2.0, "c1": 2.0, "c2": 2.0}


def config(**fields):
    return PantsFlagConfig(**{**CONFIG, **fields})


def triangle(**entries):
    """triple_ratio_log on the coordinate triangle scaled by 10, with each line
    entry 1.0 unless given: entry 0.0 makes its pairing zero, 1e308 makes it overflow."""
    def run():
        e = {"l1.p2": 1.0, "l1.p3": 1.0, "l2.p1": 1.0, "l2.p3": 1.0, "l3.p1": 1.0, "l3.p2": 1.0}
        e.update({name.replace("_", "."): value for name, value in entries.items()})
        f1 = Flag((10.0, 0.0, 0.0), (0.0, e["l1.p2"], e["l1.p3"]))
        f2 = Flag((0.0, 10.0, 0.0), (e["l2.p1"], 0.0, e["l2.p3"]))
        f3 = Flag((0.0, 0.0, 10.0), (e["l3.p1"], e["l3.p2"], 0.0))
        return triple_ratio_log(f1, f2, f3)
    return run


def shear(up=(1.0, 1.0, 1.0), down=(3.0, 3.0, -1.0), pos=(1.0, 0.0, 0.0)):
    """shear_logs with pos^neg^up = up[2] * pos[0], pos^neg^down = down[2] * pos[0],
    lneg.down = down[0] + 2 down[2], lneg.up = up[0] + 2 up[2],
    lpos.up = 2 up[1] + 3 up[2] and lpos.down = 2 down[1] + 3 down[2]."""
    def run():
        fpos = Flag(pos, (0.0, 2.0, 3.0))
        fneg = Flag((0.0, 1.0, 0.0), (1.0, 0.0, 2.0))
        fup = Flag(up, (up[1], -up[0], 0.0))
        return shear_logs(fpos, fneg, fup, down)
    return run


CASES = {
    # BoundaryInvariant: lambda, then tau against lambda = 0.25's window (4, 16.25)
    "lam_nan": lambda: BoundaryInvariant(math.nan, 5.0),
    "lam_inf": lambda: BoundaryInvariant(math.inf, 5.0),
    "lam_zero": lambda: BoundaryInvariant(0.0, 5.0),
    "lam_negative": lambda: BoundaryInvariant(-1.0, 5.0),
    "lam_one": lambda: BoundaryInvariant(1.0, 5.0),
    "lam_true": lambda: BoundaryInvariant(True, 5.0),
    "lam_int_zero": lambda: BoundaryInvariant(0, 5.0),
    "lam_numpy_valid": lambda: BoundaryInvariant(np.float64(0.25), 5.0),
    "lam_numpy_above_one": lambda: BoundaryInvariant(np.float64(1.5), 5.0),
    "lam_tiny": lambda: BoundaryInvariant(1e-170, 1e86),
    "tau_at_lower": lambda: BoundaryInvariant(0.25, 4.0),
    "tau_within_tol_of_lower": lambda: BoundaryInvariant(0.25, 4.0 + 5e-13),
    "tau_just_above_lower": lambda: BoundaryInvariant(0.25, 4.0 + 2e-12),
    "tau_at_upper": lambda: BoundaryInvariant(0.25, 16.25),
    "tau_within_tol_of_upper": lambda: BoundaryInvariant(0.25, 16.25 - 5e-13),
    "tau_just_below_upper": lambda: BoundaryInvariant(0.25, 16.25 - 2e-12),
    "tau_nan": lambda: BoundaryInvariant(0.25, math.nan),
    "tau_inf": lambda: BoundaryInvariant(0.25, math.inf),
    "tau_int": lambda: BoundaryInvariant(0.25, 5),
    "tau_int_at_lower": lambda: BoundaryInvariant(0.25, 4),
    "lam_and_tau_bad": lambda: BoundaryInvariant(1.5, math.nan),
    # ints beyond the float range fail their field; a large one in range squares to inf
    "lam_huge_int": lambda: BoundaryInvariant(10**400, 5.0),
    "tau_huge_int": lambda: BoundaryInvariant(0.25, 10**400),
    "lam_large_int": lambda: BoundaryInvariant(2**600, 5.0),
    # FGPants: three finite reals per sigma list, finite triangle invariants
    "fg_sigma1_nan": lambda: FGPants((-1.0, math.nan, -1.0), ONES, 0.0, 0.0),
    "fg_sigma2_inf": lambda: FGPants(ONES, (-1.0, -1.0, math.inf), 0.0, 0.0),
    "fg_sigma1_short": lambda: FGPants((-1.0, -1.0), ONES, 0.0, 0.0),
    "fg_sigma2_long": lambda: FGPants(ONES, (-1.0,) * 4, 0.0, 0.0),
    "fg_tau_plus_nan": lambda: FGPants(ONES, ONES, math.nan, 0.0),
    "fg_tau_minus_inf": lambda: FGPants(ONES, ONES, 0.0, -math.inf),
    "fg_int": lambda: FGPants((-1, -1.0, -1.0), ONES, 0, 0.0),
    "fg_bool": lambda: FGPants(ONES, (-1.0, True, -1.0), 0.0, False),
    "fg_list": lambda: FGPants([-1.0, -1.0, -1.0], ONES, 0.0, 0.0),
    "fg_sum_overflows": lambda: FGPants((1e308, 1e308, -1.0), ONES, 0.0, 0.0),
    "fg_string": lambda: FGPants(("-1", -1.0, -1.0), ONES, 0.0, 0.0),
    # GoldmanPants: three invariants, positive finite s and t
    "gp_s_zero": lambda: GoldmanPants((INNER,) * 3, 0.0, 1.0),
    "gp_t_negative": lambda: GoldmanPants((INNER,) * 3, 1.0, -1.0),
    "gp_s_inf": lambda: GoldmanPants((INNER,) * 3, math.inf, 1.0),
    "gp_t_nan": lambda: GoldmanPants((INNER,) * 3, 1.0, math.nan),
    "gp_s_int": lambda: GoldmanPants((INNER,) * 3, 2, 1.0),
    "gp_s_true": lambda: GoldmanPants((INNER,) * 3, True, 1.0),
    "gp_t_false": lambda: GoldmanPants((INNER,) * 3, 1.0, False),
    "gp_s_subnormal": lambda: GoldmanPants((INNER,) * 3, 1e-320, 1.0),
    "gp_two_invariants": lambda: GoldmanPants((INNER,) * 2, 1.0, 1.0),
    "gp_two_invariants_bad_s": lambda: GoldmanPants((INNER,) * 2, -1.0, 1.0),
    # PantsFlagConfig: each bound, nan, an int and a bool
    "config_valid": lambda: config(),
    "config_x_zero": lambda: config(x=0.0),
    "config_a2_at_bound": lambda: config(a2=1.0),
    "config_a3_at_x": lambda: config(a3=1.0),
    "config_b1_at_bound": lambda: config(b1=1.0),
    "config_b3_at_bound": lambda: config(b3=1.0),
    "config_c2_at_bound": lambda: config(c2=1.0),
    "config_xc1_at_bound": lambda: config(c1=1.0),
    "config_xc1_scaled_at_bound": lambda: config(x=2.0, a3=3.0, c1=0.5),
    "config_c2_nan": lambda: config(c2=math.nan),
    "config_a3_inf": lambda: config(a3=math.inf),
    "config_b1_negative_and_a2_at_bound": lambda: config(b1=-1.0, a2=1.0),
    "config_int": lambda: config(a2=2),
    "config_bool_x": lambda: config(x=True),
    "config_bool_b1": lambda: config(b1=True),
    # fg_to_goldman: every failing length is named, and the domain is tested first
    "fg_to_goldman_two_lengths": lambda: fg_to_goldman(FGPants((-1.0, 2.0, -1.0), ONES, 0.0, 0.0)),
    "fg_to_goldman_tau_overflows": lambda: fg_to_goldman(
        FGPants((-1.0, -2000.0, -1.0), ONES, 0.0, 0.0)),
    "fg_to_goldman_domain_beats_overflow": lambda: fg_to_goldman(
        FGPants((-1.0, -2000.0, -1.0), ONES, 0.0, 5.0)),
    "fg_to_goldman_s_underflows": lambda: fg_to_goldman(
        FGPants((-3100.0,) * 3, (3000.0,) * 3, 0.0, 0.0)),
    "fg_to_goldman_t_underflows": lambda: fg_to_goldman(FGPants((-1,) * 3, (-1,) * 3, 800, -900)),
    # _floats: exact floats, ints, bools and numpy values; only three entries
    "floats_floats": lambda: _floats((1.5, -2.5, 0.0)),
    "floats_ints": lambda: _floats([1, 0, -3]),
    "floats_mixed": lambda: _floats((1, 2.5, 3)),
    "floats_bools": lambda: _floats((True, False, False)),
    "floats_numpy_scalars": lambda: _floats((np.float64(0.5), np.float64(1.0), np.float64(2.0))),
    "floats_ndarray": lambda: _floats(np.array([1.0, 2.0, 3.0])),
    "floats_two": lambda: _floats([1.0, 2.0]),
    "floats_four": lambda: _floats((1.0, 2.0, 3.0, 4.0)),
    # triple_ratio_log: each pairing zero or overflowing, in the order they are taken
    "triple_valid": triangle(),
    "triple_l1p2_zero": triangle(l1_p2=0.0),
    "triple_l3p2_zero": triangle(l3_p2=0.0),
    "triple_l3p1_zero": triangle(l3_p1=0.0),
    "triple_l2p1_zero": triangle(l2_p1=0.0),
    "triple_l2p3_zero": triangle(l2_p3=0.0),
    "triple_l1p3_zero": triangle(l1_p3=0.0),
    "triple_l1p2_overflows": triangle(l1_p2=1e308),
    "triple_l3p2_overflows": triangle(l3_p2=1e308),
    "triple_l3p1_overflows": triangle(l3_p1=1e308),
    "triple_l2p1_overflows": triangle(l2_p1=1e308),
    "triple_l2p3_overflows": triangle(l2_p3=1e308),
    "triple_l1p3_overflows": triangle(l1_p3=1e308),
    "triple_l3p1_zero_l1p2_overflows": triangle(l3_p1=0.0, l1_p2=1e308),
    "triple_l2p3_zero_l3p2_overflows": triangle(l2_p3=0.0, l3_p2=1e308),
    "triple_l1p3_overflows_l2p1_zero": triangle(l1_p3=1e308, l2_p1=0.0),
    "triple_negative": triangle(l2_p3=-1.0),
    # shear_logs: each pairing zero or overflowing, in the order they are taken
    "shear_valid": shear(),
    "shear_up_zero": shear(up=(1.0, 1.0, 0.0)),
    "shear_down_zero": shear(down=(3.0, 3.0, 0.0)),
    "shear_lneg_down_zero": shear(down=(2.0, 3.0, -1.0)),
    "shear_lneg_up_zero": shear(up=(-2.0, 1.0, 1.0)),
    "shear_lpos_up_zero": shear(up=(1.0, -3.0, 2.0)),
    "shear_lpos_down_zero": shear(down=(3.0, 3.0, -2.0)),
    "shear_up_overflows": shear(up=(1.0, 1.0, 1e308), pos=(10.0, 0.0, 0.0)),
    "shear_down_overflows": shear(down=(3.0, 3.0, -1e308), pos=(10.0, 0.0, 0.0)),
    "shear_lneg_down_overflows": shear(down=(3.0, 3.0, -1e308)),
    "shear_lneg_up_overflows": shear(up=(1.0, 1.0, 1e308)),
    "shear_lpos_up_overflows": shear(up=(1.0, 1e308, 1.0)),
    "shear_lpos_down_overflows": shear(down=(3.0, 1e308, -1.0)),
    "shear_up_zero_lpos_down_overflows": shear(up=(1.0, 1.0, 0.0), down=(3.0, 1e308, -1.0)),
    "shear_lneg_up_zero_lneg_down_overflows": shear(up=(-2.0, 1.0, 1.0), down=(3.0, 3.0, -1e308)),
    "shear_lpos_up_zero_lpos_down_zero": shear(up=(1.0, -3.0, 2.0), down=(3.0, 3.0, -2.0)),
    "shear_negative": shear(down=(1.0, 3.0, -1.0)),
    "shear_down_nan": shear(down=(math.nan, 3.0, -1.0)),
    "shear_down_all_zero": shear(down=(0.0, 0.0, 0.0)),
}

EXPECTED = {
    'lam_nan': ('WindowViolation', 'lambda must be a positive finite real, got nan'),
    'lam_inf': ('WindowViolation', 'lambda must be a positive finite real, got inf'),
    'lam_zero': ('WindowViolation', 'lambda must be a positive finite real, got 0.0'),
    'lam_negative': ('WindowViolation', 'lambda must be a positive finite real, got -1.0'),
    'lam_one':
        ('WindowViolation', 'lambda=1.0 is not below 1; tau=5.0 is not below the upper bound '
                            'lambda+1/lambda^2=2.0'),
    'lam_true':
        ('WindowViolation', 'lambda=True is not below 1; tau=5.0 is not below the upper bound '
                            'lambda+1/lambda^2=2.0'),
    'lam_int_zero': ('WindowViolation', 'lambda must be a positive finite real, got 0'),
    'lam_numpy_valid': (None, f'BoundaryInvariant(lam={np.float64(0.25)!r}, tau=5.0)'),
    'lam_numpy_above_one':
        ('WindowViolation', f'lambda={np.float64(1.5)!r} is not below 1; tau=5.0 is not below the '
                            f'upper bound lambda+1/lambda^2={np.float64(1.9444444444444444)!r}'),
    'lam_tiny': (None, 'BoundaryInvariant(lam=1e-170, tau=1e+86)'),
    'tau_at_lower': ('WindowViolation', 'tau=4.0 is not above the lower bound 2/sqrt(lambda)=4.0'),
    'tau_within_tol_of_lower':
        ('WindowViolation', 'tau=4.0000000000005 is not above the lower bound 2/sqrt(lambda)=4.0'),
    'tau_just_above_lower': (None, 'BoundaryInvariant(lam=0.25, tau=4.000000000002)'),
    'tau_at_upper':
        ('WindowViolation', 'tau=16.25 is not below the upper bound lambda+1/lambda^2=16.25'),
    'tau_within_tol_of_upper':
        ('WindowViolation', 'tau=16.2499999999995 is not below the upper bound '
                            'lambda+1/lambda^2=16.25'),
    'tau_just_below_upper': (None, 'BoundaryInvariant(lam=0.25, tau=16.249999999998)'),
    'tau_nan': ('WindowViolation', 'tau must be a finite real, got nan'),
    'tau_inf': ('WindowViolation', 'tau must be a finite real, got inf'),
    'tau_int': (None, 'BoundaryInvariant(lam=0.25, tau=5)'),
    'tau_int_at_lower':
        ('WindowViolation', 'tau=4 is not above the lower bound 2/sqrt(lambda)=4.0'),
    'lam_and_tau_bad':
        ('WindowViolation', 'lambda=1.5 is not below 1; tau must be a finite real, got nan'),
    'lam_huge_int':
        ('WindowViolation', f'lambda must be a positive finite real, got {10**400!r}'),
    'tau_huge_int': ('WindowViolation', f'tau must be a finite real, got {10**400!r}'),
    'lam_large_int': ('WindowViolation', f'lambda={2**600!r} is not below 1'),
    'fg_sigma1_nan': ('ValueError', 'sigma1 must hold three finite reals, got (-1.0, nan, -1.0)'),
    'fg_sigma2_inf': ('ValueError', 'sigma2 must hold three finite reals, got (-1.0, -1.0, inf)'),
    'fg_sigma1_short': ('ValueError', 'sigma1 must hold three finite reals, got (-1.0, -1.0)'),
    'fg_sigma2_long':
        ('ValueError', 'sigma2 must hold three finite reals, got (-1.0, -1.0, -1.0, -1.0)'),
    'fg_tau_plus_nan': ('ValueError', 'tau_plus must be finite'),
    'fg_tau_minus_inf': ('ValueError', 'tau_minus must be finite'),
    'fg_int':
        (None, 'FGPants(sigma1=(-1, -1.0, -1.0), sigma2=(-1.0, -1.0, -1.0), tau_plus=0, '
               'tau_minus=0.0)'),
    'fg_bool':
        (None, 'FGPants(sigma1=(-1.0, -1.0, -1.0), sigma2=(-1.0, True, -1.0), tau_plus=0.0, '
               'tau_minus=False)'),
    'fg_list':
        (None, 'FGPants(sigma1=[-1.0, -1.0, -1.0], sigma2=(-1.0, -1.0, -1.0), tau_plus=0.0, '
               'tau_minus=0.0)'),
    'fg_sum_overflows':
        (None, 'FGPants(sigma1=(1e+308, 1e+308, -1.0), sigma2=(-1.0, -1.0, -1.0), tau_plus=0.0, '
               'tau_minus=0.0)'),
    'fg_string': ('TypeError', 'must be real number, not str'),
    'gp_s_zero': ('ValueError', 'internal parameter s must be positive, got 0.0'),
    'gp_t_negative': ('ValueError', 'internal parameter t must be positive, got -1.0'),
    'gp_s_inf': ('ValueError', 'internal parameter s must be positive, got inf'),
    'gp_t_nan': ('ValueError', 'internal parameter t must be positive, got nan'),
    'gp_s_int':
        (None, 'GoldmanPants(boundary=(BoundaryInvariant(lam=0.25, tau=5.0), '
               'BoundaryInvariant(lam=0.25, tau=5.0), BoundaryInvariant(lam=0.25, tau=5.0)), s=2, '
               't=1.0)'),
    'gp_s_true':
        (None, 'GoldmanPants(boundary=(BoundaryInvariant(lam=0.25, tau=5.0), '
               'BoundaryInvariant(lam=0.25, tau=5.0), BoundaryInvariant(lam=0.25, tau=5.0)), '
               's=True, t=1.0)'),
    'gp_t_false': ('ValueError', 'internal parameter t must be positive, got False'),
    'gp_s_subnormal':
        (None, 'GoldmanPants(boundary=(BoundaryInvariant(lam=0.25, tau=5.0), '
               'BoundaryInvariant(lam=0.25, tau=5.0), BoundaryInvariant(lam=0.25, tau=5.0)), '
               's=1e-320, t=1.0)'),
    'gp_two_invariants': ('ValueError', 'exactly three boundary invariants are required'),
    'gp_two_invariants_bad_s': ('ValueError', 'exactly three boundary invariants are required'),
    'config_valid':
        (None, 'PantsFlagConfig(x=1.0, a2=2.0, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)'),
    'config_x_zero': ('ValueError', 'x must be a positive finite real, got 0.0'),
    'config_a2_at_bound': ('ValueError', 'a2 = 1.0 must exceed 1.0'),
    'config_a3_at_x': ('ValueError', 'a3 = 1.0 must exceed 1.0'),
    'config_b1_at_bound': ('ValueError', 'b1 = 1.0 must exceed 1.0'),
    'config_b3_at_bound': ('ValueError', 'b3 = 1.0 must exceed 1.0'),
    'config_c2_at_bound': ('ValueError', 'c2 = 1.0 must exceed 1.0'),
    'config_xc1_at_bound': ('ValueError', 'x*c1 = 1.0 must exceed 1.0'),
    'config_xc1_scaled_at_bound': ('ValueError', 'x*c1 = 1.0 must exceed 1.0'),
    'config_c2_nan': ('ValueError', 'c2 must be a positive finite real, got nan'),
    'config_a3_inf': ('ValueError', 'a3 must be a positive finite real, got inf'),
    'config_b1_negative_and_a2_at_bound':
        ('ValueError', 'b1 must be a positive finite real, got -1.0'),
    'config_int': (None, 'PantsFlagConfig(x=1.0, a2=2, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)'),
    'config_bool_x':
        (None, 'PantsFlagConfig(x=True, a2=2.0, a3=2.0, b1=2.0, b3=2.0, c1=2.0, c2=2.0)'),
    'config_bool_b1': ('ValueError', 'b1 = True must exceed 1.0'),
    'fg_to_goldman_two_lengths':
        ('DomainViolation', 'ell1(A1) = -1.0 is not positive; ell2(A3) = -1.0 is not positive'),
    'fg_to_goldman_tau_overflows':
        ('WindowViolation', 'tau(A1) = exp(1334.6666666666665) overflows a float'),
    'fg_to_goldman_domain_beats_overflow':
        ('DomainViolation', 'ell2(A1) = -3.0 is not positive; ell2(A2) = -3.0 is not positive'),
    'fg_to_goldman_s_underflows': ('WindowViolation', 's = exp(-3050.0) underflows a float'),
    'fg_to_goldman_t_underflows':
        ('WindowViolation', 't = exp(-797.6867383124818) underflows a float'),
    'floats_floats': (None, '(1.5, -2.5, 0.0)'),
    'floats_ints': (None, '(1.0, 0.0, -3.0)'),
    'floats_mixed': (None, '(1.0, 2.5, 3.0)'),
    'floats_bools': (None, '(1.0, 0.0, 0.0)'),
    'floats_numpy_scalars': (None, '(0.5, 1.0, 2.0)'),
    'floats_ndarray': (None, '(1.0, 2.0, 3.0)'),
    'floats_two': ('ValueError', 'a 3-vector has three coordinates, got 2'),
    'floats_four': ('ValueError', 'a 3-vector has three coordinates, got 4'),
    'triple_valid': (None, '0.0'),
    'triple_l1p2_zero': ('DegenerateConfiguration', 'pairing l1.p2 is zero'),
    'triple_l3p2_zero': ('DegenerateConfiguration', 'pairing l3.p2 is zero'),
    'triple_l3p1_zero': ('DegenerateConfiguration', 'pairing l3.p1 is zero'),
    'triple_l2p1_zero': ('DegenerateConfiguration', 'pairing l2.p1 is zero'),
    'triple_l2p3_zero': ('DegenerateConfiguration', 'pairing l2.p3 is zero'),
    'triple_l1p3_zero': ('DegenerateConfiguration', 'pairing l1.p3 is zero'),
    'triple_l1p2_overflows': ('DegenerateConfiguration', 'pairing l1.p2 overflows a float'),
    'triple_l3p2_overflows': ('DegenerateConfiguration', 'pairing l3.p2 overflows a float'),
    'triple_l3p1_overflows': ('DegenerateConfiguration', 'pairing l3.p1 overflows a float'),
    'triple_l2p1_overflows': ('DegenerateConfiguration', 'pairing l2.p1 overflows a float'),
    'triple_l2p3_overflows': ('DegenerateConfiguration', 'pairing l2.p3 overflows a float'),
    'triple_l1p3_overflows': ('DegenerateConfiguration', 'pairing l1.p3 overflows a float'),
    'triple_l3p1_zero_l1p2_overflows':
        ('DegenerateConfiguration', 'pairing l1.p2 overflows a float'),
    'triple_l2p3_zero_l3p2_overflows':
        ('DegenerateConfiguration', 'pairing l3.p2 overflows a float'),
    'triple_l1p3_overflows_l2p1_zero': ('DegenerateConfiguration', 'pairing l2.p1 is zero'),
    'triple_negative': ('NonPositiveRatio', 'triple ratio must be positive, got -1.0'),
    'shear_valid': (None, '(-1.0986122886681098, 0.5108256237659907)'),
    'shear_up_zero': ('DegenerateConfiguration', 'pairing pos^neg^up is zero'),
    'shear_down_zero': ('DegenerateConfiguration', 'pairing pos^neg^down is zero'),
    'shear_lneg_down_zero': ('DegenerateConfiguration', 'pairing lneg.down is zero'),
    'shear_lneg_up_zero': ('DegenerateConfiguration', 'pairing lneg.up is zero'),
    'shear_lpos_up_zero': ('DegenerateConfiguration', 'pairing lpos.up is zero'),
    'shear_lpos_down_zero': ('DegenerateConfiguration', 'pairing lpos.down is zero'),
    'shear_up_overflows': ('DegenerateConfiguration', 'pairing pos^neg^up overflows a float'),
    'shear_down_overflows': ('DegenerateConfiguration', 'pairing pos^neg^down overflows a float'),
    'shear_lneg_down_overflows': ('DegenerateConfiguration', 'pairing lneg.down overflows a float'),
    'shear_lneg_up_overflows': ('DegenerateConfiguration', 'pairing lneg.up overflows a float'),
    'shear_lpos_up_overflows': ('DegenerateConfiguration', 'pairing lpos.up overflows a float'),
    'shear_lpos_down_overflows': ('DegenerateConfiguration', 'pairing lpos.down overflows a float'),
    'shear_up_zero_lpos_down_overflows': ('DegenerateConfiguration', 'pairing pos^neg^up is zero'),
    'shear_lneg_up_zero_lneg_down_overflows':
        ('DegenerateConfiguration', 'pairing lneg.down overflows a float'),
    'shear_lpos_up_zero_lpos_down_zero': ('DegenerateConfiguration', 'pairing lpos.up is zero'),
    'shear_down_all_zero':
        ('ValueError', 'homogeneous coordinates must be finite and not all zero: (0.0, 0.0, 0.0)'),
    'shear_down_nan':
        ('ValueError', 'homogeneous coordinates must be finite and not all zero: (nan, 3.0, -1.0)'),
    'shear_negative':
        ('NonPositiveRatio', 'shear ratios must be positive, got (-0.3333333333333333, '
                             '1.6666666666666667)'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_class_and_text(case):
    try:
        result = CASES[case]()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        got = (type(err).__name__, str(err))
    else:
        got = (None, repr(result))
    assert got == EXPECTED[case]


def test_every_case_has_a_recorded_outcome():
    assert set(EXPECTED) == set(CASES)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestOneCheckPerValue:
    def test_boundary_invariant_calls_check_window_once(self, monkeypatch):
        calls = counting(monkeypatch, spectral, "check_window")
        BoundaryInvariant(0.2, 6.0)
        assert calls == [(0.2, 6.0)]

    def test_fg_to_goldman_calls_validate_fg_domain_once(self, monkeypatch):
        calls = counting(monkeypatch, pants, "validate_fg_domain")
        f = FGPants(ONES, ONES, 0.0, 0.0)
        fg_to_goldman(f)
        assert len(calls) == 1 and calls[0][0] is f


class TestLocated:
    def test_prefix_class_cause_and_exit_code(self):
        with pytest.raises(SchemaError) as info:
            with located("pants 'P0'"):
                raise SchemaError("no such field")
        err = info.value
        assert type(err) is SchemaError
        assert str(err) == "pants 'P0': no such field"
        assert err.exit_code == 2
        assert type(err.__cause__) is SchemaError
        assert str(err.__cause__) == "no such field"
        assert err.__suppress_context__

    def test_subclass_with_extra_arguments_keeps_its_class(self):
        with pytest.raises(ClosureViolation, match=r"^curve 'c': closure fails$") as info:
            with located("curve 'c'"):
                raise ClosureViolation("closure fails", report=object())
        assert info.value.exit_code == 3

    def test_other_exceptions_pass_untouched(self):
        original = ValueError("internal parameter s must be positive, got 0.0")
        with pytest.raises(ValueError) as info:
            with located("pants 'P0'"):
                raise original
        assert info.value is original
        assert info.value.__cause__ is None
        assert str(info.value) == "internal parameter s must be positive, got 0.0"

    def test_nesting(self):
        with pytest.raises(WindowViolation) as info:
            with located("values.curves['c1']"):
                with located("pants 'P0'"):
                    raise WindowViolation("lambda=1.5 is not below 1")
        err = info.value
        assert str(err) == "values.curves['c1']: pants 'P0': lambda=1.5 is not below 1"
        assert str(err.__cause__) == "pants 'P0': lambda=1.5 is not below 1"
        assert str(err.__cause__.__cause__) == "lambda=1.5 is not below 1"

    def test_no_error(self):
        with located("pants 'P0'") as bound:
            value = 1
        assert bound is None
        assert value == 1
