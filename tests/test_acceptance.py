"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here and nowhere else.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import convexproj.cli as cli
from convexproj.flags import config_from_fg, oracle_check, reconstruct_monodromy, wedge2
from convexproj.pants import (
    FGPants,
    GoldmanPants,
    crossratios,
    fg_to_goldman,
    goldman_to_fg,
    quadratic_value,
    validate_fg_domain,
)
from convexproj.sampling import (
    random_fg_pants,
    random_goldman_pants,
    random_surface_goldman,
)
from convexproj.spectral import BoundaryInvariant, eigen_from_boundary
from convexproj.surface import (
    ArcData,
    BoundarySlot,
    Gluing,
    bd_to_goldman,
    build_decomposition,
    bulge_flow,
    coordinate_count,
    goldman_to_bd,
    twist_flow,
    validate_closure,
)

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"

N_TUPLES = 1000
E = math.e
SQ5 = math.sqrt(5.0)


def _passed(number: int, message: str):
    print(f"\ncriterion {number}: PASS - {message}")


def goldman_samples(seed, count=N_TUPLES):
    rng = np.random.default_rng(seed)
    return [random_goldman_pants(rng) for _ in range(count)]


def fg_samples(seed, count=N_TUPLES):
    rng = np.random.default_rng(seed)
    return [random_fg_pants(rng) for _ in range(count)]


def test_criterion_1_round_trip_bijection():
    worst_rel = 0.0
    for g in goldman_samples(101):
        back = fg_to_goldman(goldman_to_fg(g))
        values = [*(b.lam for b in g.boundary), *(b.tau for b in g.boundary), g.s, g.t]
        returned = [
            *(b.lam for b in back.boundary), *(b.tau for b in back.boundary),
            back.s, back.t,
        ]
        for a, b in zip(values, returned):
            worst_rel = max(worst_rel, abs(b - a) / abs(a))
    assert worst_rel <= 1e-10

    worst_abs = 0.0
    for f in fg_samples(102):
        back = goldman_to_fg(fg_to_goldman(f))
        pairs = zip(
            (*f.sigma1, *f.sigma2, f.tau_plus, f.tau_minus),
            (*back.sigma1, *back.sigma2, back.tau_plus, back.tau_minus),
        )
        for a, b in pairs:
            worst_abs = max(worst_abs, abs(b - a))
    assert worst_abs <= 1e-10
    _passed(1, f"{N_TUPLES} round trips each way, worst rel {worst_rel:.2e}, "
               f"worst abs {worst_abs:.2e}")


def test_criterion_2_oracle_certification():
    worst = 0.0
    worst_sum = 0.0
    for f in fg_samples(102):
        report = oracle_check(f)
        worst = max(worst, max(report.sigma1_residuals), max(report.sigma2_residuals),
                    report.tau_plus_residual)
        worst_sum = max(worst_sum, report.tau_sum_residual)
    assert worst <= 1e-10
    assert worst_sum <= 1e-10
    _passed(2, f"wedge recomputation residual {worst:.2e}, "
               f"triangle-sum residual {worst_sum:.2e} over {N_TUPLES} tuples")


def test_criterion_3_quadratic_identities():
    from convexproj.pants import solve_s

    worst_res = 0.0
    worst_s = 0.0
    for g in goldman_samples(103):
        f = goldman_to_fg(g)
        rho = crossratios(f)
        lam = [b.lam for b in g.boundary]
        assert all(r > 1.0 for r in rho)
        for i in range(3):
            worst_res = max(worst_res, abs(rho[i] - quadratic_value(g, i)))
            recovered = solve_s(
                rho[i], lam[i], lam[(i + 1) % 3], lam[(i - 1) % 3], g.boundary[i].tau
            )
            worst_s = max(worst_s, abs(recovered - g.s) / g.s)
    assert worst_res <= 1e-9
    assert worst_s <= 1e-10
    _passed(3, f"all crossratios > 1, identity residual {worst_res:.2e}, "
               f"s recovered to {worst_s:.2e}")


def test_criterion_4_closed_form_spot_values():
    tol = 1e-12
    cases = [
        # (goldman tuple, sigma value, tau_plus, tau_minus)
        (GoldmanPants((BoundaryInvariant(0.2, 6.0),) * 3, 1.0, 5.0 + SQ5),
         0.5 * math.log(0.2)),
        (GoldmanPants((BoundaryInvariant(E**-2, E**2 + 1.0),) * 3, 1.0, E * (E + 1.0)),
         -1.0),
    ]
    for g, sigma in cases:
        f = goldman_to_fg(g)
        assert f.sigma1 == pytest.approx((sigma,) * 3, rel=tol)
        assert f.sigma2 == pytest.approx((sigma,) * 3, rel=tol)
        assert f.tau_plus == pytest.approx(0.0, abs=tol)
        assert f.tau_minus == pytest.approx(0.0, abs=tol)
        forward = fg_to_goldman(FGPants((sigma,) * 3, (sigma,) * 3, 0.0, 0.0))
        for b, expected in zip(forward.boundary, g.boundary):
            assert b.lam == pytest.approx(expected.lam, rel=tol)
            assert b.tau == pytest.approx(expected.tau, rel=tol)
        assert forward.s == pytest.approx(g.s, rel=tol)
        assert forward.t == pytest.approx(g.t, rel=tol)
        # certified independently by the flag-geometry oracle
        assert oracle_check(f).max_residual <= tol
    _passed(4, "both closed-form tuples match in both directions at 1e-12")


def test_criterion_5_hyperbolic_characterization():
    rng = np.random.default_rng(105)
    worst_forward = 0.0
    worst_backward = 0.0
    checked = 0
    for k in range(N_TUPLES):
        g = random_goldman_pants(rng)
        if k % 2 == 0:
            g = GoldmanPants(g.boundary, 1.0, g.t)
            f = goldman_to_fg(g)
            worst_forward = max(worst_forward, abs(sum(f.sigma1) - sum(f.sigma2)))
        else:
            f = random_fg_pants(rng)
            shift = (sum(f.sigma1) - sum(f.sigma2)) / 3.0
            balanced = FGPants(
                f.sigma1, tuple(v + shift for v in f.sigma2), f.tau_plus, f.tau_minus
            )
            if not validate_fg_domain(balanced):
                continue
            worst_backward = max(worst_backward, abs(fg_to_goldman(balanced).s - 1.0))
            checked += 1
    assert worst_forward <= 1e-10
    assert worst_backward <= 1e-10
    assert checked > N_TUPLES // 4

    worst_locus = 0.0
    for _ in range(200):
        lam = math.exp(rng.uniform(-3.0, -0.1))
        g = GoldmanPants(
            (BoundaryInvariant(lam, 1.0 + 1.0 / lam),) * 3,
            1.0,
            math.exp(rng.uniform(-2.0, 2.0)),
        )
        f = goldman_to_fg(g)
        worst_locus = max(
            worst_locus,
            max(abs(a - b) for a, b in zip(f.sigma1, f.sigma2)),
            abs(f.tau_plus + f.tau_minus),
        )
    assert worst_locus <= 1e-10
    _passed(5, f"s=1 <-> equal shear sums ({worst_forward:.2e}/{worst_backward:.2e}); "
               f"hyperbolic locus symmetric to {worst_locus:.2e}")


def test_criterion_6_monodromy_reconstruction():
    worst_det = 0.0
    worst_spec = 0.0
    worst_fix = 0.0
    worst_flag = 0.0
    for f in fg_samples(106, count=100):
        g = fg_to_goldman(f)
        config = config_from_fg(f.sigma1, f.sigma2, f.tau_plus)
        eigen = [eigen_from_boundary(b) for b in g.boundary]
        result = reconstruct_monodromy(config, eigen)
        inner = config.inner_flags
        for i, m in enumerate(np.array(branch.rows) for (branch,) in result.branches):
            worst_det = max(worst_det, abs(np.linalg.det(m) - 1.0))
            values, vectors = np.linalg.eig(m)
            order = np.argsort(values.real)
            spectrum = values.real[order]
            wanted = np.array([eigen[i].lam, eigen[i].mu, eigen[i].nu])
            worst_spec = max(worst_spec, float(np.max(np.abs(spectrum - wanted) / wanted)))
            # repelling eigenvector sits at the prescribed coordinate point
            point = np.array(inner[i].point)
            image = m @ point - eigen[i].lam * point
            worst_fix = max(worst_fix, float(np.linalg.norm(image)))
            # unstable flag equals the inner flag
            v_lam = np.real(vectors[:, order[0]])
            v_mu = np.real(vectors[:, order[1]])
            point_dir = v_lam / np.linalg.norm(v_lam)
            target = point / np.linalg.norm(point)
            point_res = min(
                np.linalg.norm(point_dir - target), np.linalg.norm(point_dir + target)
            )
            span = wedge2(v_lam, v_mu)
            span = span / np.linalg.norm(span)
            line = np.array(inner[i].line) / np.linalg.norm(inner[i].line)
            line_res = min(np.linalg.norm(span - line), np.linalg.norm(span + line))
            worst_flag = max(worst_flag, point_res, line_res)
    assert worst_det <= 1e-10
    assert worst_spec <= 1e-8
    assert worst_fix <= 1e-8
    assert worst_flag <= 1e-8
    _passed(6, f"100 reconstructions: det {worst_det:.2e}, spectrum {worst_spec:.2e}, "
               f"fixed point {worst_fix:.2e}, unstable flag {worst_flag:.2e}")


def surface_cases():
    return {
        (0, 3): build_decomposition(
            ["P0"], [], [BoundarySlot(f"a{k}", ("P0", k)) for k in range(3)]
        ),
        (1, 1): build_decomposition(
            ["P0"],
            [Gluing("c1", ("P0", 0), ("P0", 1), ArcData(2, 3))],
            [BoundarySlot("a1", ("P0", 2))],
        ),
        (2, 0): build_decomposition(
            ["P0", "P1"],
            [Gluing(f"c{k}", ("P0", k), ("P1", k), ArcData(1, 2)) for k in range(3)],
            [],
        ),
        (0, 4): build_decomposition(
            ["P0", "P1"],
            [Gluing("c1", ("P0", 0), ("P1", 0), ArcData(2, 2))],
            [
                BoundarySlot("a1", ("P0", 1)),
                BoundarySlot("a2", ("P0", 2)),
                BoundarySlot("a3", ("P1", 1)),
                BoundarySlot("a4", ("P1", 2)),
            ],
        ),
        (1, 2): build_decomposition(
            ["P0", "P1"],
            [
                Gluing("c1", ("P0", 0), ("P1", 0), ArcData(2, 3)),
                Gluing("c2", ("P0", 1), ("P1", 1), ArcData(3, 2)),
            ],
            [BoundarySlot("a1", ("P0", 2)), BoundarySlot("a2", ("P1", 2))],
        ),
    }


def test_criterion_7_surface_level():
    rng = np.random.default_rng(107)
    worst_rt = 0.0
    worst_closure = 0.0
    for (genus, n), d in surface_cases().items():
        counts = coordinate_count(genus, n)
        chi = 2 - 2 * genus - n
        assert counts.goldman_total == 16 * genus + 8 * n - 16 == 8 * abs(chi)
        assert counts.bd_raw - counts.closure_constraints == counts.goldman_total
        for _ in range(20):
            g = random_surface_goldman(d, rng)
            b = goldman_to_bd(d, g)
            worst_closure = max(worst_closure, validate_closure(d, b).max_residual)
            back = bd_to_goldman(d, b)
            for key in g.curves:
                worst_rt = max(
                    worst_rt,
                    abs(back.curves[key].lam / g.curves[key].lam - 1.0),
                    abs(back.curves[key].tau / g.curves[key].tau - 1.0),
                )
            for key in g.uv:
                worst_rt = max(
                    worst_rt,
                    abs(back.uv[key][0] - g.uv[key][0]),
                    abs(back.uv[key][1] - g.uv[key][1]),
                )
            for key in g.pants:
                worst_rt = max(
                    worst_rt,
                    abs(back.pants[key][0] / g.pants[key][0] - 1.0),
                    abs(back.pants[key][1] / g.pants[key][1] - 1.0),
                )
    assert worst_rt <= 1e-10
    assert worst_closure <= 1e-10
    _passed(7, f"5 surface types: round trip {worst_rt:.2e}, closure {worst_closure:.2e}, "
               f"all count identities hold")


def test_criterion_8_flow_laws():
    rng = np.random.default_rng(108)
    cases = surface_cases()
    torus = cases[(1, 1)]
    others = [cases[(2, 0)], cases[(1, 2)], cases[(0, 4)]]
    worst = 0.0
    for k in range(100):
        d = torus if k % 2 == 0 else others[k % 3]
        curve = d.internal_curves()[k % len(d.internal_curves())]
        g = random_surface_goldman(d, rng)
        u1, u2, v1 = rng.uniform(-1.5, 1.5, 3)

        # additivity
        a = twist_flow(d, twist_flow(d, g, curve, u1), curve, u2)
        b = twist_flow(d, g, curve, u1 + u2)
        worst = max(worst, abs(a.uv[curve][0] - b.uv[curve][0]))
        a = bulge_flow(d, bulge_flow(d, g, curve, u1), curve, u2)
        b = bulge_flow(d, g, curve, u1 + u2)
        worst = max(worst, abs(a.uv[curve][1] - b.uv[curve][1]))

        # twist/bulge commutation on the same curve
        a = bulge_flow(d, twist_flow(d, g, curve, u1), curve, v1)
        b = twist_flow(d, bulge_flow(d, g, curve, v1), curve, u1)
        worst = max(worst, abs(a.uv[curve][0] - b.uv[curve][0]),
                    abs(a.uv[curve][1] - b.uv[curve][1]))

        # equivariance with conversion, on both coordinate sides
        bd = goldman_to_bd(d, g)
        left = goldman_to_bd(d, bulge_flow(d, twist_flow(d, g, curve, u1), curve, v1))
        right = bulge_flow(d, twist_flow(d, bd, curve, u1), curve, v1)
        worst = max(
            worst,
            abs(left.curve_shears[curve][0] - right.curve_shears[curve][0]),
            abs(left.curve_shears[curve][1] - right.curve_shears[curve][1]),
        )
    assert worst <= 1e-12
    _passed(8, f"additivity, commutation and equivariance to {worst:.2e} over 100 cases")


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    samples = ["pants_goldman.json", "torus_goldman.json", "genus2_goldman.json"]
    flow_curves = {"pants_goldman.json": None, "torus_goldman.json": "c1",
                   "genus2_goldman.json": "c2"}
    for name in samples:
        source = SAMPLES / name
        bd_path = tmp_path / f"{name}.bd.json"
        back_path = tmp_path / f"{name}.back.json"
        assert run_cli("convert", source, "--to", "bd", bd_path) == 0
        assert run_cli("validate", source) == 0
        assert run_cli("validate", bd_path) == 0
        assert run_cli("oracle", bd_path, "--monodromy") == 0
        assert run_cli("render", bd_path, "--pants", "P0",
                       tmp_path / f"{name}.svg") == 0
        svg = (tmp_path / f"{name}.svg").read_text()
        assert svg.count("<polygon") == 4 and svg.count("<line") == 3
        curve = flow_curves[name]
        if curve is None:
            # the pair of pants has no internal curve: exit 4 by contract
            assert run_cli("flow", source, "--curve", "missing",
                           "--twist", "1", tmp_path / "never.json") == 4
        else:
            flowed = tmp_path / f"{name}.flowed.json"
            assert run_cli("flow", bd_path, "--curve", curve,
                           "--twist", "0.25", flowed) == 0
        # convert twice returns the original values
        assert run_cli("convert", bd_path, "--to", "goldman", back_path) == 0
        original = json.loads(source.read_text())["values"]
        returned = json.loads(back_path.read_text())["values"]
        for key, entry in original["curves"].items():
            for field, value in entry.items():
                assert returned["curves"][key][field] == pytest.approx(
                    value, rel=1e-10, abs=1e-12
                )
        for key, entry in original["pants"].items():
            for field, value in entry.items():
                assert returned["pants"][key][field] == pytest.approx(value, rel=1e-10)
    # specified error codes
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("convert", bad, "--to", "bd", tmp_path / "x.json") == 2
    broken = json.loads((SAMPLES / "pants_goldman.json").read_text())
    broken["values"]["curves"]["a1"]["tau"] = 4.0
    bad_window = tmp_path / "bad_window.json"
    bad_window.write_text(json.dumps(broken))
    assert run_cli("convert", bad_window, "--to", "bd", tmp_path / "x.json") == 3
    capsys.readouterr()
    _passed(9, "three sample surfaces convert, validate, certify, flow and render "
               "with the documented exit codes")
