"""Seeded inputs for the benchmark.

Every input is a function of the seed alone.  Closed surfaces are "ring
chains": pants P0 .. P_{2g-3} sit in a cycle, slot 1 of P_i glued to slot 0
of P_{i+1}, and slot 2 of P_{2k} glued to slot 2 of P_{2k+1}.  That gives
2g-2 pants, 3g-3 gluings and no boundary, i.e. a closed genus-g surface.
Coordinates come from `convexproj.sampling.random_surface_goldman` at the
sampler's own ranges, and bd files are written through the library's own
`goldman_to_bd`.
"""

from __future__ import annotations

import json

import numpy as np

from convexproj import fileio
from convexproj.sampling import random_surface_goldman
from convexproj.surface import ArcData, Gluing, PantsDecomposition, build_decomposition, goldman_to_bd

# Rejection inputs and the exit code the CLI documents for each.
REJECT_WINDOW = 3      # tau below its window, on convert
REJECT_FIELD = 2       # unknown JSON field
REJECT_CLOSURE_CONVERT = 3  # broken bd closure, on convert --to goldman
REJECT_CLOSURE_VALIDATE = 1  # broken bd closure, on validate
REJECT_CURVE = 4       # flow on an unknown curve


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named stream, so adding a stream never
    shifts the values another stream draws."""
    return np.random.default_rng([seed, *stream.encode()])


def ring_chain(genus: int, rng: np.random.Generator) -> PantsDecomposition:
    """Closed genus-g ring chain; arc data is drawn from ``rng``."""
    if genus < 2:
        raise ValueError(f"a closed ring chain needs genus >= 2, got {genus}")
    n = 2 * genus - 2
    pants = [f"P{i}" for i in range(n)]

    def arc() -> ArcData:
        left, right = rng.integers(1, 4, size=2)
        return ArcData(int(left), int(right))

    gluings = [Gluing(f"r{i}", (pants[i], 1), (pants[(i + 1) % n], 0), arc()) for i in range(n)]
    gluings += [
        Gluing(f"s{k}", (pants[2 * k], 2), (pants[2 * k + 1], 2), arc()) for k in range(genus - 1)
    ]
    return build_decomposition(pants, gluings, [])


def closed_surface(genus: int, seed: int, stream: str):
    """(decomposition, goldman coordinates) of a seeded closed ring chain."""
    d = ring_chain(genus, rng_for(seed, stream + ".arcs"))
    return d, random_surface_goldman(d, rng_for(seed, stream + ".values"))


def goldman_document(d, g) -> str:
    return fileio.dumps(fileio.file_from_goldman(d, g))


def bd_document(d, g) -> str:
    return fileio.dumps(fileio.file_from_bd(d, goldman_to_bd(d, g)))


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def reject_window(goldman_text: str, rng: np.random.Generator) -> str:
    """Move one curve's tau below 2/sqrt(lambda); convert must exit 3."""
    doc = json.loads(goldman_text)
    curves = doc["values"]["curves"]
    key = sorted(curves)[int(rng.integers(len(curves)))]
    entry = curves[key]
    entry["tau"] = 0.5 * 2.0 / entry["lambda"] ** 0.5
    return json.dumps(doc, indent=2) + "\n"


def reject_field(text: str) -> str:
    """Add a field the schema does not know; every command must exit 2."""
    doc = json.loads(text)
    doc["values"]["comment"] = "not part of schema version 1"
    return json.dumps(doc, indent=2) + "\n"


def reject_closure(bd_text: str, rng: np.random.Generator) -> str:
    """Lower one pants' tau_minus so its lengths stay positive but no longer
    match across the curves it bounds; convert --to goldman must exit 3 and
    validate must exit 1."""
    doc = json.loads(bd_text)
    pants = doc["values"]["pants"]
    key = sorted(pants)[int(rng.integers(len(pants)))]
    pants[key]["tau_minus"] -= 0.25
    return json.dumps(doc, indent=2) + "\n"

