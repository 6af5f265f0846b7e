"""Published reference data, shipped as JSON under perfcol/data.

The files hold the complete two-color and three-color matrix lists, the
survivor counts per (m, k), the Platonic candidate lists with their
realizability verdicts, and the Platonic spectra as monic integer
factors with multiplicities.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=None)
def load(name: str):
    path = resources.files(__package__).joinpath("data").joinpath(name)
    return json.loads(path.read_text())


def two_color_matrices() -> dict:
    """All 31 two-color matrices, keyed by regularity '3', '4', '5'."""
    return load("two_color_matrices.json")


def three_color_matrices() -> dict:
    """All 18 + 64 + 153 three-color matrices, keyed by regularity."""
    return load("three_color_matrices.json")


def survivor_counts() -> dict:
    """Survivor counts keyed by colors then regularity, e.g. ['4']['5']."""
    return load("survivor_counts.json")


def platonic_candidates() -> dict:
    """Per solid and color count: the candidate matrices that pass the
    integer-size and spectrum checks, and which of them (if any) admit
    no perfect coloring."""
    return load("platonic_candidates.json")


def platonic_spectra() -> dict:
    """Per solid: the characteristic polynomial of the edge graph as a
    list of (monic factor coefficients, multiplicity) pairs."""
    return load("platonic_spectra.json")


def platonic_char_polys() -> dict:
    """Per solid: platonic_spectra multiplied out, highest degree first."""
    polys = {}
    for solid, factors in platonic_spectra().items():
        poly = [1]
        for coeffs, mult in factors:
            for _ in range(mult):
                product = [0] * (len(poly) + len(coeffs) - 1)
                for i, x in enumerate(poly):
                    for j, y in enumerate(coeffs):
                        product[i + j] += x * y
                poly = product
        polys[solid] = poly
    return polys
