"""The package evaluates lag sequences on the unit circle, builds the
frequency grid, writes the lag-domain trek congruence, takes the first
spectral regression and multiplies edge transfers along a walk each in one
place, so a second copy cannot creep back."""

from __future__ import annotations

from pathlib import Path

import pytest

import svarpg

SRC = Path(svarpg.__file__).resolve().parent


@pytest.mark.parametrize(
    "construction",
    [
        "np.exp(-1j",  # the table of powers in spectral._on_circle
        "2.0 * np.pi * np.arange",  # spectral.frequency_grid
        ".transpose(), tilted_convolve(",  # filters._sandwich
        "s_x = s.entry(x, x).real",  # identify._regress
        "for src, dst in path.edge_list()",  # spectral._path_product
    ],
)
def test_one_construction_in_the_package(construction):
    found = {path.name: path.read_text(encoding="utf-8").count(construction) for path in SRC.glob("*.py")}
    assert sum(found.values()) == 1, {name: n for name, n in found.items() if n}
