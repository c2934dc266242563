"""Packaged regression fixtures: small posets with known golden properties.

- chain_product_2x3: product of a 2-chain and a 3-chain; 10 order ideals
  with the Gaussian-coefficient rank generating function.
- catalan_p3: the 9-element poset whose lattice of order ideals counts the
  fourth Catalan number, 14.
- two_color_example: a 6-vertex two-color grid poset whose 15-element ideal
  lattice splits into beta components of sizes 3, 6, 4, 2.
- nonsplitting_grid: an 11-vertex two-color grid poset decomposing into a
  6-chain and a 5-chain whose ideal lattice satisfies the structure
  condition for no 2x2 matrix.
"""

from __future__ import annotations

from .serialize import parse, poset_from_obj

FIXTURE_NAMES = (
    "chain_product_2x3",
    "catalan_p3",
    "two_color_example",
    "nonsplitting_grid",
)


def load_fixture(name: str):
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    import importlib.resources  # deferred: only loading a fixture pays for its import
    path = importlib.resources.files("ranktwo.data").joinpath(f"{name}.json")
    return poset_from_obj(parse(path.read_text(encoding="utf-8"), str(path)))
