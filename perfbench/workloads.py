"""The benchmark's workloads: fixed shapes, entries drawn from the seed.

Every workload fixes its shapes, planted ranks and planted degree splits;
the workload seed only draws matrix entries and the seeds of the
``RandomPlan`` each call gets.  Drawing the split from the seed as well
moved 120x24 solves between 0.20 and 0.64 s, which no bound survives.

A planted input is M = A @ B with A of size m x r and degree ``left``,
and B of size r x n and degree d - left, so M has degree d and rank r
(with high probability; the oracle referees the actual rank).
"""

from __future__ import annotations

import random
import sys
import zlib
from dataclasses import dataclass

import numpy as np

import polynull

DEFAULT_PRIME = polynull.DEFAULT_PRIME  # 2**31 - 1
SMALL_PRIME = 1009


@dataclass(frozen=True)
class Planted:
    """Shape of a ``nullspace`` input: m x n, rank r, degree d split at ``left``."""

    m: int
    n: int
    r: int
    d: int
    left: int


@dataclass(frozen=True)
class Product:
    """Shape of a ``pm_mul`` input: (m x k) times (k x n), both of degree d."""

    m: int
    k: int
    n: int
    d: int


# Layers whose counters must be nonzero in a traced run, per kind of call.
# A wrapper that misses a module binding leaves its counter at zero.
NULLSPACE_LAYERS = (
    "polymat.mat_mul_mod.calls",
    "polymat.mat_mul_mod.macs",
    "polymat.pm_mul.calls",
    "polymat.pm_mul_mod.calls",
    "polymat.const_inv.calls",
    "polymat.const_rank.self_s",
    "polymat.independent_columns.self_s",
    "polymat.is_row_reduced.self_s",
    "series.left_quotient_series.calls",
    "series.left_quotient_series.order_sum",
    "orderbasis.sigma_basis.calls",
    "orderbasis.sigma_basis.steps",
    "nullspace.nullspace.self_s",
    "nullspace.rows_annihilate.total_s",
    "nullspace.attempts",
)
PRODUCT_LAYERS = (
    "polymat.mat_mul_mod.calls",
    "polymat.mat_mul_mod.macs",
    "polymat.pm_mul.calls",
    "polymat.const_inv.calls",
)


@dataclass(frozen=True)
class Workload:
    name: str
    prime: int
    shapes: tuple  # one pass of the closed loop calls each shape once
    warmup: object  # a miniature input of the same kind, run during set-up
    top_layer: str | None  # layer predicted to have the most self time
    required: tuple[str, ...]  # per-layer metrics that must be nonzero

    @property
    def kind(self) -> str:
        return "pm_mul" if isinstance(self.shapes[0], Product) else "nullspace"


def _small_corpus_shapes() -> tuple[Planted, ...]:
    # Fixed once, independent of the workload seed.
    rng = random.Random(0x5EED)
    shapes = []
    for _ in range(300):
        m, n, d = rng.randrange(1, 25), rng.randrange(1, 17), rng.randrange(0, 6)
        r = rng.randrange(1, min(m, n) + 1)
        shapes.append(Planted(m, n, r, d, rng.randrange(d + 1)))
    return tuple(shapes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lift-deep",
            DEFAULT_PRIME,
            (Planted(32, 24, 20, 32, 16),),
            Planted(8, 6, 4, 4, 2),
            "polymat.mat_mul_mod",
            NULLSPACE_LAYERS,
        ),
        Workload(
            "wide-harvest",
            DEFAULT_PRIME,
            (Planted(120, 24, 20, 4, 2),) * 8,
            Planted(30, 6, 5, 2, 1),
            "orderbasis.sigma_basis",
            NULLSPACE_LAYERS,
        ),
        Workload(
            "small-corpus",
            SMALL_PRIME,
            _small_corpus_shapes(),
            Planted(8, 6, 4, 2, 1),
            None,
            NULLSPACE_LAYERS,
        ),
        Workload(
            "product",
            DEFAULT_PRIME,
            (Product(32, 32, 32, 64),) * 8,
            Product(4, 4, 4, 4),
            "polymat.mat_mul_mod",
            PRODUCT_LAYERS,
        ),
    )
}


def _random(lib, field, rng: np.random.Generator, m: int, n: int, d: int):
    return lib.PolyMatrix(field, rng.integers(0, field.p, size=(m, n, d + 1)))


def make_input(lib, shape, field, rng: np.random.Generator):
    if isinstance(shape, Product):
        return (
            _random(lib, field, rng, shape.m, shape.k, shape.d),
            _random(lib, field, rng, shape.k, shape.n, shape.d),
        )
    left = _random(lib, field, rng, shape.m, shape.r, shape.left)
    right = _random(lib, field, rng, shape.r, shape.n, shape.d - shape.left)
    return lib.pm_mul(left, right)


def _rng(workload: Workload, seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.name.encode()), seed % 2**64, *index])


def make_inputs(workload: Workload, seed: int, lib=polynull) -> list:
    """The pass of inputs; input i depends only on the workload, seed and i.

    ``lib`` is the package that holds them: the tree under test, or the
    pinned baseline, which gets equal inputs (the arithmetic is exact)."""
    field = lib.FieldSpec(workload.prime)
    return [
        make_input(lib, shape, field, _rng(workload, seed, 0, i))
        for i, shape in enumerate(workload.shapes)
    ]


def warmup_input(workload: Workload, seed: int, lib=polynull):
    field = lib.FieldSpec(workload.prime)
    return make_input(lib, workload.warmup, field, _rng(workload, seed, 1))


def plan_seed(workload: Workload, seed: int, call: int) -> int:
    """Seed of the ``RandomPlan`` used by call number ``call`` of a run."""
    return random.Random(f"{workload.name}:{seed}:plan:{call}").getrandbits(63)


def call(workload: Workload, inp, plan: int, lib=polynull):
    """One public call of ``lib``, looked up at call time so a traced binding is used."""
    if workload.kind == "pm_mul":
        return sys.modules[f"{lib.__name__}.polymat"].pm_mul(*inp)
    return sys.modules[f"{lib.__name__}.nullspace"].nullspace(inp, lib.RandomPlan(seed=plan))
