"""The three workloads: which command runs on which instances.

A workload's round is a fixed list of cases: its seeded instances, drawn
from `--seed`, then its fixed corpus, drawn from constant keys so that it is
the same in every run.  A seeded key is [seed, tag, k]; a fixed key is
[tag, k], a different seed sequence whatever the seed.  The fixed corpus
holds what the workload exists for on families where the program fails on
some instances (faults F1 and F2 of the README), so that the failed share
of a round does not depend on the seed; the seeded instances come from
families where it never failed in the probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import generators as gen


@dataclass(frozen=True)
class Case:
    name: str
    doc: dict


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    seeded: Callable[[int], list[dict]]
    fixed: Callable[[], list[dict]]
    warmup: Callable[[], dict]

    def cases(self, seed: int) -> list[Case]:
        return [Case(f"seeded-{k:03d}", doc) for k, doc in enumerate(self.seeded(seed))] + [
            Case(f"fixed-{k:02d}", doc) for k, doc in enumerate(self.fixed())
        ]


def _alpha(k):
    return gen.ALPHAS[k % 3]


# ud-price: 8 seeded 20 x 100 grids, alpha cycling over {0, 0.3, 0.6}, whose
# types want one good each, for the welfare solve; and a fixed corpus of five
# 20 x 100 grids whose types want one or two goods of a block, where
# `evaluate` splits the types over tied goods.  On three of them the welfare
# solve stalls (fault F2); on the other two `split_min_cost` leaves through
# its stall cap after thousands of projected-gradient steps.
UD_PRICE = Workload(
    command=("price-ud", "--diagnostics"),
    seeded=lambda seed: [gen.ud_grid([seed, 1, k], _alpha(k)) for k in range(8)],
    fixed=lambda: [gen.ud_grid([1, k], _alpha(k), choices=2) for k in range(5)],
    warmup=lambda: gen.ud_grid([1, 999], 0.3, n_goods=10, n_types=20),
)

# mm-ladder: 12 seeded 10 x 30 markets with bundle ratios 2 and 4 whose
# reserves never bind, and a fixed corpus of twenty 10 x 30 conftest-cost
# markets whose types want one to three bundles: reserves bind on some rungs
# of most of them, and the ladder hits fault F1 on five.
MM_LADDER = Workload(
    command=("price-mm", "--dummy-ladder-dump"),
    seeded=lambda seed: [gen.mm_market([seed, 2, k], _alpha(k), gen.MM_RATIOS[k % 2]) for k in range(12)],
    fixed=lambda: [gen.mm_conftest_market([2, k], _alpha(k), gen.MM_RATIOS[k % 2]) for k in range(20)],
    warmup=lambda: gen.mm_market([2, 999], 0.3, 2, n_goods=4, n_types=6),
)

# tiny-verify: 300 seeded instances of at most 3 goods x 3 types, half
# unit-demand and half multi-minded, and twenty fixed conftest multi-minded
# instances, where `verify` hits fault F1.
TINY_VERIFY = Workload(
    command=("verify",),
    seeded=lambda seed: [gen.tiny_ud([seed, 3, k], _alpha(k), 1 + k // 6 % 3, 1 + k // 18 % 3) if k % 2 == 0
                         else gen.tiny_mm([seed, 3, k], _alpha(k), conftest=False) for k in range(300)],
    fixed=lambda: [gen.tiny_mm([3, k], _alpha(k), conftest=True) for k in range(20)],
    warmup=lambda: gen.tiny_ud([3, 999], 0.0, 2, 2),
)

WORKLOADS = {"ud-price": UD_PRICE, "mm-ladder": MM_LADDER, "tiny-verify": TINY_VERIFY}
