"""Golden traces: SHA-256 of whole metrics CSVs for fixed (scenario, seed) pairs.

A change that is meant to keep behaviour (a faster neighbour search, a
refactor of the step pipeline) must leave every byte of these files as
it was.  A change that alters behaviour on purpose updates the hashes
and says why.
"""

import dataclasses
import hashlib
import math

import pytest

from swarmgames.scenarios import colony_default, monitoring_default
from swarmgames.sim import run


def _colony():
    # 240 s covers both cargo waves (120 s, 225 s) and the removal (172.5 s)
    return dataclasses.replace(colony_default(), t_final=240.0)


def _monitoring():
    return dataclasses.replace(monitoring_default(), t_final=200.0)


def _crowd():
    base = colony_default()
    return dataclasses.replace(
        base, n_robots=96, t_final=20.0,
        colony=dataclasses.replace(base.colony, min_separation=0.6))


def _crowd_removal():
    # 180 s takes the crowd through the removal at 172.5 s
    return dataclasses.replace(_crowd(), t_final=180.0)


def _colony500():
    # the crowd's density: the colony disk grows with the square root of n
    base = _crowd()
    return dataclasses.replace(
        base, n_robots=500, t_final=5.0,
        colony=dataclasses.replace(base.colony, R_i=5.0 * math.sqrt(500 / 96)))


def _sparse48():
    # robots placed 1.5 m apart: on 89 of its 601 numpy passes no pair is
    # within the cutoff, so min_dist comes from the sweep's scan past it
    base = colony_default()
    return dataclasses.replace(
        base, n_robots=48, t_final=60.0,
        colony=dataclasses.replace(base.colony, min_separation=1.5, R_i=12.0))


GOLDEN = [
    (_colony, 0, "09c2fa4f74c82a931a38dea3a7e923025ff0f2a763f2eff733227a822b1e1492"),
    (_colony, 1, "7ea48a6497876350a1add3141f7a537576a943a212ef48458e2507b6086e1527"),
    (_colony, 2, "d8ae3f54d971fe5749e21d6775e882dd8531baaedf5ff1df3bcd32ff94159cb2"),
    (_monitoring, 0, "7eab6d48a2dd7ce231184bba4716b25a93295d47645a105dfd19fc7a675212b9"),
    (_monitoring, 1, "8f90d070c9224f556729c7a4983c6bd8d2549c79901b75c3f7336dda10f5402a"),
    (_monitoring, 2, "8e55a1b91eef73989ffbbd68ea11d77e34d53430cac6a14fb2e3fdf4bc88ff92"),
    (_crowd, 0, "9e4f8078b041a3fa0a6fa8216d13dcaf6e4eab51400533dfea3de9be8b503f9f"),
    (_crowd_removal, 0, "5f6b62c67fc77366b83398325767be44d3a9a540b9687008669adae150560d56"),
    (_colony500, 0, "e37d7824530bee3ff0daac199fd2dfc2d1568629254b0e06ecaa216fea0b2be2"),
    (_sparse48, 0, "2d0eab8dbd0ab12c394ce21a74cde72ceab5ec73eb04c5a444d87b656b528e97"),
]


@pytest.mark.parametrize("make_config,seed,digest", GOLDEN,
                         ids=[f"{make.__name__[1:]}-{seed}" for make, seed, _ in GOLDEN])
def test_metrics_csv_matches_golden_hash(tmp_path, make_config, seed, digest):
    out = tmp_path / "metrics.csv"
    run(make_config(), seed).write_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
