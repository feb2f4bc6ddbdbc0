"""Seeded workload definitions: one generated fracloc config per op.

Every config is a pure function of (workload, seed, op index), drawn
with the stdlib ``random`` module so that generating inputs imports
nothing from the program under test.  All workloads use alpha = 0.5,
T = 1 and noiseless data; see README.md for why each one exists.
"""

import math
import random

ALPHA = 0.5


class Workload:
    """One workload: the CLI command it runs and how it draws configs."""

    def __init__(self, name, command, draw):
        self.name = name
        self.command = command
        self._draw = draw

    def config(self, seed, index):
        """The config of op ``index`` under ``seed``, without output_dir."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        cfg = {"config_version": 1, "alpha": ALPHA, "t_final": 1.0, "gamma0": 1.0}
        cfg.update(self._draw(rng, index))
        cfg["noise"] = {"sigma": 0.0, "seed": 0}
        return cfg


def _center(rng, radius=0.6):
    """Uniform point of the disk |c| <= radius."""
    r = radius * math.sqrt(rng.random())
    th = 2.0 * math.pi * rng.random()
    return [r * math.cos(th), r * math.sin(th)]


def two_inclusions(rng):
    """Two disks, |c| <= 0.6, centers >= 0.3 apart, one shared eps."""
    eps = rng.uniform(0.03, 0.07)
    first = _center(rng)
    while True:
        second = _center(rng)
        if math.dist(first, second) >= 0.3:
            break
    return [
        {"center": c, "eps": eps, "gamma": rng.choice([3.0, 50.0])}
        for c in (first, second)
    ]


def one_inclusion(rng):
    """A disk or an aspect-2 ellipse, |c| <= 0.6, eps in [0.03, 0.08]."""
    return [
        {
            "center": _center(rng),
            "eps": rng.uniform(0.03, 0.08),
            "gamma": rng.choice([0.2, 3.0, 50.0]),
            "aspect": rng.choice([1.0, 2.0]),
        }
    ]


def _multi(n_sources, time_steps, resolution):
    def draw(rng, index):
        return {
            "time_steps": time_steps,
            "inclusions": two_inclusions(rng),
            "sources": {"kind": "full", "n": n_sources, "radius": 2.0},
            "scan": {"resolution": resolution, "peaks": 2, "min_separation": 0.1},
        }

    return draw


def _one_sweep(rng, index):
    return {"time_steps": 128, "inclusions": one_inclusion(rng)}


def _forward_io(rng, index):
    # two inclusions only: one-inclusion ops take about half as long, and
    # a mix of the two puts the op-time median between the modes
    th = 2.0 * math.pi * rng.random()
    return {
        "time_steps": 128,
        "inclusions": two_inclusions(rng),
        "background": {"direction": [math.cos(th), math.sin(th)]},
    }


WORKLOADS = {
    w.name: w
    for w in (
        # the 41x41 indicator scan is about three fifths of each op
        Workload("multi-scan", "locate-multi", _multi(10, 16, 41)),
        # 32 marches and 256 measurements at 48 steps; a coarser scan
        # than 41x41 mislocates inclusions 0.3 apart (1 op in ~100 at 21x21)
        Workload("multi-dense", "locate-multi", _multi(16, 48, 41)),
        Workload("one-sweep", "locate-one", _one_sweep),
        Workload("forward-io", "forward", _forward_io),
    )
}
