"""The benchmark's four workloads: seeded inputs, the op each drives, its exact output.

Every workload owns a fixed pool of entries.  Entry ``k`` has the op kind
``mix[k % len(mix)]`` and its inputs come from the library's own seeded
generators with seed ``k``, so each entry's exact output can be recorded once
(``record.py``) and checked on every run.  A run walks whole blocks of
``len(mix)`` entries, which keeps the op mix fixed; the run seed only picks
the order of the ops (see ``run.entry_stream``).

Pools hold about four times the ops one 25 s run completes on a 2-vCPU
container, so a run sees distinct bodies and a cache keyed on the body gains
nothing it would not gain in a real ``latslice scan``.  A further
``held_out_blocks`` blocks after the pool are drawn only by the held-out run
seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def digest(value) -> str:
    """Short exact fingerprint of a JSON-able output (sha256 of canonical JSON)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def report_output(lib, report):
    """Exact fingerprint of a verify report.

    ``observed_constant`` is dropped: it is a float rendered through the
    platform's ``pow``, and ``observed_constant_power`` keeps the exact value.
    """
    data = lib.verify.report_to_dict(report)
    data.pop("observed_constant", None)
    return digest(data)


def chain_failures(result) -> list[str]:
    """Names of failed chain entries; a ``hypothesis`` entry is data, not a failure."""
    chain = getattr(result, "chain", ())
    return [e.name for e in chain if not e.passed and e.name != "hypothesis"]


class Workload:
    name: str
    mix: tuple[str, ...]
    blocks: int
    held_out_blocks: int

    @property
    def size(self) -> int:
        """Entries with a recorded reference: the pool plus the held-out blocks."""
        return (self.blocks + self.held_out_blocks) * len(self.mix)

    def kind(self, k) -> str:
        return self.mix[k % len(self.mix)]

    def prepare(self, lib):
        """State every op of a run shares, built at setup."""
        return None

    def make_input(self, lib, ctx, k):
        raise NotImplementedError

    def run(self, lib, ctx, kind, payload):
        """The timed op."""
        raise NotImplementedError

    def output(self, lib, result):
        """The op's exact output in the JSON form the references store."""
        raise NotImplementedError


class ScanMain(Workload):
    """``verify_main(body, 2)`` on ``random:3`` bodies, as ``scan main`` runs it."""

    name = "scan-main"
    mix = ("main",)
    blocks = 700
    held_out_blocks = 250

    def make_input(self, lib, ctx, k):
        return lib.pkg.body_to_dict(lib.verify.random_symmetric_body(3, k, points=3, spread=3))

    def run(self, lib, ctx, kind, payload):
        return lib.pkg.verify_main(lib.pkg.body_from_dict(payload), 2)

    def output(self, lib, result):
        return report_output(lib, result)


class ScanSmall(Workload):
    """Short verify chains, where fixed per-call costs dominate."""

    name = "scan-small"
    mix = ("unconditional:3", "dim2", "unconditional:4", "dim2")
    blocks = 750
    held_out_blocks = 250

    def make_input(self, lib, ctx, k):
        kind = self.kind(k)
        if kind == "dim2":
            body = lib.verify.random_rational_symmetric_2d(k)
        else:
            body = lib.verify.random_unconditional_body(int(kind.split(":")[1]), k)
        return lib.pkg.body_to_dict(body)

    def run(self, lib, ctx, kind, payload):
        body = lib.pkg.body_from_dict(payload)
        if kind == "dim2":
            return lib.pkg.verify_dim2(body)
        return lib.pkg.verify_unconditional(body)

    def output(self, lib, result):
        return report_output(lib, result)


# Gauss-count bodies and, per query kind, the radius range [lo, hi] that
# keeps one query at roughly 5-150 ms on a 2-vCPU container.  Sublattice
# counts solve in rank d-1 coordinates and close the last axis, so they need
# far larger radii than full-lattice counts to do comparable work.
GAUSS_BODIES = {
    "random:3:0": ("random", 3, 0, {"count": (4, 14), "count-sub": (48, 400), "enumerate": (3, 10)}),
    "random:3:1": ("random", 3, 1, {"count": (3, 12), "count-sub": (32, 300), "enumerate": (2, 8)}),
    "random-unconditional:3:0": (
        "random-unconditional", 3, 0,
        {"count": (4, 16), "count-sub": (48, 400), "enumerate": (4, 14)},
    ),
    "random-unconditional:4:1": (
        "random-unconditional", 4, 1,
        {"count": (4, 11), "count-sub": (16, 64), "enumerate": (3, 6)},
    ),
    "random-unconditional:4:2": (
        "random-unconditional", 4, 2,
        {"count": (3, 6), "count-sub": (8, 32), "enumerate": (2, 4)},
    ),
    "cube:3": ("cube", 3, None, {"count": (16, 80), "count-sub": (400, 2000), "enumerate": (12, 32)}),
    "cross:3": ("cross", 3, None, {"count": (16, 64), "count-sub": (400, 2000), "enumerate": (12, 48)}),
    "box:3,1/2,2": ("box", 3, None, {"count": (16, 64), "count-sub": (256, 1500), "enumerate": (12, 24)}),
    "cube:4": ("cube", 4, None, {"count": (4, 16), "count-sub": (16, 80), "enumerate": (4, 8)}),
    "cross:4": ("cross", 4, None, {"count": (4, 11), "count-sub": (12, 48), "enumerate": (4, 12)}),
}


def _gauss_body(lib, kind, d, seed):
    if kind == "random":
        return lib.verify.random_symmetric_body(d, seed)
    if kind == "random-unconditional":
        return lib.verify.random_unconditional_body(d, seed)
    if kind == "cube":
        return lib.pkg.cube(d)
    if kind == "cross":
        return lib.pkg.cross(d)
    return lib.pkg.box([3, Fraction(1, 2), 2])


class GaussCount(Workload):
    """Dilate counting and enumeration on bodies built and warmed at setup."""

    name = "gauss-count"
    mix = ("count", "count-sub", "enumerate")
    blocks = 700
    held_out_blocks = 250

    def prepare(self, lib):
        bodies = {}
        for key, (kind, d, seed, _) in GAUSS_BODIES.items():
            body = _gauss_body(lib, kind, d, seed)
            body.facet_rows  # facet enumeration of V-rep bodies belongs to setup
            bodies[key] = body
        return bodies

    def make_input(self, lib, ctx, k):
        rng = random.Random(k)
        key = rng.choice(sorted(GAUSS_BODIES))
        _, d, _, radii = GAUSS_BODIES[key]
        kind = self.kind(k)
        lo, hi = radii[kind]
        q = rng.randint(1, 3)
        radius = str(Fraction(rng.randint(lo * q, hi * q), q))
        normal = None
        if kind == "count-sub":
            while normal is None or not any(normal):
                normal = [rng.randint(-3, 3) for _ in range(d)]
        return key, radius, normal

    def run(self, lib, ctx, kind, payload):
        key, radius, normal = payload
        body = ctx[key]
        r = Fraction(radius)
        if kind == "count":
            return lib.pkg.count_points(body, scale=r).total
        if kind == "count-sub":
            lat = lib.pkg.sublattice(lib.pkg.LatticeSubspace.from_normal(normal))
            return lib.pkg.count_points(body, lat, scale=r).total
        return len(lib.pkg.enumerate_points(body, scale=r))

    def output(self, lib, result):
        return result


class MahlerVolume(Workload):
    """Exact volume, polar volume and Mahler volume of ``random:4`` hulls."""

    name = "mahler-volume"
    mix = ("mahler",)
    blocks = 600
    held_out_blocks = 200

    def make_input(self, lib, ctx, k):
        return lib.pkg.body_to_dict(lib.verify.random_symmetric_body(4, k, points=3))

    def run(self, lib, ctx, kind, payload):
        body = lib.pkg.body_from_dict(payload)
        vol = lib.pkg.volume(body).value
        vol_polar = lib.pkg.polar_volume(body).value
        return vol, vol_polar, vol * vol_polar

    def output(self, lib, result):
        return [str(x) for x in result]


WORKLOADS = {w.name: w for w in (ScanMain(), ScanSmall(), GaussCount(), MahlerVolume())}
