"""Seeded job generators for the four benchmark workloads.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of job
templates, and each job draws its free parameters (mu, tilt, bound factor,
steerkit ``--seed``, synthesized counts) from the benchmark seed.  The timed
loop always runs whole cycles, so the mix of job shapes -- and therefore the
job-time percentiles -- is the same for every seed.  Cycles are ordered so
that the median and the 90th percentile fall inside one job shape rather than
on the boundary between two.

steerkit sees only the generated flags and files; every parameter a checker
needs travels in ``Job.spec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("mc-point", "mc-grid", "analyze", "curves")

#: Full-size parameters, and the reduced ones of the smoke mode.
MC_SAMPLES = 1_000_000
SMOKE_MC_SAMPLES = 2 * 65536 + 4321  # still spans three chunks
ANALYZE_BOOTSTRAP = 1000
SMOKE_ANALYZE_BOOTSTRAP = 20
BOUND_FACTORS = ("1.0", "1.1", "1.2")

# (scheme, m, class, histogram bins) of one mc-point cycle.  Sorted by job
# time the cycle reads dihedral < haar m3 < haar m2 < isotropic m3 <
# isotropic m2 + histogram, so p50 lands on haar m2 and p90 on the
# histogram job.
MC_POINT_CYCLE = (
    ("dihedral", 2, "rom", None),
    ("haar", 2, "rom", None),
    ("haar", 3, "rom", None),
    ("isotropic", 2, "crm", 50),
    ("isotropic", 3, "crm", None),
)

# (scheme, m, class, mu grid) of one mc-grid cycle, all on two workers.  The
# dihedral 1001-point job, where threshold counting dominates, appears twice
# so that p50 lands inside one shape.
GRID_251 = "0.5:1:0.002"
GRID_1001 = "0:1:0.001"
MC_GRID_CYCLE = (
    ("dihedral", 2, "rom", GRID_251),
    ("dihedral", 2, "rom", GRID_1001),
    ("isotropic", 3, "crm", GRID_251),
    ("isotropic", 3, "crm", GRID_1001),
    ("dihedral", 2, "rom", GRID_1001),
)
MC_GRID_WORKERS = 2

# Settings count per analyze job; m = 2 carries four criteria and is the
# majority shape.
ANALYZE_CYCLE = (2, 3, 2)

# One curves cycle: two sweeps and one threshold job per criterion kind.
CURVES_CYCLE = ("sweep2", "shannon", "tsallis", "sweep3", "renyi", "db")
SWEEP_GRID = "0:90:1"
SWEEP_CRITERIA = {2: ("shannon", "tsallis2", "renyi", "db"), 3: ("shannon", "tsallis2", "db")}
TSALLIS_ORDERS = ("1.5", "2", "3")
RENYI_ORDERS = ("0.5,inf", "0.75,1.5", "1,1")


@dataclass
class Job:
    """One CLI invocation; ``--out`` is appended by the harness."""

    kind: str
    argv: list
    work: int  # samples, replicates or rows the job completes
    spec: dict = field(default_factory=dict)


def grid_values(text: str) -> list:
    """Expand START:STOP:STEP exactly as the CLI documents it (stop inclusive)."""
    start, stop, step = (float(p) for p in text.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


class Workload:
    """Job source for one workload; the same seed yields the same jobs."""

    def __init__(self, name: str, seed: int, scratch: Path, smoke: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.smoke = smoke
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self._files = 0

    # -- public ------------------------------------------------------------

    def cycle(self) -> list:
        """The next cycle of jobs, with fresh seeded parameters."""
        make = {
            "mc-point": self._mc_point_cycle,
            "mc-grid": self._mc_grid_cycle,
            "analyze": self._analyze_cycle,
            "curves": self._curves_cycle,
        }[self.name]
        return make()

    def warmup(self) -> list:
        """Tiny versions of every job shape: first-call costs, not steady-state work."""
        jobs = []
        for job in self.cycle():
            argv = list(job.argv)
            if "--samples" in argv:
                argv[argv.index("--samples") + 1] = "20000"
            if "--bootstrap" in argv:
                argv[argv.index("--bootstrap") + 1] = "5"
            if "--alpha-grid" in argv:
                argv[argv.index("--alpha-grid") + 1] = "0:90:45"
            jobs.append(Job(job.kind, argv, 0, {}))
        return jobs

    # -- generators ----------------------------------------------------------

    def _samples(self) -> int:
        return SMOKE_MC_SAMPLES if self.smoke else MC_SAMPLES

    def _mc_job(self, scheme, m, mc_class, grid, workers, hist=None) -> Job:
        factor = BOUND_FACTORS[self.rng.integers(len(BOUND_FACTORS))]
        seed = int(self.rng.integers(2 ** 32))
        n = self._samples()
        argv = [
            "mc", "--m", str(m), "--class", mc_class, "--scheme", scheme,
            "--mu-grid", grid, "--samples", str(n), "--bound-factor", factor,
            "--seed", str(seed), "--workers", str(workers),
        ]
        if hist is not None:
            argv += ["--hist", str(hist)]
        mus = grid_values(grid) if ":" in grid else [float(grid)]
        kind = f"mc:{scheme}-m{m}" + (f"-{len(mus)}mu" if len(mus) > 1 else "")
        kind += "+hist" if hist is not None else ""
        spec = {"scheme": scheme, "m": m, "mus": mus, "factor": float(factor), "n": n,
                "hist": hist is not None}
        # A histogram pass evaluates every sample a second time.
        return Job(kind, argv, n * (2 if hist is not None else 1), spec)

    def _mc_point_cycle(self) -> list:
        jobs = []
        for scheme, m, mc_class, hist in MC_POINT_CYCLE:
            mu = f"{self.rng.uniform(0.8, 1.0):.4f}"
            jobs.append(self._mc_job(scheme, m, mc_class, mu, 1, hist))
        return jobs

    def _mc_grid_cycle(self) -> list:
        return [
            self._mc_job(scheme, m, mc_class, grid, MC_GRID_WORKERS)
            for scheme, m, mc_class, grid in MC_GRID_CYCLE
        ]

    def _analyze_cycle(self) -> list:
        bootstrap = SMOKE_ANALYZE_BOOTSTRAP if self.smoke else ANALYZE_BOOTSTRAP
        jobs = []
        for m in ANALYZE_CYCLE:
            mu = float(self.rng.uniform(0.8, 1.0))
            alpha = float(self.rng.uniform(0.0, 45.0))
            phi = float(self.rng.uniform(0.0, 60.0))
            per_setting = int(round(10.0 ** self.rng.uniform(3.0, 5.0)))
            path = self._write_counts(mu, alpha, phi, m, per_setting)
            criteria = ("shannon", "tsallis2", "db") + (("renyi",) if m == 2 else ())
            argv = [
                "analyze", "--input", str(path), "--criteria", ",".join(criteria),
                "--bootstrap", str(bootstrap), "--jitter", "0.1",
                "--seed", str(int(self.rng.integers(2 ** 31))),
            ]
            spec = {"mu": mu, "alpha": alpha, "phi": phi, "m": m, "criteria": criteria,
                    "bootstrap": bootstrap}
            # Poisson bootstrap plus jittered-vector replicates.
            jobs.append(Job(f"analyze:m{m}", argv, 2 * bootstrap, spec))
        return jobs

    def _curves_cycle(self) -> list:
        jobs = []
        for kind in CURVES_CYCLE:
            mu = f"{self.rng.uniform(0.5, 1.0):.4f}"
            phi = f"{self.rng.uniform(0.0, 90.0):.2f}"
            if kind.startswith("sweep"):
                m = int(kind[-1])
                mode = ("mub", "nom")[self.rng.integers(2)]
                argv = ["sweep", "--m", str(m), "--mu", mu, "--phi", phi,
                        "--alpha-grid", SWEEP_GRID, "--mode", mode]
                criteria = SWEEP_CRITERIA[m]
                if m == 3:  # the default list includes renyi, which needs m = 2
                    argv += ["--criteria", ",".join(criteria)]
                spec = {"mu": float(mu), "phi": float(phi), "m": m, "mode": mode,
                        "criteria": criteria, "alphas": grid_values(SWEEP_GRID)}
                jobs.append(Job(f"sweep:m{m}", argv, len(spec["alphas"]) * len(criteria), spec))
                continue
            m = 2 if kind == "renyi" else int(self.rng.integers(2, 4))
            argv = ["threshold", "--criterion", kind, "--mu", mu, "--phi", phi, "--m", str(m)]
            spec = {"mu": float(mu), "phi": float(phi), "m": m, "criterion": kind}
            if kind == "tsallis":
                q = TSALLIS_ORDERS[self.rng.integers(len(TSALLIS_ORDERS))]
                argv += ["--q", q]
                spec["q"] = float(q)
            elif kind == "renyi":
                rs = RENYI_ORDERS[self.rng.integers(len(RENYI_ORDERS))]
                argv += ["--rs", rs]
                spec["rs"] = tuple(float(x) for x in rs.split(","))
            jobs.append(Job(f"threshold:{kind}", argv, 1, spec))
        return jobs

    # -- synthesized counts ----------------------------------------------------

    def _write_counts(self, mu, alpha_deg, phi_deg, m, per_setting) -> Path:
        """Werner counts p(a, b) = (1 - a b mu u.v)/4 with Poisson noise."""
        alice, bob = mub_directions(m, alpha_deg, phi_deg)
        lines = ["setting,a,b,counts,ax,ay,az,bx,by,bz"]
        for k, (u, v) in enumerate(zip(alice, bob), start=1):
            overlap = float(np.dot(u, v))
            vec = ",".join(f"{c:.17g}" for c in (*u, *v))
            for a in (1, -1):
                for b in (1, -1):
                    mean = per_setting * (1.0 - a * b * mu * overlap) / 4.0
                    count = int(self.rng.poisson(mean))
                    lines.append(f"{k},{a:+d},{b:+d},{count},{vec}")
        self._files += 1
        path = self.scratch / f"counts-{self._files}.csv"
        path.write_text("\n".join(lines) + "\n")
        return path


def mub_directions(m, alpha_deg, phi_deg):
    """Bob on (z, x) or (z, y, x); Alice's plane turned in-plane by alpha, tilted by phi."""
    alpha, phi = math.radians(alpha_deg), math.radians(phi_deg)
    x, y, z = np.eye(3)
    x_tilted = math.cos(phi) * x + math.sin(phi) * y
    first = math.cos(alpha) * z + math.sin(alpha) * x_tilted
    last = -math.sin(alpha) * z + math.cos(alpha) * x_tilted
    if m == 2:
        return (first, last), (z, x)
    middle = math.cos(phi) * y - math.sin(phi) * x
    return (first, middle, last), (z, y, x)
