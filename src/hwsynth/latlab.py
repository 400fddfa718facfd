"""Latency lab: matmul latency measurement over a dimension grid,
hysteresis analysis, and virtual-clock synthetic curves for deterministic
testing.

A latency hysteresis point (LHP) is a dimension whose central latency is a
prefix minimum of the measured curve: no smaller grid dimension is faster.
Growing a pruned dimension up to its nearest LHP therefore never lands on
a point slower than any smaller design point.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .numkit import ContractViolation, make_rng


class MeasurementError(RuntimeError):
    def __init__(self, dim: int, message: str):
        super().__init__(f"measurement failed at dim {dim}: {message}")
        self.dim = dim


class ProfileParseError(ValueError):
    pass


@dataclass
class SampleStats:
    mean_ns: float
    median_ns: float
    p95_ns: float
    runs: int


@dataclass
class LatencyProfile:
    hardware_id: str
    batch: int
    grid: list[int]
    samples: list[SampleStats]

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ContractViolation("profile grid must be strictly ascending")

    def medians(self) -> np.ndarray:
        return np.array([s.median_ns for s in self.samples])


@dataclass
class HysteresisBin:
    lower: int          # exclusive
    upper: int          # inclusive
    lhp: int            # recovery target; the prefix minimum of the bin


@dataclass
class HysteresisMap:
    profile: LatencyProfile
    lhp_set: list[int]
    bins: list[HysteresisBin]
    redundancy: float   # architecture-space redundancy: 1 - #LHPs / #grid points


class NearestLHP(NamedTuple):
    dim: int
    found: bool         # False: no LHP at or above the query, d returned as-is


# --- backends ----------------------------------------------------------------

class MatmulBackend:
    """Executes one square-weight x dense-input multiply for timing."""

    virtual = False

    def make_task(self, dim: int, batch: int):
        raise NotImplementedError


class NativeBackend(MatmulBackend):
    """Times real numpy matmuls (dim x dim weight, batch x dim input)."""

    def __init__(self, seed: int = 0):
        self._rng = make_rng(seed)

    def make_task(self, dim: int, batch: int):
        w = self._rng.standard_normal((dim, dim))
        x = self._rng.standard_normal((batch, dim))
        out = np.empty((batch, dim))

        def task():
            np.matmul(x, w, out=out)
        return task


@dataclass
class SyntheticCurveSpec:
    """Closed-form latency curve: base + slope*d + jump*phase + noise.

    phase is the sawtooth (d mod period) / period in [0, 1): latency is
    lowest exactly at multiples of `period` and jumps up immediately after
    one. A negative slope with |slope| * period < jump keeps the curve
    rising inside each period, so the prefix minima (and hence the LHPs)
    are exactly the first grid point and the multiples of the period.
    """

    base_ns: float = 10000.0
    slope_ns: float = -1.0
    period: int = 64
    jump_ns: float = 8192.0
    noise_ns: float = 0.0
    seed: int = 0

    def latency_ns(self, dim: int) -> float:
        phase = dim % self.period / self.period
        value = self.base_ns + self.slope_ns * dim + self.jump_ns * phase
        if value <= 0:
            raise ContractViolation(f"synthetic curve non-positive at dim {dim}")
        return value

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticCurveSpec":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(**data)


class SyntheticBackend(MatmulBackend):
    """Virtual-clock backend driven by a closed-form curve.

    No time passes: measure_point reads the closed-form latency directly,
    giving exact noise-controlled profiles.
    """

    virtual = True

    def __init__(self, spec: SyntheticCurveSpec):
        self.spec = spec
        self._noise_rng = make_rng(spec.seed)

    def virtual_times(self, dim: int, runs: int) -> np.ndarray:
        base = self.spec.latency_ns(dim)
        if self.spec.noise_ns == 0.0:
            return np.full(runs, base)
        noise = self._noise_rng.uniform(0.0, self.spec.noise_ns, size=runs)
        return base + noise


def make_backend(spec: str, seed: int = 0) -> MatmulBackend:
    """Backend factory from a CLI-style spec: 'native' or 'synthetic:<file>'."""
    if spec == "native":
        return NativeBackend(seed=seed)
    if spec.startswith("synthetic:"):
        return SyntheticBackend(SyntheticCurveSpec.from_json(spec.split(":", 1)[1]))
    raise ContractViolation(f"unknown backend spec {spec!r}")


# --- measurement ---------------------------------------------------------------

def _stats(times: np.ndarray) -> SampleStats:
    ordered = np.sort(times)
    n = ordered.size
    return SampleStats(
        mean_ns=float(ordered.mean()),
        median_ns=float(np.median(ordered)),
        p95_ns=float(ordered[min(int(math.ceil(0.95 * n)) - 1, n - 1)]),
        runs=n,
    )


def measure_point(backend: MatmulBackend, dim: int, batch: int,
                  warmup_runs: int = 10, measured_runs: int = 50) -> SampleStats:
    """Warm up, then time measured_runs executions; central statistic = median."""
    if dim < 1:
        raise ContractViolation("dim must be >= 1")
    if measured_runs < 5:
        raise ContractViolation("measured_runs must be >= 5")
    if backend.virtual:
        return _stats(backend.virtual_times(dim, measured_runs))
    try:
        task = backend.make_task(dim, batch)
        for _ in range(warmup_runs):
            task()
        times = np.empty(measured_runs)
        for i in range(measured_runs):
            t0 = time.perf_counter_ns()
            task()
            times[i] = time.perf_counter_ns() - t0
    except ContractViolation:
        raise
    except Exception as exc:  # backend failure carries the dim
        raise MeasurementError(dim, str(exc)) from exc
    return _stats(times)


@dataclass
class SweepConfig:
    warmup_runs: int = 10
    measured_runs: int = 50
    hardware_id: str = "unknown"


def sweep(backend: MatmulBackend, grid: list[int], batch: int,
          cfg: SweepConfig | None = None) -> LatencyProfile:
    """One measure_point per grid entry, strictly sequential; a failed
    point raises MeasurementError naming its dim."""
    cfg = cfg or SweepConfig()
    if not grid:
        raise ContractViolation("grid must be non-empty")
    samples = [measure_point(backend, dim, batch, cfg.warmup_runs, cfg.measured_runs)
               for dim in grid]
    return LatencyProfile(hardware_id=cfg.hardware_id, batch=batch,
                          grid=list(grid), samples=samples)


# --- hysteresis analysis -------------------------------------------------------

def detect_lhps(profile: LatencyProfile) -> HysteresisMap:
    """Prefix-minimum scan: dim d is an LHP iff no smaller grid dim is faster.

    In a tie run, the smallest dimension achieving the minimum is the LHP.
    Bins are maximal intervals (previous_lhp, lhp]; grid points above the
    last LHP fall into a trailing bin whose recovery target is the last LHP.
    """
    if not profile.samples:
        raise ContractViolation("profile has no samples")
    med = profile.medians()
    lhps: list[int] = []
    best = math.inf
    for dim, lat in zip(profile.grid, med):
        if lat < best:
            best = lat
            lhps.append(dim)
    bins: list[HysteresisBin] = []
    lower = 0
    for lhp in lhps:
        bins.append(HysteresisBin(lower=lower, upper=lhp, lhp=lhp))
        lower = lhp
    if profile.grid[-1] > lhps[-1]:
        bins.append(HysteresisBin(lower=lhps[-1], upper=profile.grid[-1],
                                  lhp=lhps[-1]))
    redundancy_val = 1.0 - len(lhps) / len(profile.grid)
    return HysteresisMap(profile=profile, lhp_set=lhps, bins=bins,
                         redundancy=redundancy_val)


def nearest_lhp(hmap: HysteresisMap, d: int) -> NearestLHP:
    """Smallest LHP >= d, the recovery target for a pruned dimension."""
    if d > hmap.profile.grid[-1]:
        raise ContractViolation(
            f"query dim {d} above profiled grid max {hmap.profile.grid[-1]}")
    for lhp in hmap.lhp_set:
        if lhp >= d:
            return NearestLHP(dim=lhp, found=True)
    return NearestLHP(dim=d, found=False)


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            sel = v == val
            r[sel] = r[sel].mean()
        return r
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


# --- persistence and report emission -------------------------------------------

CSV_HEADER = ["dim", "batch", "mean_ns", "median_ns", "p95_ns", "runs"]


def save_profile(profile: LatencyProfile, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for dim, s in zip(profile.grid, profile.samples):
            writer.writerow([dim, profile.batch, repr(s.mean_ns),
                             repr(s.median_ns), repr(s.p95_ns), s.runs])


def load_profile(path: str | Path) -> LatencyProfile:
    grid: list[int] = []
    samples: list[SampleStats] = []
    batch = 0
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileParseError(f"{path}: empty profile") from None
        if header != CSV_HEADER:
            missing = set(CSV_HEADER) - set(header)
            raise ProfileParseError(
                f"{path}:1: bad header, missing column(s) {sorted(missing)}"
                if missing else f"{path}:1: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                dim = int(row[0])
                batch = int(row[1])
                samples.append(SampleStats(mean_ns=float(row[2]),
                                           median_ns=float(row[3]),
                                           p95_ns=float(row[4]),
                                           runs=int(row[5])))
                grid.append(dim)
            except (ValueError, IndexError) as exc:
                raise ProfileParseError(f"{path}:{lineno}: {exc}") from exc
    return LatencyProfile(hardware_id="", batch=batch, grid=grid, samples=samples)


def save_hysteresis_report(hmap: HysteresisMap, path: str | Path) -> None:
    data = {
        "hardware_id": hmap.profile.hardware_id,
        "batch": hmap.profile.batch,
        "grid_points": len(hmap.profile.grid),
        "lhp_set": hmap.lhp_set,
        "bins": [{"lower": b.lower, "upper": b.upper, "lhp": b.lhp}
                 for b in hmap.bins],
        "redundancy": hmap.redundancy,
        "redundancy_pct": f"{hmap.redundancy * 100:.1f}%",
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def profile_svg(profile: LatencyProfile, hmap: HysteresisMap | None = None) -> str:
    """Self-contained SVG line chart: dimension vs. median latency, LHPs marked."""
    width, height = 720, 360
    med = profile.medians()
    dims = np.array(profile.grid, dtype=float)
    pad = 48
    x0, x1 = dims.min(), dims.max()
    y0, y1 = float(med.min()), float(med.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(d):
        return pad + (d - x0) / xr * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / yr * (height - 2 * pad)

    pts = " ".join(f"{sx(d):.1f},{sy(v):.1f}" for d, v in zip(dims, med))
    marks = ""
    if hmap is not None:
        lut = dict(zip(profile.grid, med))
        for lhp in hmap.lhp_set:
            marks += (f'<circle cx="{sx(lhp):.1f}" cy="{sy(lut[lhp]):.1f}" '
                      f'r="4" fill="#c0392b"/>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="#2c3e50" stroke-width="1.5"/>'
        f"{marks}"
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">matrix dimension</text>'
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})" text-anchor="middle">'
        f'median latency (ns)</text>'
        f"</svg>\n"
    )
