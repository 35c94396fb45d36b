"""CDF assembly: node grids, cubic-spline interpolation, monotone
post-processing, the sup-norm error, and a quadrature-based reference CDF.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .inputs import TruncatedLognormal
from .models import MeshHierarchy, ModelSpec


@dataclass(frozen=True)
class NodeGrid:
    """S + 1 equidistant interpolation nodes q_n = a + n * h on [a, b], at
    least four of them (S >= 3) for the cubic spline."""

    a: float
    b: float
    s_count: int  # S; the grid has S + 1 nodes

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("need a < b")
        if self.s_count < 3:
            raise ValueError(f"s_count {self.s_count} must be at least 3: the cubic "
                             "spline through the node values needs four nodes")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.s_count

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.s_count + 1)

    def dense(self, factor: int) -> np.ndarray:
        return np.linspace(self.a, self.b, factor * self.s_count + 1)


def build_spline(grid: NodeGrid, values):
    """Natural cubic spline through the node values, clamped to the endpoint
    values outside [a, b].  Every NodeGrid has the four nodes it needs.

    scipy.interpolate is imported here, on first use: importing it costs
    about 0.2 s, and no CLI output evaluates a spline."""
    from scipy.interpolate import CubicSpline

    values = np.asarray(values, dtype=float)
    if values.shape != (grid.s_count + 1,):
        raise ValueError("one value per node required")
    spline = CubicSpline(grid.nodes, values, bc_type="natural")
    lo, hi = float(values[0]), float(values[-1])
    a, b = grid.a, grid.b

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        out = np.asarray(spline(np.clip(q, a, b)), dtype=float)
        out = np.where(q < a, lo, np.where(q > b, hi, out))
        if out.ndim == 0:
            return float(out)
        return out

    return evaluate


def isotonic_projection(values):
    """Pool-adjacent-violators projection onto nondecreasing sequences (L2)."""
    v = np.asarray(values, dtype=float).copy()
    n = v.size
    # blocks of (mean, weight) merged while out of order
    means = []
    weights = []
    for x in v:
        means.append(float(x))
        weights.append(1.0)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2 = means.pop(), weights.pop()
            m1, w1 = means.pop(), weights.pop()
            means.append((m1 * w1 + m2 * w2) / (w1 + w2))
            weights.append(w1 + w2)
    out = np.empty(n)
    pos = 0
    for m, w in zip(means, weights):
        out[pos : pos + int(w)] = m
        pos += int(w)
    return out


def postprocess_cdf(raw_values):
    """Isotonic projection then clipping to [0, 1]; returns a valid CDF sequence."""
    return np.clip(isotonic_projection(raw_values), 0.0, 1.0)


@dataclass
class CdfEstimate:
    """Estimated CDF at the interpolation nodes plus spline evaluators.

    raw holds the estimator output untouched (it can dip below 0 or exceed 1
    and is what error accounting uses); processed, computed from it, is the
    isotonic-projected, clipped version that downstream consumers should
    treat as the CDF.  The two splines are built on first use.
    """

    grid: NodeGrid
    raw: np.ndarray
    metadata: dict = field(default_factory=dict)
    processed: np.ndarray = field(init=False)

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=float)
        self.processed = postprocess_cdf(self.raw)

    @cached_property
    def spline(self):
        """Evaluator over the processed values."""
        return build_spline(self.grid, self.processed)

    @cached_property
    def raw_spline(self):
        """Evaluator over the raw values."""
        return build_spline(self.grid, self.raw)

    @property
    def clipping_adjustment(self) -> float:
        """Total node-value movement introduced by post-processing."""
        return float(np.abs(self.processed - self.raw).sum())


# sup_distance evaluates on a grid this many times as dense as the nodes
_SUP_DENSITY = 10


def sup_distance(a: CdfEstimate, b: CdfEstimate, use_raw: bool = False) -> float:
    """L-infinity distance on a dense evaluation grid (_SUP_DENSITY times the
    node density).

    The estimators do not call it: it is the error oracle by which the
    acceptance tests and the benchmark judge an estimate against a reference.
    """
    if abs(a.grid.a - b.grid.a) > 1e-12 or abs(a.grid.b - b.grid.b) > 1e-12:
        raise ValueError("sup_distance needs estimates on the same interval")
    q = a.grid.dense(_SUP_DENSITY)
    fa = a.raw_spline(q) if use_raw else a.spline(q)
    fb = b.raw_spline(q) if use_raw else b.spline(q)
    return float(np.abs(fa - fb).max())


def reference_cdf(
    model: ModelSpec,
    dist: TruncatedLognormal,
    grid: NodeGrid,
    hierarchy: MeshHierarchy,
    mesh_refine: int,
    quad_cells: int,
    quad_points: int,
    time_coarsen: float,
) -> CdfEstimate:
    """Deterministic high-accuracy CDF of the QoI by dense quadrature over the
    random input: no sampling noise, only quadrature and discretization error.

    The input support is partitioned into quad_cells cells with quad_points
    Gauss-Legendre points each; the QoI is evaluated at mesh_refine times the
    hierarchy's finest resolution.  F(q) is the f_W-weighted indicator sum,
    normalized by the quadrature mass of the density.  time_coarsen > 1
    enlarges the diffusion time step relative to the mesh (the Crank-Nicolson
    O(dt^2) error stays far below the spatial error, at a fraction of the
    cost).  One ModelSpec.qoi_batch call solves the whole point set in tiles,
    and ignores time_coarsen for the CFL-limited Burgers march.
    """
    m_ref = hierarchy.cells(hierarchy.l_star) * mesh_refine
    gx, gw = np.polynomial.legendre.leggauss(quad_points)
    lo = dist.w_lo if dist.w_lo > 0 else np.finfo(float).tiny
    edges = np.linspace(lo, dist.w_hi, quad_cells + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    points = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
    weights = (halves[:, None] * gw[None, :]).ravel() * dist.pdf(points)
    qoi = model.qoi_batch(points, m_ref, dt_over_dx=time_coarsen)
    order = np.argsort(qoi, kind="stable")
    wcum = np.concatenate([[0.0], np.cumsum(weights[order])])
    values = wcum[np.searchsorted(qoi[order], grid.nodes, side="right")] / wcum[-1]
    meta = {
        "kind": "reference",
        "model": model.name,
        "m_ref": int(m_ref),
        "mesh_refine": int(mesh_refine),
        "quad_cells": int(quad_cells),
        "quad_points": int(quad_points),
        "time_coarsen": float(time_coarsen),
    }
    return CdfEstimate(grid=grid, raw=values, metadata=meta)


def cdf_to_csv(estimate: CdfEstimate, path):
    """Write node rows: q, raw, processed (LF endings)."""
    lines = ["q,raw,processed"]
    for i, q in enumerate(estimate.grid.nodes):
        lines.append(f"{q:.12g},{estimate.raw[i]:.12g},{estimate.processed[i]:.12g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cdf_to_json(estimate: CdfEstimate, path):
    payload = {
        "grid": {"a": estimate.grid.a, "b": estimate.grid.b, "s_count": estimate.grid.s_count},
        "raw": estimate.raw.tolist(),
        "processed": estimate.processed.tolist(),
        "clipping_adjustment": estimate.clipping_adjustment,
        "metadata": estimate.metadata,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cdf_json(path) -> CdfEstimate:
    with open(path) as fh:
        payload = json.load(fh)
    grid = NodeGrid(**payload["grid"])
    return CdfEstimate(
        grid=grid,
        raw=np.asarray(payload["raw"], dtype=float),
        metadata=payload.get("metadata", {}),
    )
