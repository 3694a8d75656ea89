"""Gaussian random-field simulation and the simulated-variogram pipeline.

Fields are drawn either through the Cholesky factor of the Gram matrix
(z = m + L w) or through its eigendecomposition (Karhunen-Loeve route,
z = m + Psi sqrt(Lambda) w). Normal draws come from counter-based streams
keyed on (seed, simulation index), so results are bit-identical for a
given seed no matter how the work is scheduled. `simulate_fields` is the
one path to the fields a command writes and bins, conditioned on observed
data when given; a variogram table bins them through one pair geometry.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_with_jitter, spd_solve
from .empvario import SpatialDataset, matheron_columns
from .exceptions import DomainError, FormatError, NumericError
from .models import covariance_matrix, validity_check
from .util import fmt_float, parallel_map

EIGEN_CLIP_REL = 1e-12


def make_grid(xmin, xmax, ymin, ymax, nx: int, ny: int) -> np.ndarray:
    """Rectangular grid with the offset-from-min convention.

    Points sit at (xmin + i dx, ymin + j dy) for i = 1..nx, j = 1..ny with
    dx = (xmax - xmin)/nx: the minimum edge is excluded, the maximum edge
    included. Expanded row-major (x outer, y inner), matching the reference
    layout.
    """
    if nx < 1 or ny < 1:
        raise DomainError("nx and ny must be >= 1")
    if xmax <= xmin or ymax <= ymin:
        raise DomainError("max must exceed min on both axes")
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    pts = [
        (xmin + dx * i, ymin + dy * j)
        for i in range(1, nx + 1)
        for j in range(1, ny + 1)
    ]
    return np.array(pts, dtype=float)


def make_grid_inclusive(xmin, xmax, ymin, ymax, nx: int, ny: int) -> np.ndarray:
    """Rectangular grid including both edges on each axis (general use)."""
    if nx < 1 or ny < 1:
        raise DomainError("nx and ny must be >= 1")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    return np.array([(x, y) for x in xs for y in ys], dtype=float)


@dataclass(frozen=True)
class SimBatch:
    """A batch of field realizations: one column per simulation."""

    locations: np.ndarray
    realizations: np.ndarray

    @property
    def n_points(self) -> int:
        return self.realizations.shape[0]

    @property
    def n_sims(self) -> int:
        return self.realizations.shape[1]

    MAGIC = b"SIMB"

    def to_binary(self) -> bytes:
        """16-byte header (magic, u32 n_points, u32 n_sims, u32 reserved)
        followed by little-endian float64 data in column-major order."""
        header = self.MAGIC + struct.pack("<III", self.n_points, self.n_sims, 0)
        body = np.asfortranarray(self.realizations).astype("<f8").tobytes(order="F")
        return header + body

    @staticmethod
    def read_binary(blob: bytes) -> np.ndarray:
        if len(blob) < 16 or blob[:4] != SimBatch.MAGIC:
            raise FormatError("not a SIMB realization dump")
        n_points, n_sims, _ = struct.unpack("<III", blob[4:16])
        expect = 16 + 8 * n_points * n_sims
        if len(blob) != expect:
            raise FormatError(
                f"SIMB dump has {len(blob)} bytes, expected {expect}"
            )
        flat = np.frombuffer(blob, dtype="<f8", offset=16)
        return flat.reshape((n_points, n_sims), order="F")


def _normal_draws(seed: int, index: int, n: int) -> np.ndarray:
    """Standard-normal vector from the stream keyed (seed, index)."""
    bitgen = np.random.Philox(key=[np.uint64(seed), np.uint64(index)])
    return np.random.Generator(bitgen).standard_normal(n)


def _check_dims(spec, locations):
    dim = locations.shape[1]
    if not validity_check(spec, dim):
        raise DomainError(f"model is not positive definite in dimension {dim}")


def _draw_columns(A, mean: float, n_sims: int, seed: int) -> np.ndarray:
    """The (n, n_sims) fields mean + A w_j, w_j the normal draws of the
    stream (seed, j), one matrix-vector product per column."""
    n = A.shape[0]
    cols = parallel_map(lambda j: mean + A @ _normal_draws(seed, j, n), range(n_sims))
    return np.column_stack(cols) if cols else np.empty((n, 0))


def simulate_gaussian_field(locations, spec, mean: float, n_sims: int, seed: int) -> SimBatch:
    """Cholesky-route simulation: each column is mean + L w."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    _check_dims(spec, locations)
    L, _ = chol_with_jitter(covariance_matrix(spec, locations))
    return SimBatch(locations, _draw_columns(L, mean, n_sims, seed))


def kl_eigensystem(spec, locations):
    """Eigenpairs of the Gram matrix with small/negative eigenvalues
    clamped to zero. Returns (eigenvalues desc, eigenvectors)."""
    K = covariance_matrix(spec, locations)
    try:
        lam, psi = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None
    lam = lam[::-1].copy()
    psi = psi[:, ::-1].copy()
    lam[lam < EIGEN_CLIP_REL * max(lam[0], 0.0)] = 0.0
    np.maximum(lam, 0.0, out=lam)
    return lam, psi


def kl_simulate(locations, spec, mean: float, n_sims: int, seed: int) -> SimBatch:
    """Karhunen-Loeve-route simulation: each column is
    mean + Psi diag(sqrt(lambda)) w."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    _check_dims(spec, locations)
    lam, psi = kl_eigensystem(spec, locations)
    return SimBatch(locations, _draw_columns(psi * np.sqrt(lam), mean, n_sims, seed))


@dataclass(frozen=True)
class VariogramTable:
    """Binned variogram estimates of simulated fields, one column per run.

    Descriptor columns: 1-based lag index, mean pair distance (bin center
    for empty bins), pair count. Empty bins carry NaN estimates, written as
    empty cells, as the `variogram` command writes an empty bin.
    """

    lags: np.ndarray
    distances: np.ndarray
    counts: np.ndarray
    gammas: np.ndarray

    @property
    def n_sims(self) -> int:
        return self.gammas.shape[1]

    def as_matrix(self) -> np.ndarray:
        return np.column_stack([self.lags, self.distances, self.counts, self.gammas])

    def to_csv(self) -> str:
        header = "lag,dist,n" + "".join(f",sim{j+1}" for j in range(self.n_sims))
        lines = [header]
        for row in self.as_matrix():
            cells = [str(int(row[0])), fmt_float(row[1]), str(int(row[2]))]
            cells += ["" if math.isnan(v) else fmt_float(v) for v in row[3:]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def of_fields(cls, locations, fields, bin_edges) -> "VariogramTable":
        """Matheron table of every column of `fields`, (n, S) values at the
        given locations."""
        dist, counts, gammas = matheron_columns(locations, fields, bin_edges)
        return cls(np.arange(1, dist.size + 1, dtype=float), dist, counts, gammas)

    @classmethod
    def from_csv(cls, text: str) -> "VariogramTable":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or not lines[0].startswith("lag,dist,n"):
            raise FormatError("variogram table must start with a lag,dist,n header")
        rows = []
        for ln in lines[1:]:
            try:
                rows.append([float(c) if c else np.nan for c in ln.split(",")])
            except ValueError:
                raise FormatError(f"bad variogram table row: {ln!r}") from None
        mat = np.array(rows, dtype=float)
        return cls(mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3:])


def _conditioning_weights(data: SpatialDataset, spec, targets):
    """Simple-kriging weight matrix from the data locations to each target."""
    Kdd = covariance_matrix(spec, data.locations)
    Cdt = covariance_matrix(spec, data.locations, targets)
    return spd_solve(Kdd, Cdt)  # (n_data, n_targets)


def simulate_fields(locations, spec, mean: float, n_sims: int, seed: int,
                    data: SpatialDataset | None = None, route=None) -> SimBatch:
    """The fields at `locations` drawn by `route`, `simulate_gaussian_field`
    (the default) or `kl_simulate`.

    With data, the route runs on the joint set (the data locations, then the
    targets that are not data locations) and each joint field z is
    residual-conditioned: z_c = z[targets] + W'(z_data - z[data locations]),
    W the simple-kriging weights under the same model, which honors the
    observed values exactly when the nugget vanishes.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    route = route or simulate_gaussian_field  # looked up per call, not bound at definition
    if data is None:
        return route(locations, spec, mean, n_sims, seed)
    seen = {loc.tobytes(): i for i, loc in enumerate(data.locations)}
    extra, target_idx = [], []
    for loc in locations:
        key = loc.tobytes()
        if key not in seen:
            seen[key] = len(data) + len(extra)
            extra.append(loc)
        target_idx.append(seen[key])
    joint = np.vstack([data.locations] + extra)
    Z = route(joint, spec, mean, n_sims, seed).realizations
    W = _conditioning_weights(data, spec, locations)
    fields = np.empty((locations.shape[0], n_sims))
    for j, z in enumerate(Z.T):  # one W' r per field: a single product would change the bits
        fields[:, j] = z[target_idx] + W.T @ (data.values - z[: len(data)])
    return SimBatch(locations, fields)


def simulate_variograms(locations, spec, bin_edges, n_sims: int, seed: int,
                        data: SpatialDataset | None = None) -> VariogramTable:
    """The Matheron table of the zero-mean Cholesky-route fields of
    `simulate_fields`, conditioned on `data` when it is given."""
    batch = simulate_fields(locations, spec, 0.0, n_sims, seed, data)
    return VariogramTable.of_fields(batch.locations, batch.realizations, bin_edges)
