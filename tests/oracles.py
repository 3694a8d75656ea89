"""Independent numeric oracles shared by the test modules.

Everything here is deliberately implemented from first principles (high
precision arithmetic, quadrature, generic optimizers) so it never shares a
code path with the package routines it checks.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr


def matern_correlation_mp(u, nu, dps=50):
    """Unit-sill Matern correlation u^nu K_nu(u) / (2^(nu-1) Gamma(nu)) in
    `dps`-digit arithmetic, rounded to a float; 1 at u <= 0. mpmath's
    exponent range is unbounded, so the huge K_nu and the tiny u^nu of a
    small lag at large nu are formed as they are."""
    if u <= 0.0:
        return 1.0
    with mp.workdps(dps):
        u, nu = mp.mpf(u), mp.mpf(nu)
        return float(u**nu * mp.besselk(nu, u) / (2 ** (nu - 1) * mp.gamma(nu)))


def frank_cdf_mp(theta, u):
    """Standard n-dimensional Frank copula in 60-digit arithmetic."""
    theta = mp.mpf(theta)
    em = mp.e ** (-theta) - 1
    prod = mp.mpf(1)
    for x in u:
        prod *= mp.e ** (-theta * x) - 1
    return -mp.log(1 + prod / em ** (len(u) - 1)) / theta


def frank_mixed_partial_fd(theta, u, h="1e-3"):
    """d-th mixed partial of the Frank cdf by nested central differences.

    High-precision evaluation keeps the 2^d-term alternating sum exact far
    beyond the h^2 truncation error of the stencil.
    """
    with mp.workdps(60):
        h = mp.mpf(h)
        d = len(u)
        total = mp.mpf(0)
        for mask in range(2**d):
            signs = [1 if (mask >> k) & 1 else -1 for k in range(d)]
            shifted = [mp.mpf(u[k]) + h * signs[k] for k in range(d)]
            parity = 1
            for s in signs:
                parity *= s
            total += parity * frank_cdf_mp(theta, shifted)
        return float(total / (2 * h) ** d)


def frank_bivariate_density_direct(theta, u, v):
    """Textbook closed form of the bivariate Frank density."""
    et = math.exp(-theta)
    eu = math.exp(-theta * u)
    ev = math.exp(-theta * v)
    num = theta * (1.0 - et) * eu * ev
    den = ((1.0 - et) - (1.0 - eu) * (1.0 - ev)) ** 2
    return num / den


def frank_sample_conditional_inversion(theta, n, rng):
    """Bivariate Frank sample via the conditional-quantile transform."""
    u = rng.uniform(size=n)
    w = rng.uniform(size=n)
    a = w * np.expm1(-theta) / (np.exp(-theta * u) - w * np.expm1(-theta * u))
    v = -np.log1p(a) / theta
    return np.column_stack([u, v])


def bayes_schur_route(x0, data, spec, mu, phi, covariance_eval):
    """Reference constant-trend Bayes kriging: augmented covariance with the
    prior variance added to every entry; sd from the inverse's leading
    entry, prediction from the first row."""
    from scipy.spatial.distance import cdist

    pts = np.vstack([np.atleast_2d(x0), data.locations])
    M = covariance_eval(spec, cdist(pts, pts)) + phi
    Minv = np.linalg.inv(M)
    sd = math.sqrt(1.0 / Minv[0, 0])
    pred = mu + M[0, 1:] @ np.linalg.solve(M[1:, 1:], data.values - mu)
    return pred, sd


def penalty_ordinary_weights(K, c0, n_stage1=1e7, n_stage2=1e9):
    """Sum-to-one kriging weights by penalized unconstrained minimization."""
    n = K.shape[0]

    def obj(w, P):
        return float(w @ K @ w - 2.0 * c0 @ w + P * (w.sum() - 1.0) ** 2)

    first = minimize(lambda w: obj(w, n_stage1), np.full(n, 1.0 / n), method="BFGS",
                     options={"gtol": 1e-14, "maxiter": 5000})
    second = minimize(lambda w: obj(w, n_stage2), first.x, method="BFGS",
                      options={"gtol": 1e-14, "maxiter": 5000})
    return second.x


def pairwise_variogram(locations, values, edges, estimator="matheron", direction=None, c=2.0):
    """Binned semivariogram by the textbook route: every unordered pair's
    coordinate difference, its length as the root of the summed squares, one
    boolean mask per bin, and the summands of each bin sorted by (distance,
    half squared difference). Returns ([(center, mean distance, gamma,
    n_pairs)], n_zero) with None for an empty bin's distance and estimate."""
    iu, ju = np.triu_indices(len(values), k=1)
    diff = locations[iu] - locations[ju]
    dist = np.sqrt((diff**2).sum(axis=1))
    n_zero = int(np.count_nonzero(dist == 0.0))
    keep = (dist > 0.0) & (dist <= edges[-1])
    if direction is not None:
        delta = np.mod(np.arctan2(diff[:, 1], diff[:, 0]) - direction.angle, math.pi)
        keep &= np.minimum(delta, math.pi - delta) <= direction.tolerance
    dist = dist[keep]
    hsd = 0.5 * (values[iu[keep]] - values[ju[keep]]) ** 2
    order = np.lexsort((hsd, dist))
    dist, hsd = dist[order], hsd[order]
    bins = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (dist >= lo) & (dist < hi)
        n = int(np.count_nonzero(sel))
        if n == 0:
            bins.append((0.5 * (lo + hi), None, None, 0))
            continue
        bins.append((0.5 * (lo + hi), float(dist[sel].mean()),
                     _pairwise_estimate(hsd[sel], estimator, c), n))
    return bins, n_zero


def _pairwise_estimate(hsd, estimator, c):
    if estimator == "matheron":
        return float(hsd.mean())
    if estimator == "cressie_hawkins":
        return float(((2.0 * hsd) ** 0.25).mean() ** 4 / (2.0 * (0.457 + 0.494 / hsd.size)))
    # Huber fixed point from the Matheron value, with f(c) = E[min(U^2, c^2)]
    cdf = ndtr(c)
    fc = (2.0 * cdf - 1.0) - 2.0 * c * (math.exp(-(c**2) / 2.0) / math.sqrt(2.0 * math.pi)) \
        + 2.0 * c**2 * (1.0 - cdf)
    gamma = float(hsd.mean())
    while gamma != 0.0:
        new = float(np.minimum(hsd, c**2 * gamma).mean() / fc)
        if abs(new - gamma) <= 1e-10 * abs(gamma):
            return new
        gamma = new
    return 0.0


def _jittered_cholesky(mat):
    """Lower Cholesky factor of mat + delta I for the first delta of the
    ladder 0, 1e-10 s, 2e-10 s, ..., 64e-10 s (s the mean diagonal) whose
    factor is finite; None when every rung fails."""
    n = mat.shape[0]
    base = 1e-10 * max(float(np.trace(mat)) / max(n, 1), np.finfo(float).tiny)
    for delta in [0.0] + [base * 2.0**k for k in range(7)]:
        try:
            L = np.linalg.cholesky(mat if delta == 0.0 else mat + delta * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(L)):
            return L
    return None


def _chol_solve(L, rhs):
    from scipy.linalg import solve_triangular

    return solve_triangular(L.T, solve_triangular(L, rhs, lower=True), lower=False)


def kriging_point_reference(method, x0, locations, values, spec, mean, f0, F, mu, phi,
                            covariance_eval):
    """(prediction, variance) of one predictor at x0 from its own neighbour
    set alone, or None where its Cholesky factor does not exist.

    Each point builds its own system: c0 and C(0) from the distances of x0
    (scipy's cdist) and K from those of the set, through `covariance_eval`.
    The jitter ladder and the formulas follow the per-point predictors
    product by product: 2-D products with the point's own trend row f0,
    and each triangular solve through scipy's `solve_triangular`. So a
    prediction must equal a map row's to the last bit."""
    from scipy.spatial.distance import cdist

    x0 = np.atleast_2d(x0)
    c00 = covariance_eval(spec, np.zeros(1))[0]
    c0 = covariance_eval(spec, cdist(x0, locations)[0])
    K = covariance_eval(spec, cdist(locations, locations))
    if method == "bayes":
        K = K + F @ phi @ F.T
    L = _jittered_cholesky(K)
    if L is None:
        return None
    if method == "simple":
        lam = _chol_solve(L, c0)
        return mean + lam @ (values - mean), c00 - lam @ c0
    if method == "ordinary":
        one = np.ones(c0.size)
        ab = _chol_solve(L, np.column_stack([c0, one]))
        a, b = ab[:, 0], ab[:, 1]
        nu = (one @ a - 1.0) / (one @ b)
        w = a - nu * b
        return w @ values, c00 - c0 @ w - nu
    if method == "universal":
        KiF = _chol_solve(L, F)
        M = F.T @ KiF
        beta = np.linalg.solve(M, KiF.T @ values)
        Kic0 = _chol_solve(L, c0)
        g = f0 - F.T @ Kic0
        return (f0 @ beta + Kic0 @ (values - F @ beta),
                c00 - c0 @ Kic0 + g @ np.linalg.solve(M, g))
    cb = c0 + F @ (phi @ f0)
    lam = _chol_solve(L, cb)
    return f0 @ mu + lam @ (values - F @ mu), (c00 + f0 @ phi @ f0) - cb @ lam


def neighbour_sets(points, locations, radius, least):
    """Each point's neighbour set by a search of its own: the tuple of the
    indices of the locations within `radius` (boundary included) that repeat
    no earlier location, or None where `least` or fewer locations are within
    reach (duplicates counted)."""
    from scipy.spatial.distance import cdist

    _, first = np.unique(locations, axis=0, return_index=True)
    keep = np.zeros(len(locations), dtype=bool)
    keep[first] = True
    out = []
    for dist in cdist(points, locations):
        within = dist <= radius
        out.append(tuple(np.flatnonzero(within & keep).tolist())
                   if np.count_nonzero(within) > least else None)
    return out


def map_chunks(sets, n, run, budget, carry):
    """The runs of a map and the chunks of each, from every grid point's
    neighbour set over n locations (a tuple of location indices, or None):
    runs of `run` consecutive points. A run's distinct sets, in the order
    of the bytes of their member masks over the n locations, are stably
    sorted by size. With `carry`, the sets that the last chunk of the run
    before held are carried into the run, not chunked again; a run with no
    other set keeps the carry. The rest are cut into chunks whose factors
    and gather indices, 16 m^2 bytes per set of m locations, stay within
    `budget`, one set at least. Returns, per run, (its points' sets,
    the sets carried into it, its chunks)."""
    out, carried = [], set()
    for start in range(0, len(sets), run):
        points = sets[start:start + run]
        distinct = {s for s in points if s is not None}
        masks = {s: np.isin(np.arange(n), s).tobytes() for s in distinct}
        kept = distinct & carried if carry else set()
        chunks = []
        for s in sorted(distinct - kept, key=lambda s: (len(s), masks[s])):
            if not chunks or sum(16 * len(t) ** 2 for t in chunks[-1] + [s]) > budget:
                chunks.append([])
            chunks[-1].append(s)
        out.append((points, kept, chunks))
        if chunks:
            carried = set(chunks[-1])
    return out
