"""Reference values the benchmark computes itself, with numpy only.

These never call the package under test.  They work on model documents (the
JSON form) and follow the package's conventions: a coefficient (v, w, k)
makes v at time t-k drive w at time t, C(tau) = E[x_t x_{t-tau}^T], and
S(omega) = sum_tau C(tau) exp(-i omega tau) on omega_j = 2 pi j / N.
"""

from __future__ import annotations

import numpy as np


def grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


def phi_stack(doc: dict) -> np.ndarray:
    """Phi[k, i, j] = coefficient of process i on process j at lag k."""
    names = doc["observed"] + doc["latents"]
    index = {name: i for i, name in enumerate(names)}
    phi = np.zeros((doc["order"] + 1, len(names), len(names)))
    for e in doc["edges"]:
        phi[e["lag"], index[e["from"]], index[e["to"]]] = e["coeff"]
    return phi


def reduced_form(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """A[k] (k >= 1, A[0] unused) and the innovation covariance B W B^T of
    x_t = sum_k A[k] x_{t-k} + B eps_t."""
    phi = phi_stack(doc)
    n = phi.shape[1]
    b = np.linalg.inv(np.eye(n) - phi[0].T)
    a = np.einsum("ij,kjl->kil", b, phi.transpose(0, 2, 1))
    w = np.diag([doc["noise_var"][name] for name in doc["observed"] + doc["latents"]])
    return a, b @ w @ b.T


def companion(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Companion matrix of the reduced VAR and its innovation covariance."""
    a, q = reduced_form(doc)
    n, p = a.shape[1], max(doc["order"], 1)
    comp = np.zeros((n * p, n * p))
    for k in range(1, doc["order"] + 1):
        comp[:n, (k - 1) * n : k * n] = a[k]
    comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    big_q = np.zeros((n * p, n * p))
    big_q[:n, :n] = q
    return comp, big_q


def _stationary(comp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gamma = sum_k C^k Q C^kT by doubling; converges like rho(C)^(2^k)."""
    gamma, power = q.copy(), comp.copy()
    for _ in range(64):
        step = power @ gamma @ power.T
        gamma += step
        power = power @ power
        if np.abs(step).max() <= 1e-18 * np.abs(gamma).max():
            break
    return gamma


def acs(doc: dict, max_lag: int) -> np.ndarray:
    """C(0..max_lag) of every process, observed first, from the stationary
    Lyapunov solution of the companion form: Gamma(tau) = C^tau Gamma(0)."""
    comp, q = companion(doc)
    n = len(doc["observed"]) + len(doc["latents"])
    out = np.empty((max_lag + 1, n, n))
    lagged = _stationary(comp, q)
    for tau in range(max_lag + 1):
        out[tau] = lagged[:n, :n]
        lagged = comp @ lagged
    return out


def spectrum(doc: dict, omegas: np.ndarray) -> np.ndarray:
    """Observed spectral density M(w)^{-1} Q M(w)^{-*}, M = I - sum_k A_k z^k."""
    a, q = reduced_form(doc)
    n = a.shape[1]
    z = np.exp(-1j * np.outer(omegas, np.arange(1, doc["order"] + 1)))
    m = np.eye(n)[None] - np.einsum("wk,kij->wij", z, a[1:])
    psi = np.linalg.inv(m)
    full = psi @ q @ np.conj(psi).transpose(0, 2, 1)
    n_obs = len(doc["observed"])
    return full[:, :n_obs, :n_obs]


def edge_matrix(doc: dict, omegas: np.ndarray) -> np.ndarray:
    """H[w, i, j]: transfer function of the edge i -> j, diagonal zero."""
    phi = phi_stack(doc)
    z = np.exp(-1j * np.outer(omegas, np.arange(doc["order"] + 1)))
    num = np.einsum("wk,kij->wij", z, phi)
    autos = np.stack([np.diag(phi[k]) for k in range(phi.shape[0])])
    autos[0] = 0.0
    den = 1.0 - z @ autos
    h = num / den[:, None, :]
    idx = np.arange(phi.shape[1])
    h[:, idx, idx] = 0.0
    return h


def max_loop_radius(doc: dict, n_grid: int = 256) -> float:
    """max over the grid of the spectral radius of H(omega)."""
    return float(np.abs(np.linalg.eigvals(edge_matrix(doc, grid(n_grid)))).max())


def companion_radius(doc: dict) -> float:
    if doc["order"] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(companion(doc)[0])).max())


def validate_ok(doc: dict, n_grid: int = 256) -> bool:
    """Stationary and the filter series converges: companion radius < 1 and
    max_omega rho(H(omega)) < 1 (Luetkepohl 2005, ch. 2)."""
    return companion_radius(doc) < 1.0 - 1e-9 and max_loop_radius(doc, n_grid) < 1.0


def cctf(doc: dict, x: str, y: str, controls: tuple[str, ...], omegas: np.ndarray) -> np.ndarray:
    """[(I - H_cut)^{-1}]_{x, y} with every edge into x and the controls cut."""
    obs = doc["observed"]
    n = len(obs)
    h = edge_matrix(doc, omegas)[:, :n, :n]
    for name in (x, *controls):
        h[:, :, obs.index(name)] = 0.0
    return np.linalg.inv(np.eye(n)[None] - h)[:, obs.index(x), obs.index(y)]


def welch(values: np.ndarray, segment_len: int, overlap: float, n_grid: int) -> tuple[np.ndarray, int]:
    """Hann-tapered averaged cross-periodogram, S[w, i, j] = mean X_i conj(X_j)."""
    step = max(1, int(round(segment_len * (1.0 - overlap))))
    starts = np.arange(0, values.shape[0] - segment_len + 1, step)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    acc = np.zeros((n_grid, values.shape[1], values.shape[1]), dtype=complex)
    keep = slice(None, None, segment_len // n_grid)
    for chunk in np.array_split(starts, max(1, len(starts) // 64)):
        segs = np.stack([values[s : s + segment_len] for s in chunk]) * window[None, :, None]
        f = np.fft.fft(segs, axis=1)[:, keep]
        acc += np.einsum("swi,swj->wij", f, np.conj(f))
    return acc / (len(starts) * (window**2).sum()), len(starts)


def sample_acs_tolerance(doc: dict, length: int, z: float = 8.0) -> float:
    """z standard errors of a sample autocovariance normalized by
    sqrt(C_ii(0) C_jj(0)), for a series of ``length`` steps.  Bartlett's
    variance, sum_k rho_ii(k) rho_jj(k) + rho_ij(k + tau) rho_ji(k - tau),
    is bounded by twice the sum over k of the worst entry of rho(k)^2."""
    comp, q = companion(doc)
    n = len(doc["observed"]) + len(doc["latents"])
    lagged = _stationary(comp, q)
    scale = np.sqrt(np.outer(np.diag(lagged[:n, :n]), np.diag(lagged[:n, :n])))
    total = 0.0
    for _ in range(4096):
        worst = float((np.abs(lagged[:n, :n]) / scale).max())
        total += worst**2
        if worst < 1e-8:
            break
        lagged = comp @ lagged
    two_sided = 2.0 * total
    return z * float(np.sqrt(2.0 * two_sided / length))
