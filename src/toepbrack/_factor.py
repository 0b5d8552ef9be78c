"""Smallest eigenvalues of T_m(g) = C C*, from a blocked QR of C*.

:func:`smallest_eigenvalues` is the one entry, for ``spectra._gaps``.  C
is the m x (m+N) matrix of the placements of the stencil c, C[i, i+p] =
conj(c_p), so lambda_min(T_m) = sigma_min(C)**2, which a backward-stable
QR of C* reads to about eps * ||c||_1 in sigma, where an inertia count on
T_m errs by eps * ||T_m|| in lambda.  C* is factored b = max(32, N)
columns at a time (:func:`_factor`), and the R of size m is the leading
block of the R of any larger size, so one R serves a whole scan.  Inverse
subspace iteration from one vector per factor runs on all sizes at once
(:func:`_iterate`), and each gap is a Rayleigh quotient ||C* u||**2 /
||u||**2 summed in double-double (:func:`_quotients`).  Every product
that mixes rows runs on one b-row block of one size at a time, so no
BLAS call sees a shape that depends on the other sizes of the batch, and
each gap is bitwise that of its size run alone.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergenceError
from .symbols import _EPS, phase_angle

_BLOCK = 32
_MAX_STEPS = 100
# Entries of one (sizes, blocks, b, p) stack of vectors: the sizes are
# iterated in chunks of at most this many.
_ENTRIES = 2**16
# Veltkamp's splitter for float64, 2**27 + 1.
_SPLITTER = 134217729.0


def smallest_eigenvalues(
    c: np.ndarray,
    factors: Sequence[tuple[float, int]],
    ms: Sequence[int],
    corner_lambda_min: Callable[[list[list[float]]], float],
) -> list[float]:
    """lambda_min(C C*) for each m >= 1 of the ascending ``ms``, C the m x
    (m+N) placements of the stencil c of the symbol with the (angle,
    multiplicity) pairs ``factors``.

    A stencil that is real up to a unimodular factor, which changes no
    Gram form, is factored in real arithmetic.  The vectors at the stop
    take one more step with refined solves, whose Ritz matrix G gives the
    combination u of them (:func:`_top_vector`).  ``corner_lambda_min``
    is ``spectra._corner_lambda_min``, passed in so that this module
    imports nothing above the symbol layer.  NoConvergenceError if a
    size's top Ritz value still grows after ``_MAX_STEPS`` steps.
    """
    if not c.imag.any():
        c = c.real
    elif not c.real.any():
        c = c.imag
    if not len(ms):
        return []
    ms = np.asarray(ms, dtype=int)
    b = max(_BLOCK, len(c) - 1)
    parts = _factor(c, b, -(-int(ms[-1]) // b))
    reach = _EPS * float(np.abs(c).sum())
    out = []
    step = max(1, _ENTRIES // (int(ms[-1]) * len(factors)))
    for i in range(0, len(ms), step):
        chunk = ms[i : i + step]
        x = _iterate(parts, _modes(factors, chunk, c.dtype, b), chunk, reach)
        g, x = _step(parts, x, chunk, refine=True)
        y = np.stack([_top_vector(k, p, corner_lambda_min) for k, p in zip(g, _power(g)[1])])
        u = (x @ y[:, None, :, None]).reshape(len(chunk), -1)
        out += _quotients(c, u, chunk).tolist()
    return out


def _factor(c: np.ndarray, b: int, blocks: int) -> tuple[tuple, tuple]:
    """The parts of R, for C* of size blocks * b, that R* Z = Q and R X = Z
    read (:func:`_lower`, :func:`_upper`).

    Column block k of C* has its nonzeros in rows kb..kb+b+N-1.  Each step
    factors the (b+N) x (b+N) window W of rows and columns kb..kb+b+N-1
    by one ``np.linalg.qr`` in mode "r": its leading b rows are row block
    k of R, the diagonal block D_k and the coupling U_k to the next N
    columns, and its trailing N x N block, triangular rather than Q* W's
    own rows (which changes no R*R), replaces the leading block of the
    next window, otherwise the same Toeplitz band.  The D_k are inverted
    at once by a stacked ``np.linalg.inv``.
    """
    n = len(c) - 1
    band = np.zeros((b + n, b + n), dtype=c.dtype)
    for p, cp in enumerate(c.tolist()):
        band[np.arange(p, b + n), np.arange(b + n - p)] = cp
    d = np.empty((blocks, b, b), dtype=c.dtype)
    u = np.empty((blocks, b, n), dtype=c.dtype)
    carry = band[:n, :n]
    for k in range(blocks):
        w = band.copy()
        w[:n, :n] = carry
        r = np.linalg.qr(w, mode="r")
        d[k], u[k], carry = r[:b, :b], r[:b, b:], r[b:, b:]
    inverse = np.linalg.inv(d)
    d_h, u_h, inverse_h = (np.ascontiguousarray(a.conj().transpose(0, 2, 1)) for a in (d, u, inverse))
    # Block k of R* Z = Q reads z_k = D_k^-* (q_k - U_{k-1}* z_{k-1}), U_{k-1}* on
    # the first N rows, and of R X = Z, x_k = D_k^-1 (z_k - U_k x_{k+1}[:N]).
    ahead = np.zeros_like(d)
    ahead[1:] = inverse_h[1:, :, :n] @ u_h[:-1]
    parts = (d_h, u_h, inverse_h, ahead), (d, u, inverse, inverse @ u)
    for a in parts[0] + parts[1]:
        a.flags.writeable = False
    return parts


def _lower(parts: tuple, q: np.ndarray, first: np.ndarray, refine: bool) -> np.ndarray:
    """R* Z = Q for the leading blocks of R that q, (sizes, blocks, b,
    columns), covers, by the block inverses; block k only for the sizes
    from ``first[k]`` on, which reach it, and 0 for the others.  With
    ``refine``, plus one correction from the residual Q - R* Z.  A product
    with an inverse errs by about eps * ||D_k^-1|| ||q_k|| rather than eps
    * ||D_k^-1 q_k||; the correction shrinks that error by the same factor
    again."""
    d_h, u_h, inverse_h, ahead = parts
    blocks = q.shape[1]

    def once(rhs):
        z = np.zeros_like(rhs)
        for k, f in enumerate(first.tolist()):
            z[f:, k] = inverse_h[k] @ rhs[f:, k]
            if k:
                z[f:, k] -= ahead[k] @ z[f:, k - 1]
        return z

    z = once(q)
    if refine:
        residual = q - d_h[:blocks] @ z
        residual[:, 1:, : u_h.shape[1]] -= u_h[: blocks - 1] @ z[:, :-1]
        z += once(residual)
    return z


def _upper(parts: tuple, z: np.ndarray, first: np.ndarray, refine: bool) -> np.ndarray:
    """R X = Z for the leading blocks of R that z covers, as :func:`_lower`."""
    d, u, inverse, behind = parts
    blocks, n = z.shape[1], u.shape[2]

    def once(rhs):
        x = np.zeros_like(rhs)
        for k in reversed(range(blocks)):
            f = int(first[k])
            x[f:, k] = inverse[k] @ rhs[f:, k]
            if k + 1 < blocks:
                x[f:, k] -= behind[k] @ x[f:, k + 1, :n]
        return x

    x = once(z)
    if refine:
        residual = z - d[:blocks] @ x
        residual[:, :-1] -= u[: blocks - 1] @ x[:, 1:, :n]
        x += once(residual)
    return x


def _modes(factors: Sequence[tuple[float, int]], ms: np.ndarray, dtype, b: int) -> np.ndarray:
    """The start vectors u_k = exp(-i*E*k) * sin(pi*k/(m+1))**alpha, k =
    1..m, one per factor (E, alpha), as a (sizes, blocks, b, p) stack that
    is 0 in the rows >= m of each size.  In real arithmetic each is its
    real part for E in [0, pi] and its imaginary part otherwise, so that
    the two factors of a conjugate pair give cos and sin."""
    blocks = -(-int(ms.max()) // b)
    k = np.arange(1, blocks * b + 1)
    sines = np.where(k <= ms[:, None], np.sin(math.pi * k / (ms[:, None] + 1)), 0.0)
    out = []
    for e, alpha in factors:
        wave = np.exp(-1j * phase_angle(e) * k)
        if dtype != wave.dtype:
            wave = wave.real if phase_angle(e) >= 0.0 else wave.imag
        out.append(wave * sines**alpha)
    return np.stack(out, axis=-1).reshape(len(ms), blocks, b, len(factors))


def _step(parts: tuple[tuple, tuple], x: np.ndarray, ms: np.ndarray, refine: bool = False):
    """One step of inverse subspace iteration on R*R for the sizes ``ms``,
    whose vectors are a (sizes, blocks, b, p) stack, ascending in m: the
    Ritz matrix G and the next vectors.  The vectors are orthonormalized by a stacked
    ``np.linalg.qr``, R* Z = Q is solved by blocks and each size's rows >=
    m are zeroed, so Z = R_m^-* Q for R_m the leading block of R; G = Z* Z,
    whose top eigenvalue mu tends to 1 / lambda_min, is read from a solve,
    not from R Q, which would lose about eps * cond(R) of mu, and is summed
    block by block in order, so that a size's zero blocks add exact zeros;
    and X solves R X = Z."""
    b = parts[0][0].shape[1]
    blocks = -(-int(ms.max()) // b)
    x = x[:, :blocks]
    mask = np.arange(blocks * b).reshape(blocks, b, 1) < ms[:, None, None, None]
    first = np.searchsorted(ms, np.arange(blocks) * b, side="right")
    q = np.linalg.qr(x.reshape(len(x), blocks * b, -1))[0].reshape(x.shape)
    z = _lower(parts[0], q, first, refine) * mask
    g = np.cumsum(z.conj().swapaxes(2, 3) @ z, axis=1)[:, -1]
    return g, _upper(parts[1], z, first, refine) * mask


def _power(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr(P G) / tr(P) and P, P = (G / tr(G))**64 by six stacked squarings,
    for a (sizes, p, p) stack: a mean of G's eigenvalues weighted by their
    64th powers, which follows the top one without a Jacobi.  The top
    eigenvalue of G / tr(G) is at least 1/p, so its part of P stays above
    1e-300 for p < 4e4."""
    power = g / np.trace(g, axis1=1, axis2=2).real[:, None, None]
    for _ in range(6):
        power = power @ power
    return np.trace(power @ g, axis1=1, axis2=2).real / np.trace(power, axis1=1, axis2=2).real, power


def _iterate(parts: tuple[tuple, tuple], x: np.ndarray, ms: np.ndarray, reach: float) -> np.ndarray:
    """The vectors of :func:`_step` for each size of ``ms`` at its stop,
    when the estimate mu of its top Ritz value (:func:`_power`) grows by
    less than min(1, max(1e-12, reach * sqrt(mu))) of itself, reach = eps *
    ||c||_1: sigma_min is known to about eps * ||c||_1, so a smaller change
    is rounding, and so is any change where that allowance is the whole of
    mu (capped at 1, it keeps its product with mu in the float range).  In
    exact arithmetic these Ritz values only grow, so a fall is rounding
    too.  A stopped size leaves the stack."""
    done = np.zeros_like(x)
    active = np.arange(len(x))
    mu = np.full(len(active), -np.inf)
    for _ in range(_MAX_STEPS):
        g, x = _step(parts, x, ms[active])
        new = _power(g)[0]
        stop = new - mu <= np.minimum(np.maximum(1e-12, reach * np.sqrt(new)), 1.0) * new
        done[active[stop], : x.shape[1]] = x[stop]
        active, x, mu = active[~stop], x[~stop], new[~stop]
        if not len(active):
            return done
    raise NoConvergenceError(
        f"the top Ritz value of the sizes m = {ms[active].tolist()} still grew after {_MAX_STEPS} steps"
    )


def _top_vector(g: np.ndarray, power: np.ndarray, corner_lambda_min) -> np.ndarray:
    """The eigenvector of the top eigenvalue mu of the Hermitian p x p G.
    mu is minus the smallest eigenvalue of -G by the cyclic Jacobi of G,
    or of its real form [[Re G, -Im G], [Im G, Re G]], which has G's
    eigenvalues twice.  One step of inverse iteration shifted to mu * (1 +
    2**-40), far above the Jacobi's error of a few eps * mu, gives the
    vector, from the column of P = (G / tr(G))**64 with the largest
    diagonal, which lies in G's top eigenspace up to (mu_2 / mu)**64."""
    real = np.block([[g.real, -g.imag], [g.imag, g.real]]) if np.iscomplexobj(g) else g
    mu = -corner_lambda_min((-real).tolist())
    start = power[:, np.argmax(np.diagonal(power).real)]
    return np.linalg.solve(g - mu * (1.0 + 2.0**-40) * np.eye(len(g)), start)


def _split(x):
    """x and Veltkamp's halves of it, x = hi + lo, each with at most 26 bits."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return x, hi, x - hi


def _quotients(c: np.ndarray, u: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """||C* u||**2 / ||u||**2 for each row u of ``u``, zero-padded beyond
    its size m in ``ms``, C* u = sum_p c_p u_{k-p} summed in double-double:
    each real product is an exact pair hi + lo (Dekker's product on
    Veltkamp's halves), added to its entry's head and tail by Knuth's
    TwoSum.  The entries, about sqrt(lambda) from terms about ||c||_1,
    carry a few eps**2 * ||c||_1, so the quotient is within about (m + N)
    * eps of the float vector's exact one, which is at least lambda_min.
    Each norm sums the m + N entries of its size alone, as numpy's
    pairwise grouping of a sum changes with its length."""
    scale = np.abs(u).max(axis=1, keepdims=True)
    u = u / np.where(scale > 0.0, scale, 1.0)
    rows = u.shape[1]
    if np.iscomplexobj(u):
        re, im = _split(u.real), _split(u.imag)
        # re(c u) = re(c) re(u) - im(c) im(u), im(c u) = re(c) im(u) + im(c) re(u)
        parts = [[(c.real, re), (-c.imag, im)], [(c.real, im), (c.imag, re)]]
    else:
        parts = [[(c, _split(u))]]
    image = 0.0
    for terms in parts:
        head = np.zeros((len(u), rows + len(c) - 1))
        tail = np.zeros_like(head)
        for coeffs, (v, v_hi, v_lo) in terms:
            for p, cp in enumerate(coeffs.tolist()):
                _, c_hi, c_lo = _split(cp)
                prod = cp * v
                err = ((c_hi * v_hi - prod) + c_hi * v_lo + c_lo * v_hi) + c_lo * v_lo
                window = head[:, p : p + rows]
                s = window + prod
                back = s - window
                tail[:, p : p + rows] += ((window - (s - back)) + (prod - back)) + err
                window[...] = s
        image = image + np.square(head + tail)
    norms = np.square(np.abs(u))
    n = len(c) - 1
    return np.array([image[s, : m + n].sum() / norms[s, :m].sum() for s, m in enumerate(ms.tolist())])
