"""Smallest eigenvalues of banded mirror windows, by multisection on LDL* pivots.

:func:`lambda_mins` is the one entry: ``spectra`` calls it for the
margins of a bracketing certificate and for the spectral gap, and nothing
else imports this module.  A window is a coefficient row, a size m and a
top N x N corner; its smallest eigenvalue comes from the signs of banded
LDL* pivots (Sylvester's law of inertia) in O(m * N**2) per pass, and no
m x m matrix is built.  Every window is mirror-symmetric, so each pass
factors it from both ends and meets in the middle, in about half its rows
(the double factorization of Parlett and Dhillon, "Fernando's solution to
Wilkinson's problem", LAA 267, 1997).

One call advances the passes of all its windows through one row loop per
arithmetic kind: a certificate makes one call for its four windows, a gap
scan one call for all its sizes.  A pass holds its shifts on the last,
contiguous axis of one (N+1) x (N+1) x S Schur block (:func:`_pass`), and
no result depends on the batch, the layout or when retired shifts leave.
A uniform pass narrows a bracket 32-fold; a row loop after one also runs
the next level on the bracket its pivots predict (:func:`_multisection`).
A gap window comes with an enclosure of its eigenvalue, which decides
the first uniform passes without a row loop (:func:`_enclose`) and gives
the first row loop its prediction: the gap-scan ops of
benchmark seed 1 take 2, 6 and 7 row loops where one pass per row loop
takes 10, with every bit unchanged.

Every margin of a modified certificate is 0 in exact arithmetic, so each
certificate window's first pass tests the 9 shifts k*w, |k| <= 4, around
0 and usually ends its multisection at once; the positive definite
``nn_vs_0n`` ends there through the "min0" stop.  Without that stop the
certify ops of benchmark seeds 401-410 take 6670 engine passes instead of
1270 and 46-69 % more CPU time.  A margin outside the grid, such as a
classic-Neumann failure, falls back to uniform passes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .symbols import _EPS, BandedCoeffs

_SHIFTS = 31
# A uniform pass tests lo + (hi - lo) * _STEPS, the interior points of 32 equal parts.
_STEPS = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
_STEPS.flags.writeable = False
# A window expected at 0 first tests the shifts k*w, |k| <= 4.  Every such
# window of benchmark seeds 1-20 and of 400 random certificates up to
# N = 12 lands in [-w, 0] or [0, w], or ("min0") at or above 0, so a wider
# grid only adds columns, each costing rows; 4 keeps the inexact grid
# point 3w, whose sign change still ends the pass.
_GRID = 4
_GRID_STEPS = np.arange(-_GRID, _GRID + 1)
_GRID_STEPS.flags.writeable = False
# An enclosure decides a uniform pass when, widened by _MARGIN * w on each
# side, it lies strictly between two of the pass's shifts (:func:`_enclose`).
_MARGIN = 64


@functools.cache
def _band_index(n: int) -> np.ndarray:
    """Read-only (N+1, N+1) index into a_{-N..N}: entry (r, c) holds a_{c-r}."""
    k = np.arange(n + 1)
    index = n + k[None, :] - k[:, None]
    index.flags.writeable = False
    return index


@functools.cache
def _unit_row(n: int) -> np.ndarray:
    """Read-only row N of the (N+1) x (N+1) identity, as an (N+1, 1) column
    of the block: the decoupled row of a meeting."""
    unit = np.eye(n + 1)[n, :, None]
    unit.flags.writeable = False
    return unit


def _window_setup(coeffs: BandedCoeffs, top: np.ndarray | None) -> tuple:
    """What every window of one coefficient row and top corner shares:
    (template, T_N(g), tol, lo, hi, grid), the arrays read-only.

    Rows 0..N of T - s*I: the first N form the starting Schur block, and
    row N (entries a_N..a_1 above its diagonal) is the template of every
    row that enters later; the top corner sits in the starting block.  A
    row and a corner without imaginary parts give a real template."""
    n = coeffs.half_bandwidth
    a = coeffs.a
    if not (a.imag.any() or top is not None and top.imag.any()):
        a, top = a.real, None if top is None else top.real
    reach = float(np.abs(a).sum())
    template = a[_band_index(n)]
    body = template[:n, :n].copy()
    if top is not None:
        # The largest absolute row sums of top and of its reflection, the
        # bottom corner, each summed in its own row order.
        top_sum, bottom_sum = np.abs([top, top[::-1, ::-1]]).sum(axis=2).max(axis=1).tolist()
        reach += top_sum + bottom_sum
        template[:n, :n] += top
    tol = 8.0 * (n + 1) * _EPS * max(1.0, reach)
    grid = tol * _GRID_STEPS
    for x in (template, body, grid):
        x.flags.writeable = False
    return template, body, tol, 0.0 if top is None else -reach, reach, grid


def lambda_mins(windows: Sequence[tuple]) -> list[float]:
    """Smallest eigenvalues of windows (coeffs, m, top[, expect]) of one
    half-bandwidth N: each is the m x m window T_m(g) plus, unless top is
    None, the N x N block top at its top-left corner and its conjugated
    reflection bottom = conj(top[::-1, ::-1]) at its bottom-right one.

    Multisection on Sylvester's law of inertia: W - s*I is positive
    definite iff every pivot of its LDL* factorization is positive.  One
    pass runs the banded right-looking recurrence for a vector of ascending
    shifts at once, keeping only the trailing (N+1) x (N+1) Schur block; the
    first shift with a nonpositive pivot ends the pass for itself and every
    shift above it (:func:`_pass` tracks each shift's running minimum pivot
    and drops retired shifts in batches, which changes no bit).  The top
    corner enters with the starting block.

    Every window is mirror-symmetric, W = J conj(W) J, because its row is
    Hermitian (a_{-k} = conj(a_k)) and its corners are each other's
    reflection, so each pass factors it from both ends and meets in the
    middle.  With p = ceil((m-N)/2) and q = m-N-p <= p, W - s*I is positive
    definite iff its rows 0..p-1, its rows p+N..m-1 and the Schur complement
    M on the N middle rows p..p+N-1 are; with bandwidth N the top and bottom
    rows do not couple.  By the symmetry the bottom rows, eliminated from
    the bottom, give the pivots of the first q rows, which the forward
    recurrence has already tested, and their share of M is J conj(S_q) J -
    (T_N(g) - s*I), S_r being the Schur block of rows r..r+N-1 at the start
    of forward row r.  So the pass runs rows 0..p-1 forward, copies S_q on
    the way, and ends with N pivot steps on M = S_p + J conj(S_q) J -
    T_N(g) + s*I: each corner's share of the middle lies in exactly one of
    S_p and S_q, and T_N(g) in both, so the bottom corner enters only the
    row-sum bound below.  That needs corners that do not overlap, so a
    window with a corner and m < 2N raises ValueError.

    The bracket starts at [-r, r], r the row-sum bound: sum|a_k| plus the
    largest absolute row sum of each corner.  A window without corners
    starts at [0, r] instead, which assumes T_m(g) >= 0: the only such
    windows are those of ``spectra._gaps``, whose row is a product symbol's,
    with g >= 0.  A uniform pass tests its 31 equispaced interior shifts,
    which shrinks it 32-fold, down to the banded Cholesky backward-error
    scale w = 8 * (N+1) * eps * max(1, r), and its midpoint is returned.
    A row loop after a uniform pass may also run the pass after it, on a
    bracket predicted from the pivots (:func:`_multisection`), which
    saves row loops and changes no bit of any result.

    ``expect`` (lower, upper), for a window without corners, is an
    enclosure of its smallest eigenvalue: every uniform pass whose count
    it decides once widened by 64 stopping widths on each side is applied
    without a row loop (:func:`_enclose`), and upper is the first estimate
    of the look-ahead, so results keep every bit.

    ``expect`` "zero" says the smallest eigenvalue is 0 in exact arithmetic
    (the floors of a bracketing certificate).  The first pass then tests
    the 9 shifts k*w, |k| <= 4, end points included: a sign change among
    them leaves a bracket of width w at once, and otherwise uniform passes
    go on from [-r, -4w] or [4w, r].  "min0" does the same and returns
    min(0, lambda_min), stopping as soon as the bracket lies in [0, r]: a
    positive definite window, such as ``nn_vs_0n``, ends after its grid
    pass without resolving the eigenvalue that min(0, .) discards.
    The coefficient row may be zero, for a window that is just its two
    corners.  Needs m >= N+1 (L = 2N+1 gives m = N+1) and never builds an
    m x m matrix.  An empty list of windows gives an empty list.

    Windows that share their row and top corner object share one
    :func:`_window_setup`, built once per call with read-only arrays: the
    two floors of a certificate differ only in m, and so do all the sizes
    of a gap scan.
    All passes run in one row loop per arithmetic kind (:func:`_multisection`;
    complex / real division can round otherwise than real / real), and each
    shift does the arithmetic it does alone: no result depends on the batch.
    A job is [template, q, p, T_N(g), tol, lo, hi, grid, cap, pivots,
    estimate].
    """
    jobs, setups = [], {}
    for coeffs, m, top, *expect in windows:
        n = coeffs.half_bandwidth
        expect = expect[0] if expect else None
        if top is not None and m < 2 * n:
            raise ValueError(f"a window with corners needs m >= 2N = {2 * n}, got {m}")
        key = (id(coeffs), id(top))
        if key not in setups:
            setups[key] = _window_setup(coeffs, top)
        template, body, tol, lo, hi, grid = setups[key]
        # The update rewrites only the leading N x N block, so the entering
        # row stays in place until the middle row p, where it becomes a
        # decoupled unit row and the leading block becomes the meeting
        # block (rows p..p+N-1).
        p = (m - n + 1) // 2
        cap = 0.0 if expect == "min0" else math.inf
        seeded = isinstance(expect, str)
        job = [template, m - n - p, p, body, tol, lo, hi, grid if seeded else None, cap, None, None]
        if expect is not None and not seeded:
            _enclose(job, *expect)
        jobs.append(job)
    for kind in (False, True):
        group = [job for job in jobs if np.iscomplexobj(job[0]) == kind]
        if group:
            _multisection(group)
    mids = [0.5 * (job[5] + job[6]) for job in jobs]
    # A NaN midpoint stays NaN: min(0.0, nan) would give 0.0.
    return [
        min(0.0, mid) if job[8] == 0.0 and not math.isnan(mid) else mid
        for job, mid in zip(jobs, mids)
    ]


def _open(job: list) -> bool:
    """Whether a job's bracket is still wider than tol and below its cap."""
    return job[6] - job[5] > job[4] and job[5] < job[8]


def _enclose(job: list, lower: float, upper: float) -> None:
    """Apply to job's bracket, without a row loop, every uniform pass whose
    count the enclosure lower <= lambda_min <= upper decides, and make
    upper the job's first estimate (job[10]).

    A pass is decided when the enclosure, widened by _MARGIN * w on each
    side, lies strictly between two consecutive shifts of the pass, the
    bracket's ends standing for -inf and +inf: the shifts below it pass
    and the one above it fails.  So the bracket becomes the one the float
    pass leaves, bit for bit, since its shifts are the same floats
    lo + (hi - lo) * _STEPS.  This holds as long as the float LDL* misjudges
    no shift at least _MARGIN * w away from lambda_min.  When every pivot
    of a shift s in [0, r] comes out positive, the computed factors are
    the exact LDL* of W - s*I + E with |E| <= gamma_{N+4} |L| |D| |L*|
    (banded Cholesky, Higham, "Accuracy and Stability of Numerical
    Algorithms", Thm 10.3, with three more roundings in the meeting
    block); positive pivots bound each entry of |L| |D| |L*| by its
    diagonal, at most a_0 - s + |E_ii| <= r, so ||E|| <= (2N+1) *
    gamma_{N+4} * r, below _MARGIN * w = 512 * (N+1) * eps * max(1, r) for
    N <= 250.  A shift _MARGIN * w or more above lambda_min therefore
    fails, and one as far below it passes, because the factorization of a
    matrix whose smallest eigenvalue exceeds ||E|| cannot break down
    (Higham, Thm 10.7).  The widening is also the safety margin for the
    enclosure itself, whose rounding allowances are estimates rather than
    derived bounds (``spectra._enclosure``): a decided pass is the float
    pass as long as lambda_min lies within _MARGIN * w - ||E|| of
    [lower, upper], and for N <= 8 ||E|| takes less than a twentieth of
    _MARGIN * w.  An enclosure that is not one (lower > upper, or NaN),
    or a wider band, decides nothing."""
    n = len(job[0]) - 1
    if not lower <= upper or (2 * n + 1) * (n + 5) >= 8 * _MARGIN * (n + 1):
        return
    slack = _MARGIN * job[4]
    below, above = lower - slack, upper + slack
    while _open(job):
        shifts = job[5] + (job[6] - job[5]) * _STEPS
        count = int(np.searchsorted(shifts, below))  # the shifts below the enclosure
        if count < len(shifts) and shifts[count] <= above:
            break
        _narrow(job, shifts, count)
    job[10] = upper


def _multisection(jobs: list[list]) -> None:
    """Narrow the bracket job[5:7] of each job [template, q, p, T_N(g), tol,
    lo, hi, grid, cap, pivots, estimate], all of one arithmetic kind, one row loop
    (:func:`_pass`) per pass or, with a twin, per two passes.  A pass
    tests the job's ``grid`` if it has one, else 31 equispaced interior
    shifts of its bracket.  A job stops when its bracket is no wider than
    tol, or lies at or above cap, or when its grid pass found the sign
    change inside the grid.

    After a uniform pass the secant through the running minimum pivots of
    the two highest shifts that passed (:func:`_estimate`) may give an
    estimate of the eigenvalue.  The next row loop then also runs the pass
    after it, as a twin job (:func:`_twin`) on the bracket that the
    estimate predicts.  When the window leaves exactly that bracket, the
    uniform engine would go on, and the twin's first failing shift is one
    it tested, the twin's count narrows the bracket once more; otherwise
    the twin is dropped.  Either way every bracket is bitwise that of one
    uniform pass per row loop: a column's arithmetic does not depend on
    its batch, the twin's shifts are the floats lo + (hi - lo) * _STEPS
    that the next uniform pass would test, and a pass reads nothing above
    its first failing shift.  A grid pass gives no estimate, so a
    certificate that its grid pass settles runs no twin.  The next
    estimate comes from the twin when its count was used.  The first
    row loop takes the job's own estimate, the upper end of its
    enclosure (:func:`_enclose`), if it has one."""
    jobs = [job for job in jobs if _open(job)]
    guesses = [job[10] for job in jobs]
    while jobs:
        batch, shifts, twins = [], [], []
        for job, guess in zip(jobs, guesses):
            lo, hi, grid = job[5:8]
            batch.append(job)
            shifts.append(lo + (hi - lo) * _STEPS if grid is None else grid)
            twin = None if guess is None else _twin(job, shifts[-1], guess)
            if twin:
                batch.append(twin[0])
                shifts.append(twin[1])
            twins.append(twin)
        passes = iter(zip(batch, shifts, _pass(batch, shifts)))
        jobs, guesses = [], []
        for twin in twins:
            job, s, count = next(passes)
            uniform = job[7] is None
            _narrow(job, s, count)
            closed = not uniform and 0 < count < len(s)
            job[7] = None
            last = (job, s, count) if uniform else None
            if twin:
                ahead = next(passes)
                _, s, count = ahead
                if job[5:7] == twin[0][5:7] and count < len(s) and _open(job):
                    _narrow(job, s, count)
                    last = ahead
            if not closed and _open(job):
                jobs.append(job)
                guesses.append(None if last is None else _estimate(*last))


def _narrow(job: list, shifts: np.ndarray, count: int) -> None:
    """Set job's bracket to the one a pass over ``shifts`` with ``count`` leaves."""
    if count > 0:
        job[5] = float(shifts[count - 1])
    if count < len(shifts):
        job[6] = float(shifts[count])


def _estimate(job: list, shifts: np.ndarray, count: int) -> float | None:
    """Where the secant through (shift, running minimum pivot) of the two
    highest shifts that passed reaches 0, if those pivots fall towards it."""
    if count < 2:
        return None
    second, top = job[9]
    if not 0.0 < top < second:
        return None
    below, at = float(shifts[count - 2]), float(shifts[count - 1])
    return at + top * (at - below) / (second - top)


def _twin(job: list, shifts: np.ndarray, guess: float) -> tuple | None:
    """The pass after the one over ``shifts``, if the eigenvalue sits at
    ``guess``: a job on the bracket that pass leaves then, and its uniform
    shifts up to the first above ``guess``.  None when the uniform engine
    would stop after this pass."""
    k = int(np.searchsorted(shifts, guess))  # the shifts below guess pass
    lo = float(shifts[k - 1]) if k else job[5]
    hi = float(shifts[k]) if k < len(shifts) else job[6]
    twin = job[:5] + [lo, hi, None, job[8], None, None]
    if not _open(twin):
        return None
    twin_shifts = lo + (hi - lo) * _STEPS
    return twin, twin_shifts[: int(np.searchsorted(twin_shifts, guess, side="right")) + 1]


_SWEEP = 16  # rows between drops of retired shifts, besides the end rows


def _pass(jobs: list[list], shifts: list[np.ndarray]) -> list[int]:
    """One row loop: for each job [template, q, p, T_N(g), ...], how many
    of its ascending ``shifts`` s leave W - s*I positive definite.  A job
    without a grid (job[7] None) whose count is at least 2 also gets, in
    job[9], the running minimum pivots of its two highest such shifts.

    Each job keeps J conj(S_q) J, its N x N Schur block S_q mirrored, at
    the start of row q, replaces S_p at the start of row p by the meeting
    block S_p + J conj(S_q) J - T_N(g) + s*I and ends at row p+N (see
    :func:`lambda_mins`); these two event rows touch only the
    job's own columns and leave the layout as it is.  Neighbouring jobs
    of one template, q, p and T_N(g), a window and its twin, share their
    event rows: one copy and one meeting cover their adjacent columns.

    The block is (N+1, N+1, S): the S shifts of all jobs, job after job,
    on its last, contiguous axis, so every ufunc of a row runs inner loops
    of length S.  Each column starts as its job's template with its shift
    subtracted on the diagonal.  A row is five ufunc calls (four for real windows, which need no
    conjugate) into buffers and views made once per block layout; numpy
    buffers the overlap of the in-place Schur update.  ``least``
    holds each shift's running minimum pivot, and a job's count is the
    index of its first shift with least <= 0: the first nonpositive pivot
    retires a shift and every shift above it.  Retired shifts run on under
    errstate, their values never read again.  The layout changes only at
    a job's end row, where its columns leave, and every _SWEEP rows after
    row 0; at both, each job's retired columns leave too, always as a
    suffix of the job's columns, so those at row p are a prefix of those
    copied at row q.  Dropping them ends early a pass whose shifts all
    retire.  A shift's column gets the same operations on the same operands
    whatever its place in the block, so the counts are bitwise independent
    of the batch and of when retired shifts leave."""
    n = len(jobs[0][0]) - 1
    real = not np.iscomplexobj(jobs[0][0])
    counts = [len(s) for s in shifts]
    width = list(counts)  # the job's columns of the block, 0 once it left
    starts = list(itertools.accumulate(width, initial=0))
    column_shifts = np.concatenate(shifts)
    least = np.full(len(column_shifts), np.inf)
    # The diagonal is rows 0, N+2, .. of the block's (N+1)**2 x S view.
    block = np.repeat(np.array([job[0] for job in jobs]).transpose(1, 2, 0), width, axis=2)
    block.reshape(-1, len(least))[:: n + 2] -= column_shifts
    ends = [job[2] + n for job in jobs]
    stops = set(ends)
    # Neighbours that share template, q, p and T_N(g), such as a window
    # and its twin, meet as one group: their columns stay side by side.
    groups: list[list[int]] = []  # [its first job, one past its last]
    events: dict[int, list[int]] = {}  # row -> the groups whose q or p it is
    head = jobs[0]
    for j, job in enumerate(jobs):
        if j and job[0] is head[0] and job[3] is head[3] and job[1] == head[1] and job[2] == head[2]:
            groups[-1][1] = j + 1
            continue
        head = job
        for row in {job[1], job[2]}:
            events.setdefault(row, []).append(len(groups))
        groups.append([j, j + 1])
    mirrors = [None] * len(groups)  # each group's J conj(S_q) J and the layout it was copied in
    unit = _unit_row(n)
    layout = True
    with np.errstate(all="ignore"):
        # The last end row ends every job left, so the loop breaks there.
        for i in range(max(ends) + 1):
            for g in events.get(i, ()):
                j0, j1 = groups[g]
                start, at = starts[j0], starts[j1 - 1] + width[j1 - 1]
                if start == at:
                    continue
                job = jobs[j0]
                if job[1] == i:
                    mirror = block[n - 1 :: -1, n - 1 :: -1, start:at]
                    mirrors[g] = mirror.copy() if real else np.conj(mirror), starts
                if job[2] == i:
                    # M = S_p + J conj(S_q) J - T_N(g) + s*I, after a unit
                    # row N.  Each job's columns here are a prefix of its
                    # columns at row q; the layout is the one copied unless
                    # columns left in between.
                    mine = block[:, :, start:at]
                    mine[n] = unit
                    mine[:n, n] = 0.0
                    middle = mine[:n, :n]
                    copied, copied_starts = mirrors[g]
                    if copied_starts is starts:
                        middle += copied
                    else:
                        for k in range(j0, j1):
                            here, there = starts[k] - start, copied_starts[k] - copied_starts[j0]
                            middle[:, :, here : here + width[k]] += copied[:, :, there : there + width[k]]
                    middle -= job[3][:, :, None]
                    flat[: n * (n + 2) : n + 2, start:at] += column_shifts[start:at]
            if i in stops or (i and i % _SWEEP == 0):
                # The retired columns, then one past the last: a job's first
                # retired shift is the first hit at or after its start.
                hits = np.flatnonzero(least <= 0.0).tolist() + [len(least)]
                for j, start in enumerate(starts[:-1]):
                    if width[j]:
                        first = hits[bisect.bisect_left(hits, start)]
                        counts[j] = width[j] = min(first, start + width[j]) - start
                        if ends[j] == i:
                            width[j] = 0
                            if counts[j] > 1 and jobs[j][7] is None:
                                jobs[j][9] = least[start + counts[j] - 2 : start + counts[j]].tolist()
                if sum(width) < len(least):
                    if not any(width):
                        break
                    keep = np.zeros(len(least), dtype=bool)
                    for start, columns in zip(starts, width):
                        keep[start : start + columns] = True
                    kept = np.flatnonzero(keep)
                    block = block.take(kept, axis=2)
                    least = least[kept]
                    column_shifts = column_shifts[kept]
                    starts = list(itertools.accumulate(width, initial=0))
                    layout = True
            if layout:
                pivots, v = block[0, 0].real, block[1:, 0]
                head, tail = block[:n, :n], block[1:, 1:]
                flat = block.reshape(-1, len(least))
                q = np.empty_like(v)
                w = v if real else np.empty_like(v)
                outer = np.empty_like(head)
                q_col, w_row = q[:, None], w[None]
                layout = False
            np.fmin(least, pivots, out=least)
            np.divide(v, pivots, out=q)
            if not real:
                np.conjugate(v, out=w)
            np.multiply(q_col, w_row, out=outer)
            np.subtract(tail, outer, out=head)
    return counts
