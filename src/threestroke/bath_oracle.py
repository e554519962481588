"""Simulation and search oracles that cross-check the closed forms.

The ladder-bath stroke is simulated explicitly: the joint Hilbert space of
the qubit and a (d+1)-level ladder splits into two invariant corners plus d
two-dimensional blocks, so conjugating by an energy-preserving unitary and
tracing out the bath costs O(d) regardless of the angles.  The block angles
are held as read-only float arrays.  simulate_finite_bath_map builds the
product state's block diagonals, one (2, d) array, from inputs that passed
the input rules.  When every angle row holds one bit pattern, as in
full_swap (the spec decides this once, when it is built), the rotation's
entries come from one cos and one sin per row, once per call, and the
zero-weight blocks are rotated once; otherwise the entries are built per
chunk.  In one pass over chunks of 1 024 blocks, _Kernel rotates each chunk,
checks the rotated blocks with one reduction and writes their new diagonals
back.  It makes no (d, 2, 2) block array: its three work arrays, at most
64 KB each, are allocated once per call and come from the heap, so a call
takes no page faults once the heap has grown to it, and the views its steps
read are built once per chunk size.  The partition function, the rotated
state's trace check and the reduced populations are pairwise numpy sums
(their error bound is derived in _ladder_weights).  The oracles simulate
fresh ladder baths only, so the kernel rotates the diagonal product state's
blocks.
Beside the simulation sit a one-sweep coordinate search over the block
angles and a brute-force grid over the mixing weights of the swap cycle (the
identity, the qubit's other work permutation, releases exactly zero work);
neither evaluates the closed-form optima it is meant to check.  The grid evaluates every cell,
in row-major chunks, and asserts closure on each.  The exchange-coupling time
scan returns the largest weight over its time grid, each time's value summed
along its own row so that it does not depend on the other times evaluated with
it; it halves, level by level, only the windows of sorted times whose
curvature bound can still reach the best value (the bound and the margin are
in jc_time_scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    CLOSURE_TOL, EngineParams, check_laws, cycle_map, cyclic_state, fixed_ground, run_cycle
)
from .ergotropy import WorkPermutation
from .populations import (
    PopulationVector, as_numbers, check_beta, check_betas, check_instance, check_size,
)

__all__ = [
    "MAX_GRID",
    "MAX_TIME_POINTS",
    "MAX_TRUNCATION",
    "BlockUnitarySpec",
    "BruteForceResult",
    "ResourceLimitError",
    "brute_force_performance",
    "jc_time_scan",
    "scan_lambda_max",
    "simulate_finite_bath_map",
]

# Sizes are bounded before anything is allocated: the bath by its O(d) block
# arrays (and so the angle scan's rows of _SCAN_POINTS * d floats, 650 000 at
# most), the brute-force grid by its grid**2 cells per pass, the
# exchange-coupling truncation by its per-manifold arrays, and its time grid by
# the sorted copy the scan makes of an unsorted grid.
_MAX_BATH_SIZE = 10_000
MAX_GRID = 2_000
MAX_TRUNCATION = 100_000
MAX_TIME_POINTS = 10_000_000
_JC_TAIL_TOL = 1e-12
_JC_CHUNK_FLOATS = 2_000_000  # sines evaluated at once by the coupling-time scan
_JC_STRIDE = 512  # the scan evaluates every this many sorted times before halving
_JC_PRUNE_MARGIN = 1e-12
# The default time grid, np.linspace(0.0, _JC_DEFAULT_END, _JC_DEFAULT_POINTS),
# read from its indices (_default_times) rather than built.
_JC_DEFAULT_END = 200.0
_JC_DEFAULT_POINTS = 100_000
_JC_DEFAULT_STEP = _JC_DEFAULT_END / (_JC_DEFAULT_POINTS - 1)
_SCAN_POINTS = 65  # grid points per angle of the coordinate-ascent scan
# Floats per temporary of the brute-force grid, evaluated in chunks of at most
# this size (the block conjugation takes an eighth of it, see
# _rotation_chunks): 64 KB stays below glibc's default mmap threshold
# (128 KB), so the temporaries come from the heap instead of fresh,
# page-faulted maps.
_GRID_BLOCK_FLOATS = 8_192
# Tolerances of the rotated joint state: its trace may drift (qubit inputs
# carry normalization slack), its blocks' imaginary diagonals and negative
# eigenvalues may be rounding, and so may their departure from Hermitian.
_TRACE_TOL = 2e-12
_PSD_TOL = 1e-12
_HERMITIAN_TOL = 1e-10
# exp(-x) is 0 for every x past this (see _ladder_weights)
_EXP_UNDERFLOW = 746.0


class ResourceLimitError(RuntimeError):
    """Requested simulation size exceeds the supported budget."""


def _check_bounded(value: int, name: str, minimum: int, limit: int) -> int:
    value = check_size(value, name, minimum)
    if value > limit:
        raise ResourceLimitError(f"{name} {value} exceeds the supported {limit}")
    return value


@dataclass(frozen=True, eq=False)
class BlockUnitarySpec:
    """Angles of an energy-preserving joint unitary, one rotation per block.

    Block j (j = 1..d) is spanned by |0, j> and |1, j-1> and is rotated by

        [[ exp(i phi) cos(theta),  exp(i alpha) sin(theta)],
         [-exp(-i alpha) sin(theta), exp(-i phi) cos(theta)]];

    the corners |0, 0> and |1, d> have no exchange partner and stay put.

    The angles are held as read-only 1-d float64 arrays, the rows of one
    (3, d) copy of the inputs, so the simulation reads them without any
    per-angle Python, and whether each row holds one bit pattern is decided
    once, here.  An empty, non-1-d or non-finite input, unequal counts, or
    text, raise ValueError; a non-finite angle is named by its row and
    index, as thetas[1].
    """

    thetas: np.ndarray
    phis: np.ndarray
    alphas: np.ndarray
    _angles: np.ndarray = field(init=False, repr=False)
    _constant: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = ("thetas", "phis", "alphas")
        angles = [as_numbers(getattr(self, name), name) for name in names]
        for name, values in zip(names, angles):
            if values.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {values.shape}")
        thetas, phis, alphas = angles
        if not thetas.size:
            raise ValueError("block unitary needs at least one block")
        if phis.size != thetas.size or alphas.size != thetas.size:
            raise ValueError(
                f"angle counts differ: {thetas.size} thetas, {phis.size} phis, "
                f"{alphas.size} alphas"
            )
        stacked = np.array(angles)
        if not np.isfinite(stacked).all():
            row, index = np.argwhere(~np.isfinite(stacked))[0].tolist()
            raise ValueError(
                f"{names[row]}[{index}] must be finite, got {float(stacked[row, index])!r}"
            )
        bits = stacked.view(np.int64)
        self._hold(stacked, bool((bits == bits[:, :1]).all()))

    def _hold(self, angles: np.ndarray, constant: bool) -> None:
        """Take angles, a (3, d) float64 array of finite angles, read-only, and
        its rows; constant says that each row holds one bit pattern."""
        angles.setflags(write=False)
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_constant", constant)
        for name, values in zip(("thetas", "phis", "alphas"), angles):
            object.__setattr__(self, name, values)

    @property
    def d(self) -> int:
        return self.thetas.size

    @classmethod
    def full_swap(cls, d: int) -> BlockUnitarySpec:
        """All blocks rotated by pi/2; achieves the ladder-bath cap.  d is
        checked by the simulation's bath-size rule before any array is made;
        the angles, finite by construction, skip the input rules' copy."""
        d = _check_bounded(d, "bath size", 1, _MAX_BATH_SIZE)
        angles = np.zeros((3, d))
        angles[0] = math.pi / 2.0
        spec = object.__new__(cls)
        spec._hold(angles, True)
        return spec


def _check_bath(beta_omega: float, d: int) -> tuple[float, int]:
    return check_beta(beta_omega), _check_bounded(d, "bath size", 1, _MAX_BATH_SIZE)


def _check_spec(spec: BlockUnitarySpec, d: int) -> None:
    if check_instance(spec, "spec", BlockUnitarySpec).d != d:
        raise ValueError(f"spec has {spec.d} blocks but the bath needs {d}")


def _ladder_weights(beta_omega: float, d: int) -> tuple[np.ndarray, float]:
    """Boltzmann weights exp(-beta_omega n) of the ladder levels n = 0..d, and Z.

    The weights are np.exp(-beta_omega * np.arange(d + 1)) bit for bit, but
    exp is evaluated only on the levels with beta_omega n up to 746 and the
    rest are zero-filled: exp(-x) rounds to 0 above 1075 ln 2 = 745.13 (746
    leaves a margin for the rounding of x), and numpy takes a slow path for
    each entry that does (about 13 ns against 1.2 ns).  Subnormal weights, from x = 708.4 on, are not zero and stay on
    exp, at about 146 ns each.

    The error bound of this module's sums: the partition function Z, the
    simulation's trace checks and its reduced populations are numpy's
    pairwise sums of at most d + 1 <= 10 001 terms.  numpy sums
    with eight running partial sums in runs of at most 128 terms, so a term
    passes through at most 25 additions in its run and ceil(log2(10 001 /
    128)) = 7 levels above it; with the reduction's start, the one addition
    that forms a term (a block's two diagonal entries) and the two corners
    added after, that is at most 36 roundings.  Each sum therefore errs by
    below 36 eps = 8e-15 times the sum of its magnitudes, about 1: more than
    two orders of magnitude under the 2e-12 trace tolerance.
    """
    weights = np.zeros(d + 1)
    if beta_omega * d <= _EXP_UNDERFLOW:
        live = d + 1
    else:  # beta_omega * d > 746, so the quotient is finite and at most d
        live = int(_EXP_UNDERFLOW / beta_omega) + 1
    np.exp(-beta_omega * np.arange(live), out=weights[:live])
    return weights, float(weights.sum())


def _rotation_chunks(d: int) -> list[slice]:
    """Runs of max(1, _GRID_BLOCK_FLOATS // 8) blocks for the rotation and its checks.

    The rotation's three work arrays hold four complex entries a block, 8
    floats, so each is 64 KB at most: below glibc's mmap threshold, they come
    from the heap.
    """
    size = max(1, _GRID_BLOCK_FLOATS // 8)
    return [slice(lo, min(lo + size, d)) for lo in range(0, d, size)]


def _cis(angles: np.ndarray, out: np.ndarray, phases) -> None:
    """Write cos(angles) + i sin(angles) into the complex out.

    From the real cosine and sine, exp(i angles) costs about a third of a
    complex exp.  The rows of out that phases selects are phases, whose sine
    gets + 0.0, so that -0.0 gives the imaginary part +0.0, as
    np.exp(1j * -0.0) does (sin(x) + 0.0 is sin(x + 0.0), bit for bit: sin
    is +-0.0 only at +-0.0).  theta's row is left as it is.
    """
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    np.add(out.imag[phases], 0.0, out=out.imag[phases])


class _Kernel:
    """The rotation V B V^dagger of a chunk of m diagonal blocks
    B = diag(ground, excited), and its checks, in three (4, m) complex work
    arrays: blocks, products and spare.

    With a = exp(i phi) cos(theta) and b = exp(i alpha) sin(theta), V has
    columns (a, -conj b) and (b, conj a), and their conjugates are
    (conj a, -b) and (conj b, a), exactly.  blocks gets the rotated blocks
    column by column, the second first, (b01, b11, b00, b10), so the
    diagonal entries are adjacent rows.  Every operation is elementwise, so a
    block's entries depend neither on its chunk nor on whether V's entries
    were its own or broadcast.  The views that the steps read are built once
    for every chunk of m blocks, since a numpy view costs about a third of a
    ufunc call on a small array and a chunk reads over thirty; with
    per_block, so are those that build V's entries over the chunk.
    """

    def __init__(self, work: list, m: int, per_block: bool) -> None:
        # the work arrays' first 4 m entries, contiguous: a ufunc call with a
        # strided operand takes a buffered loop
        blocks, products, spare = (array[: 4 * m].reshape(4, m) for array in work)
        self.blocks = blocks
        self.rows = blocks[0], blocks[1], blocks[2], blocks[3]  # b01, b11, b00, b10
        self.new_diagonals = blocks[2:0:-1].real  # b00, b11
        self.products = (products[0], products[1]), (products[2], products[3])
        self.pairs = blocks[:2], blocks[2:], products[:2], products[2:], spare[:2]
        # the checks: products read as (8, m) floats, and spare's rows
        audit = products.view(float).reshape(8, m)
        diagonals = blocks[1:3]  # b11, b00
        scratch = spare[0], spare[1], spare[2]
        self.audit = audit, audit[:2].reshape(-1), audit[2:4], audit[4:6], audit[6], audit[7]
        self.scratch = *scratch, scratch[2].view(float), scratch[2].real
        self.parts = diagonals.imag, diagonals.real
        if per_block:
            # V's columns are products' rows, and their conjugates spare's
            self.conjugates = scratch[:2], (scratch[2], spare[3])
            self.entry_arrays = products, spare
            # cis(theta), cis(phi) and cis(alpha) fill blocks' first three
            # rows, free until the rotation writes them
            self.cis = blocks[:3]
            cis_theta, cis_phi, cis_alpha = self.rows[:3]
            self.factors = (cis_phi, cis_theta.real), (cis_alpha, cis_theta.imag)
            self.reflect = products[2::-2], products[1::2]

    def _entries(self, angles: np.ndarray) -> None:
        """Write V's columns over products and their conjugates over spare,
        from the chunk's (3, m) theta, phi and alpha, with the operations
        that _conjugate applies to one column of angles."""
        _cis(angles, self.cis, slice(1, None))  # phi and alpha are phases
        (a, minus_conj_b), (b, _) = self.products
        for out, (cis, factor) in zip((a, b), self.factors):  # by cos and sin theta
            np.multiply(cis, factor, out=out)
        reflected, second = self.reflect
        np.conjugate(reflected, out=second)  # conj b, conj a
        np.negative(minus_conj_b, out=minus_conj_b)
        products, spare = self.entry_arrays
        np.conjugate(products, out=spare)

    def _rotate(self, columns, conjugates, diagonals: np.ndarray) -> None:
        """Write V B V^dagger over blocks, from the chunk's (2, m) ground and
        excited and V's columns and conjugates: this kernel's own rows, or
        complex numbers for every block.

        Column c is (V[:, 0] ground) conj(V[c, 0]) + (V[:, 1] excited)
        conj(V[c, 1]), elementwise.
        """
        first, second, ground_products, excited_products, spare = self.pairs
        np.copyto(first, diagonals)  # as complex: the products then need no buffered cast
        for column, diagonal, products in zip(columns, self.rows, self.products):
            np.multiply(column[0], diagonal, out=products[0])
            np.multiply(column[1], diagonal, out=products[1])
        np.multiply(ground_products, conjugates[0][1], out=first)
        np.multiply(ground_products, conjugates[0][0], out=second)
        np.multiply(excited_products, conjugates[1][1], out=spare)
        np.multiply(excited_products, conjugates[1][0], out=ground_products)
        np.add(first, spare, out=first)
        np.add(second, ground_products, out=second)

    def _check(self) -> None:
        """Raise ValueError unless every block [[b00, b01], [b10, b11]] is a
        density block; overwrites products and spare.

        In order: finite entries (a non-finite entry makes the block's
        determinant non-finite, and otherwise only an overflow does), real
        diagonals, Hermitian, positive semidefinite.  Each quantity fills a
        row of the audit, products read as (8, m) floats, that must be at most
        its tolerance: 0 times the determinant (NaN unless finite), |Im b11|,
        |Im b00|, -Re b11, -Re b00, |b01 - conj b10| and -Re det.  One
        reduction takes each row's maximum, and NaN fails every comparison.
        """
        b01, b11, b00, b10 = self.rows
        audit, finite_rows, imag_rows, low_rows, skew_row, det_row = self.audit
        products, others, dets, det_floats, det_real = self.scratch
        imag_parts, real_parts = self.parts
        np.multiply(b00, b11, out=products)
        np.subtract(products, np.multiply(b01, b10, out=others), out=dets)
        np.multiply(det_floats, 0.0, out=finite_rows)
        np.abs(imag_parts, out=imag_rows)
        np.negative(real_parts, out=low_rows)
        np.abs(np.subtract(b01, np.conjugate(b10, out=products), out=others), out=skew_row)
        np.negative(det_real, out=det_row)
        finite, finite_imag, imag, imag_other, low, low_other, skew, det = (
            audit.max(axis=1).tolist()
        )
        if not (finite <= _PSD_TOL and finite_imag <= _PSD_TOL):
            raise ValueError("block entries and their determinants must be finite")
        if not (imag <= _PSD_TOL and imag_other <= _PSD_TOL):
            raise ValueError("block diagonals must be real")
        if not skew <= _HERMITIAN_TOL:
            raise ValueError("blocks must be Hermitian")
        if not (low <= _PSD_TOL and low_other <= _PSD_TOL and det <= _PSD_TOL):
            raise ValueError("blocks must be positive semidefinite")


def _check_trace(trace: float) -> None:
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"joint state trace {trace!r} is not 1")


def _product(p: PopulationVector, beta_omega: float, d: int) -> tuple:
    """Corners and block diagonals of rho_S tensor gamma_E.

    Returns (corner_low, corner_high, diagonals, zero_from), with diagonals a
    (2, d) array of ground[j] on |0, j+1> and excited[j] on |1, j>,
    j = 0..d-1; the blocks' off-diagonal entries are zero.  The weights fall
    with the level, and zero_from counts those that are not 0: from block
    zero_from on, both diagonal entries are zeros with the signs of the
    population's entries.  With PopulationVector's bounds and weights in
    [0, 1], w_0 = 1, it is a density state within the rotated state's
    tolerances, so it is not checked; a fault here fails the checks after
    the rotation, which keeps the trace and each block's spectrum.
    """
    weights, z = _ladder_weights(beta_omega, d)
    zero_from = int(np.count_nonzero(weights)) if weights[-1] == 0.0 else d + 1
    g, x = p.entries
    diagonals = np.empty((2, d))
    np.multiply(weights[1:], g, out=diagonals[0])
    np.multiply(weights[:-1], x, out=diagonals[1])
    diagonals[:, :zero_from] /= z  # a signed zero past it divides to itself
    first, last = weights[::d].tolist()
    return g * first / z, x * last / z, diagonals, zero_from


def _conjugate(spec: BlockUnitarySpec, diagonals: np.ndarray, zero_from: int) -> np.ndarray:
    """Rotate and check every block, a chunk at a time, writing its new
    diagonals over _product's (2, d) diagonals; return the last chunk's
    blocks, as _Kernel lays them out.

    When every angle row holds one bit pattern (so 0.0 and -0.0 stay apart),
    as in full_swap, one column of angles takes a single cos and sin, and the
    rotation's entries, their signs and conjugates (exact), are complex
    numbers for every chunk; every block from zero_from on then holds the
    same signed zeros, so only the first of them is rotated and checked and
    its diagonals are copied over the others'.  Otherwise the kernel builds
    the entries of each chunk from its own cos and sin.  The three work
    arrays are allocated once, and a kernel, with its views, once for each
    chunk size (two at most).
    """
    angles, per_block = spec._angles, not spec._constant
    rotated = spec.d if per_block else min(spec.d, zero_from + 1)
    chunks = _rotation_chunks(rotated)
    width = chunks[0].stop
    work = [np.empty(4 * width, dtype=complex) for _ in range(3)]
    kernel = _Kernel(work, width, per_block)
    if not per_block:
        first = np.empty(3, dtype=complex)
        _cis(angles[:, 0], first, slice(1, None))
        a, b = np.multiply(first[1:], first[:1].view(float)).tolist()  # by cos, sin theta
        conj_a, conj_b = a.conjugate(), b.conjugate()
        columns, conjugates = ((a, -conj_b), (b, conj_a)), ((conj_a, -b), (conj_b, a))
    for chunk in chunks:
        if chunk.stop - chunk.start < width:
            kernel = _Kernel(work, chunk.stop - chunk.start, per_block)
        if per_block:
            kernel._entries(angles[:, chunk])
            columns, conjugates = kernel.products, kernel.conjugates
        kernel._rotate(columns, conjugates, diagonals[:, chunk])
        kernel._check()
        diagonals[:, chunk] = kernel.new_diagonals
    if rotated < spec.d:  # the one zero-weight block rotated stands for the rest
        for row in diagonals[:, rotated - 1 :]:
            row[1:] = row[0]  # a scalar fill: a broadcast copy within one array buffers
    return kernel.blocks.reshape(2, 2, -1)


def simulate_finite_bath_map(
    p: PopulationVector, beta_omega: float, d: int, spec: BlockUnitarySpec
) -> PopulationVector:
    """Conjugate the joint product state by the block unitary, trace the bath.

    Only the product state's corners and its (2, d) block diagonals are held
    (see _product); built from inputs that passed the input rules, they are
    not checked.  One pass over chunks of 1 024 blocks rotates each chunk
    into V B V^dagger (_Kernel), checks the rotated blocks and writes their
    new diagonals over the old; the corners have no partner and stay.  The
    rotation's entries are built once per call, from one cos and one sin per
    row, when every angle row is constant, as in full_swap, and per chunk
    otherwise (see _conjugate).  The floats are those of rotating every block
    with its own cos and sin, bit for bit.  The reduced
    populations add each corner to its diagonal's sum, both sums from one
    reduction over the (2, d) array, which matches each row's own pairwise
    sum bit for bit, and the rotated state's trace must be 1 within 2e-12;
    every sum is within 36 eps of exact (see _ladder_weights).  No (d, 2, 2)
    array is made: three work arrays of at most 64 KB are allocated once per
    call.  At d = 10 000 the diagonals (156 KB of 1 024 bytes), the work
    arrays (192 KB) and the kernel's views peak at about 357 KB (tracemalloc)
    for the full swap; angles that vary add the 33 KB buffer that numpy
    allocates for each product of a pair of rows by one row, 389 KB in all.
    The call takes no page faults once the heap has grown to it.

    The 2x2 conjugations are carried out with their complex phases in place;
    that the reduced populations do not depend on the phases is a property to
    be checked against this function, not an assumption baked into it.
    """
    beta_omega, d = _check_bath(beta_omega, d)
    _check_spec(spec, d)
    corner_low, corner_high, diagonals, zero_from = _product(
        check_instance(p, "p", PopulationVector), beta_omega, d
    )
    _conjugate(spec, diagonals, zero_from)
    low, high = diagonals.sum(axis=1).tolist()
    # ground's sum is taken, so its row holds the trace's terms
    terms = np.add(diagonals[0], diagonals[1], out=diagonals[0])
    _check_trace(corner_low + corner_high + float(terms.sum()))
    return PopulationVector((corner_low + low, corner_high + high))


def _achieved_lambda_rows(rows: np.ndarray, beta_omega: float, d: int) -> np.ndarray:
    """The mixing weight sum_j sin^2(theta_j) w_(j-1) / Z of each row of (n, d) thetas.

    The partition function is numpy's pairwise sum of the d + 1 Boltzmann
    weights, within 36 eps = 8e-15 of exact (see _ladder_weights).
    """
    weights, z = _ladder_weights(beta_omega, d)
    return (np.sin(rows) ** 2 @ weights[:-1]) / z


def scan_lambda_max(beta_omega: float, d: int) -> float:
    """Best mixing weight over block-rotation angles, found by plain search.

    One sweep of coordinate ascent from all angles at pi/4: each angle in
    turn is scanned over 65 grid points in [0, pi/2] with the others held.
    The achieved weight is separable, a sum of one-angle terms, so the best
    grid value of each angle does not depend on the others, and one sweep
    reaches the grid's maximum.  Only the achieved weight is evaluated, on
    explicit angle tuples, which keeps the result independent of the
    closed-form cap.  A point replaces the best only when strictly higher, so
    ties resolve to the smallest grid index.  Each angle's rows hold 65 d floats, bounded by
    the bath size.
    """
    beta_omega, d = _check_bath(beta_omega, d)
    line = np.linspace(0.0, math.pi / 2.0, _SCAN_POINTS)
    thetas = np.full(d, math.pi / 4.0)
    best_value = float(_achieved_lambda_rows(thetas[None, :], beta_omega, d)[0])
    for j in range(d):
        rows = np.tile(thetas, (_SCAN_POINTS, 1))
        rows[:, j] = line
        values = _achieved_lambda_rows(rows, beta_omega, d)
        index = int(np.argmax(values))
        if values[index] > best_value:
            best_value = float(values[index])
            thetas[j] = line[index]
    return best_value


@dataclass(frozen=True)
class BruteForceResult:
    """Best work and efficiency found by the grid search of the swap cycle, with
    their argmaxes (lambda_h, lambda_c)."""

    w_max: float
    eta_max: float | None
    w_arg: tuple[float, float]
    eta_arg: tuple[float, float] | None


def _cycle_grid(
    lh: np.ndarray, lc: np.ndarray, params: EngineParams
) -> tuple[np.ndarray, np.ndarray]:
    """Work and heat intake of the swap cycle on a (lambda_h, lambda_c) grid.

    For each grid point the cyclic ground entry is fixed_ground of the
    stroke product (p, q) of cycle_map, the cycle is run once on it with the
    strokes written out here and its closure is asserted before anything is
    recorded.  Work and intake are NaN where fixed_ground is, where
    cyclic_state raises.
    """
    lh_col = lh[:, None]
    lc_row = lc[None, :]
    p_star = fixed_ground(*cycle_map(lh_col, lc_row, params, swap=True))
    after_heat = lh_col + p_star * (1.0 - lh_col * (1.0 + params.exp_h))
    after_work = 1.0 - after_heat
    final = lc_row + (1.0 - lc_row * (1.0 + params.exp_c)) * after_work
    # NaN compares false, so the singular cells drop out of the assertion
    if (np.abs(final - p_star) > CLOSURE_TOL).any():
        raise RuntimeError("fixed-point cycle failed to close on the grid")
    work = after_work - after_heat
    intake = p_star - after_heat
    return work, intake


def brute_force_performance(params: EngineParams, grid: int = 64) -> BruteForceResult:
    """Grid search over both mixing weights of the swap cycle.

    The qubit's only other work stroke, the identity, is not searched: its
    work after_work - after_heat has two equal terms, so it is exactly 0.0 at
    every cell and never has a positive gain.  The swap grid's corner (0, 0)
    always closes (p = q = 1, p* = 1/2) and releases exactly 0.0, and a cell
    replaces the best only when strictly higher, so no identity cell could
    replace the swap's first maxima.  Work, intake and efficiency are
    linear-fractional, hence monotone, in each mixing weight while p + q > 0,
    which is why the maxima sit at the caps; the search does not use this.

    Every cell of the grid is evaluated, in row-major chunks of whole rows of
    at most _GRID_BLOCK_FLOATS cells, and closure is asserted on each.  One
    refinement pass re-grids a one-cell neighborhood of each argmax the same
    way.  Chunks and grids come in order and a cell replaces the best only
    when strictly higher, so the result is each quantity's first maximum in
    row-major order.  The work winner is re-run through run_cycle and
    check_laws as a final spot check, so a silent bookkeeping bug in the
    vectorized path cannot survive.
    """
    params = check_instance(params, "params", EngineParams)
    grid = _check_bounded(grid, "grid", 2, MAX_GRID)
    # Work and efficiency: best value, its grid indices and (lambda_h, lambda_c).
    best = [[-math.inf, (0, 0), None], [-math.inf, (0, 0), None]]

    def evaluate(lh: np.ndarray, lc: np.ndarray) -> None:
        height = max(1, _GRID_BLOCK_FLOATS // lc.size)  # a row of MAX_GRID cells fits in a chunk
        for first in range(0, lh.size, height):
            work, intake = _cycle_grid(lh[first : first + height], lc, params)
            work = np.where(np.isnan(work), -np.inf, work)
            gain = (work > 0.0) & (intake > 0.0)
            eta = np.divide(work, intake, out=np.full(work.shape, -np.inf), where=gain)
            for entry, values in zip(best, (work, eta)):
                row, column = divmod(int(values.argmax()), lc.size)
                if values[row, column] > entry[0]:
                    at = (float(lh[first + row]), float(lc[column]))
                    entry[:] = float(values[row, column]), (first + row, column), at

    def refine_axis(axis: np.ndarray, index: int, cap: float) -> np.ndarray:
        lo = axis[max(index - 1, 0)]
        hi = axis[min(index + 1, len(axis) - 1)]
        if lo == hi:
            return np.array([lo])
        return np.linspace(lo, min(hi, cap), grid)

    lh = np.linspace(0.0, params.lambda_h_max, grid)
    lc = np.linspace(0.0, params.lambda_c_max, grid)
    evaluate(lh, lc)
    # The coarse argmaxes, work first; an efficiency never found keeps (0, 0).
    for row, column in dict.fromkeys(index for _, index, _ in best):
        evaluate(
            refine_axis(lh, row, params.lambda_h_max),
            refine_axis(lc, column, params.lambda_c_max),
        )

    (w_max, _, w_at), (eta, _, eta_at) = best
    p_probe = cyclic_state(*w_at, params)
    report = run_cycle(p_probe, *w_at, WorkPermutation.swap(), params)
    if not report.closes:
        raise RuntimeError("brute-force winner does not close under run_cycle")
    diagnostics = check_laws(report, params)
    if not diagnostics.ok:
        raise RuntimeError(f"brute-force winner violates the laws: {diagnostics.failures}")
    if abs(report.work - w_max) > 1e-9:
        raise RuntimeError(
            f"vectorized work {w_max!r} disagrees with run_cycle {report.work!r}"
        )
    if not math.isfinite(eta):
        return BruteForceResult(w_max, None, w_at, None)
    return BruteForceResult(w_max, eta, w_at, eta_at)


def _mixing_weights(
    times: np.ndarray, roots: np.ndarray, weights: np.ndarray, prefactor: float
) -> np.ndarray:
    """P sum_n w_n sin^2(t sqrt(n)) at each time, in chunks of bounded size.

    Each time's terms are summed along their own row, so its value does not
    depend on which other times share the call (a matrix-vector product
    rounds a row differently with the number of rows).
    """
    step = max(1, _JC_CHUNK_FLOATS // weights.size)
    sums = np.empty(times.size)
    for lo in range(0, times.size, step):
        terms = times[lo : lo + step, None] * roots  # the chunk's one temporary
        np.sin(terms, out=terms)
        terms *= terms
        terms *= weights
        terms.sum(axis=1, out=sums[lo : lo + step])
    return prefactor * sums


def _default_times(index: np.ndarray) -> np.ndarray:
    """np.linspace(0.0, 200.0, 100_000)[index], bit for bit, by linspace's own
    arithmetic: index * step, with the last time set to 200.0 exactly (the
    product rounds below it there)."""
    return np.where(index == _JC_DEFAULT_POINTS - 1, _JC_DEFAULT_END, index * _JC_DEFAULT_STEP)


def jc_time_scan(
    beta_omega: float,
    time_grid: np.ndarray | None = None,
    truncation: int = 200,
) -> float:
    """Largest exchange-coupling mixing weight over the sampled times.

    The weight at scaled coupling time t is f(t) = P sum_n w_n sin^2(t sqrt(n))
    over the excitation manifolds n >= 1 with thermal weights w_n and
    P = 1 - exp(-beta_omega); the truncation must be deep enough that the
    dropped tail is negligible at this temperature.  The default grid is
    np.linspace(0.0, 200.0, 100000); the scan computes each time it reads from
    its index, equal to that grid's entry bit for bit, so the grid is never
    built, validated or sorted.  A caller's grid is validated, and a grid of
    more than MAX_TIME_POINTS raises ResourceLimitError.

    The result equals the largest of jc_time_scan(beta_omega, [t]) over the
    grid's times t, bit for bit: each time's value is summed along its own
    row, so it does not depend on the other times evaluated with it.  Times
    that cannot hold the maximum are skipped.  Bound: since
    |f''| <= M = 2P sum_n w_n n, f on a window [a, b] of sorted times with f
    known at both ends stays below max(f(a), f(b)) + M (b - a)^2 / 8.

    f is evaluated at every 512th sorted time (_JC_STRIDE) and at the last
    one.  Then, level by level over all live windows at once, a window is
    dropped when its bound falls below the best value so far less a margin
    for rounding (1e-12 plus the error of sin(t sqrt(n)) at the largest time),
    when it holds no time between its ends, or when its two end times are
    equal (every time inside is then that one time, whose value is known);
    the middle time of each other window is evaluated, and the window is
    split there.  Each time is evaluated at most once, in at most log2(512)
    = 9 levels.  The grid is sorted only when it is not sorted already.
    """
    beta_omega = check_beta(beta_omega)
    if beta_omega == 0.0:
        raise ValueError(f"beta_omega must be finite and > 0, got {beta_omega!r}")
    truncation = _check_bounded(truncation, "truncation", 1, MAX_TRUNCATION)
    if math.exp(-beta_omega * truncation) >= _JC_TAIL_TOL:
        needed = math.ceil(-math.log(_JC_TAIL_TOL) / beta_omega)
        raise ResourceLimitError(
            f"truncation {truncation} too shallow at beta_omega={beta_omega!r}; "
            f"need at least {needed}"
        )
    if time_grid is None:
        size, time_at = _JC_DEFAULT_POINTS, _default_times
    else:
        try:
            times = np.asarray(time_grid)
        except ValueError:  # ragged, as [1.0, [0.5]]: name the entry that is no number
            as_numbers(time_grid, "time grid entry")
            raise
        if times.ndim != 1 or times.size == 0:
            raise ValueError("time grid must be a nonempty 1-d array")
        _check_bounded(times.size, "time grid size", 1, MAX_TIME_POINTS)
        times = check_betas(time_grid, "time grid entry")
        if np.any(times[1:] < times[:-1]):
            times = np.sort(times)
        size, time_at = times.size, times.__getitem__
    n = np.arange(1, truncation + 1)
    weights = np.exp(-beta_omega * (n - 1))
    keep = weights > 1e-18
    n = n[keep]
    roots = np.sqrt(n)
    weights = weights[keep]
    prefactor = -math.expm1(-beta_omega)

    edges = np.append(np.arange(0, size - 1, _JC_STRIDE), size - 1)
    t_edges = time_at(edges)
    values = _mixing_weights(t_edges, roots, weights, prefactor)
    best = float(values.max())
    curvature = 2.0 * prefactor * float(weights @ n)
    # A computed value is within about eps * (manifolds kept + t P sum_n w_n sqrt(n))
    # of f, from the sum's rounding and that of the sine's argument t sqrt(n);
    # the margin allows that error at a window's ends and again inside it.
    slack = weights.size + t_edges[-1] * prefactor * float(weights @ roots)
    margin = _JC_PRUNE_MARGIN + 2.0 * np.finfo(float).eps * slack
    # Live windows: first and last index, and the time and f there.
    lo, hi, t_lo, t_hi = edges[:-1], edges[1:], t_edges[:-1], t_edges[1:]
    f_lo, f_hi = values[:-1], values[1:]
    while True:
        bound = np.maximum(f_lo, f_hi) + curvature * (t_hi - t_lo) ** 2 / 8.0
        live = (bound >= best - margin) & (hi - lo > 1) & (t_hi > t_lo)
        if not live.any():
            return best
        lo, hi, t_lo, t_hi = lo[live], hi[live], t_lo[live], t_hi[live]
        f_lo, f_hi = f_lo[live], f_hi[live]
        mid = (lo + hi) // 2
        t_mid = time_at(mid)
        f_mid = _mixing_weights(t_mid, roots, weights, prefactor)
        best = max(best, float(f_mid.max()))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        t_lo, t_hi = np.concatenate((t_lo, t_mid)), np.concatenate((t_mid, t_hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
