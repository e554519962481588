"""Simulation and search oracles that cross-check the closed forms.

The ladder-bath stroke is simulated explicitly: the joint Hilbert space of
the qubit and a (d+1)-level ladder splits into two invariant corners plus d
two-dimensional blocks, so conjugating by an energy-preserving unitary and
tracing out the bath costs O(d) regardless of the angles.  The block angles
are held as read-only float arrays, and one kernel (_rotate) writes the d
2x2 conjugations out as elementwise products over chunks of blocks, one
output entry at a time; one validator (_check_blocks) checks a chunk of
blocks.  JointState.conjugated and simulate_finite_bath_map both use them.
The simulation makes one pass over chunks and no (d, 2, 2) block array: it
holds the product state's and the rotated state's diagonals only, every
temporary is at most 64 KB, so it comes from the heap rather than from a
fresh, page-faulted map, and a call takes no page faults once the heap has
grown to it.  The partition function, the state's trace check and the
reduced populations are pairwise numpy sums (their error bound is derived in
JointState.trace).  Beside the simulation
sit a one-sweep coordinate search over the block angles and a brute-force
grid over the mixing weights of the swap cycle (the identity, the
qubit's other work permutation, releases exactly zero work); neither
evaluates the closed-form optima it is meant to check.  The grid returns the
maxima of every cell but evaluates only a corner lattice and the blocks
whose corner bounds can reach them: work, intake and efficiency are
linear-fractional in each mixing weight (the lemma, the margins and the
floors are in brute_force_performance), and closure is asserted on every
evaluated cell.  The exchange-coupling time scan returns the largest weight
over its time grid, each time's value summed along its own row so that it
does not depend on the other times evaluated with it; it halves, level by
level, only the windows of sorted times whose curvature bound can still reach
the best value (the bound and the margin are in jc_time_scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    CLOSURE_TOL, SINGULAR_TOL, EngineParams, check_laws, cycle_map, cyclic_state, run_cycle
)
from .ergotropy import WorkPermutation
from .populations import PopulationVector, check_beta, check_betas, check_size

__all__ = [
    "MAX_GRID",
    "MAX_TIME_POINTS",
    "MAX_TRUNCATION",
    "BlockUnitarySpec",
    "BruteForceResult",
    "JointState",
    "ResourceLimitError",
    "achieved_lambda",
    "brute_force_performance",
    "jc_time_scan",
    "scan_lambda_max",
    "simulate_finite_bath_map",
]

# Sizes are bounded before anything is allocated: the bath by its O(d) block
# arrays, the brute-force grid by its grid**2 floats per array, the angle scan
# by the same MAX_GRID**2 floats in its rows of angles, the
# exchange-coupling truncation by its per-manifold arrays, and its time grid by
# the sorted copy the scan makes of an unsorted grid.
_MAX_BATH_SIZE = 10_000
MAX_GRID = 2_000
_MAX_SCAN_FLOATS = MAX_GRID**2
MAX_TRUNCATION = 100_000
MAX_TIME_POINTS = 10_000_000
_JC_TAIL_TOL = 1e-12
_JC_CHUNK_FLOATS = 2_000_000  # sines evaluated at once by the coupling-time scan
_JC_STRIDE = 512  # the scan evaluates every this many sorted times before halving
_JC_PRUNE_MARGIN = 1e-12
# Floats per temporary of the brute-force grid and of the product state's
# checks, evaluated in chunks of at most this size (the block conjugation
# takes an eighth of it, see _rotation_chunks): 64 KB stays below glibc's
# default mmap threshold (128 KB), so the temporaries come from the heap
# instead of fresh, page-faulted maps.
_GRID_BLOCK_FLOATS = 8_192
# Tolerances of a joint state: its trace may drift (qubit inputs carry
# normalization slack), its blocks' imaginary diagonals and negative
# eigenvalues may be rounding, and so may their departure from Hermitian.
_TRACE_TOL = 2e-12
_PSD_TOL = 1e-12
_HERMITIAN_TOL = 1e-10
# Pruned brute-force grid (see brute_force_performance): lattice stride,
# corner floors of the slack and the intake, rounding margins.
_PRUNE_STRIDE = 16
_PRUNE_SLACK = 2.0**-6
_PRUNE_INTAKE = 2.0**-10
_WORK_MARGIN = 2.0**-39
_ETA_MARGIN = 2.0**-20


class ResourceLimitError(RuntimeError):
    """Requested simulation size exceeds the supported budget."""


def _check_bounded(value: int, name: str, minimum: int, limit: int) -> int:
    value = check_size(value, name, minimum)
    if value > limit:
        raise ResourceLimitError(f"{name} {value} exceeds the supported {limit}")
    return value


@dataclass(frozen=True)
class BlockUnitarySpec:
    """Angles of an energy-preserving joint unitary, one rotation per block.

    Block j (j = 1..d) is spanned by |0, j> and |1, j-1> and is rotated by

        [[ exp(i phi) cos(theta),  exp(i alpha) sin(theta)],
         [-exp(-i alpha) sin(theta), exp(-i phi) cos(theta)]];

    the corners |0, 0> and |1, d> have no exchange partner and stay put.

    The angles are held as read-only 1-d float64 arrays, the rows of one
    (3, d) copy of the inputs, so the simulation reads them without any
    per-angle Python and takes the two phases' cosines and sines at once.  An
    empty, non-1-d or non-finite input, or unequal counts, raise ValueError.
    Two specs are equal when their angles are, and hash alike then, as when
    the angles were tuples of floats.
    """

    thetas: np.ndarray
    phis: np.ndarray
    alphas: np.ndarray
    _angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = ("thetas", "phis", "alphas")
        angles = [np.asarray(getattr(self, name), dtype=float) for name in names]
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
            raise ValueError("non-finite angle in block unitary")
        stacked.setflags(write=False)
        object.__setattr__(self, "_angles", stacked)
        for name, values in zip(names, stacked):
            object.__setattr__(self, name, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockUnitarySpec):
            return NotImplemented
        return np.array_equal(self._angles, other._angles)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._angles.tolist())))

    @property
    def d(self) -> int:
        return self.thetas.size

    @classmethod
    def full_swap(cls, d: int) -> BlockUnitarySpec:
        """All blocks rotated by pi/2; achieves the ladder-bath cap."""
        return cls(np.full(d, math.pi / 2.0), np.zeros(d), np.zeros(d))


def _check_bath(beta_omega: float, d: int) -> tuple[float, int]:
    return check_beta(beta_omega), _check_bounded(d, "bath size", 1, _MAX_BATH_SIZE)


def _ladder_weights(beta_omega: float, d: int) -> tuple[np.ndarray, float]:
    """Boltzmann weights exp(-beta_omega n) of the ladder levels n = 0..d, and Z.

    The partition function Z is numpy's pairwise sum of the d + 1 positive
    weights; by the bound derived in JointState.trace, its relative error is
    below 36 eps = 8e-15.
    """
    weights = np.exp(-beta_omega * np.arange(d + 1))
    return weights, float(weights.sum())


def _chunks(d: int, size: int) -> list[slice]:
    """The runs of at most size (>= 1) blocks that a chunked pass takes at once."""
    size = max(1, size)
    return [slice(lo, min(lo + size, d)) for lo in range(0, d, size)]


def _rotation_chunks(d: int) -> list[slice]:
    """Chunks of _GRID_BLOCK_FLOATS / 8 blocks for the conjugation and the block checks.

    A rotation holds about a dozen complex temporaries per block at once, each
    of 2 floats a block, so a chunk's temporaries are 16 KB each and about
    200 KB in all: below glibc's mmap threshold, they come from the heap.
    """
    return _chunks(d, _GRID_BLOCK_FLOATS // 8)


def _phase(angles: np.ndarray) -> np.ndarray:
    """exp(i angles) from the real cosine and sine, about a third of the cost
    of a complex exp.

    The sine is taken of angles + 0.0, so that -0.0 gives the imaginary part
    +0.0, as np.exp(1j * -0.0) does.
    """
    phase = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phase.real)
    np.sin(np.add(angles, 0.0, out=phase.imag), out=phase.imag)
    return phase


def _rotate(spec: BlockUnitarySpec, chunk: slice, blocks: tuple, out: tuple) -> None:
    """Write V B V^dagger for a chunk of blocks, each given and written entrywise.

    blocks and out are (b00, b01, b10, b11): arrays over the chunk's blocks,
    or, in blocks, scalars for entries that every block shares.  Block j's
    rotation V has rows (a, b) and (-conj(b), conj(a)), with
    a = exp(i phi) cos(theta) and b = exp(i alpha) sin(theta), and the rows
    of conj(V) are (conj(a), conj(b)) and (-b, a), exactly.  V B V^dagger is
    formed by elementwise products one output row at a time: the row (x, y)
    times B, m = (x B00 + y B10, x B01 + y B11), then m against each row
    (u, v) of conj(V), m0 u + m1 v.  Every operation is elementwise, so a
    block's entries do not depend on the chunk it falls in.
    """
    b00, b01, b10, b11 = blocks
    thetas = spec.thetas[chunk]
    a, b = _phase(spec._angles[1:, chunk])
    a *= np.cos(thetas)
    b *= np.sin(thetas)
    conj_a, conj_b = np.conj(a), np.conj(b)
    m0, m1, term = np.empty((3, a.size), dtype=complex)

    def times_blocks(x: np.ndarray, y: np.ndarray) -> None:
        np.add(np.multiply(x, b00, out=m0), np.multiply(y, b10, out=term), out=m0)
        np.add(np.multiply(x, b01, out=m1), np.multiply(y, b11, out=term), out=m1)

    def against(u: np.ndarray, v: np.ndarray, entry: np.ndarray) -> None:
        np.add(np.multiply(m0, u, out=entry), np.multiply(m1, v, out=term), out=entry)

    times_blocks(a, b)
    minus_b = np.negative(b, out=b)  # b itself is not used again
    against(conj_a, conj_b, out[0])
    against(minus_b, a, out[1])
    times_blocks(-conj_b, conj_a)
    against(conj_a, conj_b, out[2])
    against(minus_b, a, out[3])


def _check_blocks(b00, b01, b10, b11) -> None:
    """Raise ValueError unless every block [[b00, b01], [b10, b11]] is a density block.

    The entries are arrays over a chunk of blocks, or scalars.  In order:
    finite entries (a non-finite entry makes the block's determinant
    non-finite, and otherwise only an overflow does), real diagonals,
    Hermitian, positive semidefinite.  Each test is one reduction per
    quantity, compared so that NaN fails it.
    """
    dets = b00 * b11 - b01 * b10
    if not np.isfinite(dets).all():
        raise ValueError("block entries and their determinants must be finite")
    if not (np.abs(b00.imag).max() <= _PSD_TOL and np.abs(b11.imag).max() <= _PSD_TOL):
        raise ValueError("block diagonals must be real")
    if not np.abs(b01 - np.conj(b10)).max() <= _HERMITIAN_TOL:
        raise ValueError("blocks must be Hermitian")
    if not (
        b00.real.min() >= -_PSD_TOL
        and b11.real.min() >= -_PSD_TOL
        and dets.real.min() >= -_PSD_TOL
    ):
        raise ValueError("blocks must be positive semidefinite")


def _check_corners(corner_low: float, corner_high: float) -> None:
    if not (math.isfinite(corner_low) and math.isfinite(corner_high)):
        raise ValueError("corner populations must be finite")
    if corner_low < -_PSD_TOL or corner_high < -_PSD_TOL:
        raise ValueError("negative corner population")


def _check_trace(trace: float) -> None:
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"joint state trace {trace!r} is not 1")


def _product(p: PopulationVector, beta_omega: float, d: int) -> tuple:
    """Corners and block diagonals of rho_S tensor gamma_E.

    Returns (corner_low, corner_high, ground, excited) with ground[j] on
    |0, j+1> and excited[j] on |1, j>, j = 0..d-1; the blocks' off-diagonal
    entries are zero.
    """
    weights, z = _ladder_weights(beta_omega, d)
    g, x = p.entries
    ground = g * weights[1:]
    ground /= z
    excited = x * weights[:-1]
    excited /= z
    return float(g * weights[0] / z), float(x * weights[-1] / z), ground, excited


@dataclass(frozen=True)
class JointState:
    """Qubit-ladder state held in the conserved-energy block basis.

    The joint space splits into the unpaired corners |0, 0> and |1, d> plus d
    two-dimensional blocks; blocks[j] is the 2x2 density block on the pair
    (|0, j+1>, |1, j>) for j = 0..d-1.  Nothing here is ever materialized as a
    dense 2(d+1) matrix, which keeps even d in the thousands cheap.  A state
    holds finite, real, non-negative corners and finite, Hermitian, positive
    semidefinite blocks (checked a chunk of blocks at a time, so the first
    chunk with a defect names it), and its trace is 1 within 2e-12.
    """

    corner_low: float
    corner_high: float
    blocks: np.ndarray

    def __post_init__(self) -> None:
        # C order whatever the caller's layout: _entries views blocks entrywise
        blocks = np.array(self.blocks, dtype=complex, order="C")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        self._check()

    @classmethod
    def _adopt(cls, corner_low: float, corner_high: float, blocks: np.ndarray) -> JointState:
        """A state on a complex array that product or conjugated has just built.

        No one else holds the array, so it is made read-only and kept without
        the copy __post_init__ takes of a caller's blocks; every check still
        runs.
        """
        blocks.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "corner_low", corner_low)
        object.__setattr__(state, "corner_high", corner_high)
        object.__setattr__(state, "blocks", blocks)
        state._check()
        return state

    def _check(self) -> None:
        blocks = self.blocks
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 2) or blocks.shape[0] < 1:
            raise ValueError(f"blocks must have shape (d, 2, 2), got {blocks.shape}")
        object.__setattr__(self, "corner_low", float(self.corner_low))
        object.__setattr__(self, "corner_high", float(self.corner_high))
        _check_corners(self.corner_low, self.corner_high)
        for chunk in _rotation_chunks(self.d):
            _check_blocks(*_entries(blocks[chunk]))
        _check_trace(self.trace)

    @property
    def d(self) -> int:
        return self.blocks.shape[0]

    @property
    def trace(self) -> float:
        """Corners plus the block diagonals, the blocks' part by numpy's sum.

        Each block contributes b00 + b11, one addition, the same bits as a
        two-term trace of the block.  numpy sums the d terms pairwise, with
        eight running partial sums in runs of at most 128 terms.  A term
        passes through at most 25 additions in its run, ceil(log2(d / 128))
        <= 7 levels above it, its own b00 + b11, the reduction's start and the
        two corners: 36 roundings for d <= 10 000.  The error is therefore
        below 36 eps = 8e-15 times the sum of the magnitudes, about 1, which
        is more than two orders of magnitude under the 2e-12 trace tolerance.
        """
        diagonals = self.blocks[:, 0, 0].real + self.blocks[:, 1, 1].real
        return self.corner_low + self.corner_high + float(diagonals.sum())

    @classmethod
    def product(cls, p: PopulationVector, beta_omega: float, d: int) -> JointState:
        """rho_S tensor gamma_E for a diagonal qubit and a (d+1)-level ladder."""
        beta_omega, d = _check_bath(beta_omega, d)
        corner_low, corner_high, ground, excited = _product(p, beta_omega, d)
        blocks = np.zeros((d, 2, 2), dtype=complex)
        blocks[:, 0, 0] = ground
        blocks[:, 1, 1] = excited
        return cls._adopt(corner_low, corner_high, blocks)

    def conjugated(self, spec: BlockUnitarySpec) -> JointState:
        """Conjugate by the block unitary; the corners have no partner and stay.

        The blocks are rotated a chunk at a time (see _rotate) straight into
        the output, which is allocated once; the chunks' temporaries stay
        below glibc's mmap threshold, so they come from the heap instead of
        fresh, page-faulted maps.
        """
        if spec.d != self.d:
            raise ValueError(f"spec has {spec.d} blocks but the state has {self.d}")
        rotated = np.empty(self.blocks.shape, dtype=complex)
        for chunk in _rotation_chunks(self.d):
            _rotate(spec, chunk, _entries(self.blocks[chunk]), _entries(rotated[chunk]))
        return JointState._adopt(self.corner_low, self.corner_high, rotated)

    def reduced_qubit(self) -> PopulationVector:
        """Trace out the ladder; block row 0 feeds ground, row 1 excited.

        Each population adds its corner to numpy's pairwise sum of one block
        diagonal.  By the bound derived in trace, each errs by below 36 eps =
        8e-15 times the sum of the magnitudes, which is at most about 1.
        """
        ground = self.corner_low + float(self.blocks[:, 0, 0].real.sum())
        excited = self.corner_high + float(self.blocks[:, 1, 1].real.sum())
        return PopulationVector((ground, excited))


def _entries(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the entries b00, b01, b10, b11 of a C-contiguous run of 2x2 blocks.

    Any other layout is refused: its reshape would be a copy, and what
    conjugated writes through the entries would be lost.
    """
    if not blocks.flags.c_contiguous:
        raise ValueError("the entries of blocks are views only of a C-contiguous array")
    return tuple(blocks.reshape(-1, 4).T)


def simulate_finite_bath_map(
    p: PopulationVector, beta_omega: float, d: int, spec: BlockUnitarySpec
) -> PopulationVector:
    """Conjugate the joint product state by the block unitary, trace the bath.

    The floats and the checks of
    JointState.product(p, beta_omega, d).conjugated(spec).reduced_qubit(),
    in one pass over chunks of blocks that makes no (d, 2, 2) array.  The
    product's blocks are diagonal, so only its two diagonals are held, as
    (d,) arrays, and its checks run on them.  Each chunk is rotated by the
    kernel conjugated uses, checked by the same validator, and its new
    diagonals written over the product's; the populations and the trace are
    numpy's pairwise sums of them, as in reduced_qubit and trace.  Every
    temporary is at most 64 KB (the rotation's are 16 KB), about 370 KB are
    live at d = 10 000, and the call takes no page faults once the heap has
    grown to it.

    The 2x2 conjugations are carried out with their complex phases in place;
    that the reduced populations do not depend on the phases is a property to
    be checked against this function, not an assumption baked into it.
    """
    beta_omega, d = _check_bath(beta_omega, d)
    if spec.d != d:
        raise ValueError(f"spec has {spec.d} blocks but the bath needs {d}")
    corner_low, corner_high, ground, excited = _product(p, beta_omega, d)
    _check_corners(corner_low, corner_high)
    for chunk in _chunks(d, _GRID_BLOCK_FLOATS):
        _check_blocks(ground[chunk], 0.0, 0.0, excited[chunk])
    _check_trace(corner_low + corner_high + float((ground + excited).sum()))
    for chunk in _rotation_chunks(d):
        rotated = tuple(np.empty((4, chunk.stop - chunk.start), dtype=complex))
        _rotate(spec, chunk, (ground[chunk], 0j, 0j, excited[chunk]), rotated)
        _check_blocks(*rotated)
        ground[chunk] = rotated[0].real
        excited[chunk] = rotated[3].real
    populations = (corner_low + float(ground.sum()), corner_high + float(excited.sum()))
    # ground's sum is taken, so its array holds the trace's terms
    _check_trace(corner_low + corner_high + float(np.add(ground, excited, out=ground).sum()))
    return PopulationVector(populations)


def achieved_lambda(spec: BlockUnitarySpec, beta_omega: float, d: int) -> float:
    """Mixing weight realized by the block unitary at the given bath size."""
    beta_omega, d = _check_bath(beta_omega, d)
    if spec.d != d:
        raise ValueError(f"spec has {spec.d} blocks but the bath needs {d}")
    return float(_achieved_lambda_rows(spec.thetas[None, :], beta_omega, d)[0])


def _achieved_lambda_rows(rows: np.ndarray, beta_omega: float, d: int) -> np.ndarray:
    """achieved_lambda for every row of a (n, d) matrix of thetas.

    The partition function is numpy's pairwise sum of the d + 1 positive
    Boltzmann weights; by the bound derived in JointState.trace, its relative
    error is below 36 eps = 8e-15.
    """
    weights, z = _ladder_weights(beta_omega, d)
    return (np.sin(rows) ** 2 @ weights[:-1]) / z


def scan_lambda_max(beta_omega: float, d: int, grid: int = 65) -> float:
    """Best mixing weight over block-rotation angles, found by plain search.

    One sweep of coordinate ascent from all angles at pi/4: each angle in
    turn is scanned over grid points in [0, pi/2] with the others held.
    achieved_lambda is separable, a sum of one-angle terms, so the best grid
    value of each angle does not depend on the others, and one sweep reaches
    the grid's maximum.  Only achieved_lambda is evaluated, on explicit
    angle tuples, which keeps the result independent of the closed-form cap.
    A point replaces the best only when strictly higher, so ties resolve to
    the smallest grid index.  A grid below 3 raises ValueError, and rows of
    more than MAX_GRID**2 floats (grid * d) raise ResourceLimitError before
    anything is allocated.
    """
    beta_omega, d = _check_bath(beta_omega, d)
    points = check_size(grid, "grid", 3)
    _check_bounded(points * d, "angle rows (grid * d floats)", 1, _MAX_SCAN_FLOATS)
    line = np.linspace(0.0, math.pi / 2.0, points)
    thetas = np.full(d, math.pi / 4.0)
    best_value = float(_achieved_lambda_rows(thetas[None, :], beta_omega, d)[0])
    for j in range(d):
        rows = np.tile(thetas, (points, 1))
        rows[:, j] = line
        values = _achieved_lambda_rows(rows, beta_omega, d)
        index = int(np.argmax(values))
        if values[index] > best_value:
            best_value = float(values[index])
            thetas[j] = line[index]
    return best_value


@dataclass(frozen=True)
class BruteForceResult:
    """Best work and efficiency found by the grid search, with their argmaxes."""

    w_max: float
    eta_max: float | None
    w_arg: tuple[float, float, str]
    eta_arg: tuple[float, float, str] | None


def _cycle_grid(
    lh: np.ndarray, lc: np.ndarray, params: EngineParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work, heat intake and slack p + q of the swap cycle on a (lambda_h, lambda_c) grid.

    For each grid point the cyclic ground entry q / (p + q) is solved from
    the stroke product (p, q) of cycle_map, the cycle is run once on it with
    the strokes written out here and its closure is asserted before anything
    is recorded.  Work and intake are NaN where p + q < SINGULAR_TOL, where
    cyclic_state raises.
    """
    lh_col = lh[:, None]
    lc_row = lc[None, :]
    p, q = cycle_map(lh_col, lc_row, params, swap=True)
    slack = p + q
    p_star = np.divide(q, slack, out=np.full(slack.shape, np.nan), where=slack >= SINGULAR_TOL)
    after_heat = lh_col + p_star * (1.0 - lh_col * (1.0 + params.exp_h))
    after_work = 1.0 - after_heat
    final = lc_row + (1.0 - lc_row * (1.0 + params.exp_c)) * after_work
    # NaN compares false, so the singular cells drop out of the assertion
    if (np.abs(final - p_star) > CLOSURE_TOL).any():
        raise RuntimeError("fixed-point cycle failed to close on the grid")
    work = after_work - after_heat
    intake = p_star - after_heat
    return work, intake, slack


def _lattice(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Block corners along one grid axis (at most 65; 0 twice on a one-point
    axis) and the end of each block's cells; the last block ends past size - 1."""
    stride = max(_PRUNE_STRIDE, -(-size // 64))
    corners = np.append(np.arange(0, max(size - 1, 1), stride), size - 1)
    return corners, np.append(corners[1:-1], size)


def _corner_extreme(values: np.ndarray, reduce) -> np.ndarray:
    """reduce (np.maximum or np.minimum) over each block's four corners; NaN stays NaN."""
    return reduce(reduce(values[:-1, :-1], values[1:, :-1]), reduce(values[:-1, 1:], values[1:, 1:]))


def brute_force_performance(params: EngineParams, grid: int = 200) -> BruteForceResult:
    """Grid search over both mixing weights of the swap cycle.

    The qubit's only other work stroke, the identity, is not searched: its
    work after_work - after_heat has two equal terms, so it is exactly 0.0 at
    every cell and never has a positive gain.  The swap grid's corner (0, 0)
    always closes (p = q = 1, p* = 1/2) and releases exactly 0.0, and a cell
    replaces the best only when strictly higher, so no identity cell could
    replace the swap's first maxima.

    One refinement pass re-grids a one-cell neighborhood of each argmax.  The
    work winner is re-run through run_cycle and check_laws as a final spot
    check, so a silent bookkeeping bug in the vectorized path cannot survive.

    Each grid yields the first maxima, in row-major order, of all its cells
    but evaluates only the cells that could hold them.  Lemma: with
    cycle_map's stroke product (p, q), the slack D = p + q, b = q,
    s_h = lh (1 + e_h) - 1 and N_h = lh - s_h (1 - lc e_c), the work is
    (D - 2 N_h) / D, the intake (b - N_h) / D and the efficiency
    (D - 2 N_h) / (b - N_h).  Each numerator and denominator is bilinear in
    (lh, lc), so each quantity is linear-fractional, hence monotone, along
    either axis while its denominator keeps its sign, and a bilinear
    denominator positive at a block's four corners is positive on the block:
    there the extremes lie at the corners.

    The corner lattice, every 16th row and column (more above 1 024) and the
    last, is evaluated first.  A block is skipped when its corner slacks D are
    at least 2^-6 and neither its largest corner work nor, where its corner
    intakes are also at least 2^-10, its largest corner ratio work / intake
    reaches the best value so far less a margin; a largest corner work below
    minus the work margin rules out any efficiency.  A NaN bound never skips.
    Margins, with u = 2^-53 and all weights and Boltzmann factors in [0, 1]:
    p and q are sums of two products of factors in [0, 1], each factor
    within 3u, so they come out within 9u and D within 20u.  At D >= 2^-6
    the fixed point q / D is then within 29u 2^6 + u < 2^-42, the work and
    intake within E = 2^-40, and a cell's work exceeds its block's
    corners by at most 2E, the work margin.  The floors keep every intake in
    the block above 2^-17 (b - N_h is bilinear and D <= 2), and an efficiency
    is at most 1 (Carnot), so a cell's efficiency exceeds the corner ratios
    by at most 5e-7 < 2^-20, the efficiency margin.  Kept blocks are
    evaluated per block row from its first to its last kept block, block rows
    over the same columns together, in chunks of whole rows of at most
    _GRID_BLOCK_FLOATS cells; closure is asserted on every evaluated cell,
    the lattice included.
    """
    grid = _check_bounded(grid, "grid", 2, MAX_GRID)
    # Work and efficiency: best value, its grid indices and (lambda_h, lambda_c).
    best = [[-math.inf, (0, 0), None], [-math.inf, (0, 0), None]]

    def evaluate(lh: np.ndarray, lc: np.ndarray) -> None:
        # This grid's first maxima: value and indices; the start sorts after every cell.
        found = [[-math.inf, (lh.size, 0)], [-math.inf, (lh.size, 0)]]

        def scan(rows: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, ...]:
            # The indices increase, so a piece's first maximum is the grid's
            # row-major first among the piece's cells that hold its value.
            work, intake, slack = _cycle_grid(lh[rows], lc[columns], params)
            scored = np.where(np.isnan(work), -np.inf, work)
            gain = (scored > 0.0) & (intake > 0.0)
            eta = np.divide(scored, intake, out=np.full(work.shape, -np.inf), where=gain)
            for entry, values in zip(found, (scored, eta)):
                row, column = divmod(int(values.argmax()), columns.size)
                at = (int(rows[row]), int(columns[column]))
                value = values[row, column]
                if value > entry[0] or (value == entry[0] and at < entry[1]):
                    entry[:] = float(value), at
            return work, intake, slack

        rows, row_ends = _lattice(lh.size)
        columns, column_ends = _lattice(lc.size)
        work, intake, slack = scan(rows, columns)
        with np.errstate(divide="ignore", invalid="ignore"):
            top_ratio = _corner_extreme(work / intake, np.maximum)
        top_work = _corner_extreme(work, np.maximum)
        settled = _corner_extreme(slack, np.minimum) >= _PRUNE_SLACK
        heated = settled & (_corner_extreme(intake, np.minimum) >= _PRUNE_INTAKE)
        best_w, best_eta = (max(entry[0], value) for entry, (value, _) in zip(best, found))
        skip = settled & (top_work < best_w - _WORK_MARGIN) & (
            (top_work < -_WORK_MARGIN) | (heated & (top_ratio < best_eta - _ETA_MARGIN))
        )
        # A block row is evaluated from its first to its last kept block, and
        # consecutive block rows over the same columns as one band.
        bands = []  # [first row, end row, first column, end column]
        for i, kept in enumerate((~skip).tolist()):
            if True not in kept:
                continue
            first, last = kept.index(True), len(kept) - 1 - kept[::-1].index(True)
            band = [int(rows[i]), int(row_ends[i]), int(columns[first]), int(column_ends[last])]
            if bands and bands[-1][1] == band[0] and bands[-1][2:] == band[2:]:
                bands[-1][1] = band[1]
            else:
                bands.append(band)
        for first, end, lo, hi in bands:  # a row of MAX_GRID cells fits in a chunk
            height = max(1, _GRID_BLOCK_FLOATS // (hi - lo))
            for row in range(first, end, height):
                scan(np.arange(row, min(row + height, end)), np.arange(lo, hi))
        for entry, (value, at) in zip(best, found):
            if value > entry[0]:
                entry[:] = value, at, (float(lh[at[0]]), float(lc[at[1]]))

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
    swap = WorkPermutation.swap()
    p_probe = cyclic_state(*w_at, params, swap)
    report = run_cycle(p_probe, *w_at, swap, params)
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
        return BruteForceResult(w_max, None, (*w_at, "swap"), None)
    return BruteForceResult(w_max, eta, (*w_at, "swap"), (*eta_at, "swap"))


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


def jc_time_scan(
    beta_omega: float,
    time_grid: np.ndarray | None = None,
    truncation: int = 200,
) -> float:
    """Largest exchange-coupling mixing weight over the sampled times.

    The weight at scaled coupling time t is f(t) = P sum_n w_n sin^2(t sqrt(n))
    over the excitation manifolds n >= 1 with thermal weights w_n and
    P = 1 - exp(-beta_omega); the truncation must be deep enough that the
    dropped tail is negligible at this temperature.  The default grid covers
    t in [0, 200] with 100000 points; a grid of more than MAX_TIME_POINTS
    raises ResourceLimitError.

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
        time_grid = np.linspace(0.0, 200.0, 100_000)
    times = np.asarray(time_grid)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    _check_bounded(times.size, "time grid size", 1, MAX_TIME_POINTS)
    times = check_betas(times, "time grid entry")
    if np.any(times[1:] < times[:-1]):
        times = np.sort(times)
    n = np.arange(1, truncation + 1)
    weights = np.exp(-beta_omega * (n - 1))
    keep = weights > 1e-18
    n = n[keep]
    roots = np.sqrt(n)
    weights = weights[keep]
    prefactor = -math.expm1(-beta_omega)

    edges = np.append(np.arange(0, times.size - 1, _JC_STRIDE), times.size - 1)
    values = _mixing_weights(times[edges], roots, weights, prefactor)
    best = float(values.max())
    curvature = 2.0 * prefactor * float(weights @ n)
    # A computed value is within about eps * (manifolds kept + t P sum_n w_n sqrt(n))
    # of f, from the sum's rounding and that of the sine's argument t sqrt(n);
    # the margin allows that error at a window's ends and again inside it.
    slack = weights.size + times[-1] * prefactor * float(weights @ roots)
    margin = _JC_PRUNE_MARGIN + 2.0 * np.finfo(float).eps * slack
    # Live windows: first and last index, and f there.
    lo, hi, f_lo, f_hi = edges[:-1], edges[1:], values[:-1], values[1:]
    while True:
        bound = np.maximum(f_lo, f_hi) + curvature * (times[hi] - times[lo]) ** 2 / 8.0
        live = (bound >= best - margin) & (hi - lo > 1) & (times[hi] > times[lo])
        if not live.any():
            return best
        lo, hi, f_lo, f_hi = lo[live], hi[live], f_lo[live], f_hi[live]
        mid = (lo + hi) // 2
        f_mid = _mixing_weights(times[mid], roots, weights, prefactor)
        best = max(best, float(f_mid.max()))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
