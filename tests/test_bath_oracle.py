"""Simulation and search oracles: block unitaries, grids and time scans."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from threestroke import (
    BlockUnitarySpec,
    EngineParams,
    ResourceLimitError,
    RestrictionModel,
    achieved_lambda,
    apply_mixture,
    brute_force_performance,
    engine_params_from,
    jc_time_scan,
    lambda_max_finite_bath,
    optimal_performance,
    qubit_population,
    scan_lambda_max,
    simulate_finite_bath_map,
)
from threestroke import bath_oracle
from threestroke.bath_oracle import MAX_GRID, MAX_TIME_POINTS, MAX_TRUNCATION

REF = EngineParams(0.2, 0.6, 1.0, 1.0)


def random_spec(rng, d):
    return BlockUnitarySpec(
        tuple(rng.uniform(0.0, math.pi / 2.0, d)),
        tuple(rng.uniform(-math.pi, math.pi, d)),
        tuple(rng.uniform(-math.pi, math.pi, d)),
    )


def test_spec_validation():
    spec = BlockUnitarySpec.full_swap(3)
    assert spec.d == 3 and spec.thetas.tolist() == [math.pi / 2.0] * 3
    with pytest.raises(ValueError):
        BlockUnitarySpec((), (), ())
    with pytest.raises(ValueError):
        BlockUnitarySpec((0.1, 0.2), (0.0,), (0.0, 0.0))
    with pytest.raises(ValueError):
        BlockUnitarySpec((math.nan,), (0.0,), (0.0,))


def test_spec_holds_read_only_float_arrays():
    given = np.array([0.1, 0.2])
    for spec in (
        BlockUnitarySpec.full_swap(4),
        BlockUnitarySpec(given, (0.0, 1.0), [2, 3]),
    ):
        for angles in (spec.thetas, spec.phis, spec.alphas):
            assert isinstance(angles, np.ndarray)
            assert angles.ndim == 1 and angles.dtype == np.float64
            with pytest.raises(ValueError):
                angles[0] = 1.0
    given[0] = 9.0  # the spec holds a copy
    assert spec.thetas.tolist() == [0.1, 0.2] and spec.alphas.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("bad", [0.5, [[0.5, 0.1]], [[0.5], [0.1]]])
def test_spec_rejects_angles_that_are_not_1d(field, bad):
    angles = [(0.5, 0.1), (0.0, 0.0), (0.0, 0.0)]
    angles[field] = bad
    with pytest.raises(ValueError, match="1-d"):
        BlockUnitarySpec(*angles)


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_angles(field, bad):
    angles = [[0.5, 0.1], [0.0, 0.0], [0.0, 0.0]]
    angles[field][1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BlockUnitarySpec(*angles)


@pytest.mark.parametrize("d", [1, 7, 5_000])
def test_tuple_and_array_specs_simulate_the_same_floats(d):
    rng = np.random.default_rng(d)
    arrays = (
        rng.uniform(0.0, math.pi / 2.0, d),
        rng.uniform(-math.pi, math.pi, d),
        rng.uniform(-math.pi, math.pi, d),
    )
    from_arrays = BlockUnitarySpec(*arrays)
    from_tuples = BlockUnitarySpec(*(tuple(angles.tolist()) for angles in arrays))
    p = qubit_population(0.3)
    for bw in (0.0, 0.7):
        assert simulate_finite_bath_map(p, bw, d, from_arrays).entries == (
            simulate_finite_bath_map(p, bw, d, from_tuples).entries
        )
    assert achieved_lambda(from_arrays, 0.7, d) == achieved_lambda(from_tuples, 0.7, d)


def chunk_blocks():
    """Blocks per chunk of the conjugation at the current _GRID_BLOCK_FLOATS."""
    return bath_oracle._rotation_chunks(10_000)[0].stop


@pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, 14])  # blocks per chunk
def test_conjugation_is_exact_across_chunk_sizes(chunk, monkeypatch):
    rng = np.random.default_rng(chunk)
    cases = [
        (qubit_population(rng.uniform()), rng.uniform(0.0, 5.0), d, random_spec(rng, d))
        for d in range(1, 21)
    ]
    expected = [simulate_finite_bath_map(*case).entries for case in cases]
    monkeypatch.setattr(bath_oracle, "_GRID_BLOCK_FLOATS", 8 * chunk)
    assert chunk_blocks() == chunk
    for case, entries in zip(cases, expected):
        assert simulate_finite_bath_map(*case).entries == entries


def test_conjugation_is_exact_in_one_chunk_at_the_largest_bath(monkeypatch):
    d, p = 10_000, qubit_population(0.3)
    specs = (random_spec(np.random.default_rng(11), d), BlockUnitarySpec.full_swap(d))
    chunked = [simulate_finite_bath_map(p, 0.01, d, spec).entries for spec in specs]
    monkeypatch.setattr(bath_oracle, "_GRID_BLOCK_FLOATS", 8 * d)
    assert chunk_blocks() == d
    for spec, entries in zip(specs, chunked):
        assert simulate_finite_bath_map(p, 0.01, d, spec).entries == entries


def test_simulation_peak_memory_at_the_largest_bath():
    """The two (d,) diagonals (160 KB) and one chunk's temporaries; no block array.

    Two (d, 2, 2) complex block arrays, 640 KB each, would take the peak far
    past the bound.
    """
    d = 10_000
    p, spec = qubit_population(0.3), random_spec(np.random.default_rng(4), d)
    tracemalloc.start()
    try:
        simulate_finite_bath_map(p, 0.5, d, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 2**10


def block_entries(*blocks):
    """The entries b00, b01, b10, b11 of 2x2 blocks, each as an array over the blocks."""
    return tuple(np.array(blocks, dtype=complex).reshape(-1, 4).T)


def test_joint_state_validation():
    """The corner, block and trace checks the simulation runs on its states."""
    ok_block = block_entries([[0.3, 0.0], [0.0, 0.2]])
    bath_oracle._check_corners(0.25, 0.25)
    bath_oracle._check_blocks(*ok_block)
    bath_oracle._check_trace(0.25 + 0.25 + (0.3 + 0.2))
    with pytest.raises(ValueError, match="negative corner"):
        bath_oracle._check_corners(-0.01, 0.51)
    with pytest.raises(ValueError, match="Hermitian"):
        bath_oracle._check_blocks(*block_entries([[0.3, 0.1], [0.3, 0.2]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        bath_oracle._check_blocks(*block_entries([[0.5, 0.6], [0.6, 0.5]]))  # indefinite
    with pytest.raises(ValueError, match="trace 1.5 is not 1"):
        bath_oracle._check_trace(0.5 + 0.5 + (0.3 + 0.2))
    # NaN fails every comparison, so each check must be written to reject it
    nan_blocks = [
        [[0.3, 0.0], [0.0, math.nan]],
        [[0.3, math.nan], [math.nan, 0.2]],
        [[0.3, complex(0.0, math.nan)], [complex(0.0, math.nan), 0.2]],
    ]
    for block in nan_blocks:
        with pytest.raises(ValueError, match="finite"):
            bath_oracle._check_blocks(*block_entries(block))
    with pytest.raises(ValueError, match="finite"):
        bath_oracle._check_corners(math.nan, 0.25)


def test_conjugation_preserves_trace_and_shape():
    p = qubit_population(0.4)
    rotated = simulate_finite_bath_map(p, 0.3, 8, random_spec(np.random.default_rng(7), 8))
    assert not rotated.renormalized
    assert math.fsum(rotated.entries) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="5 blocks"):
        simulate_finite_bath_map(p, 0.3, 8, BlockUnitarySpec.full_swap(5))


def test_simulate_identity_angles():
    p = qubit_population(0.35)
    spec = BlockUnitarySpec((0.0,) * 4, (0.4, -0.1, 2.2, 0.0), (0.1,) * 4)
    out = simulate_finite_bath_map(p, 0.7, 4, spec)
    assert out.entries == pytest.approx(p.entries, abs=1e-14)


def test_simulate_full_swap_reaches_ladder_cap():
    p = qubit_population(0.1)
    bw, d = 0.4, 9
    out = simulate_finite_bath_map(p, bw, d, BlockUnitarySpec.full_swap(d))
    cap = lambda_max_finite_bath(bw, d)
    assert out.entries == pytest.approx(apply_mixture(cap, bw, p).entries, abs=1e-12)


def test_simulate_validation():
    p = qubit_population(0.5)
    with pytest.raises(ValueError):
        simulate_finite_bath_map(p, 0.5, 3, BlockUnitarySpec.full_swap(4))
    with pytest.raises(ValueError):
        simulate_finite_bath_map(p, -0.5, 3, BlockUnitarySpec.full_swap(3))
    with pytest.raises(ResourceLimitError):
        simulate_finite_bath_map(p, 0.5, 10_001, BlockUnitarySpec.full_swap(10_001))
    # a non-integer bath size is rejected, not truncated to 2
    with pytest.raises(ValueError, match="integer"):
        simulate_finite_bath_map(p, 0.5, 2.7, BlockUnitarySpec.full_swap(2))
    with pytest.raises(ValueError, match="integer"):
        achieved_lambda(BlockUnitarySpec.full_swap(2), 0.5, 2.9)


@pytest.mark.parametrize("bw", [0.0, 1e-4, 0.0745, 0.5, 700.0, 745.1, 745.2, 746.0])
def test_ladder_weights_are_numpys_exp_bit_for_bit(bw):
    """exp is evaluated only where it does not round to 0; the rest is zero-filled."""
    for d in (1, 2, 1_000, 1_491, 1_492, 9_999, 10_000):
        weights, z = bath_oracle._ladder_weights(bw, d)
        expected = np.exp(-bw * np.arange(d + 1))
        assert weights.tobytes() == expected.tobytes()
        assert z == float(expected.sum())


def test_achieved_lambda_examples():
    bw = 0.8
    e = math.exp(-bw)
    z = 1.0 + e + e * e
    # only the first block swaps: picks up the n = 0 thermal weight
    spec = BlockUnitarySpec((math.pi / 2.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    assert achieved_lambda(spec, bw, 2) == pytest.approx(1.0 / z, abs=1e-15)
    # half-swaps on both blocks
    spec = BlockUnitarySpec((math.pi / 4.0,) * 2, (0.0,) * 2, (0.0,) * 2)
    assert achieved_lambda(spec, bw, 2) == pytest.approx(0.5 * (1.0 + e) / z, abs=1e-15)
    assert achieved_lambda(BlockUnitarySpec.full_swap(5), bw, 5) == pytest.approx(
        lambda_max_finite_bath(bw, 5), abs=1e-13
    )


SPECIAL_ANGLES = (0.0, -0.0, math.pi / 2.0, -math.pi / 2.0, math.pi)


@given(
    ground=st.floats(0.0, 1.0),
    bw=st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 700.0])),
    d=st.one_of(
        st.integers(1, 25),
        st.sampled_from([-1, 0, 1]).map(lambda k: chunk_blocks() + k),
        st.just(10_000),
    ),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=250, deadline=None)
def test_simulation_is_a_mixture_with_the_achieved_weight(ground, bw, d, wide, seed):
    """Wide specs take angles in [-7, 7], half of them from SPECIAL_ANGLES."""
    rng = np.random.default_rng(seed)
    if wide:
        angles = rng.uniform(-7.0, 7.0, (3, d))
        special = rng.uniform(size=(3, d)) < 0.5
        angles[special] = rng.choice(SPECIAL_ANGLES, int(special.sum()))
        spec = BlockUnitarySpec(*angles)
    else:
        spec = random_spec(rng, d)
    p = qubit_population(ground)
    out = simulate_finite_bath_map(p, bw, d, spec)
    lam = achieved_lambda(spec, bw, d)
    expect = apply_mixture(lam, bw, p)
    assert out.entries == pytest.approx(expect.entries, abs=1e-12)


@given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reduced_populations_ignore_phases(d, seed):
    rng = np.random.default_rng(seed)
    thetas = tuple(rng.uniform(0.0, math.pi / 2.0, d))
    spec_a = BlockUnitarySpec(thetas, tuple(rng.uniform(-3, 3, d)), tuple(rng.uniform(-3, 3, d)))
    spec_b = BlockUnitarySpec(thetas, tuple(rng.uniform(-3, 3, d)), tuple(rng.uniform(-3, 3, d)))
    p = qubit_population(0.3)
    out_a = simulate_finite_bath_map(p, 0.6, d, spec_a)
    out_b = simulate_finite_bath_map(p, 0.6, d, spec_b)
    assert out_a.entries == pytest.approx(out_b.entries, abs=1e-12)


def dense_conjugated(p, bw, spec):
    """U (rho_S x gamma_E) U^dagger as a dense matrix; |q, n> has index q (d+1) + n."""
    d = spec.d
    w = np.exp(-bw * np.arange(d + 1))
    rho = np.kron(np.diag(p.entries), np.diag(w / w.sum())).astype(complex)
    u = np.eye(2 * (d + 1), dtype=complex)
    for j, (theta, phi, alpha) in enumerate(zip(spec.thetas, spec.phis, spec.alphas)):
        pair = [j + 1, d + 1 + j]  # |0, j+1>, |1, j>
        u[np.ix_(pair, pair)] = [
            [cmath.exp(1j * phi) * math.cos(theta), cmath.exp(1j * alpha) * math.sin(theta)],
            [-cmath.exp(-1j * alpha) * math.sin(theta), cmath.exp(-1j * phi) * math.cos(theta)],
        ]
    return u @ rho @ u.conj().T


def angle_lists(d):
    return st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=d, max_size=d)


@given(
    ground=st.floats(0.0, 1.0),
    bw=st.floats(0.0, 5.0),
    angles=st.integers(1, 8).flatmap(lambda d: st.tuples(*[angle_lists(d)] * 3)),
)
@settings(max_examples=200, deadline=None)
def test_conjugation_matches_the_dense_unitary(ground, bw, angles):
    """The simulated populations are the dense conjugation's partial trace, and
    the kernel's block entries and the corners are its entries; the rest is zero."""
    spec = BlockUnitarySpec(*angles)
    d = spec.d
    p = qubit_population(ground)
    dense = dense_conjugated(p, bw, spec)
    traced = dense.diagonal().real.reshape(2, d + 1).sum(axis=1)
    simulated = simulate_finite_bath_map(p, bw, d, spec)
    np.testing.assert_allclose(simulated.entries, traced, rtol=0.0, atol=1e-14)
    corner_low, corner_high, ground_diagonal, excited_diagonal = bath_oracle._product(p, bw, d)
    rotated = tuple(np.empty((4, d), dtype=complex))
    bath_oracle._rotate(spec, slice(0, d), (ground_diagonal, 0j, 0j, excited_diagonal), rotated)
    placed = np.zeros((2 * (d + 1), 2 * (d + 1)), dtype=complex)
    placed[0, 0] = corner_low  # |0, 0>
    placed[-1, -1] = corner_high  # |1, d>
    for j, block in enumerate(np.stack(rotated, axis=-1).reshape(d, 2, 2)):
        placed[np.ix_([j + 1, d + 1 + j], [j + 1, d + 1 + j])] = block
    np.testing.assert_allclose(placed, dense, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("bw", [0.0, 1e-3, 2.0])
def test_full_swap_reaches_the_cap_at_the_largest_bath(bw):
    d = 10_000
    p = qubit_population(0.15)
    out = simulate_finite_bath_map(p, bw, d, BlockUnitarySpec.full_swap(d))
    cap = lambda_max_finite_bath(bw, d)
    assert out.entries == pytest.approx(apply_mixture(cap, bw, p).entries, abs=1e-12)


@pytest.mark.parametrize("excess, accepted", [(1e-12, True), (3e-12, False)])
def test_trace_tolerance_at_the_largest_bath(excess, accepted):
    """The 2e-12 trace tolerance decides at d = 10 000, with 20 002 uneven diagonal entries."""
    d = 10_000
    weights = np.random.default_rng(5).uniform(0.5, 1.5, 2 * d + 2)
    weights *= (1.0 + excess) / math.fsum(weights.tolist())
    ground, excited = weights[2:].reshape(d, 2).T
    # the simulation's trace: the corners plus the pairwise sum of the block diagonals
    trace = weights[0] + weights[1] + float((ground + excited).sum())
    assert trace == pytest.approx(1.0 + excess, abs=1e-14)
    if accepted:
        bath_oracle._check_trace(trace)
    else:
        with pytest.raises(ValueError, match="trace"):
            bath_oracle._check_trace(trace)


def test_scan_matches_closed_form_small_baths():
    for d in (1, 2, 3, 4, 10):
        for bw in (0.2, 0.9, 2.5):
            assert scan_lambda_max(bw, d) == pytest.approx(
                lambda_max_finite_bath(bw, d), abs=1e-6
            )


def test_scan_coordinate_ascent_larger_bath():
    assert scan_lambda_max(0.5, 10) == pytest.approx(
        lambda_max_finite_bath(0.5, 10), abs=1e-4
    )


def test_scan_never_beats_the_cap():
    for d, bw in ((2, 0.3), (4, 1.1), (8, 0.6)):
        assert scan_lambda_max(bw, d) <= lambda_max_finite_bath(bw, d) + 1e-12


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_lambda_max(0.5, 2, grid=2)
    with pytest.raises(ValueError):
        scan_lambda_max(0.5, 6, grid=2)
    with pytest.raises(ResourceLimitError):
        scan_lambda_max(0.5, 10_001)


def test_brute_force_reference_point():
    result = brute_force_performance(REF)
    assert result.w_max == pytest.approx(0.12980665307639971, abs=1e-9)
    assert result.eta_max == pytest.approx(0.5092897426620918, abs=1e-9)
    assert result.w_arg == (1.0, 1.0, "swap")
    assert result.eta_arg == (1.0, 1.0, "swap")


def test_brute_force_idle_hot_stroke():
    result = brute_force_performance(EngineParams(0.2, 0.6, 0.0, 1.0), grid=60)
    assert result.w_max == pytest.approx(0.0, abs=1e-12)
    assert result.eta_max is None and result.eta_arg is None


def test_brute_force_single_contact_bath_never_works():
    model = RestrictionModel.finite_bath(1)
    for bh, bc in ((0.2, 0.6), (0.5, 2.0), (1.0, 4.0)):
        params = engine_params_from(model, model, bh, bc)
        result = brute_force_performance(params, grid=80)
        assert result.w_max <= 1e-12


@pytest.mark.parametrize(
    "params",
    [
        REF,
        EngineParams(0.2, 0.6, 0.0, 1.0),  # idle hot stroke: every row ties
        EngineParams(0.7, 0.9, 0.3, 0.8),
        EngineParams(1.0, 0.4, 1.0, 1.0),  # cold bath hotter: no gain anywhere
        EngineParams(0.0, 1.0, 1.0, 0.0),  # infinite hot temperature, idle cold stroke
        EngineParams(0.0, 0.4187301774006047, 0.3151884677170894, 0.035325131608288984),
    ],
)
def test_brute_force_row_blocks_keep_the_first_maxima(params, monkeypatch):
    """Results and argmaxes do not depend on how the kept row bands are split."""
    grid = 23
    results = []
    for block_floats in (1, 7 * grid + 3, 10**9):  # one row, 7 rows, whole bands
        monkeypatch.setattr(bath_oracle, "_GRID_BLOCK_FLOATS", block_floats)
        results.append(brute_force_performance(params, grid))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize(
    "params, grid",
    [
        (EngineParams(0.0, 1.0, 1.0, 0.0), 23),
        (EngineParams(0.0, 1.0, 1.0, 0.0), 200),
        (EngineParams(0.0, 0.4187301774006047, 0.3151884677170894, 0.035325131608288984), 23),
    ],
)
def test_brute_force_infinite_hot_temperature_releases_no_work(params, grid):
    """The winner's work is rounding noise with no heat intake, not an engine."""
    result = brute_force_performance(params, grid)
    assert 0.0 <= result.w_max <= 1e-12
    assert result.eta_max is None and result.eta_arg is None


_CAPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    bh=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    bc=st.one_of(st.just(0.0), st.floats(0.0, 25.0)),  # either bath may be the hotter
    lh=_CAPS,
    lc=_CAPS,
    grid=st.sampled_from([2, 3, 23]),
)
@example(bh=0.0, bc=1.0, lh=1.0, lc=0.0, grid=23)
@example(bh=0.0, bc=18.0, lh=1.0, lc=1e-9, grid=23)  # slack about 1e-9 along lh = 1
def test_brute_force_never_raises_and_the_swap_wins(bh, bc, lh, lc, grid):
    """The swap grid's corner releases exactly 0.0, so the best work is never negative."""
    result = brute_force_performance(EngineParams(bh, bc, lh, lc), grid)
    assert result.w_max >= 0.0
    assert result.w_arg[2] == "swap"
    assert result.eta_arg is None or result.eta_arg[2] == "swap"


def full_swap_grid(params, grid):
    """brute_force_performance's optima with every cell of every grid evaluated.

    The same coarse grid and one-cell refinements, each grid evaluated whole in
    one call of the cell kernel; the first maximum in row-major order within a
    grid, replaced across grids only by a strictly higher value.
    """
    best = [[-math.inf, (0, 0), None], [-math.inf, (0, 0), None]]

    def evaluate(lh, lc):
        work, intake, _ = bath_oracle._cycle_grid(lh, lc, params)
        work = np.where(np.isnan(work), -np.inf, work)
        gain = (work > 0.0) & (intake > 0.0)
        eta = np.divide(work, intake, out=np.full(work.shape, -np.inf), where=gain)
        for entry, values in zip(best, (work, eta)):
            row, column = divmod(int(values.argmax()), lc.size)
            if values[row, column] > entry[0]:
                at = (float(lh[row]), float(lc[column]))
                entry[:] = float(values[row, column]), (row, column), at

    def refine(axis, index, cap):
        lo, hi = axis[max(index - 1, 0)], axis[min(index + 1, axis.size - 1)]
        return np.array([lo]) if lo == hi else np.linspace(lo, min(hi, cap), grid)

    lh = np.linspace(0.0, params.lambda_h_max, grid)
    lc = np.linspace(0.0, params.lambda_c_max, grid)
    evaluate(lh, lc)
    for row, column in dict.fromkeys(index for _, index, _ in best):
        evaluate(refine(lh, row, params.lambda_h_max), refine(lc, column, params.lambda_c_max))
    (w_max, _, w_at), (eta, _, eta_at) = best
    if not math.isfinite(eta):
        return w_max, None, (*w_at, "swap"), None
    return w_max, eta, (*w_at, "swap"), (*eta_at, "swap")


_EDGE_CAPS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    bh=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    bc=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),  # either bath may be the hotter
    lh=_EDGE_CAPS,
    lc=_EDGE_CAPS,
    grid=st.sampled_from([2, 3, 17, 23, 200]),
)
# the row-band splitting test's parameter sets, at its grid
@example(bh=0.2, bc=0.6, lh=1.0, lc=1.0, grid=23)
@example(bh=0.2, bc=0.6, lh=0.0, lc=1.0, grid=23)
@example(bh=0.7, bc=0.9, lh=0.3, lc=0.8, grid=23)
@example(bh=1.0, bc=0.4, lh=1.0, lc=1.0, grid=23)
@example(bh=0.0, bc=1.0, lh=1.0, lc=0.0, grid=23)
@example(bh=0.0, bc=0.4187301774006047, lh=0.3151884677170894, lc=0.035325131608288984, grid=23)
# nothing can be skipped
@example(bh=0.0, bc=0.0, lh=1.0, lc=1.0, grid=200)
@example(bh=0.0, bc=1.0, lh=1.0, lc=1.0, grid=200)
# the first maximum of the efficiency is decided by rounding along lh = 0.877...
@example(bh=0.0, bc=15.497624896089343, lh=0.8772733207909856, lc=0.9358044110013151, grid=200)
@example(bh=0.0, bc=18.0, lh=1.0, lc=1e-9, grid=200)  # slack about 1e-9 along lh = 1
def test_brute_force_equals_the_full_grid(bh, bc, lh, lc, grid):
    """Skipping blocks by their corner bounds changes no value and no argmax."""
    params = EngineParams(bh, bc, lh, lc)
    result = brute_force_performance(params, grid)
    expected = full_swap_grid(params, grid)
    assert (result.w_max, result.eta_max, result.w_arg, result.eta_arg) == expected


@settings(max_examples=100, deadline=None)
@given(
    bh=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    bc=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
    lh=_EDGE_CAPS,
    lc=_EDGE_CAPS,
    grid=st.sampled_from([17, 23, 60, 200]),
)
@example(bh=0.0, bc=1.0, lh=1.0, lc=1.0, grid=200)  # work and efficiency flat along lh = 1
@example(bh=0.0, bc=1.0, lh=1.0, lc=1e-8, grid=200)  # slack below 1e-9 along lh = 1
@example(bh=0.0, bc=18.0, lh=1.0, lc=1e-9, grid=200)
def test_block_corner_bounds_hold(bh, bc, lh, lc, grid):
    """The pruning lemma: on a block whose corners pass the floors, no cell
    beats the largest corner work, or a gain cell the largest corner ratio
    work / intake, by more than the margin."""
    params = EngineParams(bh, bc, lh, lc)
    work, intake, slack = bath_oracle._cycle_grid(
        np.linspace(0.0, lh, grid), np.linspace(0.0, lc, grid), params
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = work / intake
    corners, _ = bath_oracle._lattice(grid)
    lattice = np.ix_(corners, corners)

    def bound(values, reduce):
        return bath_oracle._corner_extreme(values[lattice], reduce)

    settled = bound(slack, np.minimum) >= bath_oracle._PRUNE_SLACK
    heated = settled & (bound(intake, np.minimum) >= bath_oracle._PRUNE_INTAKE)
    top_work = bound(work, np.maximum)
    top_ratio = bound(ratio, np.maximum)
    for i, j in zip(*np.nonzero(settled)):
        block = np.s_[corners[i] : corners[i + 1] + 1, corners[j] : corners[j + 1] + 1]
        assert work[block].max() <= top_work[i, j] + bath_oracle._WORK_MARGIN
        gain = (work[block] > 0.0) & (intake[block] > 0.0)
        if heated[i, j] and gain.any():
            assert ratio[block][gain].max() <= top_ratio[i, j] + bath_oracle._ETA_MARGIN


def test_brute_force_is_exact_where_the_slack_is_tiny():
    """At beta_h = 0 the swap cycle along lh = 1 has p = lc e_c and q = lc, so
    its work is (1 - e_c) / (1 + e_c) for every lc > 0, while the slack p + q
    falls to about 1e-11 on the refined grid."""
    params = EngineParams(0.0, 1.0, 1.0, 1e-8)
    result = brute_force_performance(params, 200)
    assert abs(result.w_max - optimal_performance(params).w_max) <= 1e-6
    assert result.w_max == pytest.approx(math.tanh(0.5), abs=1e-15)


def test_brute_force_validation():
    with pytest.raises(ValueError):
        brute_force_performance(REF, grid=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: brute_force_performance(REF, grid=MAX_GRID + 1),
        lambda: jc_time_scan(0.5, truncation=MAX_TRUNCATION + 1),
        # a read-only view of one float, so only the size check can allocate
        lambda: jc_time_scan(0.5, time_grid=np.broadcast_to(0.0, (MAX_TIME_POINTS + 1,))),
        # grid * d = MAX_GRID**2 + 1 floats in the coordinate-ascent rows at d = 1
        lambda: scan_lambda_max(0.5, 1, grid=MAX_GRID**2 + 1),
        # grid * d = MAX_GRID**2 + 5 floats in the coordinate-ascent rows
        lambda: scan_lambda_max(0.5, 5, grid=MAX_GRID**2 // 5 + 1),
    ],
    ids=["grid", "truncation", "time_grid", "scan_rows_d1", "ascent_rows"],
)
def test_oracle_sizes_fail_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "call",
    [
        lambda: brute_force_performance(REF, grid=2.9),
        lambda: jc_time_scan(0.5, truncation=200.5),
        lambda: scan_lambda_max(0.5, 2, grid=9.5),
        lambda: scan_lambda_max(0.5, 6, grid=65.5),
        lambda: lambda_max_finite_bath(0.5, 2.9),
        lambda: RestrictionModel.finite_bath(2.9),
    ],
    ids=["brute_force_grid", "truncation", "scan_grid", "ascent_grid", "cap_bath", "model_bath"],
)
def test_fractional_sizes_are_rejected(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_jc_time_scan_examples():
    assert jc_time_scan(0.5, time_grid=np.array([0.0])) == 0.0
    # deep in the low-temperature regime only one excitation matters
    almost = jc_time_scan(30.0, time_grid=np.array([0.0, math.pi / 2.0]), truncation=2)
    assert almost == pytest.approx(1.0, abs=1e-9)
    assert jc_time_scan(0.5) == pytest.approx(0.8682209195127173, abs=1e-9)
    assert jc_time_scan(2.0) == pytest.approx(0.9954134899179663, abs=1e-9)


DEFAULT_TIMES = np.linspace(0.0, 200.0, 100_000)  # jc_time_scan's default grid
# the time of the bw = 0.5 maximum on the default grid
ARGMAX_TIME = 30.03830038300383


def test_jc_time_scan_default_grid_values_are_exact():
    pins = {0.5: 0.8682209195127173, 1.0: 0.9590407679258044, 2.0: 0.9954134899179665}
    for bw, pinned in pins.items():
        assert jc_time_scan(bw) == pinned
        assert full_time_scan(bw, DEFAULT_TIMES, 200) == pinned


def full_time_scan(beta_omega, times, truncation):
    """Largest mixing weight, every time evaluated, each summed along its own row."""
    n = np.arange(1, truncation + 1)
    weights = np.exp(-beta_omega * (n - 1))
    keep = weights > 1e-18
    roots, weights = np.sqrt(n[keep]), weights[keep]
    prefactor = -math.expm1(-beta_omega)
    return max(
        float((prefactor * (np.sin(chunk[:, None] * roots) ** 2 * weights).sum(axis=1)).max())
        for chunk in np.array_split(times, -(-times.size // 10_000))
    )


@st.composite
def time_grids(draw, max_size=2_000):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.just(1), st.integers(2, max_size)))
    top = draw(st.floats(1e-3, 1e6))
    spacing = draw(st.sampled_from(["uniform", "random", "geometric", "clustered", "ulps"]))
    if spacing == "uniform":
        times = np.linspace(0.0, top, size)
    elif spacing == "random":
        times = rng.uniform(0.0, top, size)
    elif spacing == "geometric":
        times = top * np.geomspace(1e-12, 1.0, size)
    elif spacing == "clustered":
        centers = rng.uniform(0.0, top, draw(st.integers(1, 5)))
        times = rng.choice(centers, size) + rng.uniform(0.0, top * 1e-6, size)
    else:
        # consecutive floats: the curvature term vanishes and rounding decides
        times = top + np.arange(size) * np.spacing(top)
    if draw(st.booleans()):
        times = rng.choice(times, size)  # with replacement, so times repeat
    return rng.permutation(times)


@given(times=time_grids(), bw=st.floats(0.07, 30.0), extra=st.integers(0, 50))
@settings(max_examples=150, deadline=None)
@example(times=np.full(10_000, ARGMAX_TIME), bw=0.5, extra=0)
@example(times=np.linspace(0.0, 50.0, 3_000), bw=1.0, extra=0)
@example(times=np.linspace(50.0, 0.0, 3_000), bw=1.0, extra=0)
@example(times=396.984242765417 + np.arange(364) * np.spacing(396.984242765417), bw=1.0, extra=0)
def test_jc_time_scan_matches_the_full_grid(times, bw, extra):
    truncation = math.ceil(-math.log(1e-12) / bw) + 1 + extra
    scanned = jc_time_scan(bw, time_grid=times, truncation=truncation)
    assert scanned == full_time_scan(bw, times, truncation)


@given(times=time_grids(max_size=300), bw=st.floats(0.07, 30.0))
@settings(max_examples=60, deadline=None)
@example(times=DEFAULT_TIMES[15_000:15_040], bw=0.5)
def test_jc_time_scan_is_the_largest_one_point_scan(times, bw):
    """A time's value does not depend on which other times are evaluated with it."""
    truncation = math.ceil(-math.log(1e-12) / bw) + 1
    one_point = max(jc_time_scan(bw, time_grid=[t], truncation=truncation) for t in times)
    assert jc_time_scan(bw, time_grid=times, truncation=truncation) == one_point


def test_jc_time_scan_evaluates_each_time_at_most_once(monkeypatch):
    evaluated = []
    mixing_weights = bath_oracle._mixing_weights

    def counting(times, *args):
        evaluated.append(times.size)
        return mixing_weights(times, *args)

    monkeypatch.setattr(bath_oracle, "_mixing_weights", counting)
    for bw in (0.5, 1.0, 2.0):
        evaluated.clear()
        jc_time_scan(bw)
        assert sum(evaluated) <= 800
    # A window whose two end times are equal holds only that time's known value.
    evaluated.clear()
    jc_time_scan(0.5, time_grid=np.full(5_000, 3.0))
    assert sum(evaluated) <= 11
    evaluated.clear()
    equal = jc_time_scan(0.5, time_grid=np.full(100_000, ARGMAX_TIME))
    assert sum(evaluated) <= 197
    assert equal == jc_time_scan(0.5, time_grid=[ARGMAX_TIME])


def test_jc_time_scan_validation():
    with pytest.raises(ValueError):
        jc_time_scan(0.0)
    with pytest.raises(ValueError):
        jc_time_scan(0.5, time_grid=np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        jc_time_scan(0.5, time_grid=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        jc_time_scan(0.5, truncation=0)
    with pytest.raises(ResourceLimitError) as excinfo:
        jc_time_scan(0.05, truncation=200)
    assert "553" in str(excinfo.value)
