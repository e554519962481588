"""Simulation and search oracles: block unitaries, grids and time scans."""

import cmath
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from threestroke import (
    BlockUnitarySpec,
    EngineParams,
    PopulationVector,
    ResourceLimitError,
    RestrictionModel,
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
    return BlockUnitarySpec(tuple(rng.uniform(0.0, math.pi / 2.0, d)))


def test_spec_validation():
    spec = BlockUnitarySpec.full_swap(3)
    assert spec.d == 3 and spec.thetas.tolist() == [math.pi / 2.0] * 3
    with pytest.raises(ValueError):
        BlockUnitarySpec(())
    with pytest.raises(ValueError):
        BlockUnitarySpec((math.nan,))


def test_spec_holds_read_only_float_arrays():
    given = np.array([0.1, 0.2])
    specs = BlockUnitarySpec.full_swap(4), BlockUnitarySpec(given), BlockUnitarySpec([2, 3])
    for spec in specs:
        assert isinstance(spec.thetas, np.ndarray)
        assert spec.thetas.ndim == 1 and spec.thetas.dtype == np.float64
        with pytest.raises(ValueError):
            spec.thetas[0] = 1.0
    given[0] = 9.0  # the spec holds a copy
    assert specs[1].thetas.tolist() == [0.1, 0.2] and specs[2].thetas.tolist() == [2.0, 3.0]


def as_tuples(value):
    """value with every list in it made a tuple."""
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


# A list or tuple is read as objects first and an array as it is (as_numbers),
# so the angles' rules are checked in each form.
FORMS = {"list": lambda value: value, "tuple": as_tuples, "array": np.array}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("bad", [0.5, [[0.5, 0.1]], [[0.5], [0.1]]])
def test_spec_rejects_angles_that_are_not_1d(bad, form):
    with pytest.raises(ValueError, match="^thetas must be 1-d"):
        BlockUnitarySpec(FORMS[form](bad))


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_angles(bad, index):
    thetas = [0.5, 0.1, 0.1]  # the bad angle at the first, a varying or a repeated one
    thetas[index] = bad
    with pytest.raises(ValueError, match=rf"^thetas\[{index}\] must be finite, got {bad!r}$"):
        BlockUnitarySpec(thetas)


@pytest.mark.parametrize("d", [1, 7, 5_000])
def test_tuple_and_array_specs_simulate_the_same_floats(d):
    thetas = np.random.default_rng(d).uniform(-math.pi, math.pi, d)
    from_arrays = BlockUnitarySpec(thetas)
    from_tuples = BlockUnitarySpec(tuple(thetas.tolist()))
    p = qubit_population(0.3)
    for bw in (0.0, 0.7):
        assert simulate_finite_bath_map(p, bw, d, from_arrays).entries == (
            simulate_finite_bath_map(p, bw, d, from_tuples).entries
        )


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


# simulate_finite_bath_map(qubit_population(0.3), beta_omega, d, spec).entries
# at beta_omega = 1e-4, 0.37 and 5.0, for the full swap and for a spec whose
# every angle is PINNED_THETA, as rotating every block with entries from its
# own sin and cos gives them.  Both specs hold one angle, so the simulation
# takes one sin and cos and builds the entries once; a one-bit change in that
# path moves these.
PINNED_THETA = 1.0615933832338778
PINNED = {
    "full_swap": {
        1: [(0.5000249999999792, 0.4999750000000208), (0.59145897843278, 0.4085410215672199),
            (0.9933071490757153, 0.0066928509242848554)],
        2: [(0.5666999997777222, 0.4333000002222778), (0.6843255906288924, 0.3156744093711075),
            (0.9979471412237868, 0.002052858776213141)],
        1023: [(0.6996589858549515, 0.3003410141450484), (0.7927797008087933, 0.2072202991912064),
               (0.9979786159002741, 0.0020213840997256394)],
        1024: [(0.6996593666669503, 0.3003406333330498), (0.7927797008087933, 0.2072202991912064),
               (0.9979786159002741, 0.0020213840997256394)],
        1025: [(0.6996597467359761, 0.3003402532640238), (0.7927797008087933, 0.2072202991912064),
               (0.9979786159002741, 0.0020213840997256394)],
        10_000: [(0.7000067202046091, 0.29999327979539087),
                 (0.7927797008087936, 0.2072202991912064),
                 (0.9979786159002741, 0.0020213840997256394)],
    },
    "constant": {
        1: [(0.4524914232515089, 0.5475085767484911), (0.5221971975535562, 0.47780280244644363),
            (0.8285509007024765, 0.17144909929752347)],
        2: [(0.5033218974992435, 0.4966781025007564), (0.592995157140271, 0.40700484285972904),
            (0.8320882535660454, 0.16791174643395465)],
        1023: [(0.6046847522473818, 0.395315247752618), (0.6756764300752078, 0.3243235699247919),
               (0.8321122486577286, 0.1678877513422713)],
        1024: [(0.6046850425639108, 0.3953149574360892), (0.6756764300752078, 0.3243235699247919),
               (0.8321122486577286, 0.1678877513422713)],
        1025: [(0.6046853323140254, 0.3953146676859745), (0.6756764300752078, 0.3243235699247919),
               (0.8321122486577286, 0.1678877513422713)],
        10_000: [(0.6049498516394215, 0.3950501483605784), (0.675676430075208, 0.32432356992479194),
                 (0.8321122486577286, 0.1678877513422713)],
    },
}


@pytest.mark.parametrize("kind, d", [(kind, d) for kind in PINNED for d in PINNED[kind]])
def test_constant_row_specs_keep_their_pinned_floats(kind, d):
    if kind == "full_swap":
        spec = BlockUnitarySpec.full_swap(d)
    else:
        spec = BlockUnitarySpec(np.full(d, PINNED_THETA))
    p = qubit_population(0.3)
    entries = [simulate_finite_bath_map(p, bw, d, spec).entries for bw in (1e-4, 0.37, 5.0)]
    assert entries == PINNED[kind][d]


@pytest.mark.parametrize("theta", [math.pi / 2, 0.0])  # the full swap, and the identity
@pytest.mark.parametrize("entries", [(0.3, 0.7), (-0.0, 1.0), (1.0, -0.0), (1e-300, 1.0)])
@pytest.mark.parametrize("bw", [0.5, 5.0, 30.0])
def test_zero_weight_blocks_rotated_once_give_every_blocks_floats(theta, entries, bw):
    """With one angle in every block, the blocks past the last nonzero Boltzmann
    weight are one rotated block, copied.  The same spec, marked as holding
    more than one angle, has each of its blocks rotated on its own.  Both
    leave the same rotated diagonals, signs of zero included, and so the same
    populations.  (The diagonals are compared, since the blocks near and past
    the last nonzero weight are too small to move the populations' sums.)"""
    d = 2_500
    p, thetas = PopulationVector(entries), np.full(d, theta)
    diagonals, populations = [], []
    for constant in (True, False):
        spec = BlockUnitarySpec(thetas)
        object.__setattr__(spec, "_constant", constant)
        *_, rotated, zero_from = bath_oracle._product(p, bw, d)
        bath_oracle._conjugate(spec, rotated, zero_from)
        diagonals.append(rotated.view(np.int64))
        populations.append(repr(simulate_finite_bath_map(p, bw, d, spec).entries))
    assert np.array_equal(*diagonals) and populations[0] == populations[1]


@pytest.mark.parametrize("angles", ["random", "full_swap"])
def test_simulation_peak_memory_at_the_largest_bath(angles):
    """The two (d,) diagonals (160 KB) and one chunk's temporaries; no block array.

    Two (d, 2, 2) block arrays, 320 KB each, would take the peak far past the
    bound.  Varying angles take the per-chunk path, the full swap the path of
    one angle.
    """
    d = 10_000
    p = qubit_population(0.3)
    if angles == "random":
        spec = random_spec(np.random.default_rng(4), d)
    else:
        spec = BlockUnitarySpec.full_swap(d)
    tracemalloc.start()
    try:
        simulate_finite_bath_map(p, 0.5, d, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 2**10


def kernel_check(columns):
    """The kernel's checks on blocks laid out as the rotation writes them,
    column by column, the second column first: ((b01, b11), (b00, b10))."""
    work = [np.empty(columns.size) for _ in range(3)]
    kernel = bath_oracle._Kernel(work, columns.shape[-1])
    kernel.blocks[...] = columns.reshape(4, -1)
    kernel._check()


def check_blocks(*blocks):
    """The kernel's checks on 2x2 blocks [[b00, b01], [b10, b11]]."""
    kernel_check(np.array(blocks, dtype=float).transpose(2, 1, 0)[::-1])


def test_joint_state_validation():
    """The block and trace checks the simulation runs on its rotated state."""
    check_blocks([[0.3, 0.0], [0.0, 0.2]])
    bath_oracle._check_trace(0.25 + 0.25 + (0.3 + 0.2))
    with pytest.raises(ValueError, match="Hermitian"):
        check_blocks([[0.3, 0.1], [0.3, 0.2]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        check_blocks([[0.5, 0.6], [0.6, 0.5]])  # indefinite
    with pytest.raises(ValueError, match="trace 1.5 is not 1"):
        bath_oracle._check_trace(0.5 + 0.5 + (0.3 + 0.2))
    # NaN fails every comparison, so each check must be written to reject it
    nan_blocks = [
        [[0.3, 0.0], [0.0, math.nan]],
        [[0.3, math.nan], [math.nan, 0.2]],
    ]
    for block in nan_blocks:
        with pytest.raises(ValueError, match="finite"):
            check_blocks(block)
    # an infinite entry makes -b00 and -det -inf, which pass their checks; the
    # determinant row turns it into NaN, and numpy warns as it does
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(ValueError, match="finite"):
            check_blocks([[math.inf, 0.0], [0.0, 0.2]])


# Population entries at the rule's bounds, and sum drifts at its two tolerances.
EDGE_ENTRIES = [-1e-12, -5e-324, 0.0, 5e-324, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12]
EDGE_DRIFTS = [0.0, -1e-12, 1e-12, -5e-10, 5e-10, -1e-9, 1e-9]


@given(
    entry=st.one_of(st.sampled_from(EDGE_ENTRIES), st.floats(-1e-12, 1.0 + 1e-12)),
    drift=st.one_of(st.sampled_from(EDGE_DRIFTS), st.floats(-1e-9, 1e-9)),
    ground_first=st.booleans(),
    bw=st.one_of(st.just(0.0), st.floats(1e-6, 800.0)),
    d=st.one_of(st.integers(1, 30), st.integers(1, 10_000)),
)
# an entry at -1e-12 that the division by the sum would take past the bound
@example(entry=-1e-12, drift=-5e-10, ground_first=True, bw=800.0, d=1)
@example(entry=-1e-12, drift=-5e-10, ground_first=False, bw=800.0, d=1)
@settings(max_examples=300, deadline=None)
def test_the_product_state_passes_the_checks_the_simulation_skips(
    entry, drift, ground_first, bw, d
):
    """The simulation rotates rho_S x gamma_E unchecked: from every population,
    beta_omega and d the input rules admit, the product has finite corners
    >= -1e-12, density blocks and trace 1 within 2e-12, checked here."""
    entries = (entry, 1.0 - entry + drift)
    try:
        p = PopulationVector(entries if ground_first else entries[::-1])
    except ValueError:
        assume(False)
    corner_low, corner_high, (ground_diagonal, excited_diagonal), _ = bath_oracle._product(
        p, bw, d
    )
    for corner in (corner_low, corner_high):
        assert math.isfinite(corner) and corner >= -1e-12
    zero = np.zeros(d)
    kernel_check(np.array([[zero, excited_diagonal], [ground_diagonal, zero]]))
    bath_oracle._check_trace(
        corner_low + corner_high + float((ground_diagonal + excited_diagonal).sum())
    )


@pytest.mark.parametrize("bad, message", [(-0.5, "positive semidefinite"), (math.nan, "finite")])
@pytest.mark.parametrize("level", range(5))
def test_a_faulty_product_fails_a_check_after_the_rotation(bad, message, level, monkeypatch):
    """A ladder weight made negative or NaN, with Z their sum, fails the rotated
    blocks' checks: every level n is in a block (|0, n> for n >= 1, |1, n> for
    n < d), and the rotation keeps each block's spectrum."""
    d = 4
    ladder_weights = bath_oracle._ladder_weights

    def faulty(beta_omega, d):
        weights, _ = ladder_weights(beta_omega, d)
        weights[level] = bad
        return weights, float(weights.sum())

    monkeypatch.setattr(bath_oracle, "_ladder_weights", faulty)
    p = qubit_population(0.3)
    for spec in (BlockUnitarySpec.full_swap(d), random_spec(np.random.default_rng(level), d)):
        with pytest.raises(ValueError, match=message):
            simulate_finite_bath_map(p, 0.5, d, spec)


def test_conjugation_preserves_trace_and_shape():
    p = qubit_population(0.4)
    rotated = simulate_finite_bath_map(p, 0.3, 8, random_spec(np.random.default_rng(7), 8))
    assert not rotated.renormalized
    assert math.fsum(rotated.entries) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="5 blocks"):
        simulate_finite_bath_map(p, 0.3, 8, BlockUnitarySpec.full_swap(5))


def test_simulate_identity_angles():
    p = qubit_population(0.35)
    spec = BlockUnitarySpec((0.0, -0.0, math.pi, 0.0))  # R(pi) = -1 moves no population
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


@pytest.mark.parametrize("bw", [0.0, 1e-4, 0.0745, 0.5, 700.0, 745.1, 745.2, 746.0])
def test_ladder_weights_are_numpys_exp_bit_for_bit(bw):
    """exp is evaluated only where it does not round to 0; the rest is zero-filled."""
    for d in (1, 2, 1_000, 1_491, 1_492, 9_999, 10_000):
        weights, z = bath_oracle._ladder_weights(bw, d)
        expected = np.exp(-bw * np.arange(d + 1))
        assert weights.tobytes() == expected.tobytes()
        assert z == float(expected.sum())


def achieved_weight(spec, bw, d):
    """sum_j sin^2(theta_j) w_j / Z, the mixing weight a block unitary realizes,
    from this test's own Boltzmann weights w_n = exp(-bw n), n = 0..d."""
    weights = np.exp(-bw * np.arange(d + 1))
    return float(np.sin(spec.thetas) ** 2 @ weights[:-1] / weights.sum())


def test_achieved_lambda_examples():
    """From the excited state (0, 1), the simulated ground entry is the weight."""
    bw = 0.8
    e = math.exp(-bw)
    z = 1.0 + e + e * e
    excited = PopulationVector((0.0, 1.0))

    def weight(spec):
        return simulate_finite_bath_map(excited, bw, spec.d, spec).entries[0]

    # only the first block swaps: picks up the n = 0 thermal weight
    spec = BlockUnitarySpec((math.pi / 2.0, 0.0))
    assert weight(spec) == pytest.approx(1.0 / z, abs=1e-15)
    # half-swaps on both blocks
    spec = BlockUnitarySpec((math.pi / 4.0,) * 2)
    assert weight(spec) == pytest.approx(0.5 * (1.0 + e) / z, abs=1e-15)
    assert weight(BlockUnitarySpec.full_swap(5)) == pytest.approx(
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
        angles = rng.uniform(-7.0, 7.0, d)
        special = rng.uniform(size=d) < 0.5
        angles[special] = rng.choice(SPECIAL_ANGLES, int(special.sum()))
        spec = BlockUnitarySpec(angles)
    else:
        spec = random_spec(rng, d)
    p = qubit_population(ground)
    out = simulate_finite_bath_map(p, bw, d, spec)
    expect = apply_mixture(achieved_weight(spec, bw, d), bw, p)
    assert out.entries == pytest.approx(expect.entries, abs=1e-12)


def dense_conjugated(p, bw, thetas, phis, alphas):
    """U (rho_S x gamma_E) U^dagger as a dense matrix, U rotating block j by
    [[e^(i phi) cos(theta), e^(i alpha) sin(theta)], [-e^(-i alpha) sin(theta),
    e^(-i phi) cos(theta)]], any energy-preserving unitary's block up to a
    global phase; |q, n> has index q (d+1) + n."""
    d = len(thetas)
    w = np.exp(-bw * np.arange(d + 1))
    rho = np.kron(np.diag(p.entries), np.diag(w / w.sum())).astype(complex)
    u = np.eye(2 * (d + 1), dtype=complex)
    for j, (theta, phi, alpha) in enumerate(zip(thetas, phis, alphas)):
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
    """The populations simulated from theta alone are the partial trace of the
    dense conjugation with random phases, which move no population; at zero
    phases, the kernel's block entries and the corners are its entries, and
    the rest is zero."""
    thetas, phis, alphas = angles
    spec = BlockUnitarySpec(thetas)
    d = spec.d
    p = qubit_population(ground)
    dense = dense_conjugated(p, bw, thetas, phis, alphas)
    traced = dense.diagonal().real.reshape(2, d + 1).sum(axis=1)
    simulated = simulate_finite_bath_map(p, bw, d, spec)
    np.testing.assert_allclose(simulated.entries, traced, rtol=0.0, atol=1e-14)
    dense = dense_conjugated(p, bw, thetas, [0.0] * d, [0.0] * d)
    corner_low, corner_high, diagonals, _ = bath_oracle._product(p, bw, d)
    # d <= 8: one chunk; with no zero-weight blocks named, every block is rotated
    rotated = bath_oracle._conjugate(spec, diagonals, d + 1)
    placed = np.zeros((2 * (d + 1), 2 * (d + 1)))
    placed[0, 0] = corner_low  # |0, 0>
    placed[-1, -1] = corner_high  # |1, d>
    for j, block in enumerate(rotated[::-1].transpose(2, 1, 0)):  # rotated[1 - c, r, j] is (r, c)
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
    with pytest.raises(ResourceLimitError):
        scan_lambda_max(0.5, 10_001)


def test_brute_force_reference_point():
    result = brute_force_performance(REF)
    assert result.w_max == pytest.approx(0.12980665307639971, abs=1e-9)
    assert result.eta_max == pytest.approx(0.5092897426620918, abs=1e-9)
    assert result.w_arg == (1.0, 1.0)
    assert result.eta_arg == (1.0, 1.0)


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
    """Results and argmaxes do not depend on how many rows a chunk takes."""
    grid = 23
    results = []
    for block_floats in (1, 7 * grid + 3, 10**9):  # one row, 7 rows, the whole grid
        monkeypatch.setattr(bath_oracle, "_GRID_BLOCK_FLOATS", block_floats)
        results.append(brute_force_performance(params, grid))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("block_floats", [bath_oracle._GRID_BLOCK_FLOATS, 1])
@pytest.mark.parametrize("grid", [2, 23, 200])
def test_brute_force_evaluates_each_coarse_cell_once(grid, block_floats, monkeypatch):
    """The coarse pass hands the cell kernel every (row, column) exactly once."""
    calls = []
    kernel = bath_oracle._cycle_grid

    def recording(lh, lc, params):
        calls.append((lh.copy(), lc.copy()))
        return kernel(lh, lc, params)

    monkeypatch.setattr(bath_oracle, "_cycle_grid", recording)
    monkeypatch.setattr(bath_oracle, "_GRID_BLOCK_FLOATS", block_floats)
    params = EngineParams(0.7, 0.9, 0.3, 0.8)
    brute_force_performance(params, grid)
    axes = np.linspace(0.0, params.lambda_h_max, grid), np.linspace(0.0, params.lambda_c_max, grid)
    evaluated = Counter()
    rows = 0
    for call in calls:  # the coarse pass's calls, up to its grid rows
        if rows >= grid:
            break
        rows += call[0].size
        indices = []
        for axis, values in zip(axes, call):
            index = np.minimum(np.searchsorted(axis, values), grid - 1)
            assert np.array_equal(axis[index], values)  # on the coarse grid
            indices.append(index.tolist())
        evaluated.update((row, column) for row in indices[0] for column in indices[1])
    assert evaluated == Counter({(row, column): 1 for row in range(grid) for column in range(grid)})


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


def full_swap_grid(params, grid):
    """brute_force_performance's optima with every grid in one call of the cell kernel.

    The same coarse grid and one-cell refinements, each grid evaluated whole in
    one call instead of in row chunks; the first maximum in row-major order within a
    grid, replaced across grids only by a strictly higher value.
    """
    best = [[-math.inf, (0, 0), None], [-math.inf, (0, 0), None]]

    def evaluate(lh, lc):
        work, intake = bath_oracle._cycle_grid(lh, lc, params)
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
        return w_max, None, w_at, None
    return w_max, eta, w_at, eta_at


_EDGE_CAPS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    bh=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    bc=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),  # either bath may be the hotter
    lh=_EDGE_CAPS,
    lc=_EDGE_CAPS,
    grid=st.sampled_from([2, 3, 17, 23, 200]),
)
# the row-chunking test's parameter sets, at its grid
@example(bh=0.2, bc=0.6, lh=1.0, lc=1.0, grid=23)
@example(bh=0.2, bc=0.6, lh=0.0, lc=1.0, grid=23)
@example(bh=0.7, bc=0.9, lh=0.3, lc=0.8, grid=23)
@example(bh=1.0, bc=0.4, lh=1.0, lc=1.0, grid=23)
@example(bh=0.0, bc=1.0, lh=1.0, lc=0.0, grid=23)
@example(bh=0.0, bc=0.4187301774006047, lh=0.3151884677170894, lc=0.035325131608288984, grid=23)
# work ties across every row chunk: no temperature gap, and work flat along lh = 1
@example(bh=0.0, bc=0.0, lh=1.0, lc=1.0, grid=200)
@example(bh=0.0, bc=1.0, lh=1.0, lc=1.0, grid=200)
# the first maximum of the efficiency is decided by rounding along lh = 0.877...
@example(bh=0.0, bc=15.497624896089343, lh=0.8772733207909856, lc=0.9358044110013151, grid=200)
@example(bh=0.0, bc=18.0, lh=1.0, lc=1e-9, grid=200)  # slack about 1e-9 along lh = 1
def test_brute_force_equals_the_full_grid(bh, bc, lh, lc, grid):
    """Taking each grid in row chunks keeps the one-call grid's values and first maxima."""
    params = EngineParams(bh, bc, lh, lc)
    result = brute_force_performance(params, grid)
    expected = full_swap_grid(params, grid)
    assert (result.w_max, result.eta_max, result.w_arg, result.eta_arg) == expected


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
        lambda: BlockUnitarySpec.full_swap(10**6),
    ],
    ids=["grid", "truncation", "time_grid", "full_swap"],
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
        lambda: lambda_max_finite_bath(0.5, 2.9),
        lambda: RestrictionModel.finite_bath(2.9),
    ],
    ids=["brute_force_grid", "truncation", "cap_bath", "model_bath"],
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


def test_default_time_grid_is_read_from_its_indices():
    """The scan reads the default grid by index, equal to the built grid bit for bit."""
    read = bath_oracle._default_times(np.arange(DEFAULT_TIMES.size))
    assert read.dtype == DEFAULT_TIMES.dtype
    assert np.array_equal(read.view(np.int64), DEFAULT_TIMES.view(np.int64))


def test_default_grid_scan_builds_no_grid():
    jc_time_scan(0.5)
    tracemalloc.start()
    try:
        jc_time_scan(0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400_000  # the 100 000-point grid alone is 800 000 bytes


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
