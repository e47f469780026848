import dataclasses
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    DimensionMismatch,
    DomainError,
    NotSPD,
    NotSymmetric,
    ProblemInstance,
    SizeCap,
    add_noise,
    build_blur,
    build_fredholm,
    decompose,
    load_problem,
    noise_sigma,
    save_problem,
    standard_normal,
    stream_seed,
)
from tikhreg.harness import _BATCH_BYTES
from tikhreg.problems import _BLOCK_ENTRIES, _read_finite, _row_blocks
from tikhreg.spectral import _dense_decompose
from tikhreg.tikhonov import spectral_solver

from reference import greens_kernel

# continuum value of n^{-1/2} ||A x*||, used as the sigma oracle
SCALED_Y = 4.7117e-3


def test_kernel_pointwise():
    assert greens_kernel(0.5, 0.25) == pytest.approx(0.125)
    assert greens_kernel(0.0, 0.7) == 0.0


def test_kernel_symmetric():
    assert greens_kernel(0.3, 0.8) == pytest.approx(greens_kernel(0.8, 0.3))


def test_kernel_broadcasts():
    t = np.linspace(0.0, 1.0, 5)[:, None]
    s = np.linspace(0.0, 1.0, 4)[None, :]
    k = greens_kernel(t, s)
    assert k.shape == (5, 4)
    assert np.all(k >= 0.0)


def test_fredholm_first_row_is_zero():
    # t_1 = 0 and kappa(0, s) = 0
    inst = build_fredholm(2)
    assert inst.dense_a()[0, 0] == 0.0
    assert np.all(inst.dense_a()[0] == 0.0)


@pytest.mark.parametrize("n", [2, 257, 600])
def test_fredholm_row_block_fill_is_the_kernel_formula_bit_for_bit(n):
    # dense_a() fills A a row block at a time through two reused buffers;
    # the reference evaluates kappa / n on the whole grid at once
    t = np.arange(n, dtype=np.float64)[:, None] / n
    s = (2.0 * np.arange(n, dtype=np.float64) + 1.0) / (2.0 * n)
    want = np.minimum(t, s) * (1.0 - np.maximum(t, s)) / n
    assert build_fredholm(n).dense_a().tobytes() == want.tobytes()


def test_fredholm_x_star_at_quarter_point():
    # first midpoint of n = 2 sits at t = 1/4
    inst = build_fredholm(2)
    assert inst.x_star[0] == pytest.approx(-0.123046875, abs=1e-15)


def test_fredholm_consistency():
    inst = build_fredholm(64)
    assert inst.n == 64
    assert inst.a is None
    assert inst.dense_a().shape == (64, 64)
    assert inst.w is None
    assert inst.label == "fredholm"
    assert np.allclose(inst.y, inst.dense_a() @ inst.x_star, rtol=0, atol=1e-15)


def test_fredholm_scaled_data_norm():
    inst = build_fredholm(500)
    val = np.linalg.norm(inst.y) / np.sqrt(500)
    assert abs(val - SCALED_Y) <= 0.005 * SCALED_Y


def test_fredholm_rejects_tiny_n():
    with pytest.raises(DomainError):
        build_fredholm(1)


def test_instance_validation():
    a = np.eye(3)
    x = np.zeros(3)
    with pytest.raises(DimensionMismatch):
        ProblemInstance(n=3, a=np.eye(2), x_star=x, y=x, w=None, label="t")
    with pytest.raises(DimensionMismatch):
        ProblemInstance(n=3, a=a, x_star=np.zeros(2), y=x, w=None, label="t")


def _spd(n):
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1) + 0.1 * np.eye(n)


def _with_entry(w, index, value):
    w = w.copy()
    w[index] = value
    return w


@pytest.mark.parametrize("w, error", [
    (_spd(4), DimensionMismatch),                            # an (n - 1) x (n - 1) W
    (np.ones(5), DimensionMismatch),                         # not a matrix
    (_with_entry(_spd(5), (2, 2), np.nan), DomainError),
    (_with_entry(_spd(5), (0, 4), np.inf), DomainError),
    (_with_entry(_spd(5), (3, 1), -np.inf), DomainError),
    (_with_entry(_spd(5), (0, 1), 0.0), NotSymmetric),       # W[1, 0] stays -1
    (_spd(5) - 3.0 * np.eye(5), NotSPD),                     # symmetric, indefinite
], ids=["smaller", "vector", "nan", "inf", "minus-inf", "asymmetric", "indefinite"])
def test_instance_w_checked_against_its_instance(w, error):
    x = np.ones(5)
    with pytest.raises(error):
        ProblemInstance(n=5, a=np.eye(5), x_star=x, y=x, w=w, label="t")


def test_blur_row_sums_and_exact_data():
    inst = build_blur(8, 2.0)
    assert inst.n == 64
    assert inst.label == "blur"
    assert np.all(inst.dense_a().sum(axis=1) <= 1.0 + 1e-12)
    assert np.linalg.norm(inst.y - inst.dense_a() @ inst.x_star) <= 1e-12


def test_blur_narrow_psf_is_near_identity():
    inst = build_blur(10, 1e-3)
    assert np.all(np.diag(inst.dense_a()) >= 0.99)


def test_blur_subnormal_width_gives_identity_without_warnings():
    # 2 psf_width^2 is subnormal, so d^2 / (2 psf_width^2) overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = build_blur(8, 1e-160)
    assert np.array_equal(inst.kron_factor, np.eye(8))


def test_blur_size_limits():
    with pytest.raises(DomainError):
        build_blur(3, 1.0)
    with pytest.raises(SizeCap, match=r"^side 201 exceeds the 200 cap$"):
        build_blur(201, 1.0)
    with pytest.raises(DomainError):
        build_blur(8, 0.0)


def test_standard_normal_reproducible():
    a = standard_normal(12345, 64)
    b = standard_normal(12345, 64)
    c = standard_normal(12346, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_standard_normal_odd_count():
    z = standard_normal(7, 7)
    assert z.shape == (7,)
    assert np.all(np.isfinite(z))


def test_standard_normal_moments():
    z = standard_normal(99, 10000)
    assert abs(z.mean()) <= 0.05
    assert 0.95 <= z.var() <= 1.05


def test_standard_normal_prefix_stability():
    # the first 2k draws do not depend on how many more are requested
    a = standard_normal(5, 10)
    b = standard_normal(5, 50)
    assert np.array_equal(a, b[:10])


def _documented_stream(seed, count):
    # the module docstring's recipe with scalar math: Philox uniforms, then
    # r = sqrt(-2 log(1 - u[2k])), z = r cos / r sin of 2 pi u[2k+1]
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * ((count + 1) // 2))
    z = []
    for k in range(0, len(u), 2):
        r = math.sqrt(-2.0 * math.log1p(-float(u[k])))
        theta = 2.0 * math.pi * float(u[k + 1])
        z += [r * math.cos(theta), r * math.sin(theta)]
    return np.array(z[:count])


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
def test_standard_normal_follows_the_documented_recipe(seed):
    # libm and numpy's ufuncs may differ in the last bits, never by more
    want = _documented_stream(seed, 9)
    got = standard_normal(seed, 9)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_standard_normal_pinned_values():
    # a swapped u1/u2 or cos/sin order changes these far beyond 1e-14
    want = [0.2190063046507114, -1.4251673872451207, 0.9452944356903861]
    assert standard_normal(12345, 3) == pytest.approx(want, rel=1e-14, abs=0)


def test_batched_rows_equal_one_seed_draws():
    # a sequence of seeds takes numpy.random's C fill, one seed the numpy-only
    # Philox; each fills rows of whole blocks of four uniforms, and a count
    # that is not a multiple of 4 keeps part of the last. The long counts lie
    # on and next to multiples of 4096 blocks, and at the size cap
    seeds = [0, 2**64 - 1, 1, 2**63] + [stream_seed(9, 500, 0.01, rep) for rep in range(70)]
    for count in (0, 1, 2, 7, 63, 64, 65, 500, 501, 16383, 16384, 16385, 32769, 40000):
        some = seeds if count <= 501 else seeds[:6]
        block = standard_normal(some, count)
        assert block.shape == (len(some), count)
        for row, seed in zip(block, some):
            assert np.array_equal(row, standard_normal(seed, count))
    assert standard_normal([], 5).shape == (0, 5)


def _per_row_normals(seed, count):
    # the reference: one fresh generator per seed and numpy's ufuncs on the
    # even/odd halves of its uniforms, one row at a time
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * ((count + 1) // 2))
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    z = np.empty_like(u)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 7, 500, 501, 2000])
def test_batched_block_equals_the_per_row_reference(count):
    # 64 rows: at count 2000 the block holds 64000 pairs in one transform; at
    # count 5 a row is two blocks wide, wider than the reference's six uniforms
    seeds = [0, 2**64 - 1] + stream_seed(3, 500, 0.01, range(62))
    block = standard_normal(seeds, count)
    assert np.array_equal(block, [_per_row_normals(s, count) for s in seeds])
    assert np.array_equal(standard_normal(seeds[2], count), _per_row_normals(seeds[2], count))


def _alternating_draws(sets, count, rounds, barrier=None):
    # each seed set drawn in turn, `rounds` times over; a barrier makes two
    # threads take every turn together
    blocks = []
    for _ in range(rounds):
        for seeds in sets:
            if barrier is not None:
                barrier.wait()
            blocks.append(standard_normal(seeds, count))
    return blocks


def test_alternating_batches_equal_the_per_row_reference_on_each_thread():
    # a thread's one generator serves every batched draw, each row re-keyed
    # from its full start state, so alternating seed sets, on one thread and
    # on two at once (each thread with its own sets), keep every reference bit
    count, rounds = 501, 3
    sets = [[[0, 2**64 - 1, 5], stream_seed(3, 500, 0.01, range(4))],
            [stream_seed(4, 60, 0.1, range(3)), [2**63, 1]]]
    want = [[_per_row_normals(s, count) for s in seeds] for seeds in sets[0] + sets[1]]
    got = _alternating_draws(sets[0], count, rounds)
    assert all(np.array_equal(b, want[k % 2]) for k, b in enumerate(got))

    barrier, results = threading.Barrier(2, timeout=60), [None, None]

    def work(i):
        results[i] = _alternating_draws(sets[i], count, rounds, barrier)

    workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for i, blocks in enumerate(results):
        assert len(blocks) == 2 * rounds, i
        assert all(np.array_equal(b, want[2 * i + k % 2]) for k, b in enumerate(blocks)), i


def test_batched_draw_holds_only_its_block_and_a_bounded_scratch():
    # the blocks callers draw: a full Monte Carlo batch at n = 500 and at
    # n = 2000, one row at the n = 40000 size cap (a batch there), and
    # add_noise's one-seed draw at each n. The transform's one temporary is
    # cos(theta), one float64 per pair, and the one-seed fill's scratch at
    # most 15 uint64 per Philox block of the count (1.2 MB at the size cap).
    # The generator and its state dict, about 3 KB, are paid once per thread,
    # here by the warm-up draw, so no traced draw holds them
    standard_normal([0], 2)                # numpy.random's lazy import is not the draw's
    for n in (500, 2000, 40000):
        seeds = stream_seed(7, n, 0.01, range(max(1, _BATCH_BYTES // (16 * (n + 1)))))
        for draw, rows, scratch in ((seeds, len(seeds), 0), (seeds[0], 1, 15 * 8 * (n // 4))):
            peak, z = _traced_peak(lambda: standard_normal(draw, n))
            bound = z.nbytes + 8 * ((n + 1) // 2) * rows + 8192 + scratch
            assert peak <= bound, (n, rows, peak, z.nbytes)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_standard_normal_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(DomainError, match="64-bit"):
        standard_normal(seed, 4)
    with pytest.raises(DomainError, match="64-bit"):
        standard_normal([3, seed], 4)


@pytest.mark.parametrize("seed", [5.7, -0.5, "7", math.nan, math.inf, 5.0])
def test_a_seed_that_is_not_an_integer_is_rejected_not_truncated(fred20, seed):
    # int() would read 5.7 as seed 5, -0.5 as 0 and "7" as 7, and a NaN or
    # infinite seed would raise ValueError or OverflowError
    with pytest.raises(DomainError, match="seed must be an integer"):
        add_noise(fred20, 0.1, seed)
    with pytest.raises(DomainError, match="seed must be an integer"):
        standard_normal([3, seed], 4)


def test_numpy_integer_seeds_draw_the_python_integer_streams(fred20):
    assert add_noise(fred20, 0.1, np.int64(5)).b.tobytes() == add_noise(fred20, 0.1, 5).b.tobytes()
    top = 2**64 - 1
    assert standard_normal(np.uint64(top), 6).tobytes() == standard_normal(top, 6).tobytes()
    assert (standard_normal(np.array([3, 5], dtype=np.uint64), 4).tobytes()
            == standard_normal([3, 5], 4).tobytes())


@pytest.mark.parametrize("args, name", [
    ((0, 10, 0.1, 1.5), "rep"),            # int() would give rep 1's seed
    ((0, 10, 0.1, [0, 1.5]), "rep"),
    ((1.9, 10, 0.1, 0), "master_seed"),    # int() would give master 1's seed
    ((0, 10.0, 0.1, 0), "n"),
    (("0", 10, 0.1, 0), "master_seed"),
])
def test_stream_seed_rejects_keys_that_are_not_integers(args, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        stream_seed(*args)


def test_stream_seed_takes_numpy_integers():
    assert stream_seed(np.uint64(7), np.int64(500), 0.01, np.int32(3)) == stream_seed(7, 500, 0.01, 3)
    assert stream_seed(7, 500, 0.01, np.arange(4)) == stream_seed(7, 500, 0.01, range(4))


@pytest.mark.parametrize("build", [lambda: build_fredholm(60.0), lambda: build_blur(8.5, 2.0),
                                   lambda: build_blur(8.0, 2.0), lambda: build_fredholm("60")],
                         ids=["fredholm-float", "blur-fraction", "blur-float", "fredholm-str"])
def test_builders_reject_a_size_that_is_not_an_integer(build):
    with pytest.raises(DomainError, match="must be an integer"):
        build()


def test_builders_take_numpy_integer_sizes(tmp_path):
    inst = build_fredholm(np.int32(60))
    assert type(inst.n) is int and inst.y.tobytes() == build_fredholm(60).y.tobytes()
    save_problem(inst, str(tmp_path / "f.prob"))
    assert load_problem(str(tmp_path / "f.prob")).n == 60
    assert build_blur(np.int64(8), 2.0).y.tobytes() == build_blur(8, 2.0).y.tobytes()


def test_standard_normal_rejects_a_negative_count():
    with pytest.raises(DomainError, match="count"):
        standard_normal(0, -1)


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_a_batch_too_large_to_allocate_raises_size_cap():
    # 8192 rows at the 40000 count cap are a 2.4 GiB block: each row is within
    # the cap, so only the allocation can refuse it, and under a 1 GiB address
    # space it does, as SizeCap naming the block, not as a bare MemoryError
    script = ("import sys\n"
              "from tikhreg import SizeCap, standard_normal\n"
              "try:\n"
              "    standard_normal(list(range(8192)), 40000)\n"
              "except SizeCap as exc:\n"
              "    sys.exit(f'SizeCap: {exc}')\n")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        preexec_fn=_one_gib_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert out.returncode == 1
    assert out.stderr.startswith("SizeCap: 8192 x 40000 variates: ")


def test_a_short_read_of_prob_data_raises_domain_error():
    # load_problem checks the file size before it reads, so it never meets a
    # short read; _read_finite itself still refuses one
    with pytest.raises(DomainError, match=r"^\.prob file ended early: short\.prob$"):
        _read_finite(io.BytesIO(bytes(12)), np.empty(2, dtype="<f8"), "short.prob")


def test_stream_seed_distinct_and_stable():
    base = stream_seed(0, 1000, 0.01, 0)
    assert base == stream_seed(0, 1000, 0.01, 0)
    others = {
        stream_seed(1, 1000, 0.01, 0),
        stream_seed(0, 999, 0.01, 0),
        stream_seed(0, 1000, 0.02, 0),
        stream_seed(0, 1000, 0.01, 1),
    }
    assert base not in others
    assert len(others) == 4
    assert 0 <= base < 2**64


def test_stream_seed_rejects_deltas_without_a_stream_of_their_own():
    zero = stream_seed(0, 100, 0.0, 0)
    # delta * 1e6 overflows float64 above about 1.8e302
    for delta in (1e-7, 4e-7, 5e-7, float("nan"), float("inf"), 1e303):
        with pytest.raises(DomainError):
            stream_seed(0, 100, delta, 0)
        with pytest.raises(DomainError):
            stream_seed(0, 100, delta, [0, 1])
    assert stream_seed(0, 100, 6e-7, 0) != zero


def test_stream_seed_pinned():
    # low 8 bytes, little-endian, of SHA-256("tikhreg:0:1000:10000:0")
    assert stream_seed(0, 1000, 0.01, 0) == 8696528686600633650


def test_stream_seed_batch_equals_one_rep_calls():
    reps = [0, 63, 64, 10**6]
    assert stream_seed(7, 500, 0.01, reps) == [stream_seed(7, 500, 0.01, r) for r in reps]
    assert stream_seed(7, 500, 0.01, range(60, 70)) == [
        stream_seed(7, 500, 0.01, r) for r in range(60, 70)]
    assert stream_seed(0, 1000, 0.01, [0]) == [8696528686600633650]
    assert stream_seed(7, 500, 0.01, []) == []


def test_fredholm_size_cap_before_allocation():
    # n = 10**6 would need an 8 TB matrix, so only a check made before the
    # allocation can turn it into SizeCap
    with pytest.raises(SizeCap):
        build_fredholm(10**6)


def test_add_noise_zero_delta(fred100):
    # bytes, not np.array_equal, which holds -0.0 equal to 0.0
    data = add_noise(fred100, 0.0, 3)
    assert data.sigma == 0.0
    assert data.b.tobytes() == fred100.y.tobytes()
    # the draw runs at delta = 0 too, so standard_normal checks the seed
    for seed in (-1, 2**64):
        with pytest.raises(DomainError, match="64-bit"):
            add_noise(fred100, 0.0, seed)


def test_add_noise_sigma_formula(fred100):
    data = add_noise(fred100, 0.1, 3)
    want = 0.1 * np.linalg.norm(fred100.y) / np.sqrt(fred100.n)
    assert data.sigma == pytest.approx(want, rel=1e-15)


def test_add_noise_uses_declared_stream(fred100):
    data = add_noise(fred100, 0.05, 17)
    z = standard_normal(17, fred100.n)
    assert np.allclose((data.b - fred100.y) / data.sigma, z, rtol=0, atol=1e-12)


def test_add_noise_reproducible(fred100):
    assert np.array_equal(add_noise(fred100, 0.02, 8).b, add_noise(fred100, 0.02, 8).b)


def test_noise_spec_validation(fred20):
    # delta (through noise_sigma) and the seed range; at delta = 0 no draw
    # runs, so only add_noise's own check can reject the seed there
    for delta in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="delta must be finite and >= 0"):
            add_noise(fred20, delta, 0)
        with pytest.raises(DomainError, match="delta must be finite and >= 0"):
            noise_sigma(fred20, delta)
    for delta in (0.0, 0.1):
        for seed in (-1, 2**64):
            with pytest.raises(DomainError, match="seed"):
                add_noise(fred20, delta, seed)


def test_prob_roundtrip_identity_weight(tmp_path, fred20):
    path = tmp_path / "f.prob"
    save_problem(fred20, str(path))
    back = load_problem(str(path))
    assert back.n == fred20.n
    assert back.label == fred20.label
    assert back.w is None
    assert back.a is None          # the stored A is the kernel fill, so it is dropped
    assert np.array_equal(back.dense_a(), fred20.dense_a())
    assert np.array_equal(back.x_star, fred20.x_star)
    assert np.array_equal(back.y, fred20.y)


def test_prob_roundtrip_explicit_weight(tmp_path, rng):
    n = 9
    l = rng.standard_normal((n, n)) / 3.0
    w = l @ l.T + np.eye(n)
    a = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    inst = ProblemInstance(n=n, a=a, x_star=x, y=a @ x, w=w, label="custom")
    path = tmp_path / "c.prob"
    save_problem(inst, str(path))
    back = load_problem(str(path))
    assert np.array_equal(back.w, inst.w)
    assert np.array_equal(back.w_chol, inst.w_chol)
    assert np.array_equal(back.dense_a(), a)


def test_prob_rejects_garbage(tmp_path):
    path = tmp_path / "junk.prob"
    header = b'{"format": "nope"}'
    path.write_bytes(len(header).to_bytes(8, "little") + header + b"x" * 32)
    with pytest.raises(DomainError):
        load_problem(str(path))


def test_noise_sigma_is_add_noise_sigma(fred100):
    data = add_noise(fred100, 0.1, 3)
    assert noise_sigma(fred100, 0.1) == data.sigma


@pytest.fixture(scope="module")
def saved_blobs(tmp_path_factory):
    """Bytes of a small saved instance, with identity and with explicit weight."""
    inst = build_fredholm(6)
    weighted = ProblemInstance(n=inst.n, a=inst.dense_a(), x_star=inst.x_star, y=inst.y,
                               w=2.0 * np.eye(inst.n), label="w")
    blobs = []
    for each in (inst, weighted):
        path = tmp_path_factory.mktemp("prob") / "whole.prob"
        save_problem(each, str(path))
        blobs.append(path.read_bytes())
    return blobs


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_prob_raises_domain_error(tmp_path_factory, saved_blobs, data):
    blob = data.draw(st.sampled_from(saved_blobs))
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = tmp_path_factory.mktemp("cut") / "cut.prob"
    path.write_bytes(blob[:cut])
    with pytest.raises(DomainError):
        load_problem(str(path))


@pytest.mark.parametrize("blob", [
    b"1234567",                                            # shorter than the length field
    (2**62).to_bytes(8, "little") + b"{}",                 # header length past the end
    (4).to_bytes(8, "little") + b"\xff\xfe\xfd\xfc",       # header is not UTF-8
    (4).to_bytes(8, "little") + b"{no}",                   # header is not JSON
    (2).to_bytes(8, "little") + b"[]",                     # header is not an object
], ids=["short", "hlen-past-end", "not-utf8", "not-json", "not-object"])
def test_malformed_prob_header_raises_domain_error(tmp_path, blob):
    path = tmp_path / "bad.prob"
    path.write_bytes(blob)
    with pytest.raises(DomainError):
        load_problem(str(path))


def test_prob_with_trailing_bytes_rejected(tmp_path, fred20):
    path = tmp_path / "f.prob"
    save_problem(fred20, str(path))
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(DomainError):
        load_problem(str(path))


@pytest.mark.parametrize("field,index", [
    ("a", (3, 5)), ("x_star", 2), ("y", 0), ("w", (1, 1)),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prob_with_nonfinite_entry_rejected(tmp_path, field, index, bad):
    fred = build_fredholm(8)
    inst = ProblemInstance(n=8, a=fred.dense_a(), x_star=fred.x_star.copy(), y=fred.y.copy(),
                           w=2.0 * np.eye(8), label="bad")
    # the instance rejects a non-finite W, so the bad entry goes into its checked copy
    getattr(inst, field)[index] = bad
    path = tmp_path / "bad.prob"
    save_problem(inst, str(path))
    with pytest.raises(DomainError, match="non-finite"):
        load_problem(str(path))


def _rewrite_header(path, edit):
    """Replace the JSON header of a saved .prob by edit(header), arrays untouched."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    header = edit(json.loads(blob[8:8 + hlen]))
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(len(new).to_bytes(8, "little") + new + blob[8 + hlen:])


@pytest.mark.parametrize("edit, match", [
    (lambda h: {**h, "version": 2}, "unsupported .prob version 2"),
    (lambda h: {**h, "w_kind": "diag"}, "w_kind='diag'"),
    (lambda h: {**h, "n": 4.0}, "n=4.0"),
    (lambda h: {**h, "label": 3}, "label=3"),
    (lambda h: {**h, "n": True}, r"bad \.prob header \(n=True,"),
    (lambda h: {**h, "n": "4"}, r"bad \.prob header \(n='4',"),
    (lambda h: {**h, "n": -1}, r"bad \.prob header \(n=-1,"),
    (lambda h: {**h, "w_kind": None}, r"bad \.prob header \(.*w_kind=None,"),
    (lambda h: {**h, "w_kind": 3}, r"bad \.prob header \(.*w_kind=3,"),
    (lambda h: {**h, "w_kind": ["identity"]}, r"bad \.prob header \(.*w_kind=\['identity'\],"),
    (lambda h: {**h, "label": None}, r"bad \.prob header \(.*label=None\)"),
    (lambda h: {**h, "label": ["f"]}, r"bad \.prob header \(.*label=\['f'\]\)"),
], ids=["version-2", "w-kind-diag", "n-float", "label-int", "n-bool", "n-str", "n-negative",
        "w-kind-null", "w-kind-int", "w-kind-list", "label-null", "label-list"])
def test_prob_header_out_of_spec_raises_domain_error(tmp_path, fred20, edit, match):
    path = tmp_path / "f.prob"
    save_problem(fred20, str(path))
    _rewrite_header(path, edit)
    with pytest.raises(DomainError, match=match):
        load_problem(str(path))


@pytest.mark.parametrize("n", [40001, 2**70], ids=["n-above-cap", "n-huge"])
def test_prob_header_n_above_the_size_cap_raises_size_cap(tmp_path, fred20, n):
    # the file holds n = 20's arrays, so the file-size check would refuse it
    # too; the cap is checked first, whatever the file holds
    path = tmp_path / "f.prob"
    save_problem(fred20, str(path))
    _rewrite_header(path, lambda h: {**h, "n": n})
    with pytest.raises(SizeCap, match=f"header n {n} exceeds the 40000 cap"):
        load_problem(str(path))


def _edit_a(path, n, edits):
    """Replace entries of a saved .prob's A in place: edits maps (row, col) to f(old entry)."""
    blob = bytearray(path.read_bytes())
    start = 8 + int.from_bytes(blob[:8], "little")
    for (row, col), f in edits.items():
        offset = start + 8 * (row * n + col)
        entry = np.frombuffer(bytes(blob[offset:offset + 8]), dtype="<f8")[0]
        blob[offset:offset + 8] = np.array([f(entry)], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))


def _one_ulp_up(entry):
    return np.nextafter(entry, np.inf)


def test_blur_carries_its_kronecker_factor():
    inst = build_blur(6, 1.5)
    assert inst.kron_factor.shape == (6, 6)
    assert np.array_equal(inst.dense_a(), np.kron(inst.kron_factor, inst.kron_factor))


def _free_bytes(monkeypatch, free):
    # the directory of any path reports `free` bytes free
    usage = shutil.disk_usage(".")
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=free))


def _weighted_fredholm(n):
    return dataclasses.replace(build_fredholm(n), w=np.diag(np.linspace(1.0, 2.0, n)))


@pytest.mark.parametrize("make, size", [
    (build_fredholm, 20), (lambda side: build_blur(side, 1.0), 5), (_weighted_fredholm, 6),
], ids=["fredholm", "blur", "explicit-w"])
def test_save_problem_needs_the_whole_file_free_on_disk(make, size, tmp_path, monkeypatch):
    inst = make(size)
    save_problem(inst, str(tmp_path / "room.prob"))
    nbytes = (tmp_path / "room.prob").stat().st_size
    _free_bytes(monkeypatch, nbytes - 1)
    with pytest.raises(SizeCap, match=f"{nbytes} bytes"):
        save_problem(inst, str(tmp_path / "full.prob"))
    assert not (tmp_path / "full.prob").exists()
    _free_bytes(monkeypatch, nbytes)
    save_problem(inst, str(tmp_path / "fits.prob"))
    assert (tmp_path / "fits.prob").read_bytes() == (tmp_path / "room.prob").read_bytes()


def _assert_bit_identical(dec, dec_back):
    # rho and every field of both implicit bases, bit for bit
    assert np.array_equal(dec_back.rho, dec.rho)
    for basis, basis_back in [(dec.psi, dec_back.psi), (dec.a_psi, dec_back.a_psi)]:
        assert type(basis_back) is type(basis)
        assert not isinstance(basis, np.ndarray)
        assert vars(basis_back).keys() == vars(basis).keys()
        for field, value in vars(basis).items():
            assert np.array_equal(getattr(basis_back, field), value)


def test_prob_roundtrip_keeps_kronecker_factor(tmp_path):
    inst = build_blur(10, 2.0)
    path = tmp_path / "b.prob"
    save_problem(inst, str(path))
    back = load_problem(str(path))
    assert np.array_equal(back.kron_factor, inst.kron_factor)
    assert back.a is None
    assert np.array_equal(back.dense_a(), inst.dense_a())
    _assert_bit_identical(decompose(inst), decompose(back))


def test_prob_arrays_unchanged_by_kronecker_header(tmp_path):
    inst = build_blur(8, 2.0)
    with_key, without_key = tmp_path / "k.prob", tmp_path / "d.prob"
    save_problem(inst, str(with_key))
    save_problem(dataclasses.replace(inst, kron_factor=None, a=inst.dense_a()), str(without_key))
    blob_k, blob_d = with_key.read_bytes(), without_key.read_bytes()
    arrays = 8 * (inst.n * inst.n + 2 * inst.n)
    assert blob_k[-arrays:] == blob_d[-arrays:]
    assert len(blob_k) - len(blob_d) == (int.from_bytes(blob_k[:8], "little")
                                         - int.from_bytes(blob_d[:8], "little"))


def test_prob_without_kronecker_key_loads_on_dense_route(tmp_path):
    inst = build_blur(8, 2.0)
    path = tmp_path / "old.prob"
    save_problem(dataclasses.replace(inst, kron_factor=None, a=inst.dense_a()), str(path))
    back = load_problem(str(path))
    assert back.kron_factor is None
    assert np.array_equal(back.dense_a(), inst.dense_a())


def test_prob_a_one_ulp_off_its_kronecker_factor_rejected(tmp_path):
    inst = build_blur(8, 2.0)
    path = tmp_path / "off.prob"
    save_problem(inst, str(path))
    _edit_a(path, inst.n, {(3, 5): _one_ulp_up})
    with pytest.raises(DomainError, match="kron"):
        load_problem(str(path))


def _negative_zero(entry):
    assert entry == 0.0 and not np.signbit(entry)
    return -0.0


def test_prob_a_with_a_zero_of_the_wrong_sign_off_its_kronecker_factor_rejected(tmp_path):
    # -0.0 == +0.0, so only a comparison of bit patterns sees this flip; T
    # holds hundreds of zeros at this width
    inst = build_blur(32, 0.3)
    row, col = np.argwhere(inst.dense_a() == 0.0)[0]
    path = tmp_path / "signed.prob"
    save_problem(inst, str(path))
    _edit_a(path, inst.n, {(row, col): _negative_zero})
    with pytest.raises(DomainError, match="kron"):
        load_problem(str(path))


def test_instance_a_not_kronecker_of_its_factor_rejected():
    # an instance holds an explicit A or a factor, never both, even when the
    # A is kron(T, T) itself; a file's A is checked against its factor by
    # load_problem (test_prob_a_one_ulp_off_its_kronecker_factor_rejected)
    inst = build_blur(6, 1.5)
    for a in (inst.dense_a(), inst.dense_a() + 1e-3):
        with pytest.raises(DomainError, match="not both"):
            dataclasses.replace(inst, a=a)


@pytest.mark.parametrize("factor", [
    lambda t: t[:-1],                  # not square
    lambda t: t[:-1, :-1],             # square, but side^2 != n
    lambda t: t.ravel(),               # not a matrix
    lambda t: t[:1, :1].reshape((1,) * 40),   # deeper than 32 dimensions
])
def test_wrongly_shaped_kronecker_factor_rejected(tmp_path, factor):
    inst = build_blur(6, 1.5)
    bad = factor(inst.kron_factor)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(inst, kron_factor=bad)
    path = tmp_path / "shape.prob"
    save_problem(inst, str(path))
    _rewrite_header(path, lambda h: {**h, "kron_factor": bad.tolist()})
    with pytest.raises(DimensionMismatch):
        load_problem(str(path))


# the identity (exp(-d^2 / 2e-4) = 0 for d >= 1), with entries of any kind
_I4 = build_blur(4, 0.01).kron_factor.astype(object)


@pytest.mark.parametrize("value", [
    [[1.0, 2.0], [3.0]], "T", {"rows": 2}, "1.5",
    json.loads("[" * 70 + "1.0" + "]" * 70),     # deeper than numpy's 64 dimensions
    *(_with_entry(_I4, index, v).tolist()
      for index, v in [((1, 1), "1.0"), ((0, 0), True), ((1, 2), None), ((1, 2), [0.0])]),
])
def test_prob_kronecker_factor_not_a_matrix_rejected(tmp_path, value):
    # "1.0", or a true where T holds 1.0, reads as that very entry once
    # parsed, so only a check of each entry by kind refuses them
    path = tmp_path / "junk.prob"
    save_problem(build_blur(4, 0.01), str(path))
    _rewrite_header(path, lambda h: {**h, "kron_factor": value})
    with pytest.raises(DomainError):
        load_problem(str(path))


def test_prob_a_one_ulp_off_the_kernel_fill_takes_dense_route(tmp_path):
    inst = build_fredholm(8)
    path = tmp_path / "off.prob"
    save_problem(inst, str(path))
    _edit_a(path, inst.n, {(3, 5): _one_ulp_up})
    back = load_problem(str(path))
    dec, reference = decompose(back), _dense_decompose(back)
    for field in ("rho", "psi", "a_psi"):
        assert np.array_equal(getattr(dec, field), getattr(reference, field))


def test_prob_a_with_a_zero_of_the_wrong_sign_off_the_kernel_fill_takes_dense_route(tmp_path):
    # row 0 of the kernel fill (the node t = 0) is all +0.0
    n = 40
    path = tmp_path / "signed.prob"
    save_problem(build_fredholm(n), str(path))
    _edit_a(path, n, {(0, n // 3): _negative_zero})
    back = load_problem(str(path))
    assert back.a is not None           # the dense route
    assert np.signbit(back.a[0, n // 3]) and np.array_equal(back.a, build_fredholm(n).dense_a())


@pytest.mark.parametrize("where", ["first-block", "middle-block", "last-row"])
def test_prob_a_leaving_the_kernel_fill_in_any_block_loads_bit_for_bit(tmp_path, where):
    # A is streamed a row block at a time; the dense A is assembled from the
    # blocks before the first one that differs, that block and the rest of the file
    n = 600
    starts = [lo for lo, _, _ in _row_blocks(n)]
    assert len(starts) >= 3
    row = {"first-block": 0, "middle-block": starts[len(starts) // 2] + 1,
           "last-row": n - 1}[where]
    path = tmp_path / "late.prob"
    save_problem(build_fredholm(n), str(path))
    _edit_a(path, n, {(row, n // 3): _one_ulp_up})
    blob = path.read_bytes()
    stored = blob[8 + int.from_bytes(blob[:8], "little"):][:8 * n * n]
    back = load_problem(str(path))
    assert back.a is not None           # the dense route
    assert back.a.astype("<f8").tobytes() == stored


def test_a_kronecker_row_block_holds_about_a_megabyte_whatever_the_side():
    # about 1 MB, not s rows (s^3 entries, 8 MB at side 100); only the first
    # block is drawn
    t = build_blur(100, 2.0).kron_factor
    lo, hi, rows = next(_row_blocks(10000, t))
    assert lo == 0 and rows.shape == (hi, 10000)
    assert rows.size <= max(_BLOCK_ENTRIES, 10000)


@pytest.mark.parametrize("entries", [36 * 5, 36 * 7, 36 * 13, 1])
def test_kronecker_row_blocks_straddling_factor_rows_are_kron_bit_for_bit(monkeypatch, entries):
    # blocks of 5, 7 and 13 rows cross the boundaries between the 6-row
    # groups that share a row of T; one entry per block gives 1-row blocks
    monkeypatch.setattr("tikhreg.problems._BLOCK_ENTRIES", entries)
    t = build_blur(6, 1.5).kron_factor
    blocks = [(lo, hi, rows.copy()) for lo, hi, rows in _row_blocks(36, t)]
    assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
    assert blocks[-1][1] == 36 and len(blocks) > 1
    a = np.concatenate([rows for _, _, rows in blocks])
    assert a.view(np.uint64).tobytes() == np.kron(t, t).view(np.uint64).tobytes()


def _several_blocks(monkeypatch, inst):
    # a blur side-8 A (64 x 64) is one block of about 1 MB; blocks of 5 rows
    # spread it over 13, each straddling rows of T
    if inst.kron_factor is not None:
        monkeypatch.setattr("tikhreg.problems._BLOCK_ENTRIES", 5 * inst.n)
    assert len(list(_row_blocks(inst.n, inst.kron_factor))) > 1


def test_prob_a_one_ulp_off_its_kronecker_factor_in_the_last_block_rejected(tmp_path,
                                                                           monkeypatch):
    inst = build_blur(8, 2.0)
    _several_blocks(monkeypatch, inst)
    path = tmp_path / "off.prob"
    save_problem(inst, str(path))
    _edit_a(path, inst.n, {(inst.n - 1, inst.n - 2): _one_ulp_up})
    with pytest.raises(DomainError, match="kron"):
        load_problem(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build,earlier", [
    (lambda: build_blur(8, 2.0), None),
    (lambda: build_blur(8, 2.0), (3, 5)),          # A is not kron(T, T) before the bad block
    (lambda: build_fredholm(600), None),
    (lambda: build_fredholm(600), (0, 1)),         # A leaves the kernel fill in block 0
], ids=["blur", "blur-not-kron", "fredholm", "fredholm-dense"])
def test_prob_nonfinite_entry_in_the_last_block_of_a_rejected(tmp_path, monkeypatch, build,
                                                               earlier, bad):
    inst = build()
    _several_blocks(monkeypatch, inst)
    path = tmp_path / "bad.prob"
    save_problem(inst, str(path))
    edits = {(inst.n - 1, 2): lambda entry: bad}
    if earlier is not None:
        edits[earlier] = _one_ulp_up
    _edit_a(path, inst.n, edits)
    with pytest.raises(DomainError, match="non-finite"):
        load_problem(str(path))


def test_prob_roundtrip_gives_bit_identical_fredholm_decomposition(tmp_path, monkeypatch):
    inst = build_fredholm(40)
    path = tmp_path / "f.prob"
    save_problem(inst, str(path))
    back = load_problem(str(path))

    def no_factorization(*args, **kwargs):
        raise AssertionError("the sine route factors nothing")

    monkeypatch.setattr(np.linalg, "svd", no_factorization)
    _assert_bit_identical(decompose(inst), decompose(back))


@pytest.mark.parametrize("psf_width", [np.inf, np.nan, 1e200, 1e-200])
def test_blur_rejects_a_psf_width_that_is_not_finite(psf_width):
    # 1e200 and 1e-200 are finite, but 2 psf_width^2 over- or underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="psf_width"):
            build_blur(8, psf_width)


def _traced_peak(fn):
    """Peak bytes tracemalloc sees while fn() runs, and fn's result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_built_fredholm_instance_never_holds_its_dense_a():
    # the build, the decomposition and a solve together take O(n) memory:
    # fewer than 64 length-n vectors, where one n x n array is 4000 of them
    def run():
        inst = build_fredholm(4000)
        spectral_solver(decompose(inst), inst, inst.y)(1e-6)

    assert _traced_peak(run)[0] < 64 * 8 * 4000


def test_built_blur_instance_never_holds_its_dense_a():
    # the build, the decomposition and a solve each stay well below one n x n
    # array (104 MB at side 60)
    dense = 8 * (60 * 60) ** 2
    build_peak, inst = _traced_peak(lambda: build_blur(60, 2.0))
    solve_peak, _ = _traced_peak(lambda: spectral_solver(decompose(inst), inst, inst.y)(1e-6))
    assert build_peak < dense / 100
    assert solve_peak < dense / 10


@pytest.mark.parametrize("build", [lambda: build_fredholm(4000), lambda: build_blur(60, 2.0)],
                         ids=["fredholm", "blur"])
def test_replacing_a_field_of_a_built_instance_builds_no_dense_a(build):
    inst = build()
    peak, copy = _traced_peak(lambda: dataclasses.replace(inst, label="x"))
    assert copy.a is None
    assert peak < 64 * 8 * inst.n


@pytest.mark.parametrize("build", [lambda: build_fredholm(2000), lambda: build_blur(48, 2.0)],
                         ids=["fredholm", "blur"])
def test_save_problem_writes_a_structured_a_without_assembling_it(tmp_path, build):
    # the file holds the whole A, written one block of rows at a time
    inst = build()
    path = tmp_path / "s.prob"
    peak, _ = _traced_peak(lambda: save_problem(inst, str(path)))
    assert peak < 8 * inst.n**2 / 4
    assert np.array_equal(load_problem(str(path)).dense_a(), inst.dense_a())


@pytest.mark.parametrize("build", [lambda: build_fredholm(2000), lambda: build_blur(48, 2.0)],
                         ids=["fredholm", "blur"])
def test_load_problem_reads_a_structured_a_without_holding_it(tmp_path, build):
    # the file holds the whole A, streamed through one row block and compared
    # with the structure as it is read
    inst = build()
    path = tmp_path / "s.prob"
    save_problem(inst, str(path))
    peak, back = _traced_peak(lambda: load_problem(str(path)))
    assert peak < 8 * inst.n**2 / 4
    assert back.a is None


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 513, 2000])
def test_fredholm_y_from_prefix_sums_is_the_dense_product(n):
    inst = build_fredholm(n)
    want = inst.dense_a() @ inst.x_star
    assert np.linalg.norm(inst.y - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("side", [4, 5, 20, 48])
def test_blur_y_from_the_factor_is_the_dense_product(side):
    inst = build_blur(side, 2.0)
    want = inst.dense_a() @ inst.x_star
    assert np.linalg.norm(inst.y - want) <= 1e-14 * np.linalg.norm(want)


def test_builds_read_no_row_block(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("the build read a block of the dense A")

    monkeypatch.setattr("tikhreg.problems._row_blocks", no_blocks)
    build_fredholm(300)
    build_blur(20, 2.0)


def test_decompose_of_a_built_fredholm_instance_fills_no_kernel(monkeypatch):
    inst = build_fredholm(300)

    def no_fill(*args):
        raise AssertionError("decompose filled the kernel")

    # the row-block fill evaluates the kernel here
    monkeypatch.setattr("tikhreg.problems._kernel", no_fill)
    assert decompose(inst).m == 298
