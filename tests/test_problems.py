import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    DimensionMismatch,
    DomainError,
    NoiseSpec,
    ProblemInstance,
    SizeCap,
    WeightSpec,
    add_noise,
    build_blur,
    build_fredholm,
    greens_kernel,
    load_problem,
    noise_sigma,
    save_problem,
    standard_normal,
    stream_seed,
)

# continuum value of n^{-1/2} ||A x*||, used as the sigma oracle
SCALED_Y = 4.7117e-3


def test_kernel_pointwise():
    assert greens_kernel(0.5, 0.25) == pytest.approx(0.125)
    assert greens_kernel(0.0, 0.7) == 0.0


def test_kernel_symmetric():
    assert greens_kernel(0.3, 0.8) == pytest.approx(greens_kernel(0.8, 0.3))


def test_kernel_domain_checked():
    with pytest.raises(DomainError):
        greens_kernel(1.2, 0.5)
    with pytest.raises(DomainError):
        greens_kernel(0.5, -0.1)


def test_kernel_broadcasts():
    t = np.linspace(0.0, 1.0, 5)[:, None]
    s = np.linspace(0.0, 1.0, 4)[None, :]
    k = greens_kernel(t, s)
    assert k.shape == (5, 4)
    assert np.all(k >= 0.0)


def test_fredholm_first_row_is_zero():
    # t_1 = 0 and kappa(0, s) = 0
    inst = build_fredholm(2)
    assert inst.a[0, 0] == 0.0
    assert np.all(inst.a[0] == 0.0)


def test_fredholm_x_star_at_quarter_point():
    # first midpoint of n = 2 sits at t = 1/4
    inst = build_fredholm(2)
    assert inst.x_star[0] == pytest.approx(-0.123046875, abs=1e-15)


def test_fredholm_consistency():
    inst = build_fredholm(64)
    assert inst.n == 64
    assert inst.a.shape == (64, 64)
    assert inst.w.kind == "identity"
    assert inst.label == "fredholm"
    assert np.allclose(inst.y, inst.a @ inst.x_star, rtol=0, atol=1e-15)


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
        ProblemInstance(n=3, a=np.eye(2), x_star=x, y=x, w=WeightSpec.identity(), label="t")
    with pytest.raises(DimensionMismatch):
        ProblemInstance(n=3, a=a, x_star=np.zeros(2), y=x, w=WeightSpec.identity(), label="t")


def test_blur_row_sums_and_exact_data():
    inst = build_blur(8, 2.0)
    assert inst.n == 64
    assert inst.label == "blur"
    assert np.all(inst.a.sum(axis=1) <= 1.0 + 1e-12)
    assert np.linalg.norm(inst.y - inst.a @ inst.x_star) <= 1e-12


def test_blur_narrow_psf_is_near_identity():
    inst = build_blur(10, 1e-3)
    assert np.all(np.diag(inst.a) >= 0.99)


def test_blur_size_limits():
    with pytest.raises(DomainError):
        build_blur(3, 1.0)
    with pytest.raises(SizeCap):
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


def test_add_noise_zero_delta(fred100):
    data = add_noise(fred100, NoiseSpec(delta=0.0, seed=3))
    assert data.sigma == 0.0
    assert np.array_equal(data.b, fred100.y)


def test_add_noise_sigma_formula(fred100):
    data = add_noise(fred100, NoiseSpec(delta=0.1, seed=3))
    want = 0.1 * np.linalg.norm(fred100.y) / np.sqrt(fred100.n)
    assert data.sigma == pytest.approx(want, rel=1e-15)


def test_add_noise_uses_declared_stream(fred100):
    data = add_noise(fred100, NoiseSpec(delta=0.05, seed=17))
    z = standard_normal(17, fred100.n)
    assert np.allclose((data.b - fred100.y) / data.sigma, z, rtol=0, atol=1e-12)


def test_add_noise_reproducible(fred100):
    spec = NoiseSpec(delta=0.02, seed=8)
    assert np.array_equal(add_noise(fred100, spec).b, add_noise(fred100, spec).b)


def test_noise_spec_validation():
    with pytest.raises(DomainError):
        NoiseSpec(delta=-0.1, seed=0)
    with pytest.raises(DomainError):
        NoiseSpec(delta=0.1, seed=-1)
    with pytest.raises(DomainError):
        NoiseSpec(delta=0.1, seed=2**64)


def test_prob_roundtrip_identity_weight(tmp_path, fred20):
    path = tmp_path / "f.prob"
    save_problem(fred20, str(path))
    back = load_problem(str(path))
    assert back.n == fred20.n
    assert back.label == fred20.label
    assert back.w.kind == "identity"
    assert np.array_equal(back.a, fred20.a)
    assert np.array_equal(back.x_star, fred20.x_star)
    assert np.array_equal(back.y, fred20.y)


def test_prob_roundtrip_explicit_weight(tmp_path, rng):
    n = 9
    l = rng.standard_normal((n, n)) / 3.0
    w = WeightSpec.explicit(l @ l.T + np.eye(n))
    a = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    inst = ProblemInstance(n=n, a=a, x_star=x, y=a @ x, w=w, label="custom")
    path = tmp_path / "c.prob"
    save_problem(inst, str(path))
    back = load_problem(str(path))
    assert back.w.kind == "explicit"
    assert np.array_equal(back.w.matrix, inst.w.matrix)
    assert np.array_equal(back.a, a)


def test_prob_rejects_garbage(tmp_path):
    path = tmp_path / "junk.prob"
    header = b'{"format": "nope"}'
    path.write_bytes(len(header).to_bytes(8, "little") + header + b"x" * 32)
    with pytest.raises(DomainError):
        load_problem(str(path))


def test_noise_sigma_is_add_noise_sigma(fred100):
    data = add_noise(fred100, NoiseSpec(delta=0.1, seed=3))
    assert noise_sigma(fred100, 0.1) == data.sigma


@pytest.fixture(scope="module")
def saved_blobs(tmp_path_factory):
    """Bytes of a small saved instance, with identity and with explicit weight."""
    inst = build_fredholm(6)
    weighted = ProblemInstance(n=inst.n, a=inst.a, x_star=inst.x_star, y=inst.y,
                               w=WeightSpec.explicit(2.0 * np.eye(inst.n)), label="w")
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
