"""The guide-table sampler against ``Generator.choice``, bit for bit.

``PopularitySampler(w).draw(count, rng)`` must return
``rng.choice(len(w), size=count, p=w / w.sum())`` exactly (same ids, same
dtype) and leave ``rng`` in the same state, on any finite non-negative
weights.  The bracket-and-search step is held to ``cdf.searchsorted(u,
"right")`` on its own, at the uniforms where it could go wrong: bucket
edges and the cdf values themselves.  Digests pin every stream built on
the sampler; they were recorded with the ``choice`` calls it replaced.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.units import DAY
from repro.workload import (
    ChunkedDiurnalStream,
    ChunkedMixedStream,
    ChunkedNerscStream,
    ChunkedPoissonStream,
    MixedWorkloadParams,
    NerscTraceParams,
    SyntheticWorkloadParams,
    diurnal_rate,
    generate_mixed_workload,
    generate_mixed_workload_chunked,
    generate_workload,
    nonhomogeneous_stream,
    sample_file_ids,
    synthesize_nersc_trace,
)
from repro.workload.sampling import (
    PopularitySampler,
    _table_bits,
    guide_table,
    guided_search,
)
from repro.workload.zipf import PAPER_THETA, zipf_popularities

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


def _assert_twin(weights, count, seed):
    ours_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    ours = PopularitySampler(weights).draw(count, ours_rng)
    ref = ref_rng.choice(len(weights), size=count, p=weights / weights.sum())
    assert ours.dtype == ref.dtype == np.int64
    np.testing.assert_array_equal(ours, ref)
    np.testing.assert_array_equal(ours_rng.random(4), ref_rng.random(4))


def _shaped_weights(n, shape, seed, zero_frac, lead, trail):
    """``n`` weights of one of several awkward shapes, with zero runs."""
    rng = np.random.default_rng(seed)
    if shape == "power":
        w = rng.random(n) ** rng.uniform(0.1, 8.0)
    elif shape == "spread":
        w = 10.0 ** rng.uniform(-300.0, 300.0, size=n)
    elif shape == "subnormal":
        w = TINY * rng.integers(1, 1 << 20, size=n)
    elif shape == "zipf":
        w = zipf_popularities(n, rng.uniform(0.0, 1.0))
    else:
        w = np.ones(n)
    w[rng.random(n) < zero_frac] = 0.0
    w[:lead] = 0.0
    w[n - trail:] = 0.0
    return w


@settings(max_examples=300, deadline=None)
@given(
    weights=hnp.arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.one_of(
            st.just(0.0),
            st.floats(0.0, 1e300, allow_subnormal=True),
            st.floats(0.0, 1e-300, allow_subnormal=True),
        ),
    ),
    count=st.integers(0, 3_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_twin_on_any_weights(weights, count, seed):
    assume(weights.sum() > 0)
    _assert_twin(weights, count, seed)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.one_of(st.integers(1, 300), st.integers(1, 50_000)),
    shape=st.sampled_from(["power", "spread", "subnormal", "zipf", "flat"]),
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    lead=st.integers(0, 5),
    trail=st.integers(0, 5),
    count=st.one_of(st.integers(0, 10), st.integers(0, 200_000)),
)
def test_twin_on_shaped_weights(n, shape, seed, zero_frac, lead, trail, count):
    w = _shaped_weights(n, shape, seed, zero_frac, lead, trail)
    assume(w.sum() > 0)
    _assert_twin(w, count, seed)


@pytest.mark.parametrize(
    "weights",
    [
        [1.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [TINY],
        [TINY, 0.0, TINY],
        [1e300, 1e-300, TINY],
        [1.0, 1.0, 2.0],
    ],
)
@pytest.mark.parametrize("count", [0, 1, 7, 10_000])
def test_twin_on_fixed_weights(weights, count):
    _assert_twin(np.array(weights), count, 12345)


def test_twin_on_canonical_draws():
    """The 320k draws of the canonical 8k-file Zipf catalog."""
    _assert_twin(zipf_popularities(8_000, PAPER_THETA), 320_467, 0)


def test_repeated_draws_reuse_the_table():
    """Later draws read the table sized by the first, as a chunked
    stream does, and still match one ``choice`` call each."""
    w = zipf_popularities(2_000, PAPER_THETA)
    sampler = PopularitySampler(w)
    ours_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for count in (50, 0, 40_000, 1, 3_000):
        np.testing.assert_array_equal(
            sampler.draw(count, ours_rng),
            ref_rng.choice(w.size, size=count, p=w / w.sum()),
        )
    assert ours_rng.random() == ref_rng.random()


def _cdf(weights):
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _hard_uniforms(cdf, bits):
    """Every bucket edge and every cdf value, each with its neighbours."""
    edges = np.arange((1 << bits) + 1) / (1 << bits)
    u = np.concatenate([edges, cdf])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
    return np.clip(u, 0.0, 1.0)


def _assert_search(cdf, bits, u):
    got = guided_search(cdf, guide_table(cdf, bits), u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, cdf.searchsorted(u, "right"))


def test_search_on_bucket_edges():
    """``[1, 1, 2]`` puts cdf steps exactly on the edges of four buckets:
    ``u = 0.25`` equals ``cdf[0]`` and the edge of bucket 1."""
    cdf = _cdf([1.0, 1.0, 2.0])
    np.testing.assert_array_equal(cdf, [0.25, 0.5, 1.0])
    for bits in range(6):
        _assert_search(cdf, bits, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        _assert_search(cdf, bits, _hard_uniforms(cdf, bits))
    table = guide_table(cdf, 2)
    np.testing.assert_array_equal(table, [-1, -1, 2, -1, 3])


@settings(max_examples=200, deadline=None)
@given(
    weights=hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.one_of(
            st.just(0.0),
            st.sampled_from([1.0, 2.0, 3.0, 0.5, TINY]),
            st.floats(0.0, 1e6, allow_subnormal=True),
        ),
    ),
    bits=st.integers(0, 12),
)
def test_search_on_hard_uniforms(weights, bits):
    assume(weights.sum() > 0)
    cdf = _cdf(weights)
    _assert_search(cdf, bits, _hard_uniforms(cdf, bits))


def test_table_is_capped():
    assert _table_bits(10**7, 10**9) == 19
    assert _table_bits(8_000, 320_467) == 17
    assert _table_bits(1, 1) == 2
    assert _table_bits(5, 0) == 0


# --- bad weights: a typed error naming the fault, never a warning ---------


@pytest.mark.parametrize(
    "weights, match",
    [
        ([1.0, -1.0], "non-negative"),
        ([1.0, np.nan], "finite"),
        ([np.inf, 1.0], "finite"),
        ([0.0, 0.0], "sum to zero"),
        ([1e308, 1e308], "overflow"),
        ([[1.0, 2.0]], "1-D"),
        (1.0, "1-D"),
    ],
)
def test_bad_weights_raise_config_error(weights, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=match):
            PopularitySampler(weights)
        with pytest.raises(ConfigError, match=match):
            sample_file_ids(weights, 5, rng=0)


def test_empty_weights():
    rng = np.random.default_rng(0)
    out = sample_file_ids([], 0, rng=rng)
    assert out.dtype == np.int64 and out.size == 0
    with pytest.raises(ConfigError, match="empty"):
        sample_file_ids([], 1, rng=rng)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("count", [-1, 2.5, "3"])
def test_bad_count_raises_config_error(count):
    with pytest.raises(ConfigError, match="count"):
        PopularitySampler([1.0, 2.0]).draw(count, np.random.default_rng(0))


def test_chunked_streams_check_weights_up_front():
    with pytest.raises(ConfigError, match="sum to zero"):
        ChunkedPoissonStream(np.zeros(4), rate=1.0, duration=10.0, seed=0)
    with pytest.raises(ConfigError, match="finite"):
        ChunkedMixedStream(
            [1.0, np.nan], other_rate=1.0, rewrite_prob=0.0,
            new_times=[], first_new_id=2, duration=10.0, seed=0,
        )


# --- pinned streams --------------------------------------------------------


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _drain(stream):
    chunks = list(stream.iter_chunks())
    out = [np.concatenate([c.times for c in chunks]),
           np.concatenate([c.file_ids for c in chunks])]
    if chunks[0].kinds is not None:
        out.append(np.concatenate([c.kinds for c in chunks]))
    return out


def _base():
    return generate_workload(
        SyntheticWorkloadParams(
            n_files=2_000, arrival_rate=8.0, duration=2_000.0, seed=7
        )
    )


MIXED = MixedWorkloadParams(
    write_fraction=0.2, new_file_fraction=0.3, arrival_rate=8.0,
    duration=2_000.0, seed=11,
)
NERSC = NerscTraceParams(
    n_files=3_000, n_requests=9_000, duration=2 * DAY, seed=5
)


def _canonical():
    seed = int(np.random.SeedSequence(0).generate_state(2)[0])
    stream = generate_workload(
        SyntheticWorkloadParams(
            n_files=8_000, arrival_rate=8.0, duration=40_000.0, seed=seed
        )
    ).stream
    return stream.times, stream.file_ids


def _workload():
    w = _base()
    return (w.catalog.sizes, w.catalog.popularities, w.stream.times,
            w.stream.file_ids)


def _mixed():
    cat, s = generate_mixed_workload(_base().catalog, MIXED)
    return cat.sizes, cat.popularities, s.times, s.file_ids, s.kinds


def _diurnal():
    s = nonhomogeneous_stream(
        _base().catalog.popularities, diurnal_rate(1.0), 2.0, DAY / 4, rng=13
    )
    return s.times, s.file_ids


def _chunked_poisson():
    return _drain(ChunkedPoissonStream(
        _base().catalog.popularities, 8.0, 2_000.0, chunk_size=1_000, seed=3
    ))


def _chunked_diurnal():
    return _drain(ChunkedDiurnalStream(
        _base().catalog.popularities, diurnal_rate(1.0), 2.0, DAY / 4,
        chunk_size=4_000, seed=17,
    ))


def _chunked_mixed():
    cat, s = generate_mixed_workload_chunked(
        _base().catalog, MIXED, chunk_size=1_000
    )
    return [cat.sizes, cat.popularities, *_drain(s)]


def _chunked_nersc():
    s = ChunkedNerscStream(NERSC, chunk_size=1_000)
    return [s.catalog.sizes, s.catalog.popularities, *_drain(s)]


def _nersc():
    t = synthesize_nersc_trace(NERSC)
    return (t.catalog.sizes, t.catalog.popularities, t.stream.times,
            t.stream.file_ids)


PINNED = {
    _canonical: "a4af4286dab17031c22fb385ffe1479d3708f10c340951e9fac19c9ab3e031c5",
    _workload: "37668b12de94d617df5f8611f78894dd1979764a93c651743369b4bcb6cc4f24",
    _mixed: "d31a519c122f64d33b60fabb90b60ead3fa203ce36dd4298911487a0eb063eb1",
    _diurnal: "fadd927710551c5d030d0d10874565063eaf882b87bb576847f475a4fbf46923",
    _chunked_poisson: "d08502ef1a358b260e575e3b80cfcb53081d9ea73a259dd902fa3841626bd701",
    _chunked_diurnal: "77f2629b8581ef51f68331198e1a076042d88324c9b9b3a5dc846762ad5c306b",
    _chunked_mixed: "9b8ffe16f5e1094025a3e8f4d228c697f6600b51a1e32cd6deb3a6f77b4ef35b",
    _chunked_nersc: "46d0142d97548a3ed4f70e4664c51d0170ef362e5f473f4a7893f29e35b8badf",
    _nersc: "b4f6c79cea2a487062cb3bd5853f2c0381f0444fc553395de96b7149c4a66cab",
}


@pytest.mark.parametrize(
    "build", list(PINNED), ids=[f.__name__.lstrip("_") for f in PINNED]
)
def test_stream_digests_are_pinned(build):
    assert _digest(*build()) == PINNED[build]
