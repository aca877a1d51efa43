"""Trace-generator tests: determinism, structure, statistics, and the
pinned stream."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import bitops
from repro.workloads.generator import (
    StreamRandom,
    TraceGenerator,
    _bit_probabilities,
    _flip_table,
    _poisson,
    _zipf_cumulative,
)
from repro.workloads.profiles import WORKLOAD_NAMES, get_profile
from repro.workloads.trace import generate_trace


@pytest.fixture
def profile():
    return get_profile("mcf")


class TestDeterminism:
    def test_same_seed_same_trace(self, profile):
        a = TraceGenerator(profile, seed=7)
        b = TraceGenerator(profile, seed=7)
        for _ in range(50):
            ra, rb = a.next_write(), b.next_write()
            assert ra.address == rb.address
            assert ra.data == rb.data

    def test_different_seeds_differ(self, profile):
        a = TraceGenerator(profile, seed=1)
        b = TraceGenerator(profile, seed=2)
        assert any(
            a.next_write().data != b.next_write().data for _ in range(10)
        )

    def test_initial_lines_deterministic(self, profile):
        a = TraceGenerator(profile, seed=3).initial_lines()
        b = TraceGenerator(profile, seed=3).initial_lines()
        assert a == b


class TestStructure:
    def test_addresses_within_working_set(self, profile):
        gen = TraceGenerator(profile, seed=0)
        for rec in gen.writes(200):
            assert 0 <= rec.address < profile.working_set_lines

    def test_every_write_changes_its_line(self, profile):
        gen = TraceGenerator(profile, seed=0)
        previous = {a: d for a, d in gen.initial_lines().items()}
        for rec in gen.writes(200):
            assert rec.data != previous[rec.address]
            previous[rec.address] = rec.data

    def test_record_length(self, profile):
        gen = TraceGenerator(profile, seed=0, line_bytes=64)
        assert all(len(r.data) == 64 for r in gen.writes(20))

    def test_current_line_tracks_ground_truth(self, profile):
        gen = TraceGenerator(profile, seed=0)
        rec = gen.next_write()
        assert gen.current_line(rec.address) == rec.data

    def test_writes_generated_counter(self, profile):
        gen = TraceGenerator(profile, seed=0)
        list(gen.writes(17))
        assert gen.writes_generated == 17


class TestWorkloadCharacter:
    def test_dense_profile_touches_every_word(self):
        gems = get_profile("Gems")
        gen = TraceGenerator(gems, seed=0)
        prev = dict(gen.initial_lines())
        for rec in gen.writes(30):
            changed = bitops.changed_words(prev[rec.address], rec.data, 2)
            assert len(changed) == 32
            prev[rec.address] = rec.data

    def test_sparse_profile_touches_few_words(self):
        libq = get_profile("libq")
        gen = TraceGenerator(libq, seed=0)
        prev = dict(gen.initial_lines())
        counts = []
        for rec in gen.writes(100):
            counts.append(
                len(bitops.changed_words(prev[rec.address], rec.data, 2))
            )
            prev[rec.address] = rec.data
        assert sum(counts) / len(counts) < 4

    def test_footprints_are_stable(self):
        """Writes to one line keep hitting the same word positions."""
        profile = replace(get_profile("mcf"), working_set_lines=4)
        gen = TraceGenerator(profile, seed=0)
        prev = dict(gen.initial_lines())
        touched: dict[int, set[int]] = {}
        for rec in gen.writes(300):
            words = bitops.changed_words(prev[rec.address], rec.data, 2)
            touched.setdefault(rec.address, set()).update(words)
            prev[rec.address] = rec.data
        for words in touched.values():
            # Far fewer distinct positions than 300 random draws would hit.
            assert len(words) <= 2.5 * profile.footprint_mean

    def test_lsb_bias(self):
        """Counter-like workloads flip low-order bits far more often."""
        libq = get_profile("libq")
        gen = TraceGenerator(libq, seed=0)
        prev = dict(gen.initial_lines())
        low = high = 0
        for rec in gen.writes(300):
            delta = bitops.xor(prev[rec.address], rec.data)
            for w in range(32):
                value = int.from_bytes(delta[w * 2: w * 2 + 2], "little")
                low += bin(value & 0xFF).count("1")
                high += bin(value >> 8).count("1")
            prev[rec.address] = rec.data
        assert low > 2 * high


class TestHelpers:
    def test_zipf_cumulative_monotone(self):
        cum = _zipf_cumulative(10, 1.0)
        assert all(b > a for a, b in zip(cum, cum[1:]))
        assert len(cum) == 10

    def test_bit_probabilities_hit_requested_mean(self):
        probs = _bit_probabilities(6.0, 0.95, 16)
        assert sum(probs) == pytest.approx(6.0, abs=0.05)
        assert all(0 < p <= 0.99 for p in probs)

    def test_bit_probabilities_decay(self):
        probs = _bit_probabilities(4.0, 0.8, 16)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_bit_probabilities_cap(self):
        probs = _bit_probabilities(15.9, 0.999, 16)
        assert max(probs) <= 0.99

    def test_bit_probabilities_errors(self):
        with pytest.raises(ValueError):
            _bit_probabilities(0.0, 0.9, 16)
        with pytest.raises(ValueError):
            _bit_probabilities(4.0, 0.0, 16)

    def test_poisson_mean(self):
        rng = random.Random(42)
        samples = [_poisson(rng, 3.0) for _ in range(3000)]
        assert sum(samples) / len(samples) == pytest.approx(3.0, abs=0.2)

    def test_poisson_zero_lambda(self):
        assert _poisson(random.Random(0), 0.0) == 0


class TestStreamRandom:
    def test_every_draw_matches_random_random(self):
        """Mixed draws agree with the stdlib across several buffer refills."""
        ours, ref = StreamRandom("replay:3"), random.Random("replay:3")
        widths = (1, 9, 31, 32, 33, 64, 100)
        for i in range(30_000):
            kind = i % 5
            if kind == 0:
                assert ours.random() == ref.random()
            elif kind == 1:
                k = widths[i % len(widths)]
                assert ours.getrandbits(k) == ref.getrandbits(k)
            elif kind == 2:
                assert ours.randrange(1000) == ref.randrange(1000)
            elif kind == 3:
                assert ours.gauss(5.0, 2.0) == ref.gauss(5.0, 2.0)
            else:
                mine, theirs = list(range(24)), list(range(24))
                ours.shuffle(mine)
                ref.shuffle(theirs)
                assert mine == theirs

    def test_uniform_bytes_is_randrange_256(self):
        ours, ref = StreamRandom("bytes:1"), random.Random("bytes:1")
        assert ours.random() == ref.random()
        n = 150_000
        expected = bytes(ref.randrange(256) for _ in range(n))
        assert ours.uniform_bytes(n).tobytes() == expected
        assert [ours.random() for _ in range(8)] == [
            ref.random() for _ in range(8)
        ]

    def test_state_is_not_exported(self):
        with pytest.raises(TypeError):
            StreamRandom("x").getstate()


@st.composite
def _flip_table_cases(draw):
    """``(doubles, probs, word_bytes)`` with some doubles on a threshold."""
    word_bytes = draw(st.sampled_from((1, 2, 4, 8)))
    # 8 bits inside a wider word is the generator's low-byte profile.
    width = draw(st.sampled_from((1, 8, 8 * word_bytes)) | st.integers(
        min_value=1, max_value=8 * word_bytes
    ))
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    probs = draw(st.lists(unit, min_size=width, max_size=width))
    n = draw(st.integers(min_value=0, max_value=2 * width + 12))
    doubles = draw(
        st.lists(unit | st.sampled_from(probs), min_size=n, max_size=n)
    )
    return np.array(doubles, dtype=np.float64), probs, word_bytes


@settings(max_examples=300, deadline=None)
@given(case=_flip_table_cases())
def test_flip_table_matches_the_scalar_round(case):
    """Entry ``p`` is ``sum_j (doubles[p + 2j] < probs[j]) << j`` as LE bytes.

    Buffers shorter than ``2 * len(probs) - 1`` doubles give an empty table.
    """
    doubles, probs, word_bytes = case
    n = max(0, len(doubles) - 2 * (len(probs) - 1))
    expected = b"".join(
        sum(
            int(doubles[p + 2 * j] < prob) << j for j, prob in enumerate(probs)
        ).to_bytes(word_bytes, "little")
        for p in range(n)
    )
    table = _flip_table(doubles, probs, word_bytes)
    assert table.shape == (n,)
    assert table.dtype.itemsize == word_bytes
    assert table.tobytes() == expected


def _trace_digest(trace) -> str:
    """sha256 of a trace's ``initial_arrays()`` then ``write_arrays()``."""
    digest = hashlib.sha256()
    for array in (*trace.initial_arrays(), *trace.write_arrays()):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _record_digest(gen: TraceGenerator, n: int) -> str:
    """sha256 of a generator's initial lines and its next ``n`` records."""
    digest = hashlib.sha256()
    for address, data in sorted(gen.initial_lines().items()):
        digest.update(address.to_bytes(8, "little") + data)
    for rec in gen.writes(n):
        digest.update(rec.address.to_bytes(8, "little") + rec.data)
    return digest.hexdigest()


# Digests of the streams of the per-draw ``random.Random`` generator that
# the buffered engine replaced.  A mismatch is a stream change: it moves
# every flip rate ``baselines/flip_rates.json`` pins.
#: 3,000-write traces of every statistical profile, seeds 0, 1 and 7.
GOLDEN_TRACES = {
    "libq": (
        "65b85d25e865a604d4972d84134d6b0b3b47b196b8a97699cc53b503dc0be7a7",
        "c369b796b790f56ff9b5d6a6d29924a5efcc09b1e5e83fa5697219673a4d27f6",
        "9edf8590f9777121d68bd39bb4cdaa40064d29799850120d0c597b9f998f79b8",
    ),
    "mcf": (
        "f96df5c987a3990c76e1cf7b85405b8e501b6e4591abc1dc6e2fdc91b2268c83",
        "31039cc303b1b7706c8118937a6a55fa716b915adbac1303bb2b84a7535f8ea8",
        "cecf327f7724c2848a84cc439c2e92ad7da4ffa4e8f51425b56d306bd8ddae85",
    ),
    "lbm": (
        "a0956762ed0ad2b01bc4fe73876058e5e28858f11ae39784db6bb24f3d875b09",
        "967d73a665f892c108a8172ae2f2d24ee3bd45725b523d7b48d1974105b7da76",
        "62d8a22e1190820117f799d3e70940b17417a1bb294bcd03e554d2c0250825a1",
    ),
    "Gems": (
        "6b954e6c1abd62e86b4876dbab6238f998a85ff7fde7002bf0be5c8b4c12d722",
        "27952d5e5c9bd22605186ae4375c5df7407c6890f8e1783a87b79725b06aec69",
        "c4e38e0e0a219702c38d94e96f8acbb00402acdd3fe405a1388bcb2b55ddc1a8",
    ),
    "milc": (
        "8053b4e6f551dde53e08467378860e5217748078e1df8d97ab5d9fd971629ae2",
        "e6384ce5a8471559990a261200c253cb76bacef43ba179f79972c735c4fca878",
        "d11ccef3f1912458582ba1a5ccc8c01f8b54dbe9517057280b9855251c183373",
    ),
    "omnetpp": (
        "91db5ab04f32c692312392b53067d98d33b412b033b76ce501064792b0fad967",
        "f205e40e0fffb7b1788abc5f8c58b25521c7a1a2390acdabc12d16f02a2c943b",
        "a1ac806f67dffde5d1f03e703621457dba0d61b7b4e885f32ffd9005ffaad245",
    ),
    "leslie3d": (
        "72bd5658d7dc83c1891089a30c4dfa64191283b7b993166a6794ee87867da4ce",
        "e6e8dcfca897777768aa166211044a7536a46edfa669081d06c1062d8a64f30a",
        "46050399a9abce70505533c5d86f8e21e09fc997d4b44f80aee07ac631a00664",
    ),
    "soplex": (
        "2b95af79a259d6118eaf3444101295b81aff714894cf9df2c6f876629c7b3567",
        "dd9880f2cbb26d03a2c8797f1b0d03812e5a6e7471ac352a7eabaf74bbe59668",
        "ff1d77fa2189640ea158c866a8f9b0c072cbc733eddc795709fd9433ff26d896",
    ),
    "zeusmp": (
        "e14359f3e47c7256533572e2b0f0c170a80eb4decf83ad3ec0f26800818e6b19",
        "5b5e04aa547cbed99f129a114aa960a0494fa5d97042d0302d4ba9e0fdc14071",
        "ae5c2c845490df85f3f56812eb97835ee7b7fc4b856070bf928e73b3c35504bd",
    ),
    "wrf": (
        "758327a9f5adc459150e34c0a8218bcf1aafa1377acd0dc1225cb37927903211",
        "9acb68dd0155ec927214662d12f8a6771cdc1cbf18fcbf069b4fb90048f37dbb",
        "1744de7eed0243a10a53fbc76483888a8fbcc268d4e275689901a9ecfbc3c596",
    ),
    "xalanc": (
        "9e01c32f17804c04ecc7dc5b5171366c7be45d4de041f5ada596b2a74359def8",
        "57f4a86b1e5da7a56989a245d04d123d81e8052ca37e4732caffa9d3ddf3482c",
        "d1aa8a18566bb7d6cb0fc86c2b17d3ee9e5cd4ea9e3504734d860412f08f9ac4",
    ),
    "astar": (
        "00cd6604954b6da695c8cb690e2454815f32d8974497e25b3316f4c191b9646f",
        "11b14eb8a87b3908e2fa91da4fcb4a48f25b8c15261a540707ff4574ad0d54a1",
        "d8af30a243edd3cd6051d82d27ccae72ae0d2d344bf9097262f58f8189e389c2",
    ),
}
#: One 20,000-write mcf trace, seed 0.
GOLDEN_MCF_20K = (
    "7d83d126b54162fa5425479a13e65a156d3bf8cc02649b9d9027855a3114219f"
)
#: 3,000 writes (seed 5) of a 256-line mcf with one knob pushed to an edge
#: the golden traces rarely reach, at 2-byte and 8-byte words.
GOLDEN_EDGES = {
    # No block affinity: footprints skip the home-block redraws.
    "no-affinity": (
        {"block_affinity": 0.0},
        "15ef5ec05df9959a6ac3b9e3bf75984729e326ecddf918781f5e6fc96bd8b8c3",
        "8e0d62d50aa5dcd45b0aed467dcd1a8978fd74ab27712635aa0413a5e6b45fd0",
    ),
    # Every candidate is affine: the redraw loop runs on every draw.
    "full-affinity": (
        {"block_affinity": 1.0, "home_blocks": 4},
        "b6ae32d08c506696c38eb8f3bdab7a967a12ef89e15d8c502b074f185e9b0754",
        "faad20b79753f72cfb0d23f1a1a6972f5d4da3b501c0604038fdd5bd2fd6f11f",
    ),
    # Footprints fill the whole line: long draw runs past refill edges.
    "line-filling": (
        {"footprint_mean": 40.0, "words_per_write_mean": 20.0},
        "42d4dca390b9d19212cd71c6af511efa385a216993df9067b262d6ebdc6f8d2e",
        "dee4841ef6a04bc98d714e98c6f67996f12fe898f0a6ac830e411e05b684f5e4",
    ),
    # Churn and bursts: ``randrange`` shifts the cursor by odd word counts.
    "churn-burst": (
        {"footprint_churn": 0.5, "burst_prob": 0.5, "burst_words": 3},
        "1ec82f937020a0d0e8b6fe2a0d5ffe519b61d0cddc6ba3c7b6c495521f909063",
        "1cd55baf75ebc268d781424304fc32e2a1527ee61ceeaa61f3b9d7847a29ecf9",
    ),
    # Rare flips: the eight-round fallback runs, also at refill edges.
    "fallback": (
        {"bits_per_word_mean": 0.05},
        "0b130af9a54feaea456c789f8d818684d25cd6f52ae575efc99e677822933898",
        "46972f000373064fc3ee5472d28128be5d4980cba6af8d4424c3b627a697afb9",
    ),
}
#: 500 mcf records (seed 0) at the other supported word sizes.
GOLDEN_WORD_BYTES = {
    1: "cc1c0676c9ee141e4e86d0fdea3948ffc69f348e3acda460bedcc317959876d8",
    4: "c4acc3caed38843e922c65e7c31947e515aa26d922fc9273cef9d1208cb676cc",
    8: "2aa5fdf77662b17668f18c820465a85f5ec1b1de64d160876a677810fa354146",
}


class TestPinnedStream:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_traces_match_the_per_draw_generator(self, name):
        digests = tuple(
            _trace_digest(generate_trace(name, 3_000, seed=seed))
            for seed in (0, 1, 7)
        )
        assert digests == GOLDEN_TRACES[name]

    def test_long_mcf_trace(self):
        trace = generate_trace("mcf", 20_000, seed=0)
        assert _trace_digest(trace) == GOLDEN_MCF_20K

    @pytest.mark.parametrize("word_bytes", sorted(GOLDEN_WORD_BYTES))
    def test_other_word_sizes(self, word_bytes):
        gen = TraceGenerator(get_profile("mcf"), seed=0, word_bytes=word_bytes)
        assert _record_digest(gen, 500) == GOLDEN_WORD_BYTES[word_bytes]

    @pytest.mark.parametrize("edge", sorted(GOLDEN_EDGES))
    def test_stream_edges(self, edge):
        knobs, *golden = GOLDEN_EDGES[edge]
        profile = replace(get_profile("mcf"), working_set_lines=256, **knobs)
        digests = []
        for word_bytes in (2, 8):
            gen = TraceGenerator(profile, seed=5, word_bytes=word_bytes)
            digest = hashlib.sha256()
            for array in (*gen.initial_arrays(), *gen.generate(3_000)):
                digest.update(np.ascontiguousarray(array).tobytes())
            digests.append(digest.hexdigest())
        assert digests == golden


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(WORKLOAD_NAMES),
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=300),
)
def test_next_write_replays_generate_trace(name, seed, n):
    trace = generate_trace(name, n, seed=seed)
    gen = TraceGenerator(get_profile(name), seed=seed)
    assert gen.initial_lines() == trace.initial
    assert [gen.next_write() for _ in range(n)] == trace.records
