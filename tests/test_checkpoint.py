"""Tensor container, averaging, low-rank merge and consistency penalty."""

from __future__ import annotations

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrforge import cli
from mbrforge.checkpoint import (
    DEFAULT_REG_ALPHA,
    LoraAdapter,
    TensorStore,
    adapter_from_store,
    average_checkpoints,
    lora_merge,
    rdrop_loss,
    rdrop_penalty,
    validate_prob_vector,
)
from mbrforge.errors import DataError, InfiniteDivergenceError
from oracles import oracle_average, oracle_lora_delta, oracle_rdrop


def f32(values, shape=None):
    arr = np.array(values, dtype=np.float32)
    return arr.reshape(shape) if shape is not None else arr


@st.composite
def stores_st(draw, names=("w", "b")):
    entries = {}
    for name in names:
        size = draw(st.integers(1, 6))
        values = draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=size,
                max_size=size,
            )
        )
        entries[name] = f32(values)
    return TensorStore(entries)


# Spellings of a dimension d that int() reads back as d but serialize never writes.
NON_CANONICAL_DIMS = (
    "0{}".format,
    "+{}".format,
    " {}".format,
    "{} ".format,
    "{}\r".format,
    lambda d: "_".join(str(d)),  # 11 -> "1_1"; one digit stays canonical
    lambda d: str(d).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
)


@st.composite
def tsf_containers(draw):
    """TSF bytes built from generated header lines and payloads."""
    names = draw(
        st.lists(
            # A TSF header is UTF-8, so a name never holds a lone surrogate.
            st.text(
                st.characters(codec="utf-8", exclude_characters="\t\n"), min_size=1, max_size=4
            ),
            max_size=3,
        )
    )
    header, payload = [], []
    for name in names:
        dims = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
        spell = draw(st.just(str) | st.sampled_from(NON_CANONICAL_DIMS))
        header.append(f"{name}\tf32\t{','.join(spell(d) for d in dims)}\n".encode("utf-8"))
        size = math.prod(dims)
        values = draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=size,
                max_size=size,
            )
        )
        payload.append(np.array(values, dtype="<f4").tobytes())
    return b"TSF1\n" + b"".join(header) + b"\n" + b"".join(payload)


prob_vector_st = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8
).map(lambda vs: [v / sum(vs) for v in vs])


class TestTensorStore:
    def test_frozen_serialization(self):
        store = TensorStore({"w": f32([1.0, 2.0])})
        assert store.serialize() == (
            b"TSF1\n" b"w\tf32\t2\n" b"\n" b"\x00\x00\x80?\x00\x00\x00@"
        )

    def test_round_trip_bytes(self):
        store = TensorStore()
        store.add("layer.weight", f32([[1.5, -2.25], [0.0, 3.0]]))
        store.add("layer.bias", f32([0.5, 0.5]))
        data = store.serialize()
        again = TensorStore.parse(data)
        assert again == store
        assert again.serialize() == data

    def test_stores_with_different_names_differ(self):
        assert TensorStore({"w": f32([1.0])}) != TensorStore({"v": f32([1.0])})

    def test_never_equals_another_type(self):
        store = TensorStore({"w": f32([1.0])})
        assert store != {"w": f32([1.0])}
        assert store != store.serialize()

    def test_insertion_order_preserved(self):
        store = TensorStore()
        store.add("b", f32([1.0]))
        store.add("a", f32([2.0]))
        assert TensorStore.parse(store.serialize()).names() == ["b", "a"]

    def test_empty_container(self):
        store = TensorStore()
        assert store.serialize() == b"TSF1\n\n"
        assert len(TensorStore.parse(b"TSF1\n\n")) == 0

    def test_save_load(self, tmp_path):
        store = TensorStore({"w": f32([[1.0, 2.0, 3.0]])})
        path = tmp_path / "model.tsf"
        store.save(path)
        assert TensorStore.load(path) == store

    def test_name_validation(self):
        store = TensorStore({"w": f32([1.0])})
        with pytest.raises(DataError, match="duplicate"):
            store.add("w", f32([2.0]))
        for bad in ("", "a\tb", "a\nb"):
            with pytest.raises(DataError, match="invalid tensor name"):
                TensorStore({bad: f32([1.0])})
        # A lone surrogate would pass add() and fail serialize() with UnicodeEncodeError.
        with pytest.raises(DataError, match="not valid UTF-8"):
            store.add("w\ud800", f32([1.0]))
        assert store.names() == ["w"]

    def test_value_validation(self):
        with pytest.raises(DataError, match="at least one dimension"):
            TensorStore({"w": np.float32(1.0)})
        with pytest.raises(DataError, match="non-positive dimension"):
            TensorStore({"w": np.zeros((0, 2), np.float32)})
        with pytest.raises(DataError, match="non-finite"):
            TensorStore({"w": f32([np.nan])})
        with pytest.raises(DataError, match="non-finite"):
            TensorStore({"w": f32([np.inf])})

    def test_missing_tensor_lookup(self):
        with pytest.raises(DataError, match="no tensor named"):
            TensorStore()["ghost"]

    @pytest.mark.parametrize(
        "data,match",
        [
            (b"XSF1\n\n", "bad magic"),
            (b"TSF1\nw\tf32\t2\n", "no blank line"),
            (b"TSF1\nw\tf64\t1\n\n\x00\x00\x80?", "malformed"),
            (b"TSF1\nw\tf32\tx\n\n", "bad shape"),
            (b"TSF1\nw\tf32\t-2,-2\n\n" + bytes(16), "bad shape"),
            (b"TSF1\nw\tf32\t0,-3\n\n", "bad shape"),
            (b"TSF1\nw\tf32\t2\n\n\x00\x00\x80?", "short"),
            (b"TSF1\nw\tf32\t1\n\n\x00\x00\x80?extra", "trailing bytes"),
            (b"TSF1\n\xff\tf32\t1\n\n", "undecodable TSF header line"),
            # int() reads each of these dimensions, but serialize writes them differently.
            *(
                (f"TSF1\nw\tf32\t{dim}\n\n".encode("utf-8") + bytes(4 * int(dim)), "bad shape")
                for dim in (" 2", "2 ", "+2", "02", "٢", "1_1", "2\r")
            ),
        ],
    )
    def test_malformed_containers(self, data, match):
        with pytest.raises(DataError, match=match):
            TensorStore.parse(data)

    @settings(max_examples=50)
    @given(stores_st())
    def test_round_trip_property(self, store):
        data = store.serialize()
        again = TensorStore.parse(data)
        assert again == store
        assert again.serialize() == data

    @settings(max_examples=200)
    @given(tsf_containers())
    def test_every_accepted_container_round_trips(self, data):
        try:
            store = TensorStore.parse(data)
        except DataError:
            return
        assert store.serialize() == data

    def test_parse_never_aliases_a_bytearray(self):
        store = TensorStore({"w": f32([1.0, 2.0]), "b": f32([[3.0]])})
        buffer = bytearray(store.serialize())
        parsed = TensorStore.parse(buffer)
        buffer[-12:] = bytes(12)
        assert parsed == store

    def test_parse_never_aliases_a_memoryview(self):
        store = TensorStore({"w": f32([1.0, 2.0]), "b": f32([[3.0]])})
        buffer = bytearray(store.serialize())
        parsed = TensorStore.parse(memoryview(buffer))
        assert parsed == store
        buffer[-12:] = bytes(12)
        assert parsed == store

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_parsed_tensors_are_read_only(self, kind):
        parsed = TensorStore.parse(kind(TensorStore({"w": f32([1.0, 2.0])}).serialize()))
        assert not parsed["w"].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            parsed["w"][0] = 5.0


def traced_peak(fn):
    """``fn()``'s result and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTsfMemory:
    """TSF I/O holds one copy of the payload: serialize writes it once, parse views it, save streams it."""

    @pytest.fixture(scope="class")
    def big_store(self):
        rng = np.random.default_rng(5)
        store = TensorStore(
            {f"layer{i}.w": rng.standard_normal((256, 256), dtype=np.float32) for i in range(64)}
        )
        return store, 64 * 256 * 256 * 4  # 16 MiB of payload

    def test_serialize_peaks_at_one_payload(self, big_store):
        store, payload = big_store
        data, peak = traced_peak(store.serialize)
        assert len(data) > payload
        assert peak <= 1.25 * payload

    def test_parse_allocates_no_payload_copy(self, big_store):
        store, payload = big_store
        data = store.serialize()
        parsed, peak = traced_peak(lambda: TensorStore.parse(data))
        assert parsed == store
        assert peak <= 0.1 * payload

    def test_parse_of_one_large_tensor_allocates_no_mask(self):
        # The finite check must not build a bool array the size of the tensor.
        values = np.random.default_rng(6).standard_normal((2048, 2048), dtype=np.float32)
        data = TensorStore({"w": values}).serialize()
        parsed, peak = traced_peak(lambda: TensorStore.parse(data))
        np.testing.assert_array_equal(parsed["w"], values)
        assert peak <= 0.1 * values.nbytes

    def test_save_streams_the_payload(self, big_store, tmp_path):
        store, payload = big_store
        path = tmp_path / "out.tsf"
        _none, peak = traced_peak(lambda: store.save(path))
        assert path.read_bytes() == store.serialize()
        assert peak <= 0.1 * payload


class TestAvgMemory:
    """avg holds the float64 sums and one input store, however many stores it averages."""

    def test_peak_is_flat_in_the_number_of_stores(self, tmp_path):
        rng = np.random.default_rng(29)
        paths = [str(tmp_path / f"ck{i}.tsf") for i in range(6)]
        for path in paths:
            TensorStore(
                {f"layer{t}.w": rng.standard_normal((128, 1024), dtype=np.float32) for t in range(8)}
            ).save(path)
        payload = 8 * 128 * 1024 * 4  # 4 MiB per store
        peaks = {}
        for k in (2, 6):
            out = tmp_path / f"avg{k}.tsf"
            rc, peaks[k] = traced_peak(
                lambda: cli.main(["avg", "--inputs", *paths[:k], "--out", str(out)])
            )
            assert rc == 0
            want = average_checkpoints(map(TensorStore.load, paths[:k]))
            assert TensorStore.load(out) == want
        assert peaks[2] <= 3.5 * payload
        assert peaks[6] <= peaks[2] + 0.1 * payload


class TestAveraging:
    def test_two_store_mean(self):
        a = TensorStore({"w": f32([1.0, 2.0])})
        b = TensorStore({"w": f32([3.0, 4.0])})
        avg = average_checkpoints([a, b])
        np.testing.assert_array_equal(avg["w"], f32([2.0, 3.0]))

    def test_idempotent_on_identical_stores(self):
        store = TensorStore({"w": f32([0.1, -0.3, 7.5, -0.0]), "b": f32([1e-5])})
        for k in (1, 2, 5):
            avg = average_checkpoints([store] * k)
            assert avg.serialize() == store.serialize()

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        stores = [
            TensorStore({"w": f32(rng.normal(size=6)), "b": f32(rng.normal(size=2))})
            for _ in range(5)
        ]
        avg = average_checkpoints(stores)
        want = oracle_average(
            [{n: [float(v) for v in s[n]] for n in s.names()} for s in stores]
        )
        for name in ("w", "b"):
            np.testing.assert_allclose(avg[name], want[name], atol=1e-6)

    def test_output_order_follows_first_store(self):
        a = TensorStore()
        a.add("z", f32([1.0]))
        a.add("a", f32([1.0]))
        b = TensorStore()
        b.add("a", f32([3.0]))
        b.add("z", f32([3.0]))
        assert average_checkpoints([a, b]).names() == ["z", "a"]

    def test_name_mismatch_names_the_tensor(self):
        a = TensorStore({"w": f32([1.0])})
        b = TensorStore({"v": f32([1.0])})
        with pytest.raises(DataError, match="store 2"):
            average_checkpoints([a, b])
        with pytest.raises(DataError, match="^store 3 does not match store 1 on tensor 'v'$"):
            average_checkpoints(iter([a, a, b]))

    def test_shape_mismatch_rejected(self):
        a = TensorStore({"w": f32([1.0, 2.0])})
        b = TensorStore({"w": f32([[1.0, 2.0]])})
        with pytest.raises(DataError, match="shape mismatch"):
            average_checkpoints([a, b])

    def test_empty_list_rejected(self):
        for empty in ([], iter([])):
            with pytest.raises(DataError, match="^need at least one store to average$"):
                average_checkpoints(empty)

    def test_accepts_a_generator(self):
        stores = (TensorStore({"w": f32([v, -0.0])}) for v in (1.0, 2.0, 6.0))
        avg = average_checkpoints(stores)
        assert avg.serialize() == TensorStore({"w": f32([3.0, -0.0])}).serialize()

    def test_each_store_is_released_before_the_next_one_is_made(self):
        refs, alive = [], []

        def make(value):
            alive.append(sum(ref() is not None for ref in refs))
            store = TensorStore({"w": f32([value])})
            refs.append(weakref.ref(store))
            return store

        avg = average_checkpoints(map(make, (1.0, 2.0, 3.0, 6.0)))
        np.testing.assert_array_equal(avg["w"], f32([3.0]))
        assert alive == [0, 0, 0, 0]


class TestLoraMerge:
    def test_scalar_example(self):
        base = TensorStore({"w": f32([[1.0]])})
        adapter = LoraAdapter(
            rank=1, alpha=1.0, targets=(("w", f32([[2.0]]), f32([[3.0]])),)
        )
        merged = lora_merge(base, adapter)
        np.testing.assert_array_equal(merged["w"], f32([[7.0]]))

    def test_small_matrix(self):
        # W (2x2) + (alpha/rank) * B (2x1) @ A (1x2), alpha=2, rank=1.
        base = TensorStore({"w": f32([[1.0, 0.0], [0.0, 1.0]])})
        a = f32([[1.0, 2.0]])
        b = f32([[1.0], [-1.0]])
        merged = lora_merge(base, LoraAdapter(rank=1, alpha=2.0, targets=(("w", a, b),)))
        np.testing.assert_array_equal(merged["w"], f32([[3.0, 4.0], [-2.0, -3.0]]))

    def test_zero_b_is_identity_bytes(self):
        base = TensorStore(
            {"w": f32([[0.25, -1.5, 3.75], [7.0, 0.125, -2.0]]), "bias": f32([9.5])}
        )
        adapter = LoraAdapter(
            rank=2,
            alpha=16.0,
            targets=(("w", f32(np.ones((2, 3))), f32(np.zeros((2, 2)))),),
        )
        merged = lora_merge(base, adapter)
        assert merged.serialize() == base.serialize()

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(23)
        d, k, r = 4, 3, 2
        w = f32(rng.normal(size=(d, k)))
        a = f32(rng.normal(size=(r, k)))
        b = f32(rng.normal(size=(d, r)))
        alpha = 8.0
        merged = lora_merge(
            TensorStore({"w": w}),
            LoraAdapter(rank=r, alpha=alpha, targets=(("w", a, b),)),
        )
        delta = oracle_lora_delta(a.tolist(), b.tolist(), alpha, r)
        want = [
            [float(w[i][j]) + delta[i][j] for j in range(k)] for i in range(d)
        ]
        np.testing.assert_allclose(merged["w"], want, atol=1e-6)

    def test_untargeted_tensors_copied(self):
        base = TensorStore({"w": f32([[1.0]]), "emb": f32([5.0, 6.0])})
        adapter = LoraAdapter(
            rank=1, alpha=1.0, targets=(("w", f32([[1.0]]), f32([[1.0]])),)
        )
        merged = lora_merge(base, adapter)
        np.testing.assert_array_equal(merged["emb"], base["emb"])
        assert merged.names() == base.names()

    def test_missing_base_tensor(self):
        adapter = LoraAdapter(
            rank=1, alpha=1.0, targets=(("ghost", f32([[1.0]]), f32([[1.0]])),)
        )
        with pytest.raises(DataError, match="missing base tensor"):
            lora_merge(TensorStore({"w": f32([[1.0]])}), adapter)

    def test_shape_mismatch_reports_expectation(self):
        adapter = LoraAdapter(
            rank=1, alpha=1.0, targets=(("w", f32([[1.0, 2.0]]), f32([[1.0]])),)
        )
        with pytest.raises(DataError, match=r"implies shape \(1, 2\)"):
            lora_merge(TensorStore({"w": f32([[1.0]])}), adapter)

    @pytest.mark.parametrize("b", [1.0, 4.0], ids=["cast-overflow", "multiply-overflow"])
    def test_overflow_is_data_error_without_warning(self, b):
        # Warnings are errors here, so a numpy overflow warning fails the test.
        big = np.finfo(np.float64).max
        adapter = LoraAdapter(rank=1, alpha=big, targets=(("w", f32([[1.0]]), f32([[b]])),))
        with pytest.raises(DataError, match="non-finite"):
            lora_merge(TensorStore({"w": f32([[1.0]])}), adapter)

    def test_adapter_validation(self):
        with pytest.raises(DataError, match="rank"):
            LoraAdapter(rank=0, alpha=1.0, targets=())
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match="alpha must be finite and positive"):
                LoraAdapter(rank=1, alpha=alpha, targets=())
        with pytest.raises(DataError, match="rows"):
            LoraAdapter(rank=2, alpha=1.0, targets=(("w", f32([[1.0]]), f32([[1.0]])),))
        with pytest.raises(DataError, match="columns"):
            LoraAdapter(
                rank=1, alpha=1.0, targets=(("w", f32([[1.0, 2.0]]), f32([[1.0, 2.0]])),)
            )

    def test_repeated_target_rejected(self):
        a, b = f32([[1.0]]), f32([[1.0]])
        with pytest.raises(DataError, match="adapter targets 'w' twice"):
            LoraAdapter(rank=1, alpha=1.0, targets=(("w", a, b), ("v", a, b), ("w", 2 * a, b)))


class TestAdapterFromStore:
    def test_reads_pairs_and_infers_rank(self):
        store = TensorStore(
            {
                "w.lora_A": f32([[1.0, 2.0], [3.0, 4.0]]),  # rank 2, k 2
                "w.lora_B": f32([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # d 3
            }
        )
        adapter = adapter_from_store(store, alpha=4.0)
        assert adapter.rank == 2
        assert adapter.alpha == 4.0
        assert [name for name, _a, _b in adapter.targets] == ["w"]

    def test_missing_b_factor(self):
        # Either factor without its partner is rejected.
        cases = [
            ({"w.lora_A": f32([[1.0]])}, "has 'w.lora_A' but no 'w.lora_B'"),
            (
                {
                    "dec.w.lora_A": f32([[1.0]]),
                    "dec.w.lora_B": f32([[1.0]]),
                    "enc.w.lora_B": f32([[1.0]]),
                },
                "has 'enc.w.lora_B' but no 'enc.w.lora_A'",
            ),
        ]
        for tensors, message in cases:
            with pytest.raises(DataError, match=message):
                adapter_from_store(TensorStore(tensors), alpha=1.0)

    def test_stray_tensor_rejected(self):
        store = TensorStore(
            {
                "w.lora_A": f32([[1.0]]),
                "w.lora_B": f32([[1.0]]),
                "other": f32([1.0]),
            }
        )
        with pytest.raises(DataError, match="non-adapter"):
            adapter_from_store(store, alpha=1.0)

    def test_no_pairs_rejected(self):
        with pytest.raises(DataError, match="no .*lora"):
            adapter_from_store(TensorStore({"w": f32([1.0])}), alpha=1.0)


class TestRdrop:
    def test_zero_for_identical(self):
        p = [0.2, 0.3, 0.5]
        assert rdrop_penalty(p, p) == 0.0

    def test_frozen_value(self):
        p = [0.5, 0.5]
        q = [0.25, 0.75]
        forward = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        backward = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
        assert rdrop_penalty(p, q) == pytest.approx(0.5 * (forward + backward), abs=1e-12)

    def test_loss_scales_by_reg_alpha(self):
        p = [0.5, 0.5]
        q = [0.25, 0.75]
        assert DEFAULT_REG_ALPHA == 5.0
        assert rdrop_loss(p, q) == pytest.approx(5.0 * rdrop_penalty(p, q), abs=1e-12)
        assert rdrop_loss(p, q, reg_alpha=2.0) == pytest.approx(
            2.0 * rdrop_penalty(p, q), abs=1e-12
        )

    def test_matched_zeros_contribute_nothing(self):
        assert rdrop_penalty([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == 0.0

    def test_one_sided_zero_raises(self):
        with pytest.raises(InfiniteDivergenceError, match="index 1"):
            rdrop_penalty([1.0, 0.0], [0.5, 0.5])

    def test_epsilon_floor_makes_it_finite(self):
        value = rdrop_penalty([1.0, 0.0], [0.5, 0.5], epsilon_floor=True)
        assert math.isfinite(value)
        assert value > 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="different lengths"):
            rdrop_penalty([1.0], [0.5, 0.5])

    def test_prob_vector_validation(self):
        with pytest.raises(DataError, match="sums to"):
            validate_prob_vector([0.5, 0.6])
        with pytest.raises(DataError, match="invalid"):
            validate_prob_vector([-0.1, 1.1])
        with pytest.raises(DataError, match="invalid"):
            validate_prob_vector([math.nan, 1.0])
        with pytest.raises(DataError, match="empty"):
            validate_prob_vector([])

    @given(prob_vector_st, prob_vector_st)
    def test_symmetric(self, p, q):
        if len(p) != len(q):
            p, q = p[: min(len(p), len(q))], q[: min(len(p), len(q))]
            total_p, total_q = sum(p), sum(q)
            p = [v / total_p for v in p]
            q = [v / total_q for v in q]
        assert rdrop_penalty(p, q) == rdrop_penalty(q, p)

    @given(prob_vector_st, prob_vector_st)
    def test_nonnegative_and_matches_oracle(self, p, q):
        n = min(len(p), len(q))
        p = [v / sum(p[:n]) for v in p[:n]]
        q = [v / sum(q[:n]) for v in q[:n]]
        value = rdrop_penalty(p, q)
        assert value >= 0.0
        assert value == pytest.approx(oracle_rdrop(p, q), abs=1e-12)

    @given(prob_vector_st)
    def test_zero_iff_equal(self, p):
        assert rdrop_penalty(p, p) == 0.0
        if len(p) >= 2 and abs(p[0] - p[1]) > 1e-6:
            q = list(p)
            q[0], q[1] = q[1], q[0]
            assert rdrop_penalty(p, q) > 0.0
