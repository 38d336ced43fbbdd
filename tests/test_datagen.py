import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqsort import (
    DISTRIBUTION_KINDS,
    DistributionSpec,
    array_digest,
    generate,
)
from pdqsort.datagen import _GOLDEN, _MASK64, SplitMix64, _base_values, write_array

# Frozen from this implementation: any change to the value formulas, the
# shuffle stream, or the encodings must show up here.
GOLDEN_DIGESTS = {
    ("uniform", 1000, "int64", 42): "e7a0bc355c6db43472aa72a38f95626e8d481ccbd1367d01b031a9954713673c",
    ("dupsq", 1000, "int64", 42): "67de4a08b38c266c4e33039dac9dd1456bf7800219c9e68d1ace21ed3139ae7c",
    ("dup8", 1000, "int64", 42): "4601942da176d1a9a4067048e0b861bcb86b96d07db3457312baf15a00704136",
    ("mod8", 1000, "int64", 42): "b2fff9f98b85e7714d8a8c26d4f20e6cc4b22ef60bb67f3ddeff269daa13ad21",
    ("ones", 1000, "int64", 42): "c9ec0a0fe2efcc08c001efafe3b48ca847506392c88389e94f72abb734e3bb15",
    ("sort50", 1000, "int64", 42): "df046aaf5c68aa0daf128422a446bd646d87cdf097796be46e9a472e4def4449",
    ("sort90", 1000, "int64", 42): "dec37d5e6f5263a047d9a7263fe519f5225b135cb2a4e863fdaa918542276875",
    ("sort99", 1000, "int64", 42): "e6d7766cba4b11d7f7f6d2a5a76fb82be25bfbc99464a83ab5a611e84524c73a",
    ("organ", 1000, "int64", 42): "ab79e609d61bc10b35cb4646adf352cc3592e5240a6e60a820bd6e838351620a",
    ("merge", 1000, "int64", 42): "7375d7836ac4683c8c7a4c34611ceff14f4bb626a684b007a33f7ac01b4e8b7a",
    ("asc", 1000, "int64", 42): "cdcaf63295eb44b199f8945bea9040fc067d26c0af90e23fefc77367534bc75e",
    ("desc", 1000, "int64", 42): "aa2d826f7b2b15efa822d6766d846c73cf20f6a962278580b8ea48cae066b944",
    ("uniform", 257, "str", 42): "01995e2aeb07db1c0d485b6d1ab1fc38e96f3b3d05d4553731232fbedd09d31b",
    ("mod8", 257, "bigstr", 42): "0265aa474181e207001db5adb15efb54d49759e9860e861ce024300e2db658f5",
    ("uniform", 1000, "int64", 43): "ecf0d5e6ac388a5b129808c0a751ea1bfa6cca69742e7737783377ab4559a7ad",
    # Frozen from the one-draw-at-a-time shuffle, at sizes that span more than
    # one chunk of SplitMix64.draws: just past one and two chunks of 4096
    # draws, and the benchmark's n.
    ("uniform", 4097, "int64", 42): "809c9ff092d5621d5c3bc7da3786336b98a36ba99fca6977ca460363e321d3fd",
    ("dupsq", 4097, "int64", 42): "6bd3d2840dc2d30b9f22707202baf58d18f409e0a2ccdb5b9a1e2765262fb740",
    ("mod8", 4097, "int64", 42): "418b29e71fcf3c1c02189508957862ffb6b7e3f0f31f31a0a687ed42e4fcb9fd",
    ("sort90", 4097, "int64", 42): "293fc18300b0142114f35e117b2e61e7368ea0427f0075fa96ce74b6e33416a7",
    ("sort99", 4097, "int64", 42): "8ed0e9ca81bb9695039c47b1013f2f9b322daa19b909a4e42badab436e3ae00a",
    ("uniform", 8193, "int64", 42): "b422ee8ebffa8e0848913072e7c05d4cc157774163abaaba9ec90012dd10a65e",
    ("dupsq", 8193, "int64", 42): "49821beaaf8188d573bb158a7085a4b818d7551c9c89394975c2151c622089cf",
    ("mod8", 8193, "int64", 42): "91ef49371d38a39382e8c6832daa1c68876b034fb7b8ae6f0a7ce596f84bc7cc",
    ("sort90", 8193, "int64", 42): "631d44cbd826958952c0a7769d4979b1cb6c32c23d69eeb6232f54fa9045e6ff",
    ("sort99", 8193, "int64", 42): "a8955564bb6dcd2008a8b7ad07fec89e78109152429150812a29263f8857588a",
    ("uniform", 65536, "int64", 42): "8f0bb04b7c483a5159cf484f024ba292857ba8aaded7e7db6865e14474c2e9f3",
    ("dupsq", 65536, "int64", 42): "c965d675ce86d1429ad451b681bba49c054c1124352ff034746dfe5fc8278df1",
    ("mod8", 65536, "int64", 42): "820e867a1c54a38a99d018c1e9c17118afe34c739bedcfc8fdaf76f4e76281b1",
    ("sort90", 65536, "int64", 42): "15afef674614f04fa4a5fa2e3e57379b178ee33099cf55a444c9b438df4aad14",
    ("sort99", 65536, "int64", 42): "4fd13c64c07ef220580ceb48735c8d52312ac3795b4867491deb0a8475d6f253",
}


def modular_pow_oracle(i, e, n):
    # Brute force by repeated multiplication, no pow() shortcuts.
    acc = 1
    for _ in range(e):
        acc = (acc * i) % n
    return acc


class TestBaseValues:
    def test_mod8_shape(self):
        assert _base_values("mod8", 10) == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_ones(self):
        assert generate(DistributionSpec("ones", 4)) == [1, 1, 1, 1]

    def test_dup8_formula(self):
        expected = [(modular_pow_oracle(i, 8, 16) + 8) % 16 for i in range(16)]
        assert expected == [8, 9] * 8
        assert _base_values("dup8", 16) == expected

    def test_dup8_matches_oracle_various_n(self):
        for n in (1, 2, 7, 100, 255):
            got = _base_values("dup8", n)
            want = [(modular_pow_oracle(i, 8, n) + n // 2) % n for i in range(n)]
            assert got == want, n

    def test_dupsq(self):
        n = 100
        assert _base_values("dupsq", n) == [i % 10 for i in range(n)]

    def test_organ_mirrors(self):
        assert _base_values("organ", 6) == [0, 1, 2, 2, 1, 0]
        assert _base_values("organ", 7) == [0, 1, 2, 3, 2, 1, 0]

    def test_merge_two_ascending_halves(self):
        assert _base_values("merge", 6) == [0, 1, 2, 0, 1, 2]
        assert _base_values("merge", 7) == [0, 1, 2, 3, 0, 1, 2]

    def test_asc_desc(self):
        assert _base_values("asc", 4) == [0, 1, 2, 3]
        assert _base_values("desc", 4) == [3, 2, 1, 0]


class TestSplitMix64Draws:
    # The golden step is about 0.62 * 2**64, so the states of every chunk
    # wrap past 2**64 again and again; from this state, the 100th draw's
    # state wraps to exactly 0.
    WRAPPING_STATE = (-100 * _GOLDEN) & _MASK64

    @pytest.mark.parametrize("state", [0, _MASK64, WRAPPING_STATE])
    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8195])
    def test_draws_match_next(self, state, count):
        scalar = SplitMix64(state)
        expected = [scalar.next() for _ in range(count)]
        batched = SplitMix64(state)
        assert batched.draws(count) == expected
        assert batched.state == scalar.state


class TestGenerate:
    def test_empty_for_all_kinds(self):
        for kind in DISTRIBUTION_KINDS:
            assert generate(DistributionSpec(kind, 0)) == []

    def test_permutation_kinds(self):
        for kind in ("uniform", "sort50", "sort90", "sort99", "asc", "desc"):
            arr = generate(DistributionSpec(kind, 500, seed=5))
            assert sorted(arr) == list(range(500)), kind

    def test_sorted_prefix(self):
        for kind, pct in (("sort50", 50), ("sort90", 90), ("sort99", 99)):
            n = 400
            arr = generate(DistributionSpec(kind, n, seed=5))
            k = pct * n // 100
            prefix = arr[:k]
            assert prefix == sorted(prefix), kind

    def test_shuffle_actually_shuffles(self):
        arr = generate(DistributionSpec("uniform", 1000, seed=5))
        assert arr != list(range(1000))

    def test_deterministic(self):
        spec = DistributionSpec("dupsq", 777, "str", seed=123)
        assert generate(spec) == generate(spec)

    def test_seed_changes_output(self):
        a = generate(DistributionSpec("uniform", 100, seed=1))
        b = generate(DistributionSpec("uniform", 100, seed=2))
        assert a != b

    def test_str_order_isomorphism(self):
        n = 1500
        ints = generate(DistributionSpec("uniform", n, "int64", seed=9))
        strs = generate(DistributionSpec("uniform", n, "str", seed=9))
        for a, b in zip(ints, strs):
            assert int(b) == a
        assert all(len(s) == len(strs[0]) for s in strs)
        rng = random.Random(0)
        for _ in range(2000):
            i, j = rng.randrange(n), rng.randrange(n)
            assert (ints[i] < ints[j]) == (strs[i] < strs[j])

    def test_bigstr_padding(self):
        arr = generate(DistributionSpec("mod8", 10, "bigstr", seed=1))
        assert all(s.startswith("0" * 1000) for s in arr)
        assert len(arr[0]) == 1000 + 1

    def test_same_permutation_across_element_types(self):
        ints = generate(DistributionSpec("mod8", 64, "int64", seed=4))
        strs = generate(DistributionSpec("mod8", 64, "str", seed=4))
        assert [int(s) for s in strs] == ints

    def test_golden_digests(self):
        for (kind, n, etype, seed), digest in GOLDEN_DIGESTS.items():
            arr = generate(DistributionSpec(kind, n, etype, seed=seed))
            assert array_digest(arr) == digest, (kind, n, etype, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("nope", 10)
        with pytest.raises(ValueError):
            DistributionSpec("asc", -1)
        with pytest.raises(ValueError):
            DistributionSpec("asc", 10, "int32")

    @given(
        st.sampled_from(DISTRIBUTION_KINDS),
        st.integers(0, 300),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_values_in_range_and_length(self, kind, n, seed):
        arr = generate(DistributionSpec(kind, n, seed=seed))
        assert len(arr) == n
        if n:
            assert all(0 <= v <= max(1, n - 1) for v in arr)


def test_write_array_format(tmp_path):
    spec = DistributionSpec("mod8", 4, "int64", seed=6)
    values = generate(spec)
    path = tmp_path / "arr.txt"
    with open(path, "w") as f:
        write_array(f, spec, values)
    lines = path.read_text().splitlines()
    assert lines[0] == "# mod8 4 int64 6"
    assert lines[1:] == [str(v) for v in values]
