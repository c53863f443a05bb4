import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bmech import cli, dump


def formatted(values):
    """One '%.17g' text per value, as the dump formatter writes them."""
    values = np.asarray(values, dtype=float)
    text = dump.format_block(values, np.ones(values.size, dtype=bool))
    return text.tobytes().decode("ascii").split("\n")[:-1]


def mismatches(values):
    return [(v, got, "%.17g" % v) for v, got in zip(values, formatted(values))
            if got != "%.17g" % v]


def edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308,
              -1.7976931348623157e308, math.inf, -math.inf, math.nan,
              2.0 ** -25, 3 * 2.0 ** -25, 1e16, 1e17, 1e-4, 1e-5, 0.1, 0.5]
    for k in range(-308, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), -p]
    for k in range(-1074, 1024):
        values += [2.0 ** k, -(2.0 ** k)]
    for d in range(-4, 5):
        values += [2.0 ** 53 + d, 2.0 ** 54 + 2 * d, 10.0 ** 16 + 2 * d]
    return values


def midpoints(seed, count):
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: '%.17g' rounds them half to even."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        j = int(rng.integers(1, 70))
        x = float(int(rng.integers(1, 2 ** 20)) | 1) * 2.0 ** -j
        x *= 2.0 ** int(rng.integers(-20, 45))
        digits = Decimal(x).as_tuple().digits
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        if len(digits) == 18 and digits[-1] == 5:
            found.append(x)
    return found


def near_midpoints():
    """Doubles m 2^e (X from -12 to -7, where the scale 10^(16-X) 2^e is not
    a double) whose y = m 10^(16-X) 2^e = m 5^k / 2^s lies d / 2^s above or
    below a midpoint, 0 < d < 4000: m = (2^(s-1) + d) 5^-k mod 2^s."""
    found = []
    for e in range(-100, -60):
        for X in range(-12, -6):
            k = 16 - X
            s = -k - e
            if s < 54:
                continue
            inverse = pow(5 ** k, -1, 2 ** s)
            for d in range(1, min(2 ** (s - 44), 4000)):
                for m in ((2 ** (s - 1) + d) * inverse % 2 ** s,
                          (2 ** (s - 1) - d) * inverse % 2 ** s):
                    x = m * 2.0 ** e
                    if 2 ** 52 <= m < 2 ** 53 and f"{x:.16e}".endswith(f"e{X:+03d}"):
                        found.append(x)
    return found


class TestFormat:
    # 60 lists of 256 distinct doubles, nan, inf and subnormals among them,
    # each formatted by one call: 15360 values per run, about 13000 of them
    # distinct (lists that may repeat values hold a few simple ones over and
    # over).  The failure names the values that differ, so the shrink phase,
    # which takes minutes on lists this long, is skipped.
    @settings(max_examples=60, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.lists(st.floats(), min_size=256, max_size=256, unique_by=repr))
    def test_matches_python_on_every_double(self, values):
        assert mismatches(values) == []

    def test_edge_table(self):
        assert mismatches(edge_values()) == []

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(9).integers(0, 2 ** 64, size=100_000,
                                                 dtype=np.uint64)
        assert mismatches(bits.view(np.float64).tolist()) == []

    def test_exact_midpoints_round_half_to_even(self):
        assert mismatches(midpoints(seed=5, count=2000)) == []

    def test_near_midpoints_round_correctly(self):
        values = near_midpoints()
        assert len(values) > 1000
        assert mismatches(values) == []

    def test_least_decimal_exponent_is_exact(self):
        # b = floor(log10 2^(e+52)) for every binary exponent of a normal double
        e = np.arange(dump._E_MIN, dump._E_MAX + 1)
        exact = [len(str(2 ** (k + 52))) - 1 if k + 52 >= 0 else
                 -len(str(2 ** -(k + 52) - 1)) for k in e.tolist()]
        assert dump._base(e).tolist() == exact

    @pytest.mark.parametrize("value, text", [
        (2.0 ** -25, "2.9802322387695312e-08"),       # midpoint, half to even
        (3 * 2.0 ** -25, "8.9406967163085938e-08"),   # midpoint, half to even
        (1.0, "1"),                                   # powers of ten carry
        (-10.0, "-10"),
        (1e22, "1e+22"),
        (1e-14, "1e-14"),                             # rounds up to 10^-14
        (1e16, "10000000000000000"),                  # last fixed exponent
        (1e17, "1e+17"),
        (1e-4, "0.0001"),                             # first fixed exponent
        (1e-5, "1.0000000000000001e-05"),
        (0.1, "0.10000000000000001"),
        (123456.789, "123456.789"),
        (-2.5e-7, "-2.4999999999999999e-07"),
        (1e100, "1e+100"),
        (1.5e-300, "1.5000000000000001e-300"),
        (2.0 ** 53 + 2, "9007199254740994"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
    ])
    def test_known_texts(self, value, text):
        assert "%.17g" % value == text
        assert formatted([value]) == [text]

    def test_fast_path_decides_ordinary_values(self, monkeypatch):
        # Python's conversion is the exact fallback; values of the kind the
        # kernel dumps hold must not need it, or nothing would be gained.
        # (Large values with few fraction bits are often exact midpoints.)
        seen = []
        fallback = dump._fallback
        monkeypatch.setattr(dump, "_fallback",
                            lambda v: seen.append(v.size) or fallback(v))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096) * 10.0 ** rng.integers(-30, 8, 4096)
        assert mismatches(x.tolist() + [1.0, 10.0, 0.5, np.pi]) == []
        assert seen == []


def savetxt_bytes(path, array):
    np.savetxt(path, array, delimiter=",", fmt="%.17g")
    return path.read_bytes()


def mixed(shape, seed):
    """Values of the kernel dumps' kind, with fallback values among them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=max(1, flat.size // 50), replace=False)
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-320, 2.0 ** -25,
                1e17, 1e-5]
    flat[picks] = [specials[i % len(specials)] for i in range(picks.size)]
    return a


class TestWriteCsv:
    @pytest.mark.parametrize("shape", [
        (1,), (10,), (1, 1), (1, 7), (7, 1), (3, 5),
        (dump.BLOCK + 3,),                      # 1-D across a block edge
        (3, dump.BLOCK // 2 + 7),               # rows straddle the block edges
        (dump.BLOCK // 64 + 1, 64),
    ])
    def test_same_bytes_as_savetxt(self, tmp_path, shape):
        a = mixed(shape, seed=sum(shape))
        dump.write_csv(tmp_path / "fast.csv", a)
        assert (tmp_path / "fast.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", a)

    @pytest.mark.parametrize("shape", [(5, 3), (13,), (4, 4)])
    def test_small_blocks_split_rows(self, tmp_path, monkeypatch, shape):
        monkeypatch.setattr(dump, "BLOCK", 4)
        a = mixed(shape, seed=7)
        dump.write_csv(tmp_path / "fast.csv", a)
        assert (tmp_path / "fast.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", a)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_arrays(self, tmp_path, shape):
        a = np.zeros(shape)
        dump.write_csv(tmp_path / "fast.csv", a)
        assert (tmp_path / "fast.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", a)

    def test_all_fallback_values(self, tmp_path):
        a = np.array([[0.0, -0.0, math.nan], [math.inf, 5e-324, 2.0 ** -25]])
        dump.write_csv(tmp_path / "fast.csv", a)
        assert (tmp_path / "fast.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", a)

    def test_cli_writer_uses_it(self, tmp_path):
        a = mixed((9, 11), seed=11)
        cli._write_csv(tmp_path / "cli.csv", a)
        assert (tmp_path / "cli.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", a)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_rejects_other_ranks(self, tmp_path, shape):
        with pytest.raises(ValueError, match="Expected 1D or 2D array"):
            dump.write_csv(tmp_path / "x.csv", np.zeros(shape))
