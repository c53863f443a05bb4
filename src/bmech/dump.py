"""Comma-separated field dumps in C ``%.17g``: the bytes that
``np.savetxt(path, a, delimiter=",", fmt="%.17g")`` writes, formatted with
whole-array numpy arithmetic instead of one Python conversion per value.

Exactness.  A finite normal x is m 2^e with an integer m < 2^53, and its
decimal exponent X is b or b + 1, where b = floor(log10 2^(e+52)) (exact
for every e); one comparison with the correctly rounded 10^(b+1) picks it.
It reads one too low only at the double nearest 10^(b+1) when that double
lies above it.  The 17 significant digits are N = round(y) with
y = m 10^(16-X) 2^e, which lies in [10^16, 10^17), or at most 11 above
10^17 in that one case.  The scale 10^(16-X) 2^e, between about 1 and 22,
is held as a double-double hi + lo, each part correctly rounded from the
exact rational built with Python integers, so |hi + lo - scale| <=
2^-106 scale.  Dekker's two-product with Veltkamp's split (numpy has no
fused multiply-add) gives m hi = p + err exactly, where p is an integer
since it exceeds 2^53, and r = err + m lo is rounded twice.  So y = p + r
to within 2^-106 y + 2^-53 m |lo| + 2^-53 |r| < 2^-47, and the fraction
of r decides the rounding wherever it lies more than GUARD = 2^-40 from
1/2.  A rounded N of 10^17 (a power of ten such as 1.0, or a value that
rounds up to one) carries into 10^16 at exponent X + 1, as ``%g`` does.

Every value the fast path cannot decide is formatted by Python's own
correctly rounded ``'%.17g' % x``: zeros, subnormals, inf, nan, values
within the guard of a midpoint (exact midpoints such as 2^-25 round half
to even there), and an N above 10^17.  That costs in proportion to those
values alone, and every dump is byte-identical to ``np.savetxt``'s.

``%g`` layout: fixed notation for -4 <= X < 17, with the fraction's trailing
zeros and a bare point dropped; otherwise d.ddde+XX with the same stripping
and at least two exponent digits.  Each block of BLOCK values becomes one
byte matrix of fixed slots (sign, "0.000", the 17 digits each followed by a
possible point, "e+ddd", separator) and a mask of the slots each value
shows, looked up by layout; the masked bytes, in row order, are the text.
"""

import functools

import numpy as np

BLOCK = 8192           # values per byte matrix: keeps the temporaries in cache
GUARD = 2.0 ** -40     # least distance of a decided fraction from 1/2
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter
_E_MIN = -1074         # least e of a normal double as m 2^e with m < 2^53
_E_MAX = 971           # greatest such e
_TINY = 2.0 ** -1022   # least normal double
_POW = 400             # tables of decimal exponents cover [-_POW, _POW)

# byte slots of one value: sign, "0.000", digit 0, point, digit 1, ...,
# point, digit 16, "e", exponent sign, three exponent digits, separator
_TEMPLATE = b"-0.000" + b"0." * 16 + b"0e+000,"
_WIDTH = len(_TEMPLATE)
_EXPONENT = 40
_FALLBACK = 24         # longest '%.17g' text: -2.2250738585072014e-308
_LAYOUTS = 23          # 0: d.ddde+XX, 1..21: fixed at X = code - 5, 22: d.ddde+XXX


@functools.cache
def _powers():
    """Correctly rounded 10^j for j in [-_POW, _POW)."""
    return np.array([float(f"1e{j}") for j in range(-_POW, _POW)])


@functools.cache
def _groups():
    """ASCII digits of 0000..9999 as one 4-byte word each, and the number of
    trailing zero digits of each group (4 for 0000)."""
    text = "".join(f"{i:04d}" for i in range(10000)).encode()
    codes = np.arange(10000, dtype=np.int16)
    zeros = sum((codes % 10 ** k == 0).view(np.int8) for k in (1, 2, 3, 4))
    return np.frombuffer(text, np.uint32), zeros


@functools.cache
def _exponents():
    """Exponent sign and three digits of every X in [-_POW, _POW), as words."""
    return np.array([b"%+04d" % X for X in range(-_POW, _POW)]).view(np.uint32)


@functools.cache
def _layouts():
    """Which slots a value shows, by (layout, significant digits, sign)."""
    table = np.zeros((_LAYOUTS, 18, 2, _WIDTH), dtype=bool)
    for code in range(_LAYOUTS):
        for significant in range(1, 18):
            keep = table[code, significant]
            keep[1, 0] = True
            shown, point = significant, 0
            if code in (0, _LAYOUTS - 1):
                keep[:, [39, 40, 42, 43]] = True
                keep[:, 41] = code > 0
            elif code < 5:  # 0.000ddd: X = code - 5 < 0
                keep[:, 1:3 + 4 - code] = True
                point = None
            else:
                shown = max(significant, code - 4)
                point = code - 5
            keep[:, 6:6 + 2 * shown:2] = True
            if point is not None and point + 1 < shown:
                keep[:, 7 + 2 * point] = True
            keep[:, -1] = True
    return table.reshape(-1, _WIDTH)


@functools.cache
def _scales():
    """(hi, lo, filled) for every (e, X - b) slot, filled in on first use."""
    size = 2 * (_E_MAX - _E_MIN + 1)
    return np.zeros(size), np.zeros(size), np.zeros(size, dtype=bool)


def _fill(slots):
    """The double-double 10^(16-X) 2^e of each slot, computed from integers
    the first time a slot is asked for."""
    hi_table, lo_table, filled = _scales()
    for slot in set(slots[~filled[slots]].tolist()):
        e = slot // 2 + _E_MIN
        k = 16 - (int(_base(e)) + slot % 2)
        num = 10 ** max(k, 0) << max(e, 0)
        den = 10 ** max(-k, 0) << max(-e, 0)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        hi_table[slot], lo_table[slot] = hi, (num * b - a * den) / (den * b)
        filled[slot] = True
    return hi_table[slots], lo_table[slots]


def _base(e):
    """floor(log10 2^(e+52)), the least decimal exponent of m 2^e."""
    return np.floor((np.asarray(e) + 52) * 0.30102999566398120).astype(np.int64)


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _fallback(values):
    """Python's '%.17g' text of each value, as rows of _FALLBACK bytes."""
    text = np.array(["%.17g" % v for v in values.tolist()], dtype=f"S{_FALLBACK}")
    return text.view(np.uint8).reshape(-1, _FALLBACK)


def _decimal(x):
    """Per value of x: whether the fast path decides it, and if so its 17
    significant digits N and decimal exponent X (10^16 and 0 if not)."""
    fast = np.isfinite(x) & (np.abs(x) >= _TINY)
    ax = np.where(fast, np.abs(x), 1.0)
    mant, exp2 = np.frexp(ax)
    m, e = mant * 2.0 ** 53, exp2.astype(np.int64) - 53
    base = _base(e)
    up = ax > _powers()[base + 1 + _POW]
    hi, lo = _fill(2 * (e - _E_MIN) + up)

    # y = m (hi + lo) = p + r with p = fl(m hi) and r its exact error plus m lo
    p = m * hi
    (mh, ml), (hh, hl) = _split(m), _split(hi)
    r = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    floor = np.floor(r)
    frac = r - floor
    fast &= np.abs(frac - 0.5) > GUARD
    N = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    fast &= N <= 10 ** 17
    carry = N == 10 ** 17
    return (fast, np.where(fast & ~carry, N, 10 ** 16),
            np.where(fast, base + up + carry, 0))


def _digits(N, rows):
    """Write the 17 digits of each N into its row's digit slots; return the
    number of trailing zero digits of each."""
    words, zeros = _groups()
    lead, rest = np.divmod(N, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    quads = np.stack(np.divmod(upper, 10 ** 4) + np.divmod(lower, 10 ** 4), axis=1)
    rows[:, 6] = lead + ord("0")
    rows[:, 8:39:2] = words[quads].view(np.uint8).reshape(len(N), 16)
    z = zeros[quads]
    return z[:, 3] + (z[:, 3] == 4) * (
        z[:, 2] + (z[:, 2] == 4) * (z[:, 1] + (z[:, 1] == 4) * z[:, 0]))


def format_block(x, newline):
    """The text of the values x (1-D float64), each followed by "\\n" where
    ``newline`` is set and by "," elsewhere, as a uint8 array."""
    n = x.size
    fast, N, X = _decimal(x)

    rows = np.empty((n, _WIDTH), np.uint8)
    rows[:] = np.frombuffer(_TEMPLATE, np.uint8)
    trailing = _digits(N, rows)
    rows[:, _EXPONENT:_EXPONENT + 4] = \
        _exponents()[X + _POW].view(np.uint8).reshape(n, 4)
    rows[:, -1] = np.where(newline, ord("\n"), ord(","))

    fixed = (X >= -4) & (X < 17)
    code = np.where(fixed, X + 5, np.where(np.abs(X) >= 100, _LAYOUTS - 1, 0))
    keep = _layouts().take((code * 18 + 17 - trailing) * 2 + np.signbit(x), axis=0)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _fallback(x[slow])
        rows[slow, :_FALLBACK] = text
        keep[slow, :_FALLBACK] = text != 0
        keep[slow, _FALLBACK:-1] = False
    return np.compress(keep.ravel(), rows.ravel())


def write_csv(path, array):
    """Write a 1-D or 2-D real array as ``%.17g`` text: the values of a row
    joined by ",", one row per line, a 1-D array one value per line."""
    a = np.asarray(array, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {a.ndim}D array instead")
    flat = a.ravel()
    with open(path, "wb") as fh:
        if not flat.size:
            fh.write(b"\n" * len(a))  # np.savetxt writes empty rows
        for start in range(0, flat.size, BLOCK):
            block = flat[start:start + BLOCK]
            end_of_row = np.arange(start + 1, start + 1 + block.size) % a.shape[1] == 0
            fh.write(format_block(block, end_of_row))
