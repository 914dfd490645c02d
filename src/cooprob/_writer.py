"""The CLI's writer of whole float arrays.

The probabilities and weights of the applied games run to 10^5 options and
more, so the renderers of ``cooprob.cli`` write them as whole arrays, and
import this module when they meet the first one. Each value becomes a row of
four NUL-padded words (sign and lead, two of digits and point, exponent or
".0" tail); the rows of one array are laid out with their keys, indices and
separators in one uint8 matrix, which is compacted (NULs dropped) and
decoded once.

The guarantee: each value is written as ``repr(_round12(v))``, byte for
byte, for every float, as the renderers write a scalar. numpy's mantissa is
taken only where it is more than 1e-3 from a rounding tie and
1e-280 <= |v| <= 1e280 (see :func:`_decimals`), and the other rows take
Python's formatting. The bytes are those of ``repr``, not of ``json.dumps``,
so a JSON array must hold finite values, as every ``OptionDistribution``
does.
"""

from __future__ import annotations

import functools
import math
import sys

from .cli import _round12

# the exponents the lookup tables cover, those of every normal float and more
_E = 330
# rows per pass: a pass's temporaries stay small enough for the allocator to
# reuse, where whole-array ones would be fresh pages each time
_CHUNK = 8192


def _packed(strings):
    """ASCII strings of up to 8 bytes as NUL-padded little-endian words, so
    that byte j of a word is its bits 8j to 8j + 7 and a byte shift is a bit
    shift by 8."""
    import numpy as np

    return np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in strings), dtype="<u8")


@functools.cache
def _writer_tables():
    """Lookup tables of the array writer, built on first use."""
    import numpy as np

    # the groups 0000..9999 of 4 digits, and the length of each before its
    # trailing zeros (the place of its last nonzero digit, -12 for 0000: the
    # most of the three groups' lengths, offset by 0, 4 and 8, is then the
    # length of a 12-digit mantissa before its trailing zeros)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = np.zeros((10000, 8), np.uint8)
    groups[:, :4] = digits + ord("0")
    lengths = np.max((digits != 0) * np.arange(1, 5), axis=1)
    lengths[0] = -12
    prefixes, suffixes = [], []
    for e in range(-_E, _E + 1):
        fixed = -4 <= e < 16
        lead = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        prefixes += [lead, "-" + lead]  # by sign
        if not fixed:
            suffixes += [f"e{e:+03d}"] * 2
        elif e >= 11:
            suffixes += ["0" * (e - 11) + ".0"] * 2
        else:  # by whether a fraction is left
            suffixes += ["", "0" if e >= 0 else ""]
    low = [(1 << 8 * min(q, 8)) - 1 for q in range(18)]
    high = [(1 << 8 * min(max(q - 8, 0), 8)) - 1 for q in range(18)]
    return {
        # 10^k for |k| <= _E, correctly rounded
        "powers": np.array([float(f"1e{k}") for k in range(-_E, _E + 1)]),
        "groups": groups.view("<u8").ravel(),
        "lengths": lengths,
        "prefixes": _packed(prefixes),
        "suffixes": _packed(suffixes),
        # the first q bytes of a 16-byte pair of words, the bytes after byte
        # q, and a point at byte q
        "low": np.array(low, dtype=np.uint64),
        "high": np.array(high, dtype=np.uint64),
        "after_low": ~np.array(low[1:] + [2**64 - 1], dtype=np.uint64),
        "after_high": ~np.array(high[1:] + [2**64 - 1], dtype=np.uint64),
        "point_low": np.array([ord(".") << 8 * q if q < 8 else 0 for q in range(18)], dtype=np.uint64),
        "point_high": np.array([ord(".") << 8 * (q - 8) if 8 <= q < 16 else 0 for q in range(18)], dtype=np.uint64),
    }


def _decimals(values):
    """``(m, e, special)`` for an array of floats: the 12-digit mantissa m in
    [1e11, 1e12), as exact float64 integers, and the exponent e with
    ``_round12(|v|) = m 10^(e - 11)``; and the zeros, subnormals and
    non-finite values, which have no such form that repr prints.

    For |v| in [1e-280, 1e280], y = |v| 10^(11 - e) takes two roundings, the
    power's and the product's, so it lies within 3e-4 of the exact product,
    and ``rint(y)`` is the correctly rounded mantissa wherever frac(y) is
    more than 1e-3 from 1/2. The rows nearer a tie than that (about 0.2 % of
    random values) and the normal values outside that range take m and e
    from Python's correctly rounded ``"{:.11e}"`` instead.
    """
    import numpy as np

    powers = _writer_tables()["powers"]
    a = np.abs(values)
    special = ~((a >= sys.float_info.min) & (a < math.inf))
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * powers[_E + 11 - e]
    # log10 may land one off next to a power of ten; the range test mends it
    e += y >= 1e12
    e -= y < 1e11
    np.multiply(a, powers[_E + 11 - e], out=y)
    m = np.rint(y)
    y -= np.floor(y)
    fast &= np.abs(y - 0.5) > 1e-3
    top = m == 1e12
    m[top] = 1e11
    e += top
    at = np.flatnonzero(~fast & ~special)
    if len(at):
        strings = [f"{v:.11e}" for v in np.abs(values[at]).tolist()]  # d.ddddddddddde±XX
        m[at] = [float(s[0] + s[2:13]) for s in strings]
        e[at] = [int(s[14:]) for s in strings]
    return m, e, special


def _repr_columns(values) -> list:
    """``repr(_round12(v))`` for each float in ``values``, as a list of
    NUL-padded (n, w) uint8 column blocks: the four words of each row, each
    cut after the last byte some row uses, so a word no row uses is gone.
    Special values (see :func:`_decimals`) take the scalar rule, written
    from the first word of digits on."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    words = np.empty((len(values), 4), "<u8")
    for start in range(0, len(values), _CHUNK):
        _write_reprs(values[start:start + _CHUNK], words[start:start + _CHUNK])
    rows = words.view(np.uint8)
    widths = [(int(np.bitwise_or.reduce(words[:, j])).bit_length() + 7) // 8 for j in range(4)]
    return [rows[:, 8 * j:8 * j + width] for j, width in enumerate(widths) if width]


def _write_reprs(values, words) -> None:
    """The rows of :func:`_repr_columns` for one chunk, written into its
    (n, 4) ``words``."""
    import numpy as np

    t = _writer_tables()
    m, e, special = _decimals(values)
    # m's three groups of 4 digits, split exactly in float64
    g0 = np.floor(m / 1e8)
    rest = m - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    g2 = (rest - g1 * 1e4).astype(np.intp)
    g0, g1 = g0.astype(np.intp), g1.astype(np.intp)
    lo = t["groups"][g0] | t["groups"][g1] << np.uint64(32)
    hi = t["groups"][g2]
    lengths = t["lengths"]
    # the digits of m before its trailing zeros
    sig = np.maximum(np.maximum(lengths[g0], lengths[g1] + 4), lengths[g2] + 8)
    fixed = (e >= -4) & (e < 16)
    # a fixed-point number keeps the zeros of its integer part
    keep = np.minimum(np.where(fixed, np.maximum(sig, e + 1), sig), 12)
    lo &= t["low"][keep]
    hi &= t["high"][keep]
    # the point follows digit e in fixed notation below e = 11, and the
    # first digit in exponent notation when a second one follows; 16 is none
    q = np.where(fixed, np.where((e >= 0) & (e < 11), e + 1, 16), np.where(sig > 1, 1, 16))
    eight = np.uint64(8)
    words[:, 0] = t["prefixes"][(e + _E) * 2 + np.signbit(values)]
    words[:, 1] = lo & t["low"][q] | lo << eight & t["after_low"][q] | t["point_low"][q]
    words[:, 2] = hi & t["high"][q] | (hi << eight | lo >> np.uint64(56)) & t["after_high"][q] | t["point_high"][q]
    words[:, 3] = t["suffixes"][(e + _E) * 2 + (sig <= e + 1)]
    if special.any():
        at = np.flatnonzero(special)
        text = np.zeros((len(at), 32), np.uint8)
        text[:, 8:] = np.array([repr(_round12(v)) for v in values[at].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
        words[at] = text.view("<u8")


def _rounded_array(values):
    """``_round12(v)`` for each float in ``values``: m / 10^(11 - e) is one
    correctly rounded operation, as ``float`` of the 12-digit string is,
    where the power is exact (|11 - e| <= 22). The scalar rule takes the
    other rows."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    m, e, special = _decimals(values)
    k = 11 - e
    power = _writer_tables()["powers"][_E + np.minimum(np.abs(k), 22)]
    rounded = np.where(k >= 0, m / power, m * power)
    np.copysign(rounded, values, out=rounded)
    at = np.flatnonzero(special | (np.abs(k) > 22))
    rounded[at] = [_round12(v) for v in values[at].tolist()]
    return rounded


def _index_rows(n: int):
    """The indices 0..n-1 in decimal, as the rows of a NUL-padded uint8 matrix."""
    import numpy as np

    width = len(str(max(n - 1, 0)))
    words = -(-width // 4)
    groups = np.empty((n, words), "<u4")
    index = np.arange(n)
    for j in range(words):
        groups[:, words - 1 - j] = _writer_tables()["groups"][index // 10 ** (4 * j) % 10**4]
    digits = groups.view(np.uint8)[:, 4 * words - width:]
    for col in range(width - 1):  # the leading zeros, in the rows below the column's place
        digits[: 10 ** (width - 1 - col), col] = 0
    return digits


def _block(n: int, *parts) -> str:
    """n rows of ``parts`` side by side, NULs dropped, as one string. A part
    is bytes, the same in every row, or an (n, w) uint8 matrix."""
    import numpy as np

    widths = [len(part) if isinstance(part, bytes) else part.shape[1] for part in parts]
    out = np.empty((min(n, _CHUNK), sum(widths)), np.uint8)
    starts = np.cumsum([0] + widths).tolist()
    arrays = []
    for part, col in zip(parts, starts):
        if isinstance(part, bytes):
            out[:, col:col + len(part)] = np.frombuffer(part, np.uint8)
        else:
            arrays.append((part, col))
    text = []
    for start in range(0, n, _CHUNK):
        chunk = out[: min(n - start, _CHUNK)]
        for part, col in arrays:
            chunk[:, col:col + part.shape[1]] = part[start:start + _CHUNK]
        flat = chunk.ravel()
        text.append(flat[flat != 0].tobytes().decode())
    return "".join(text)
