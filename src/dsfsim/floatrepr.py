"""Python's ``repr`` of every entry of a float64 array at once, as ASCII bytes.

The spectrum and series writers format thousands of floats per file, and
``float.__repr__`` called once per number dominated them.  ``reprs`` computes
the same texts for a whole array with numpy:

- **Digits.** The shortest decimal that reads back to the same double, and of
  those the nearest, a tie going to the even last digit.  They come from
  Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020; the
  algorithm of ``java.lang.Double.toString`` since JDK 19): one 126-bit scaled
  multiply per entry, done on 32-bit limbs in uint64.
- **Layout.** ``repr``'s: positional when the decimal exponent of the first
  digit lies in [-4, 16), with ``.0`` after an integer; otherwise ``d.ddd``
  (the dot only for more than one digit), ``e``, a sign and at least two
  exponent digits.  Each entry's text is one gather from a row of its bytes
  (``_SOURCE``) by the index row of its layout (``_layouts``).
- **Fallback.** Subnormals, infinities and NaN go to ``repr`` one at a time.
  For the smallest subnormals Schubfach writes two digits where ``repr``
  writes one.  Spectra hold few subnormals, and a ``Spectrum`` or
  ``GreensSeries`` that passes its own checks holds no infinity or NaN.
- **Short arrays.** An array of fewer than ``VECTOR_MIN`` entries goes to
  ``repr`` entry by entry: the numpy calls of the vectorized path cost more
  than that saves below about 440 entries (the crossover measured on a
  2-vCPU x86-64 host).
"""
from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN, _K_MAX = -324, 292   # the decimal scales k of the normal doubles
VECTOR_MIN = 448
BLOCK_ROWS = 512
# The bytes an entry's text is gathered from: NUL, the literals, the 17
# significant digits (A to Q) and the exponent's sign and digits (W to Z).
_SOURCE = "\0-0.e" + "ABCDEFGHIJKLMNOPQ" + "WXYZ"
_WIDTH = 24   # the longest text: a sign, 17 digits, a dot and e-308
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]   # 1-based digit places, a column


def _flog10pow2(e):
    """floor(e log10 2), for |e| < 2^12 (ints or int64 arrays)."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), for |e| < 2^12."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10), for |e| < 2^12."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """(2, K) uint64: g(k) = g1 2^63 + g0 = floor(10^-k / 2^r) + 1 for k in
    [K_MIN, K_MAX], where r makes 2^125 <= 10^-k / 2^r < 2^126."""
    table = np.empty((2, _K_MAX - _K_MIN + 1), dtype=_U)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        table[:, i] = g >> 63, g & (2**63 - 1)
    table.flags.writeable = False
    return table


# The arithmetic below works in place where it can: a formatter's temporaries
# come on top of whatever the run holds when it writes its files.

def _mulhi(a, b1, b0):
    """The high 64 bits of each product a (b1 2^32 + b0), for b1, b0 below 2^32."""
    a1, a0 = a >> 32, a & _M32
    high, mid = a1 * b1, a0 * b0
    mid >>= 32
    for cross in (a1 * b0, a0 * b1):
        high += cross >> 32
        cross &= _M32
        mid += cross
    mid >>= 32
    high += mid
    return high


def _rop(g1, g0, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0, with its last bit set when the
    quotient is inexact (Schubfach's ``rop``)."""
    c1, c0 = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mulhi(g0, c1, c0)
    high = _mulhi(g1, c1, c0)
    high += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    high |= z
    return high


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f 10^k is the shortest decimal in the rounding interval of each
    normal double |bits|, the nearest one if there are two, ties to an even f.

    f < 10^17.  Schubfach's test for one digit fewer (multiples of 10) runs for
    every entry: it skips it below s = 100, which only subnormals reach.
    """
    q = (bits >> 52 & 0x7FF).astype(np.int64)
    c = bits & _U(2**52 - 1)
    # A power of two above the smallest normal: the gap below is half the gap above.
    irregular = (c == 0) & (q > 1)
    c |= _U(2**52)
    q -= 1075
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    g1, g0 = _g_table()[:, k - _K_MIN]
    q += _flog2pow10(-k) + 2
    h = q.astype(np.uint8)   # 2..5 for every normal double, so each c 2^(h+2) < 2^60
    del q
    out = (c & 1).astype(np.uint8)   # an odd significand's interval leaves out its ends
    c <<= 2
    # The interval's lower end, its upper end and the value.
    vbl = _rop(g1, g0, (c - np.where(irregular, _U(1), _U(2))) << h)
    vbr = _rop(g1, g0, (c + 2) << h)
    c <<= h
    vb = _rop(g1, g0, c)
    del g1, g0, c, h
    s = vb >> 2
    sp10 = s // 10 * 10
    vbl += out
    upin, wpin = vbl <= sp10 << 2, (sp10 + 10 << 2) + out <= vbr
    uin, win = vbl <= s << 2, (s + 1 << 2) + out <= vbr
    mid = 2 * s + 1 << 1
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), np.where(pick_s, s, s + 1))
    return f, k


def _digits(x: np.ndarray) -> np.ndarray:
    """(18, len(x)) uint8: row j holds digit j (ASCII) of each uint64 x < 10^18,
    zeros in front."""
    halves = np.concatenate(np.divmod(x, _U(10**9))).astype(np.uint32)
    digits = np.empty((9, len(halves)), np.uint8)
    for j in range(8, -1, -1):
        tens = halves // np.uint32(10)
        digits[j] = halves - tens * np.uint32(10)
        halves = tens
    digits += np.uint8(48)
    return np.concatenate([digits[:, :len(x)], digits[:, len(x):]])


@functools.cache
def _exponents() -> np.ndarray:
    """(633, 4) uint8, row e + 324 for the decimal exponent e in [-324, 308]:
    its sign and two or three digits, NUL-padded."""
    text = "".join(f"{e:+03d}".ljust(4, "\0") for e in range(-324, 309))
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, 4)


@functools.cache
def _layouts() -> np.ndarray:
    """(2 * 17 * 22, _WIDTH) uint8: the ``_SOURCE`` column of each byte of a
    text, NUL-padded, in row (sign * 17 + digits - 1) * 22 + class.  The class
    is e + 4 for a positional decimal exponent e of the first digit, then 20
    and 21 for two and three exponent digits."""
    digits, texts = _SOURCE[5:22], []
    for sign in ("", "-"):
        for nd in range(1, 18):
            for e in range(-4, 18):
                if e < 0:
                    text = "0." + "0" * (-e - 1) + digits[:nd]
                elif e < 16:   # the digits beyond nd are zeros: "1.0", "10.0"
                    text = digits[:e + 1] + "." + digits[e + 1:max(nd, e + 2)]
                else:   # e = 16 and 17 stand for two and three exponent digits
                    text = digits[0] + ("." + digits[1:nd] if nd > 1 else "") \
                        + "e" + "WXYZ"[:e - 13]
                texts.append((sign + text).ljust(_WIDTH, "\0"))
    column = np.zeros(128, np.uint8)
    column[np.frombuffer(_SOURCE.encode(), np.uint8)] = np.arange(len(_SOURCE))
    return column[np.frombuffer("".join(texts).encode(), np.uint8)].reshape(-1, _WIDTH)


def reprs(values) -> list[bytes]:
    """``repr(float(v)).encode()`` for each entry ``v`` of a 1-d array.

    The texts are gathered ``BLOCK_ROWS`` entries at a time: the gather's
    index for a whole 3,731-point spectrum (700 kB of intp) raised the peak
    resident memory of a run that writes one.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if len(values) < VECTOR_MIN:
        return [repr(v).encode() for v in values.tolist()]
    source, layout, fallback = _sources(values)
    rows = np.arange(0, source.size, len(_SOURCE))[:, None]   # each row's first byte
    texts = []   # an "S" item drops the NULs that pad it
    for start in range(0, len(values), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        index = _layouts().take(layout[block], axis=0) + rows[block]
        texts += source.ravel().take(index).view(f"S{_WIDTH}").ravel().tolist()
    for i in np.flatnonzero(fallback).tolist():
        texts[i] = repr(float(values[i])).encode()
    return texts


def _sources(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, layout, fallback): each entry's ``_SOURCE`` bytes, its row of
    ``_layouts``, and whether it goes to ``repr`` instead."""
    bits = values.view(_U)
    biased = bits >> 52 & 0x7FF
    zero = bits << 1 == 0
    fallback = ((biased == 0) | (biased == 0x7FF)) & ~zero
    # Zeros and fallback entries are formatted as 1.0, then mended.
    f, k = _shortest(np.where(zero | fallback, _U(0x3FF0000000000000), bits))
    seventeen = f >= 10**16
    e10 = k + 15 + seventeen                 # decimal exponent of the first digit
    d = _digits(np.where(seventeen, f, f * 10))[1:]
    nd = ((d != 48) * _PLACES).max(axis=0)   # digits up to the last nonzero
    d[0, zero] = 48
    source = np.empty((len(values), len(_SOURCE)), np.uint8)
    source[:, :5] = np.frombuffer(_SOURCE[:5].encode(), np.uint8)
    source[:, 5:22] = d.T
    source[:, 22:] = _exponents().take(e10 + 324, axis=0)
    form = np.where((e10 >= -4) & (e10 < 16), e10 + 4, 20 + (np.abs(e10) >= 100))
    return source, (np.signbit(values) * 17 + nd - 1) * 22 + form, fallback
