"""CSV rows: :func:`csv_blocks` checks an ``(m, 2)`` float64 array and returns
its rows as CSV lines of ASCII bytes, one block of rows at a time, so a
caller can write each block out before the next is built.  Each value reads
as :func:`~qrange.serialize.format_float` prints it.

``.17g`` prints a value in fixed notation when its 17-digit decimal exponent
``k`` lies in [-4, 16], that is for ``1e-4 <= |x| < 1e17`` and for ``±0``;
it round-trips, so the integral values in that window are the ones it
prints without a point, and those get ``.0``.  NumPy builds that text here,
a whole block of rows at once:

* ``k`` starts as ``floor(log10|x|)`` and moves by one wherever the exact
  product ``|x|·10**(16-k)`` falls outside ``[1e16, 1e17)``.
* Dekker's TwoProduct gives that product exactly as ``hi + lo``: ``10**j``
  is an exact double for ``j <= 22``, Veltkamp's split makes each partial
  product exact, no intermediate overflows or underflows in the window, and
  NumPy rounds every ufunc result (it fuses no multiply-add across calls).
* ``hi`` is an even integer above ``2**53``, so ``hi + rint(lo)`` is the
  17-digit integer rounded half to even, as ``.17g`` rounds.  It never
  reaches ``10**17``: that needs ``|x|`` less than 5e-18 (relative) below a
  power of ten, and no float64 lies that close to one in the window.
* A 4-digit table prints the digits into fixed-width byte slots, and a mask
  looked up by sign, ``k`` and the last nonzero digit keeps the sign, the
  point, the digits without trailing zeros and the separator.

A row holding a value outside the window (exponent form) is printed value by
value with :func:`~qrange.serialize.format_float`.  Only
:mod:`qrange.range_oracle` imports this module, so the commands that write
no CSV do not compile it; its tables are built on first use.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .errors import DimensionMismatch
from .serialize import format_float

__all__ = ["csv_blocks"]

# Rows per block: a block's temporaries (1.6 MB, mostly the indices that
# np.compress makes of its mask), not a file's size, bound the memory that
# writing a CSV file takes.  At 4096 rows they are 3.3 MB, more than glibc's
# trim threshold (twice the largest mmapped chunk freed so far, here the
# 1.5 MiB scaled cloud that hole detection frees), so each block's pages went
# back to the OS and were faulted in again: a default `sample` took 26.8k
# minor faults and 281 ms, against 7.7k and 225 ms at 2048 rows (medians of
# 20 runs on a shared 2-core VM).
_BLOCK_ROWS = 2048
# Each value gets a 48-byte slot of six little-endian 8-byte words:
#   word 0    pad, "-", "0", ".", "0", "0", "0", D0 (the leading digit)
#   words 1-4 ".", D1, ".", D2, ..., ".", D16 (one 4-digit group per word)
#   word 5    ".", "0", separator, 5 pad bytes
# and a mask row picks the bytes of its text and separator out of the slot.
_SLOT_WORDS = 6
_SLOT_HEAD = int(np.frombuffer(b" -0.0000", "<i8")[0])
_SLOT_TAILS = np.frombuffer(b".0,     .0\n     ", "<i8")  # first and second column
_SKIP = 2 * 21 * 17  # the all-False mask row: a row printed value by value


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The power, digit-group, last-digit and mask tables that :func:`_format_block` reads."""
    pow10 = np.array([float(10**j) for j in range(23)])  # exact up to 10**22
    powers = np.stack([pow10, *_split(pow10)])
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = np.empty((10_000, 8), np.uint8)
    text[:, 0::2] = ord(".")
    text[:, 1::2] = digits + ord("0")
    # last[q, g]: the index i of the last nonzero digit D(i) when g holds D(4q+1)..D(4q+4), else 0.
    in_group = np.max((digits != 0) * np.arange(1, 5), axis=1)
    last = np.where(in_group > 0, 4 * np.arange(4)[:, None] + in_group, 0).astype(np.uint8)
    # masks[(sign, k + 4, end)]: the slot bytes of a value with exponent k in [-4, 16] whose
    # last nonzero digit is D(end).  D(i) sits at byte 2i + 7 and the "." before it at 2i + 6.
    neg = np.arange(2)[:, None, None]
    k = np.arange(-4, 17)[None, :, None]
    end = np.arange(17)[None, None, :]
    i = np.arange(1, 17)
    keep = np.zeros((8 * _SLOT_WORDS, 2, 21, 17), bool)
    keep[1] = neg == 1
    keep[2:4] = k < 0  # "0."
    keep[4:7] = np.arange(3)[:, None, None, None] < -k - 1  # the zeros after "0."
    keep[7] = True
    keep[2 * i + 6] = i[:, None, None, None] == k + 1
    keep[2 * i + 7] = i[:, None, None, None] <= np.maximum(end, k + 1)
    keep[40:42] = k == 16  # ".0" after 17 integer digits
    keep[42] = True
    masks = np.vstack([keep.reshape(len(keep), -1).T, np.zeros(len(keep), bool)])
    tables = (powers, text.view("<i8").ravel(), last, masks)
    for table in tables:
        table.setflags(write=False)
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a: np.ndarray, j: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct: ``a * 10**j == hi + lo`` exactly, ``hi`` being the rounded product."""
    p, p_hi, p_lo = powers[:, j]
    a_hi, a_lo = _split(a)
    hi = a * p
    return hi, a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)


def _format_block(block: np.ndarray) -> bytes:
    powers, text, last, masks = _csv_tables()
    x = block.ravel()
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e17)
    zero = a == 0
    plain = inside | zero
    a = np.where(inside, a, 1.0)  # zeros and skipped values run on as 1.0
    j = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    hi, lo = _scaled(a, j, powers)
    while True:  # next to a power of ten, log10 can miss the decade by one
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        miss = np.flatnonzero(low | high)
        if not miss.size:
            break
        j[miss] += low[miss].astype(np.intp) - high[miss]
        hi[miss], lo[miss] = _scaled(a[miss], j[miss], powers)
    # hi >= 1e16 > 2**53 is an even integer, so rint's ties-to-even on lo rounds hi + lo half to even.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    k = 16 - j
    n[zero] = 0  # k is already 0, from the placeholder 1.0
    lead, rest = np.divmod(n, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    slots = np.empty((x.size, _SLOT_WORDS), "<i8")
    slots[:, 0] = _SLOT_HEAD + (lead << 56)
    for q, group in enumerate(groups):
        slots[:, 1 + q] = text[group]
    slots.reshape(-1, 2, _SLOT_WORDS)[:, :, 5] = _SLOT_TAILS
    end = np.maximum(np.maximum(last[0][groups[0]], last[1][groups[1]]), np.maximum(last[2][groups[2]], last[3][groups[3]]))
    key = np.signbit(x) * 357 + (k + 4) * 17 + end
    skipped = np.flatnonzero(~(plain[0::2] & plain[1::2]))
    key.reshape(-1, 2)[skipped] = _SKIP
    mask = masks[key]
    body = np.compress(mask.ravel(), slots.view(np.uint8).ravel()).tobytes()
    if not skipped.size:
        return body
    # A skipped row's mask is empty, so its text goes where the rows before it end.
    starts = np.cumsum(mask.reshape(len(block), -1).sum(axis=1))[skipped]
    pieces, done = [], 0
    for start, (first, second) in zip(starts.tolist(), block[skipped].tolist()):
        pieces += [body[done:start], f"{format_float(first)},{format_float(second)}\n".encode("ascii")]
        done = start
    pieces.append(body[done:])
    return b"".join(pieces)


def csv_blocks(rows: np.ndarray) -> Iterator[bytes]:
    """Check ``rows``, then return their CSV lines as ASCII bytes, one block of rows at a time.

    Anything but an ``(m, 2)`` float64 array raises :class:`DimensionMismatch`,
    and a non-finite value raises the same :class:`ValueError` as
    :func:`~qrange.serialize.format_float`; both checks run when this is
    called, before any block is built.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 2):
        got = f"{rows.dtype} array of shape {rows.shape}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise DimensionMismatch(f"CSV rows must be an (m, 2) float64 array, got {got}")
    finite = np.isfinite(rows)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(rows[~finite][0])!r}")
    return (_format_block(rows[start : start + _BLOCK_ROWS]) for start in range(0, len(rows), _BLOCK_ROWS))
