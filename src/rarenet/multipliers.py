"""Gate-level signed multiplier generators.

Four architectures producing the full 2N-bit two's-complement product:

* ARRAY - Baugh-Wooley form: complemented sign partial products accumulated
  row by row with ripple cells, plus the two constant-one corrections folded
  in as incrementer chains.
* DADDA - sign-extended partial-product matrix (product of the 2N-bit sign
  extensions, truncated to 2N columns) reduced with standard Dadda
  column-reduction stages and a final ripple adder.
* VEDIC - recursive Urdhva-Tiryagbhyam decomposition (2x2 base cells),
  sub-products merged with unrolled-lookahead adders; sign handled by a
  correction stage on the upper product half.
* BOOTH - radix-4 modified Booth recoding with parallel partial-product
  rows, column reduction, and a final ripple adder.

Reduction cells take the column they sum; the final product column is
capped at 2N-1 (arithmetic is mod 2^(2N), so dropped top carries are
provably zero).
"""

from __future__ import annotations

from .adders import adder_cell, cla_vector_add
from .netlist import Netlist, NetlistBuilder

MULTIPLIER_KINDS = ("ARRAY", "VEDIC", "DADDA", "BOOTH")
_MULT_WIDTHS = (4, 8, 16)


def build_multiplier(kind: str, width: int) -> Netlist:
    kind = kind.upper()
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unsupported multiplier kind {kind!r}")
    if width not in _MULT_WIDTHS:
        raise ValueError(f"unsupported multiplier width {width}")
    bld = NetlistBuilder(kind.lower(), width)
    a = [bld.input(f"a{i}", i) for i in range(width)]
    b = [bld.input(f"b{i}", i) for i in range(width)]
    builder = {
        "ARRAY": _build_array, "VEDIC": _build_vedic,
        "DADDA": _build_dadda, "BOOTH": _build_booth,
    }[kind]
    outs = builder(bld, a, b)
    assert len(outs) == 2 * width
    bld.set_outputs(outs)
    return bld.build()


# ---------------------------------------------------------------- reduction

_DADDA_HEIGHTS = (2, 3, 4, 6, 9, 13, 19, 28, 42, 63)


def _reduce_columns(bld, cols, width, tag):
    """Dadda-style staged column reduction down to height <= 2."""
    stage = 0
    while max(len(c) for c in cols) > 2:
        target = max(h for h in _DADDA_HEIGHTS if h < max(len(c) for c in cols))
        for k in range(width):
            block = f"{tag}_s{stage}_c{k}"
            while len(cols[k]) > target:
                # a half adder removes one net from the column, a full adder two
                take = 2 if len(cols[k]) == target + 1 else 3
                s, c = adder_cell(bld, cols[k][:take], k, block,
                                  carry=k + 1 < width)
                del cols[k][:take]
                cols[k].append(s)
                if c is not None:
                    cols[k + 1].append(c)
        stage += 1
    return cols


def _cpa_finish(bld, cols, width, tag):
    """Ripple addition of a height<=2 column array; returns the output bits."""
    outs = []
    carry = None
    for k in range(width):
        s, carry = adder_cell(bld, (*cols[k], carry), k, f"{tag}{k}",
                              carry=k + 1 < width)
        outs.append(s)
    return outs


# -------------------------------------------------------------------- dadda

def _build_dadda(bld, a, b):
    n = len(a)
    w = 2 * n
    pp: dict[tuple[int, int], int] = {}

    def pp_net(i, j):
        key = (min(i, n - 1), min(j, n - 1))
        if key not in pp:
            pp[key] = bld.gate("AND", (a[key[0]], b[key[1]]),
                               min(key[0] + key[1], w - 1), f"pp_row{key[1]}")
        return pp[key]

    cols = [[] for _ in range(w)]
    for k in range(w):
        for i in range(k + 1):
            cols[k].append(pp_net(i, k - i))
    cols = _reduce_columns(bld, cols, w, "dadda")
    return _cpa_finish(bld, cols, w, "cpa")


# -------------------------------------------------------------------- booth

def _build_booth(bld, a, b):
    n = len(a)
    w = 2 * n
    cols = [[] for _ in range(w)]
    for j in range(n // 2):
        block = f"benc{j}"
        col = 2 * j
        if j == 0:
            one = b[0]
            neg = b[1]
            nb0 = bld.gate("NOT", (b[0],), col, block)
            two = bld.gate("AND", (b[1], nb0), col, block)
        else:
            bm, b0, b1 = b[2 * j - 1], b[2 * j], b[2 * j + 1]
            one = bld.gate("XOR", (b0, bm), col, block)
            t = bld.gate("AND", (b0, bm), col, block)
            nt = bld.gate("NOT", (t,), col, block)
            neg = bld.gate("AND", (b1, nt), col, block)
            nb0 = bld.gate("NOT", (b0,), col, block)
            nbm = bld.gate("NOT", (bm,), col, block)
            nb1 = bld.gate("NOT", (b1,), col, block)
            u = bld.gate("AND", (nb0, nbm), col, block)
            ta = bld.gate("AND", (b1, u), col, block)
            tb = bld.gate("AND", (nb1, t), col, block)
            two = bld.gate("OR", (ta, tb), col, block)
        row = f"pp_row{j}"
        e_top = None
        for i in range(n + 1):
            c = min(2 * j + i, w - 1)
            sel1 = bld.gate("AND", (one, a[min(i, n - 1)]), c, row)
            if i == 0:
                m = sel1
            else:
                sel2 = bld.gate("AND", (two, a[i - 1]), c, row)
                m = bld.gate("OR", (sel1, sel2), c, row)
            e = bld.gate("XOR", (m, neg), c, row)
            if 2 * j + i < w:
                cols[2 * j + i].append(e)
            e_top = e
        for k in range(2 * j + n + 1, w):
            cols[k].append(e_top)
        cols[2 * j].append(neg)
    cols = _reduce_columns(bld, cols, w, "red")
    return _cpa_finish(bld, cols, w, "cpa")


# -------------------------------------------------------------------- array

def _build_array(bld, a, b):
    n = len(a)
    w = 2 * n
    rows = []
    for j in range(n - 1):
        row = {}
        for i in range(n - 1):
            row[i + j] = bld.gate("AND", (a[i], b[j]), i + j, f"pp_row{j}")
        row[n - 1 + j] = bld.gate("NAND", (a[n - 1], b[j]), n - 1 + j, f"pp_row{j}")
        rows.append(row)
    last = {}
    for i in range(n - 1):
        last[n - 1 + i] = bld.gate("NAND", (a[i], b[n - 1]), n - 1 + i,
                                   f"pp_row{n - 1}")
    last[2 * n - 2] = bld.gate("AND", (a[n - 1], b[n - 1]), 2 * n - 2,
                               f"pp_row{n - 1}")
    rows.append(last)

    acc: list[int | None] = [None] * w
    for k, net in rows[0].items():
        acc[k] = net
    for j in range(1, n):
        block = f"row{j}"
        carry = None
        for k in sorted(rows[j]):
            acc[k], carry = adder_cell(bld, (acc[k], rows[j][k], carry), k, block)
        _ripple(bld, acc, carry, max(rows[j]) + 1, block)

    # Baugh-Wooley constant corrections: +1 at column n, +1 at column 2n-1
    carry = acc[n]
    acc[n] = bld.gate("NOT", (carry,), n, "bwfix")
    _ripple(bld, acc, carry, n + 1, "bwfix")
    acc[w - 1] = bld.gate("NOT", (acc[w - 1],), w - 1, "bwfix")
    assert all(v is not None for v in acc)
    return acc


def _ripple(bld, acc, carry, k, block):
    """Add `carry` into the accumulator columns from column k upward."""
    w = len(acc)
    while carry is not None and k < w:
        acc[k], carry = adder_cell(bld, (acc[k], carry), k, block,
                                   carry=k + 1 < w)
        k += 1


# -------------------------------------------------------------------- vedic

def _vedic_unsigned(bld, a, b, off, tag, cap):
    """Unsigned Urdhva recursion; returns 2*len(a) product nets at column off."""
    n = len(a)
    if n == 2:
        block = f"{tag}c"
        t0 = bld.gate("AND", (a[0], b[0]), min(off, cap), block)
        t1 = bld.gate("AND", (a[0], b[1]), min(off + 1, cap), block)
        t2 = bld.gate("AND", (a[1], b[0]), min(off + 1, cap), block)
        t3 = bld.gate("AND", (a[1], b[1]), min(off + 2, cap), block)
        p1, c1 = adder_cell(bld, (t1, t2), min(off + 1, cap), block,
                            carry_col=min(off + 2, cap))
        p2, p3 = adder_cell(bld, (t3, c1), min(off + 2, cap), block,
                            carry_col=min(off + 3, cap))
        return [t0, p1, p2, p3]
    half = n // 2
    al, ah = a[:half], a[half:]
    bl, bh = b[:half], b[half:]
    ll = _vedic_unsigned(bld, al, bl, off, tag + "ll", cap)
    lh = _vedic_unsigned(bld, al, bh, off + half, tag + "lh", cap)
    hl = _vedic_unsigned(bld, ah, bl, off + half, tag + "hl", cap)
    hh = _vedic_unsigned(bld, ah, bh, off + n, tag + "hh", cap)
    mid, mc = cla_vector_add(bld, lh, hl, None, off + half, tag + "m1_", cap)
    mid = mid + [mc]
    upper = ll[half:] + hh  # columns off+half .. off+2n-1
    s, c = cla_vector_add(bld, upper[:n + 1], mid, None, off + half,
                          tag + "m2_", cap)
    result = list(s)
    rest = upper[n + 1:]
    for idx, x in enumerate(rest):
        col = min(off + half + n + 1 + idx, cap)
        s, c = adder_cell(bld, (x, c), col, tag + "m2i",
                          carry=idx + 1 < len(rest))
        result.append(s)
    return ll[:half] + result


def _build_vedic(bld, a, b):
    n = len(a)
    w = 2 * n
    pu = _vedic_unsigned(bld, a, b, 0, "v", w - 1)
    na = [bld.gate("NAND", (a[n - 1], b[i]), n + i, "sfa") for i in range(n)]
    nb = [bld.gate("NAND", (b[n - 1], a[i]), n + i, "sfb") for i in range(n)]
    s1, _ = cla_vector_add(bld, pu[n:], na, None, n, "sf1_", w - 1,
                           emit_cout=False)
    s2, _ = cla_vector_add(bld, s1, nb, None, n, "sf2_", w - 1,
                           emit_cout=False)
    # +2^(n+1) correction: incrementer from column n+1 upward
    outs = pu[:n] + [s2[0]]
    carry = s2[1]
    outs.append(bld.gate("NOT", (s2[1],), n + 1, "sfix"))
    for k in range(2, n):
        s, carry = adder_cell(bld, (s2[k], carry), n + k, "sfix",
                              carry=k + 1 < n)
        outs.append(s)
    return outs
