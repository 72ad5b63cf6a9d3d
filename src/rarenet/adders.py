"""Gate-level adder generators.

Six architectures over 1-/2-input primitives: ripple-carry (RCA), carry
lookahead with fully unrolled carry equations (CLA), carry-skip with 4-bit
blocks (CKA), carry-select with 4-bit blocks (CSA), Kogge-Stone prefix
(KSA), and a hybrid of 4-bit CLA blocks chained by ripple carries (HYBRID).

All compute S = A + B + Cin with N+1 output bits.  Gates are annotated with
the output column of the value they produce: full-adder cells take their
sum column, carry/lookahead gates the column of the carry they generate,
and skip/select logic the highest column of its block.  The driver of the
final carry-out takes column N.
"""

from __future__ import annotations

from .netlist import Netlist, NetlistBuilder

ADDER_KINDS = ("RCA", "CLA", "CKA", "CSA", "KSA", "HYBRID")
_ADDER_WIDTHS = (4, 8, 16, 32)


def build_adder(kind: str, width: int) -> Netlist:
    kind = kind.upper()
    if kind not in ADDER_KINDS:
        raise ValueError(f"unsupported adder kind {kind!r}")
    if width not in _ADDER_WIDTHS:
        raise ValueError(f"unsupported adder width {width}")
    bld = NetlistBuilder(kind.lower(), width)
    a = [bld.input(f"a{i}") for i in range(width)]
    b = [bld.input(f"b{i}") for i in range(width)]
    cin = bld.input("cin")
    builder = {
        "RCA": _build_rca, "CLA": _build_cla, "CKA": _build_cka,
        "CSA": _build_csa, "KSA": _build_ksa, "HYBRID": _build_hybrid,
    }[kind]
    sums, cout = builder(bld, a, b, cin)
    bld.set_outputs(sums + [cout])
    return bld.build()


def adder_cell(bld, bits, col, block, carry=True, carry_col=None):
    """Sum the nets of one column; returns (sum, carry or None).

    `bits` holds up to three nets, with None for an absent addend.  One net
    passes through, two make a half adder (XOR, AND), three the 5-gate full
    adder (XOR, XOR, AND, AND, OR).  `carry=False` skips the carry gates;
    they take column `col` unless `carry_col` is given.
    """
    bits = [x for x in bits if x is not None]
    assert 1 <= len(bits) <= 3, f"column {col} holds {len(bits)} bits"
    if carry_col is None:
        carry_col = col
    if len(bits) == 1:
        return bits[0], None
    x, y = bits[:2]
    p = bld.gate("XOR", (x, y), col, block)
    if len(bits) == 2:
        return p, bld.gate("AND", (x, y), carry_col, block) if carry else None
    z = bits[2]
    s = bld.gate("XOR", (p, z), col, block)
    if not carry:
        return s, None
    g = bld.gate("AND", (x, y), carry_col, block)
    t = bld.gate("AND", (p, z), carry_col, block)
    return s, bld.gate("OR", (g, t), carry_col, block)


def _or_fold(bld, terms, col, block):
    acc = terms[0]
    for t in terms[1:]:
        acc = bld.gate("OR", (acc, t), col, block)
    return acc


def _build_rca(bld, a, b, cin):
    n = len(a)
    sums = []
    c = cin
    for i in range(n):
        s, c = adder_cell(bld, (a[i], b[i], c), i, f"FA{i}",
                          carry_col=n if i == n - 1 else i)
        sums.append(s)
    return sums, c


def cla_vector_add(bld, xs, ys, cin, col0, tag, cap, emit_cout=True):
    """Unrolled-lookahead addition of two equal-length net vectors.

    Carry gates for the carry into relative position k are placed at column
    col0 + k (clamped to `cap`).  Returns (sum nets, carry-out net or None).
    With cin=None the low sum bit is the propagate net itself (no gate).
    """
    m = len(xs)
    assert len(ys) == m
    p = []
    g = []
    for i in range(m):
        col = min(col0 + i, cap)
        p.append(bld.gate("XOR", (xs[i], ys[i]), col, f"{tag}pg{col0 + i}"))
        g.append(bld.gate("AND", (xs[i], ys[i]), col, f"{tag}pg{col0 + i}"))

    def carry_into(k):
        # carry produced by positions [0, k): c_k
        col = min(col0 + k, cap)
        block = f"{tag}cla{col0 + k}"
        terms = [g[k - 1]]
        r = p[k - 1]
        for j in range(k - 2, -1, -1):
            terms.append(bld.gate("AND", (r, g[j]), col, block))
            if j > 0 or cin is not None:
                r = bld.gate("AND", (r, p[j]), col, block)
        if cin is not None:
            terms.append(bld.gate("AND", (r, cin), col, block))
        return _or_fold(bld, terms, col, block)

    sums = []
    for i in range(m):
        if i == 0:
            if cin is None:
                sums.append(p[0])
            else:
                sums.append(bld.gate("XOR", (p[0], cin), min(col0, cap), f"{tag}sum{col0}"))
        else:
            c = carry_into(i)
            sums.append(bld.gate("XOR", (p[i], c), min(col0 + i, cap),
                                 f"{tag}sum{col0 + i}"))
    cout = carry_into(m) if emit_cout else None
    return sums, cout


def _build_cla(bld, a, b, cin):
    n = len(a)
    return cla_vector_add(bld, a, b, cin, 0, "", n)


def _build_cka(bld, a, b, cin):
    n = len(a)
    sums = []
    bcin = cin
    for blk in range(n // 4):
        base = 4 * blk
        top = base + 3
        last = blk == n // 4 - 1
        c = bcin
        props = []
        for i in range(base, base + 4):
            blabel = f"FA{i}"
            p = bld.gate("XOR", (a[i], b[i]), i, blabel)
            s = bld.gate("XOR", (p, c), i, blabel)
            gg = bld.gate("AND", (a[i], b[i]), i, blabel)
            t = bld.gate("AND", (p, c), i, blabel)
            c = bld.gate("OR", (gg, t), i, blabel)
            props.append(p)
            sums.append(s)
        skip = f"skip{blk}"
        pblk = props[0]
        for p in props[1:]:
            pblk = bld.gate("AND", (pblk, p), top, skip)
        np_ = bld.gate("NOT", (pblk,), top, skip)
        t0 = bld.gate("AND", (c, np_), top, skip)
        t1 = bld.gate("AND", (bcin, pblk), top, skip)
        bcin = bld.gate("OR", (t0, t1), n if last else top, skip)
    return sums, bcin


def _build_csa(bld, a, b, cin):
    n = len(a)
    sums = []
    # block 0 ripples from the true carry-in
    c = cin
    for i in range(4):
        s, c = adder_cell(bld, (a[i], b[i], c), i, f"FA{i}",
                          carry_col=n if n == 4 and i == 3 else i)
        sums.append(s)
    bcarry = c
    for blk in range(1, n // 4):
        base = 4 * blk
        top = base + 3
        last = blk == n // 4 - 1
        # carry-zero chain (first cell a half adder for constant carry 0)
        s0 = []
        c0 = None
        for i in range(base, base + 4):
            s, c0 = adder_cell(bld, (a[i], b[i], c0), i, f"FA{i}c0")
            s0.append(s)
        # carry-one chain (first cell simplified for constant carry 1)
        s1 = [bld.gate("XNOR", (a[base], b[base]), base, f"FA{base}c1")]
        c1 = bld.gate("OR", (a[base], b[base]), base, f"FA{base}c1")
        for i in range(base + 1, base + 4):
            s, c1 = adder_cell(bld, (a[i], b[i], c1), i, f"FA{i}c1")
            s1.append(s)
        sel = f"csel{blk}"
        nsel = bld.gate("NOT", (bcarry,), top, sel)
        for k in range(4):
            t0 = bld.gate("AND", (s0[k], nsel), base + k, sel)
            t1 = bld.gate("AND", (s1[k], bcarry), base + k, sel)
            sums.append(bld.gate("OR", (t0, t1), base + k, sel))
        t0 = bld.gate("AND", (c0, nsel), top, sel)
        t1 = bld.gate("AND", (c1, bcarry), top, sel)
        bcarry = bld.gate("OR", (t0, t1), n if last else top, sel)
    return sums, bcarry


def _build_ksa(bld, a, b, cin):
    n = len(a)
    p = []
    g = []
    for i in range(n):
        p.append(bld.gate("XOR", (a[i], b[i]), i, f"pg{i}"))
        g.append(bld.gate("AND", (a[i], b[i]), i, f"pg{i}"))
    gs = list(g)
    ps = list(p)
    dist = 1
    stage = 0
    while dist < n:
        ng = list(gs)
        np_ = list(ps)
        for i in range(dist, n):
            col = min(i + 1, n)
            block = f"ks{stage}_{i}"
            t = bld.gate("AND", (ps[i], gs[i - dist]), col, block)
            ng[i] = bld.gate("OR", (gs[i], t), col, block)
            np_[i] = bld.gate("AND", (ps[i], ps[i - dist]), col, block)
        gs, ps = ng, np_
        dist *= 2
        stage += 1
    sums = [bld.gate("XOR", (p[0], cin), 0, "sum0")]
    for i in range(1, n + 1):
        col = min(i, n)
        block = f"carry{i}"
        t = bld.gate("AND", (ps[i - 1], cin), col, block)
        c = bld.gate("OR", (gs[i - 1], t), col, block)
        if i < n:
            sums.append(bld.gate("XOR", (p[i], c), i, f"sum{i}"))
        else:
            cout = c
    return sums, cout


def _build_hybrid(bld, a, b, cin):
    n = len(a)
    sums = []
    bcin = cin
    for blk in range(n // 4):
        base = 4 * blk
        s, bcin = cla_vector_add(bld, a[base:base + 4], b[base:base + 4],
                                 bcin, base, f"hy{blk}_", n)
        sums.extend(s)
    return sums, bcin
