"""Exact two-level minimization and the published-equation audit.

Quine-McCluskey prime generation plus Petrick set cover. The cover is exact,
but Petrick's product-of-sums expansion holds every partial solution, so on
dense 7- and 8-variable functions it can run for minutes; the audited
functions have 2 or 4 variables. The audit re-derives every published
output-bit equation from its defining table and compares costs mechanically.

Cube notation: one character per variable, '1' plain literal, '0' complemented
literal, '-' absent. Rendering and tie-breaks order cubes by the per-position
rank 1 < 0 < -, so plain literals sort before complemented ones and both
before dashes. Internally a cube is a (care, value) pair of int masks with
variable 0 as the most significant bit, as in the row index (row i lies in
the cube when i & care == value), and a set of rows is an int with bit i for
row i.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .arith_core import BitPair, OpKind, apply_op, bitwise_formula, encode_q2b

DC = "-"

_RANK = {"1": 0, "0": 1, "-": 2}


def _cube_key(cube: str) -> tuple[int, ...]:
    return tuple(_RANK[ch] for ch in cube)


def default_names(n: int) -> tuple[str, ...]:
    # two-operand bit tables use the x/y pair convention
    if n == 2:
        return ("x1", "x2")
    if n == 4:
        return ("x1", "x2", "y1", "y2")
    return tuple(f"x{i + 1}" for i in range(n))


class ParseError(Exception):
    pass


class UnsupportedFeature(Exception):
    pass


@dataclass(frozen=True)
class TruthTableSpec:
    """Single-output table over named variables; row index treats variable 0
    as the most significant bit. Outputs are 0, 1, or '-' (don't care).
    `on` and `dc` are the rows whose output is 1 and '-', bit i for row i;
    they are derived from `outputs`, so equality and repr ignore them."""

    names: tuple[str, ...]
    outputs: tuple[int | str, ...]
    on: int = field(init=False, repr=False, compare=False)
    dc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.names)
        if not 1 <= n <= 8:
            raise ValueError(f"variable count {n} outside 1..8")
        if len(set(self.names)) != n:
            raise ValueError("duplicate variable names")
        if len(self.outputs) != 2 ** n:
            raise ValueError(
                f"need {2 ** n} output entries, got {len(self.outputs)}"
            )
        on = dc = 0
        for i, v in enumerate(self.outputs):
            if v == 1:
                on |= 1 << i
            elif v == DC:
                dc |= 1 << i
            elif v != 0:
                raise ValueError(f"bad output value {v!r}")
        object.__setattr__(self, "on", on)
        object.__setattr__(self, "dc", dc)

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def row_bits(self, index: int) -> tuple[int, ...]:
        n = self.n_vars
        return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


_CARE_DIGITS = str.maketrans("10-", "110")
_VALUE_DIGITS = str.maketrans("10-", "100")


def _cube_mask(cube: str) -> tuple[int, int]:
    care = int(cube.translate(_CARE_DIGITS) or "0", 2)
    return care, int(cube.translate(_VALUE_DIGITS) or "0", 2)


def _cube_str(care: int, value: int, n: int) -> str:
    return "".join(
        "1" if value >> b & 1 else "0" if care >> b & 1 else DC
        for b in range(n - 1, -1, -1)
    )


@functools.cache
def _bit_rows(n: int) -> tuple[int, ...]:
    # entry b: the rows of an n-variable table whose index has bit b set
    return tuple(
        sum(1 << i for i in range(2 ** n) if i >> b & 1) for b in range(n)
    )


def _cube_rows(care: int, value: int, n: int) -> int:
    rows = (1 << 2 ** n) - 1
    for b, ones in enumerate(_bit_rows(n)):
        if care >> b & 1:
            rows &= ones if value >> b & 1 else ~ones
    return rows


def _sop_rows(cubes: tuple[str, ...], n: int) -> int:
    rows = 0
    for cube in cubes:
        rows |= _cube_rows(*_cube_mask(cube), n)
    return rows


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cube_literal_count(cube: str) -> int:
    return sum(1 for ch in cube if ch != DC)


@dataclass(frozen=True)
class SopExpr:
    """Sum of products; cubes are irredundant with respect to containment."""

    n_vars: int
    cubes: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set()
        for c in self.cubes:
            if len(c) != self.n_vars or any(ch not in "01-" for ch in c):
                raise ValueError(f"bad cube {c!r}")
            if c in seen:
                raise ValueError(f"duplicate cube {c!r}")
            seen.add(c)
        # a covers b when b cares, with a's values, wherever a cares
        pairs = itertools.permutations(zip(self.cubes, map(_cube_mask, self.cubes)), 2)
        for (a, (a_care, a_value)), (b, (b_care, b_value)) in pairs:
            if a_care & ~b_care == 0 and b_value & a_care == a_value:
                raise ValueError(f"cube {a!r} already covers {b!r}")

    @property
    def term_count(self) -> int:
        return len(self.cubes)

    @property
    def literal_count(self) -> int:
        return sum(cube_literal_count(c) for c in self.cubes)

    def evaluate(self, bits: tuple[int, ...]) -> int:
        for cube in self.cubes:
            if all(ch == DC or int(ch) == b for ch, b in zip(cube, bits)):
                return 1
        return 0


def prime_implicants(spec: TruthTableSpec) -> tuple[str, ...]:
    """All prime implicants of on ∪ dc that cover at least one on-set row."""
    n = spec.n_vars
    full = (1 << n) - 1
    current = {(full, i) for i in _set_bits(spec.on | spec.dc)}
    primes: set[tuple[int, int]] = set()
    while current:
        # two cubes merge when they share a care mask and differ in one value bit
        merged: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        for cube in current:
            care, value = cube
            for b in _set_bits(care):
                bit = 1 << b
                if (care, value ^ bit) in current:
                    merged.add(cube)
                    nxt.add((care ^ bit, value & ~bit))
        primes |= current - merged
        current = nxt
    useful = [
        _cube_str(care, value, n)
        for care, value in primes
        if _cube_rows(care, value, n) & spec.on
    ]
    return tuple(sorted(useful, key=_cube_key))


def minimize_exact(spec: TruthTableSpec) -> SopExpr:
    """Minimum-cost prime cover: fewest terms, then fewest literals, then the
    smallest cube list under the rank order (total tie-break)."""
    n = spec.n_vars
    primes = prime_implicants(spec)
    on = spec.on
    if not on:
        return SopExpr(n, ())
    # primes come sorted by rank, so a cover is an int with bit k for primes[k]
    # and the rank tie-break compares sorted prime indices
    prime_rows = [_cube_rows(*_cube_mask(p), n) & on for p in primes]
    lits = [cube_literal_count(p) for p in primes]
    covers = dict.fromkeys(_set_bits(on), 0)  # row -> primes covering it
    for k, rows in enumerate(prime_rows):
        for m in _set_bits(rows):
            covers[m] |= 1 << k
    chosen = 0
    for cands in covers.values():  # essential primes first
        if cands & (cands - 1) == 0:
            chosen |= cands
    remaining = on
    for k in _set_bits(chosen):
        remaining &= ~prime_rows[k]
    # Petrick: product of per-row candidate sums, with absorption
    solutions = [0]
    for m in _set_bits(remaining):
        cands = covers[m]
        grown: set[int] = set()
        for sol in solutions:
            if sol & cands:
                grown.add(sol)
                continue
            for k in _set_bits(cands):
                grown.add(sol | 1 << k)
        # absorption: keep a solution only if no kept one is its subset
        solutions = []
        for s in sorted(grown, key=int.bit_count):
            for t in solutions:
                if t & s == t:
                    break
            else:
                solutions.append(s)

    def cost(extra: int) -> tuple:
        picked = tuple(_set_bits(chosen | extra))
        return (len(picked), sum(lits[k] for k in picked), picked)

    fewest = min(map(int.bit_count, solutions))
    best = min(cost(s) for s in solutions if s.bit_count() == fewest)[2]
    return SopExpr(n, tuple(primes[k] for k in best))


def check_equiv(e: SopExpr, spec: TruthTableSpec) -> bool:
    """Whether e has the table's arity and, on every row that is not a don't
    care, the table's output: the rows e covers, outside spec.dc, are exactly
    spec.on."""
    n = spec.n_vars
    return e.n_vars == n and _sop_rows(e.cubes, n) & ~spec.dc == spec.on


def render_cube(cube: str, names: tuple[str, ...]) -> str:
    parts = []
    for ch, name in zip(cube, names):
        if ch == "1":
            parts.append(name)
        elif ch == "0":
            parts.append(name + "'")
    return " ".join(parts) if parts else "1"


def render_sop(e: SopExpr, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = default_names(e.n_vars)
    if not e.cubes:
        return "0"
    return " + ".join(render_cube(c, names) for c in e.cubes)


@dataclass(frozen=True)
class XorReport:
    """Best-effort XOR factoring of an SOP, with a 2-input gate count.

    The count covers 2-input AND/OR/XOR equivalents; inverters are excluded
    (complemented literals treated as free, as in hand analysis).
    """

    original: SopExpr
    rendered: str
    gates_2in: int
    form: str  # const | single-term | xor-pair | mixed | sop


def _all_cubes(n: int):
    for combo in itertools.product("1" + "0" + DC, repeat=n):
        cube = "".join(combo)
        if cube != DC * n:
            yield cube


def _xor_pair_search(e: SopExpr) -> tuple[str, str] | None:
    """Find cubes P, Q with P xor Q equivalent to e, minimizing literals."""
    n = e.n_vars
    target = _sop_rows(e.cubes, n)
    # distinct cubes cover distinct rows, so P's rows fix Q's
    by_rows = {_cube_rows(*_cube_mask(c), n): c for c in _all_cubes(n)}
    best: tuple[tuple, str, str] | None = None
    for rows, p in by_rows.items():
        q = by_rows.get(rows ^ target)
        if q is None or q == p:
            continue
        a, b = sorted((p, q), key=_cube_key)
        rank = (
            cube_literal_count(a) + cube_literal_count(b),
            _cube_key(a),
            _cube_key(b),
        )
        if best is None or rank < best[0]:
            best = (rank, a, b)
    if best is None:
        return None
    return best[1], best[2]


def _fxor_pair(c1: str, c2: str) -> tuple[str, int, int, int, int] | None:
    """Match c1 + c2 = common * (u xor v): same dash pattern, exactly two
    positions where both values flip. Returns (common cube, pos_u, pol_u,
    pos_v, pol_v) with x^1 = x, x^0 = x'."""
    diffs = []
    for j, (a, b) in enumerate(zip(c1, c2)):
        if a == b:
            continue
        if a == DC or b == DC:
            return None
        diffs.append(j)
    if len(diffs) != 2:
        return None
    p, q = diffs
    common = "".join(
        DC if j in (p, q) else ch for j, ch in enumerate(c1)
    )
    # c1 = C * xp^a * xq^b ; c2 the complements; sum = C * (xp^a xor xq^(1-b))
    a, b = int(c1[p]), int(c1[q])
    return (common, p, a, q, 1 - b)


def _render_literal(name: str, polarity: int) -> str:
    return name if polarity == 1 else name + "'"


def recognize_xor(e: SopExpr, names: tuple[str, ...] | None = None) -> XorReport:
    """XOR-aware rendering. Tries a whole-expression cube-pair XOR first
    (exhaustive for <= 4 variables), then pairwise factoring of the cube
    list; anything unmatched passes through as plain SOP."""
    if names is None:
        names = default_names(e.n_vars)
    if not e.cubes:
        return XorReport(e, "0", 0, "const")
    if e.cubes == (DC * e.n_vars,):
        return XorReport(e, "1", 0, "const")
    if len(e.cubes) == 1:
        lits = cube_literal_count(e.cubes[0])
        return XorReport(e, render_cube(e.cubes[0], names), lits - 1, "single-term")
    if e.n_vars <= 4:
        pair = _xor_pair_search(e)
        if pair is not None:
            p, q = pair
            sides = []
            for cube in (p, q):
                text = render_cube(cube, names)
                if cube_literal_count(cube) > 1:
                    text = f"({text})"
                sides.append(text)
            gates = (
                (cube_literal_count(p) - 1) + (cube_literal_count(q) - 1) + 1
            )
            return XorReport(e, " ^ ".join(sides), gates, "xor-pair")
    # pairwise pass over the cube list
    pool = list(e.cubes)
    plain: list[str] = []
    factored: list[tuple[str, int]] = []  # rendered term, gate count
    n = e.n_vars
    while pool:
        c1 = pool.pop(0)
        match = None
        for idx, c2 in enumerate(pool):
            got = _fxor_pair(c1, c2)
            if got is not None:
                match = (idx, got)
                break
        if match is None:
            plain.append(c1)
            continue
        idx, (common, p, pol_p, q, pol_q) = match
        c2 = pool.pop(idx)
        # sanity: the factored term must equal the pair it replaces
        var = _bit_rows(n)
        u = var[n - 1 - p] if pol_p == 1 else ~var[n - 1 - p]
        v = var[n - 1 - q] if pol_q == 1 else ~var[n - 1 - q]
        factored_rows = _cube_rows(*_cube_mask(common), n) & (u ^ v)
        diff = factored_rows ^ _sop_rows((c1, c2), n)
        if diff:
            row = (diff & -diff).bit_length() - 1
            raise RuntimeError(
                f"factored term for {c1} + {c2} differs at row {row}"
            )
        xor_text = (
            f"{_render_literal(names[p], pol_p)} ^ "
            f"{_render_literal(names[q], pol_q)}"
        )
        common_lits = cube_literal_count(common)
        if common_lits:
            term = f"{render_cube(common, names)} ({xor_text})"
        else:
            term = xor_text
        factored.append((term, 1 + common_lits))
    if not factored:
        gates = sum(cube_literal_count(c) - 1 for c in e.cubes) + len(e.cubes) - 1
        return XorReport(e, render_sop(e, names), gates, "sop")
    terms = [(render_cube(c, names), cube_literal_count(c) - 1) for c in plain]
    terms += factored
    gates = sum(g for _, g in terms) + len(terms) - 1
    return XorReport(e, " + ".join(t for t, _ in terms), gates, "mixed")


def parse_pla(text: str) -> TruthTableSpec:
    """PLA-subset reader: .i N, .o 1, optional .ilb/.ob/.p, cube rows
    '<inputs> <output>', terminated by .e. Unlisted rows default to 0."""
    n: int | None = None
    n_out: int | None = None
    names: tuple[str, ...] | None = None
    # rows assigned so far, per output value and in all; and each row line's
    # rows, to name the line a conflict is with
    assigned_as: dict[int | str, int] = {0: 0, 1: 0, DC: 0}
    assigned = 0
    row_lines: list[tuple[int, int]] = []
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            fields = line.split()
            directive = fields[0]
            if row_lines and directive in (".i", ".o", ".ilb", ".ob", ".p"):
                raise ParseError(f"line {lineno}: {directive} after cube rows")
            if {".i": n, ".o": n_out}.get(directive) is not None:
                raise ParseError(f"line {lineno}: repeated {directive}")
            if directive == ".i":
                if len(fields) != 2 or not fields[1].isdecimal():
                    raise ParseError(f"line {lineno}: bad .i")
                n = int(fields[1])
                if not 1 <= n <= 8:
                    raise ParseError(f"line {lineno}: .i {n} outside 1..8")
            elif directive == ".o":
                if len(fields) != 2 or not fields[1].isdecimal():
                    raise ParseError(f"line {lineno}: bad .o")
                n_out = int(fields[1])
                if n_out != 1:
                    raise UnsupportedFeature(
                        f"line {lineno}: only single-output tables "
                        f"(.o 1) are supported, got .o {n_out}"
                    )
            elif directive == ".ilb":
                names = tuple(fields[1:])
                if len(set(names)) != len(names):
                    dup = next(nm for nm in names if names.count(nm) > 1)
                    raise ParseError(f"line {lineno}: duplicate .ilb name {dup!r}")
            elif directive == ".ob":
                pass  # single output; name is cosmetic
            elif directive == ".p":
                pass  # product-term count; informational
            elif directive == ".e":
                saw_end = True
                break
            else:
                raise UnsupportedFeature(
                    f"line {lineno}: directive {directive} not supported"
                )
            continue
        if n is None or n_out is None:
            raise ParseError(f"line {lineno}: cube row before .i/.o")
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected '<inputs> <output>'")
        in_part, out_part = fields
        if len(in_part) != n:
            raise ParseError(
                f"line {lineno}: input part has {len(in_part)} positions, "
                f"expected {n}"
            )
        if any(ch not in "01-" for ch in in_part):
            raise ParseError(f"line {lineno}: bad input character")
        if out_part not in ("0", "1", "-"):
            raise ParseError(f"line {lineno}: bad output value {out_part!r}")
        value: int | str = DC if out_part == DC else int(out_part)
        rows = _cube_rows(*_cube_mask(in_part), n)
        clash = rows & (assigned ^ assigned_as[value])
        if clash:
            row = (clash & -clash).bit_length() - 1
            earlier = next(ln for r, ln in reversed(row_lines) if r >> row & 1)
            raise ParseError(
                f"line {lineno}: row {row} conflicts with line {earlier}"
            )
        assigned_as[value] |= rows
        assigned |= rows
        row_lines.append((rows, lineno))
    if n is None or n_out is None:
        raise ParseError("missing .i or .o header")
    if not saw_end:
        raise ParseError("missing .e terminator")
    if names is None:
        names = default_names(n)
    if len(names) != n:
        raise ParseError(f".ilb lists {len(names)} names, expected {n}")
    outputs = tuple(
        1 if assigned_as[1] >> i & 1 else DC if assigned_as[DC] >> i & 1 else 0
        for i in range(2 ** n)
    )
    return TruthTableSpec(names, outputs)


# published output-bit equations: (op id, bit name, op kind, bit index,
# rendered form, literal count as written, 2-input gate count, SOP cube list
# when the form is two-level)
_PUBLISHED: tuple = (
    ("mod4-add", "a1", OpKind.MOD4_ADD, 0, "(x1 ^ y1) ^ (x2 y2)", 4, 3, None),
    ("mod4-add", "a2", OpKind.MOD4_ADD, 1, "x2 ^ y2", 2, 1, None),
    (
        "mod4-mul", "m1", OpKind.MOD4_MUL, 0, "(x1 y2) ^ (x2 y1)", 4, 3,
        ("1-01", "10-1", "011-", "-110"),
    ),
    ("mod4-mul", "m2", OpKind.MOD4_MUL, 1, "x2 y2", 2, 1, ("-1-1",)),
    ("mod4-sub", "s1", OpKind.MOD4_SUB, 0, "(x1 ^ y1) ^ (x2' y2)", 4, 3, None),
    ("mod4-sub", "s2", OpKind.MOD4_SUB, 1, "x2 ^ y2", 2, 1, ("-1-0", "-0-1")),
    ("mod4-neg", "n1", OpKind.MOD4_NEG, 0, "x1 ^ x2", 2, 1, None),
    ("mod4-neg", "n2", OpKind.MOD4_NEG, 1, "x2", 1, 0, ("-1",)),
    ("mod4-dbl", "d1", OpKind.MOD4_DOUBLE, 0, "x2", 1, 0, ("-1",)),
    ("mod4-dbl", "d2", OpKind.MOD4_DOUBLE, 1, "0", 0, 0, ()),
    ("gf4-add", "a1", OpKind.GF4_ADD, 0, "x1 ^ y1", 2, 1, None),
    ("gf4-add", "a2", OpKind.GF4_ADD, 1, "x2 ^ y2", 2, 1, None),
    (
        "gf4-mul", "m1", OpKind.GF4_MUL, 0,
        "x1 y1' y2 + x1 x2' y1 y2' + x1' x2 y1 + x2 y1 y2", 13, 12,
        ("1-01", "1010", "011-", "-111"),
    ),
    ("gf4-mul", "m2", OpKind.GF4_MUL, 1, "(x1 y1) ^ (x2 y2)", 4, 3, None),
)


@dataclass(frozen=True)
class AuditRow:
    op: str
    bit: str
    published_form: str
    published_literals: int
    published_gates_2in: int
    published_sop_literals: int | None
    equivalent: bool
    min_terms: int
    min_literals: int
    min_sop: str


def bit_table_spec(kind: OpKind, bit_index: int) -> TruthTableSpec:
    """Defining table for one output bit of an operation, from the reference
    tables (variable 0 = x1 = msb)."""
    if kind.arity == 1:
        names = default_names(2)
        outputs = []
        for i in range(4):
            x = BitPair((i >> 1) & 1, i & 1)
            out = encode_q2b(apply_op(kind, 2 * x.x1 + x.x2))
            outputs.append(out[bit_index])
        return TruthTableSpec(names, tuple(outputs))
    names = default_names(4)
    outputs = []
    for i in range(16):
        x1, x2, y1, y2 = ((i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1)
        a, b = 2 * x1 + x2, 2 * y1 + y2
        out = encode_q2b(apply_op(kind, a, b))
        outputs.append(out[bit_index])
    return TruthTableSpec(names, tuple(outputs))


def _published_bit(kind: OpKind, bit_index: int, bits: tuple[int, ...]) -> int:
    if kind.arity == 1:
        got = bitwise_formula(kind, BitPair(bits[0], bits[1]))
    else:
        got = bitwise_formula(
            kind, BitPair(bits[0], bits[1]), BitPair(bits[2], bits[3])
        )
    return got[bit_index]


def audit_published_forms() -> tuple[AuditRow, ...]:
    """Re-derive each published output-bit equation and compare costs."""
    rows = []
    for op, bit, kind, bit_index, form, lits, gates, sop in _PUBLISHED:
        spec = bit_table_spec(kind, bit_index)
        equivalent = all(
            _published_bit(kind, bit_index, spec.row_bits(i)) == spec.outputs[i]
            for i in range(2 ** spec.n_vars)
        )
        if sop is not None:
            expr = SopExpr(spec.n_vars, tuple(sorted(sop, key=_cube_key)))
            equivalent = equivalent and check_equiv(expr, spec)
            sop_lits = sum(cube_literal_count(c) for c in sop)
        else:
            sop_lits = None
        best = minimize_exact(spec)
        rows.append(
            AuditRow(
                op=op,
                bit=bit,
                published_form=form,
                published_literals=lits,
                published_gates_2in=gates,
                published_sop_literals=sop_lits,
                equivalent=equivalent,
                min_terms=best.term_count,
                min_literals=best.literal_count,
                min_sop=render_sop(best),
            )
        )
    return tuple(rows)
