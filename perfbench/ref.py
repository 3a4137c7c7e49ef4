"""Independent references the benchmark checks the program against.

Nothing here imports mvq. Gate semantics, cube arithmetic, the rendered
expression grammar and the VCD reader are written from the documented
behaviour, so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import functools
import itertools

B, Q = "bin", "quat"
LEVELS = {B: 2, Q: 4}

# kind -> (input types, output type), as documented for the netlist IR
SIGNATURES: dict[str, tuple[tuple[str, ...], str]] = {
    "not": ((B,), B),
    "and2": ((B, B), B),
    "and3": ((B, B, B), B),
    "and4": ((B, B, B, B), B),
    "or2": ((B, B), B),
    "or3": ((B, B, B), B),
    "or4": ((B, B, B, B), B),
    "xor2": ((B, B), B),
    "nand2": ((B, B), B),
    "nor2": ((B, B), B),
    "andn2": ((B, B), B),
    "const0": ((), B),
    "const1": ((), B),
    "bmux2": ((B, B, B), B),
    "dlc1": ((Q,), B),
    "dlc2": ((Q,), B),
    "dlc3": ((Q,), B),
    "b2q": ((B, B), Q),
    "qconst": ((), Q),
    "qmux4": ((Q, Q, Q, Q, Q), Q),
}


def _gate(kind: str, v: list[int], level: int | None) -> int:
    if kind == "not":
        return 1 - v[0]
    if kind in ("and2", "and3", "and4"):
        return int(all(v))
    if kind in ("or2", "or3", "or4"):
        return int(any(v))
    if kind == "xor2":
        return int(v[0] != v[1])
    if kind == "nand2":
        return 0 if v[0] and v[1] else 1
    if kind == "nor2":
        return 0 if v[0] or v[1] else 1
    if kind == "andn2":  # complemented first input
        return int(not v[0] and v[1])
    if kind == "const0":
        return 0
    if kind == "const1":
        return 1
    if kind == "bmux2":  # select, then the input passed when select is 1
        return v[1] if v[0] else v[2]
    if kind in ("dlc1", "dlc2", "dlc3"):  # down literal: 1 below threshold k
        return int(v[0] < int(kind[3]))
    if kind == "b2q":  # natural encoding, msb first
        return 2 * v[0] + v[1]
    if kind == "qconst":
        return level
    if kind == "qmux4":  # select level s passes data input s
        return v[1 + v[0]]
    raise ValueError(f"unknown gate kind {kind!r}")


class RefNetlist:
    """Evaluates a netlist JSON document one row at a time."""

    def __init__(self, doc: dict) -> None:
        self.input_types = [p["type"] for p in doc["inputs"]]
        self.output_nets = [p["net"] for p in doc["outputs"]]
        gate_of = {g["output"]: g for g in doc["gates"]}
        order: list[dict] = []
        done = set(range(len(self.input_types)))
        for net in list(gate_of) + self.output_nets:
            stack = [net]
            while stack:
                top = stack[-1]
                if top in done:
                    stack.pop()
                    continue
                todo = [n for n in gate_of[top]["inputs"] if n not in done]
                if todo:
                    stack.extend(todo)
                else:
                    done.add(top)
                    order.append(gate_of[top])
                    stack.pop()
        self.order = [(g["kind"], g["inputs"], g["output"], g.get("level")) for g in order]

    @property
    def rows(self) -> int:
        total = 1
        for t in self.input_types:
            total *= LEVELS[t]
        return total

    def row_levels(self, index: int) -> tuple[int, ...]:
        """Input levels of row `index`; the first input varies slowest."""
        levels = []
        for t in reversed(self.input_types):
            index, digit = divmod(index, LEVELS[t])
            levels.append(digit)
        return tuple(reversed(levels))

    def evaluate(self, levels: tuple[int, ...]) -> tuple[int, ...]:
        values = dict(enumerate(levels))
        for kind, ins, out, level in self.order:
            values[out] = _gate(kind, [values[n] for n in ins], level)
        return tuple(values[n] for n in self.output_nets)


# --- single-output functions as row bitmasks (variable 0 = msb of the row)


@functools.cache
def var_masks(n: int) -> tuple[int, ...]:
    return tuple(
        sum(1 << r for r in range(2 ** n) if (r >> (n - 1 - j)) & 1)
        for j in range(n)
    )


def cube_mask(cube: str) -> int:
    n = len(cube)
    full = (1 << 2 ** n) - 1
    mask = full
    for ch, vm in zip(cube, var_masks(n)):
        if ch == "1":
            mask &= vm
        elif ch == "0":
            mask &= full ^ vm
        elif ch != "-":
            raise ValueError(f"bad cube {cube!r}")
    return mask


@functools.cache
def _all_cube_masks(n: int) -> dict[str, int]:
    return {"".join(c): cube_mask("".join(c)) for c in itertools.product("10-", repeat=n)}


def table_masks(outputs) -> tuple[int, int, int]:
    """(on, dc, off) row masks of a table of 0, 1 and '-' entries."""
    on = dc = off = 0
    for r, v in enumerate(outputs):
        if v == 1:
            on |= 1 << r
        elif v == "-":
            dc |= 1 << r
        else:
            off |= 1 << r
    return on, dc, off


def primes(n: int, on: int, dc: int) -> list[str]:
    """Prime implicants of on|dc that cover at least one on-set row."""
    masks = _all_cube_masks(n)
    care = on | dc

    def implicant(c: str) -> bool:
        return masks[c] & ~care == 0

    out = []
    for c, m in masks.items():
        if m & on == 0 or not implicant(c):
            continue
        if not any(
            implicant(c[:j] + "-" + c[j + 1:]) for j, ch in enumerate(c) if ch != "-"
        ):
            out.append(c)
    return out


def literals(cube: str) -> int:
    return sum(ch != "-" for ch in cube)


def min_cover_cost(n: int, on: int, dc: int) -> tuple[int, int]:
    """Fewest terms, then fewest literals, over all covers of the on-set
    inside on|dc. Exhaustive branch and bound; any minimum-cost cover can be
    made of primes, so searching primes only is exact."""
    if not on:
        return (0, 0)
    cands = [(cube_mask(p), literals(p)) for p in primes(n, on, dc)]
    rows = [r for r in range(2 ** n) if on >> r & 1]
    covering = {r: [i for i, (m, _) in enumerate(cands) if m >> r & 1] for r in rows}
    reach = {r: functools.reduce(lambda a, i: a | cands[i][0], covering[r], 0) for r in rows}
    by_choice = sorted(rows, key=lambda r: len(covering[r]))
    min_lits = min(lits for _, lits in cands)
    best = [float("inf"), float("inf")]

    def bound(unc: int) -> int:
        # rows no single prime covers together each need their own term
        count, blocked = 0, 0
        for r in by_choice:
            if unc >> r & 1 and not blocked >> r & 1:
                count += 1
                blocked |= reach[r]
        return count

    def search(unc: int, terms: int, lits: int) -> None:
        if not unc:
            if (terms, lits) < tuple(best):
                best[:] = [terms, lits]
            return
        lb = bound(unc)
        if terms + lb > best[0] or (
            terms + lb == best[0] and lits + lb * min_lits >= best[1]
        ):
            return
        row = next(r for r in by_choice if unc >> r & 1)
        options = sorted(
            covering[row], key=lambda i: (-bin(cands[i][0] & unc).count("1"), cands[i][1])
        )
        for i in options:
            m, lit = cands[i]
            search(unc & ~m, terms + 1, lits + lit)

    search(on, 0, 0)
    return best[0], best[1]


def petrick_work(n: int, on: int, dc: int, cap: int) -> int:
    """A cost model of Petrick's method, the covering the program uses: the
    sum over the rows left once essential primes are taken of the squared
    number of partial covers the step produces, which is what its
    absorption pass compares. Stops once the sum passes `cap`. The partial
    covers are sets of primes, kept here as bit masks."""
    masks = [cube_mask(p) for p in primes(n, on, dc)]
    covering = {r: [i for i, m in enumerate(masks) if m >> r & 1]
                for r in range(2 ** n) if on >> r & 1}
    essential = 0
    for hits in covering.values():
        if len(hits) == 1:
            essential |= masks[hits[0]]
    covers, work = {0}, 0
    for r, hits in covering.items():
        if essential >> r & 1:
            continue
        picks = [1 << i for i in hits]
        grown = set()
        for s in covers:
            if any(s & b for b in picks):
                grown.add(s)
            else:
                grown.update(s | b for b in picks)
        work += len(grown) ** 2
        if work > cap:
            break
        covers = {s for s in grown if not any(t != s and t & s == t for t in grown)}
    return work


def check_cover(n: int, outputs, cubes) -> str | None:
    """None if the cubes cover every on-set row and no off-set row."""
    on, _, off = table_masks(outputs)
    got = 0
    for c in cubes:
        if len(c) != n:
            return f"cube {c!r} has the wrong width"
        m = cube_mask(c)
        if m & off:
            return f"cube {c} covers an off-set row"
        got |= m
    if on & ~got:
        return "an on-set row is not covered"
    return None


# --- rendered expressions: x y' is AND, ^ is XOR, + is OR, () group


def _tokens(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "'^+()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected {ch!r} in {text!r}")
            out.append(text[i:j])
            i = j
    return out


def expression_mask(text: str, names: tuple[str, ...]) -> int:
    """Row mask of a rendered SOP or XOR-factored expression."""
    n = len(names)
    full = (1 << 2 ** n) - 1
    var = dict(zip(names, var_masks(n)))
    toks = _tokens(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def sum_() -> int:
        m = xor_()
        while peek() == "+":
            take()
            m |= xor_()
        return m

    def xor_() -> int:
        m = prod()
        while peek() == "^":
            take()
            m ^= prod()
        return m

    def prod() -> int:
        m = full
        seen = False
        while peek() not in (None, "+", "^", ")"):
            tok = take()
            if tok == "(":
                a = sum_()
                if take() != ")":
                    raise ValueError(f"unbalanced {text!r}")
            elif tok in var:
                a = var[tok]
                if peek() == "'":
                    take()
                    a ^= full
            elif tok in ("0", "1"):
                a = full if tok == "1" else 0
            else:
                raise ValueError(f"unknown name {tok!r} in {text!r}")
            m &= a
            seen = True
        if not seen:
            raise ValueError(f"empty product in {text!r}")
        return m

    mask = sum_()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {text!r}")
    return mask


def sop_cost(text: str) -> tuple[int, int]:
    """(terms, literals) of a rendered SOP line; '0' and '1' are constants."""
    if text == "0":
        return (0, 0)
    terms = text.split(" + ")
    lits = sum(len([t for t in term.split() if t != "1"]) for term in terms)
    return len(terms), lits


# --- VCD

NOT_PRINTABLE = "is not printable ASCII"


def check_vcd(text: str, signals, rows, step: int = 1) -> str | None:
    """None if the dump declares each signal once with a printable ASCII
    identifier and replays to exactly `rows`."""
    lines = text.split("\n")
    decl = [ln.split(" ") for ln in lines if ln.startswith("$var ")]
    if len(decl) != len(signals):
        return f"{len(decl)} $var lines for {len(signals)} signals"
    idents = []
    for fields, (name, typ) in zip(decl, signals):
        if len(fields) != 6 or fields[4] != name:
            return f"bad $var line for {name}"
        ident = fields[3]
        if not ident or not all(33 <= ord(ch) <= 126 for ch in ident):
            return f"identifier {ident!r} for {name} {NOT_PRINTABLE}"
        if fields[2] != ("2" if typ == Q else "1"):
            return f"bad width for {name}"
        idents.append(ident)
    if len(set(idents)) != len(idents):
        return "identifiers repeat"
    slot = {ident: k for k, ident in enumerate(idents)}
    state: list[int | None] = [None] * len(signals)
    changes: dict[int, list[str]] = {}
    current = None
    for ln in lines[lines.index("$enddefinitions $end") + 1:]:
        if ln.startswith("#"):
            current = changes.setdefault(int(ln[1:]), [])
        elif ln and ln not in ("$dumpvars", "$end"):
            current.append(ln)
    for i, row in enumerate(rows):
        for ch in changes.get(i * step, ()):
            if ch.startswith("b"):
                bits, ident = ch[1:].split(" ")
                state[slot[ident]] = int(bits, 2)
            else:
                state[slot[ch[1:]]] = int(ch[0])
        if tuple(state) != tuple(row):
            return f"replay differs at row {i}"
    return None
