"""Input grammars and canonical serialization.

Two ideal forms: a comma/newline-separated list of monomials like
``x1^2*x3``, or a JSON array of exponent vectors.  Two graph forms: JSON
``{"n": 4, "edges": [[1,2], ...]}`` or a line format with a ``p <n> <m>``
header followed by ``u v`` edge lines.  Parse errors carry positions.
"""

import json

from .errors import ParseError, ResourceCapError, effective_cap
from .ideals import MonomialIdeal
from .lattice import PointSet


def _is_int(x):
    """A JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_monomial(text, line, col0):
    """One monomial `x1^2*x3` -> dict var->exp.  col0 is the offset of
    text within its line, for error positions."""
    exps = {}
    pos = 0
    n = len(text)

    def fail(msg, at):
        raise ParseError(msg, line=line, col=col0 + at + 1)

    def number(what, below_one):
        """The ASCII digits at pos as an int >= 1; str.isdigit would also
        accept digits such as "²" that int() refuses."""
        nonlocal pos
        start = pos
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            fail(f"expected {what}", pos)
        try:
            value = int(text[start:pos])
        except ValueError:  # int() refuses more than 4300 digits
            fail("number too long", start)
        if value < 1:
            fail(below_one, start)
        return value

    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            fail("expected a variable like x1", pos)
        if text[pos] != "x":
            fail(f"expected 'x', found {text[pos]!r}", pos)
        pos += 1
        var = number("a variable index after 'x'", "variable indices start at 1")
        exp = 1
        if pos < n and text[pos] == "^":
            pos += 1
            exp = number("an exponent after '^'", "exponents must be >= 1")
        exps[var] = exps.get(var, 0) + exp
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            return exps
        if text[pos] != "*":
            fail(f"expected '*' or end of monomial, found {text[pos]!r}", pos)
        pos += 1


def parse_ideal(text: str, cap=None) -> MonomialIdeal:
    """Parse an ideal in either supported form.  The ambient dimension is
    the largest variable index (string form) or the vector length (JSON
    form).  Non-minimal generator lists are rejected.  The string form
    refuses more than 8 * cap dense vector entries before building any."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty input", line=1, col=1)
    if stripped[0] == "[":
        return _ideal_from_json(stripped)
    items = []  # (monomial text, line, col)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        pieces = raw.split(",")
        col = 0
        for idx, piece in enumerate(pieces):
            body = piece.strip()
            if body:
                items.append((body, lineno, col + piece.index(body[0])))
            elif idx < len(pieces) - 1:  # trailing comma is tolerated
                raise ParseError(
                    "empty generator between commas", line=lineno, col=col + len(piece) + 1
                )
            col += len(piece) + 1
    if not items:
        raise ParseError("no generators found", line=1, col=1)
    parsed = [_parse_monomial(body, line, col) for body, line, col in items]
    dim = max(max(e) for e in parsed)
    entries, cap = len(parsed) * dim, effective_cap(cap)
    if entries > 8 * cap:
        raise ResourceCapError(f"{entries} exponent entries in {dim} variables", cap)
    vectors = [
        tuple(e.get(i, 0) for i in range(1, dim + 1)) for e in parsed
    ]
    return _build_ideal(vectors, dim)


def _load_json(stripped):
    try:
        return json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, col=exc.colno)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply")
    except ValueError:  # an integer literal of more than 4300 digits
        raise ParseError("invalid JSON: number too long")


def _ideal_from_json(stripped):
    data = _load_json(stripped)
    if not isinstance(data, list) or not data:
        raise ParseError("expected a non-empty JSON array of exponent vectors")
    vectors = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not all(
            _is_int(x) and x >= 0 for x in row
        ):
            raise ParseError(
                f"exponent vector #{i + 1} must be a list of nonnegative integers"
            )
        vectors.append(tuple(row))
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ParseError("exponent vectors have mixed lengths")
    return _build_ideal(vectors, dims.pop())


def _build_ideal(vectors, dim):
    if len(set(vectors)) != len(vectors):
        raise ParseError("duplicate generator in input")
    try:
        return MonomialIdeal(dim, PointSet(dim, frozenset(vectors)))
    except ValueError as exc:
        raise ParseError(str(exc))


def parse_graph(text: str) -> "SimpleGraph":
    """Parse a graph in either supported form, rejecting loops, duplicate
    edges, and out-of-range vertices."""
    from .graphs import SimpleGraph

    stripped = text.strip()
    if not stripped:
        raise ParseError("empty input", line=1, col=1)
    if stripped[0] == "{":
        return SimpleGraph(*_graph_from_json(stripped))
    return SimpleGraph(*_graph_from_lines(text))


def _check_edges(n, raw_edges, positions=None):
    seen = set()
    edges = []
    for i, (u, v) in enumerate(raw_edges):
        where = positions[i] if positions else {}
        if u == v:
            raise ParseError(f"loop at vertex {u}", **where)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge ({u}, {v}) out of range 1..{n}", **where)
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ParseError(f"duplicate edge ({e[0]}, {e[1]})", **where)
        seen.add(e)
        edges.append(e)
    return frozenset(edges)


def _graph_from_json(stripped):
    data = _load_json(stripped)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ParseError('expected an object {"n": ..., "edges": [...]}')
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ParseError('"n" must be a positive integer')
    raw = data["edges"]
    if not isinstance(raw, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)
        for e in raw
    ):
        raise ParseError('"edges" must be a list of [u, v] integer pairs')
    return n, _check_edges(n, [tuple(e) for e in raw])


def _graph_from_lines(text):
    lines = text.splitlines()
    header = None
    edge_lines = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.strip()
        if not body:
            continue
        if header is None:
            parts = body.split()
            if len(parts) != 3 or parts[0] != "p":
                raise ParseError("expected header 'p <n> <m>'", line=lineno, col=1)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("header counts must be integers", line=lineno, col=3)
            if n < 1 or m < 0:
                raise ParseError("header counts out of range", line=lineno, col=3)
            header = (n, m)
        else:
            parts = body.split()
            if len(parts) != 2:
                raise ParseError("expected an edge line 'u v'", line=lineno, col=1)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("edge endpoints must be integers", line=lineno, col=1)
            edge_lines.append(((u, v), {"line": lineno, "col": 1}))
    if header is None:
        raise ParseError("missing 'p <n> <m>' header", line=1, col=1)
    n, m = header
    if len(edge_lines) != m:
        raise ParseError(
            f"header promises {m} edges but {len(edge_lines)} were given",
            line=len(lines),
            col=1,
        )
    return n, _check_edges(n, [e for e, _ in edge_lines], [w for _, w in edge_lines])


def monomial_to_string(vector) -> str:
    """Exponent vector back to `x1^2*x3` form."""
    parts = []
    for i, e in enumerate(vector, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def graph_to_dict(g: "SimpleGraph") -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def dump_json(obj) -> str:
    """Canonical JSON: two-space indent, insertion-ordered keys, newline-
    terminated, ASCII-safe."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"
